"""End-to-end command surface: configs in, artifacts and exit codes out."""

import json
import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from freespectra import cli, network_model, quantiles
from freespectra.artifacts import read_density, read_quantiles

MP1 = {"network": {"layers": [{"nonlinearity": "linear", "sigma_w_sq": 1.0}]}}
RELU4 = {
    "network": {
        "layers": [{"nonlinearity": "relu", "sigma_w_sq": 2.0} for _ in range(4)]
    }
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def mp_cdf(t):
    u = math.sqrt(t)
    return (u * math.sqrt(4 - u * u) / 2 + 2 * math.asin(u / 2)) / math.pi


# -------------------------------------------------------------------- density


def test_density_mp_row_nearest_two(tmp_path):
    payload = dict(MP1)
    payload["grid"] = {"x_min": 0.02, "x_max": 4.0, "points": 200, "log_spaced": False}
    config = write_config(tmp_path, "mp.json", payload)
    out = tmp_path / "density.csv"
    assert cli.main(["density", "--config", config, "--out", str(out)]) == 0
    curve = read_density(str(out))
    assert curve.xs.size == 200
    row = int(np.argmin(np.abs(curve.xs - 2.0)))
    assert abs(curve.rhos[row] - 0.159155) <= 1e-4
    text = out.read_text()
    for key in ("# y:", "# total_mass:", "# atom_lower_bound:", "# newton_iterations:", "# basins:"):
        assert key in text


def test_density_of_a_1100_layer_net(tmp_path):
    # the master equation's overall scale 2^1100 is not a double; the solve
    # only reads the factors
    payload = {
        "network": {
            "layers": [{"nonlinearity": "relu", "sigma_w_sq": 2.0} for _ in range(1100)]
        },
        "grid": {"points": 200},
    }
    config = write_config(tmp_path, "relu1100.json", payload)
    out = tmp_path / "relu1100.csv"
    assert cli.main(["density", "--config", config, "--out", str(out)]) == 0
    curve = read_density(str(out))
    assert curve.xs.size == 200
    assert np.all(np.isfinite(curve.rhos)) and np.all(curve.rhos >= 0.0)


def test_density_rejects_nonpositive_y(tmp_path, capsys):
    payload = dict(MP1)
    payload["y"] = -1.0
    config = write_config(tmp_path, "bad_y.json", payload)
    assert cli.main(["density", "--config", config]) == 2
    assert "y must be positive" in capsys.readouterr().err


def test_density_rejects_nan_y_from_the_command_line(tmp_path, capsys):
    config = write_config(tmp_path, "mp.json", MP1)
    assert cli.main(["density", "--config", config, "--y", "nan"]) == 2
    assert capsys.readouterr().err == "error: config: y: y must be positive and finite, got nan\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('"y": NaN', "config: y: y must be positive and finite, got nan"),
        ('"grid": {"x_max": Infinity}', "config: grid.x_max: must be positive and finite, got inf"),
        (
            '"grid": {"x_min": -Infinity}',
            "config: grid.x_min: must be positive and finite, got -inf",
        ),
    ],
)
def test_density_rejects_non_finite_json_literals(tmp_path, capsys, text, message):
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(MP1)[:-1] + ", " + text + "}")
    assert cli.main(["density", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_density_relu4_nonnegative(tmp_path):
    config = write_config(tmp_path, "relu4.json", RELU4)
    out = tmp_path / "relu4.csv"
    assert cli.main(["density", "--config", config, "--out", str(out)]) == 0
    curve = read_density(str(out))
    assert curve.xs.size == 200
    assert np.all(curve.rhos >= 0)
    assert curve.atom_lower_bound == 0.5


def test_density_points_override(tmp_path):
    config = write_config(tmp_path, "mp.json", MP1)
    out = tmp_path / "small.csv"
    assert cli.main(["density", "--config", config, "--out", str(out), "--points", "50"]) == 0
    assert read_density(str(out)).xs.size == 50


# ------------------------------------------------------------------ quantiles


def test_quantiles_synthetic_uniform(capsys):
    assert cli.main(["quantiles", "--synthetic", "0", "4"]) == 0
    out = capsys.readouterr().out
    assert "log10_value" in out
    median_row = next(line for line in out.splitlines() if line.startswith("0.5,"))
    _, value, log10 = median_row.split(",")
    assert float(value) == 2.0
    assert float(log10) == pytest.approx(math.log10(2.0), rel=1e-12)


@pytest.mark.parametrize("lo, hi", [("0", "nan"), ("2", "1")])
def test_quantiles_rejects_a_bad_synthetic_pair(capsys, lo, hi):
    assert cli.main(["quantiles", "--synthetic", lo, hi]) == 2
    assert capsys.readouterr().err == (
        f"error: --synthetic: need 0 <= x_lo < x_hi < inf, got [{float(lo)!r}, {float(hi)!r}]\n"
    )


def test_quantiles_mp_median_vs_oracle(tmp_path):
    payload = dict(MP1)
    payload["grid"] = {"x_min": 1e-8, "points": 600}
    payload["y"] = 1e-9
    config = write_config(tmp_path, "mp_fine.json", payload)
    out = tmp_path / "q.csv"
    assert cli.main(["quantiles", "--config", config, "--out", str(out)]) == 0
    table = read_quantiles(str(out))
    median = table.values[list(table.probs).index(0.5)]
    oracle = brentq(lambda t: mp_cdf(t) - 0.5, 1e-9, 4 - 1e-9, xtol=1e-12)
    assert abs(median - oracle) <= 1e-3


def test_quantiles_rejects_probs_outside_unit_interval(tmp_path, capsys):
    payload = dict(MP1)
    payload["probs"] = [0.0, 0.5]
    config = write_config(tmp_path, "bad_probs.json", payload)
    assert cli.main(["quantiles", "--config", config]) == 2
    assert "probs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["density", "quantiles"])
def test_a_solve_summarizes_the_net_once(tmp_path, monkeypatch, command):
    # the window and the solve both read the one master equation a run builds
    calls = []
    original = network_model.summarize

    def counting(spec):
        calls.append(spec)
        return original(spec)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "freespectra" and getattr(module, "summarize", None) is original:
            monkeypatch.setattr(module, "summarize", counting)
    payload = {"network": {"layers": [{"nonlinearity": "relu", "sigma_w_sq": 2.0}] * 64}}
    config = write_config(tmp_path, "relu64.json", payload)
    assert cli.main([command, "--config", config, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == 1


# ------------------------------------------------------------------- validate


def test_validate_mp_passes(tmp_path, capsys):
    payload = dict(MP1)
    payload["mc"] = {"n0": 1000, "seed": 42}
    config = write_config(tmp_path, "mp_mc.json", payload)
    assert cli.main(["validate", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "ks_distance" in out and "pass" in out


def test_validate_relu4_passes(tmp_path, capsys):
    payload = dict(RELU4)
    payload["mc"] = {"n0": 1000, "seed": 0}
    config = write_config(tmp_path, "relu4_mc.json", payload)
    assert cli.main(["validate", "--config", config]) == 0
    assert "pass" in capsys.readouterr().out


def test_validate_requires_mc(tmp_path, capsys):
    payload = dict(MP1)
    payload["mc"] = {"enabled": False}
    config = write_config(tmp_path, "mc_off.json", payload)
    assert cli.main(["validate", "--config", config]) == 2
    assert "validation requires mc.enabled" in capsys.readouterr().err


def test_validate_seed_override(tmp_path, capsys):
    payload = dict(MP1)
    payload["mc"] = {"n0": 500, "seed": 42}
    config = write_config(tmp_path, "mp_mc.json", payload)
    distances = []
    for seed in ("3", "4"):
        assert cli.main(["validate", "--config", config, "--seed", seed]) == 0
        report = capsys.readouterr().out
        line = next(l for l in report.splitlines() if l.startswith("ks_distance"))
        distances.append(float(line.split(":")[1]))
    assert distances[0] != distances[1]


# ---------------------------------------------------------------------- bench


def test_bench_emits_three_positive_rows(tmp_path, capsys):
    payload = dict(MP1)
    payload["grid"] = {"points": 40}
    payload["mc"] = {"n0": 200, "seed": 0}
    config = write_config(tmp_path, "mp_bench.json", payload)
    assert cli.main(["bench", "--config", config]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l and not l.startswith("method")]
    methods = {l.split(",")[0] for l in lines}
    assert methods == {"lilypads_grid", "all_roots_grid", "monte_carlo"}
    for line in lines:
        fields = line.split(",")
        assert float(fields[1]) > 0  # wall_ms
        assert int(fields[5]) == 2  # degree = depth + 1


def test_bench_newton_count_sublinear_in_points(tmp_path, capsys):
    counts = {}
    for points in (60, 120):
        payload = dict(MP1)
        payload["grid"] = {"points": points}
        payload["mc"] = {"enabled": False}
        config = write_config(tmp_path, f"mp_{points}.json", payload)
        assert cli.main(["bench", "--config", config]) == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("lilypads_grid"))
        counts[points] = int(row.split(",")[3])
    assert counts[120] < 2 * counts[60]


def test_bench_degree_tracks_depth(tmp_path, capsys):
    degrees = {}
    for depth in (2, 8):
        payload = {
            "network": {
                "layers": [{"nonlinearity": "linear", "sigma_w_sq": 1.0}] * depth
            },
            # keep the window clear of the x -> 0 divergence so a coarse
            # trapezoid pass still integrates to a sane mass
            "grid": {"points": 48, "x_min": 0.05},
            "mc": {"enabled": False},
        }
        config = write_config(tmp_path, f"lin_{depth}.json", payload)
        assert cli.main(["bench", "--config", config]) == 0
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("lilypads_grid"))
        degrees[depth] = int(row.split(",")[5])
    assert degrees[2] == 3 and degrees[8] == 9


# ------------------------------------------------------------------ artifacts


def test_round_trip_reproduces_quantiles_bitwise(tmp_path):
    payload = dict(RELU4)
    payload["grid"] = {"points": 120}
    config = write_config(tmp_path, "relu4.json", payload)
    dens_path = tmp_path / "d.csv"
    quant_path = tmp_path / "q.csv"
    assert cli.main(["density", "--config", config, "--out", str(dens_path)]) == 0
    assert cli.main(["quantiles", "--config", config, "--out", str(quant_path)]) == 0
    curve = read_density(str(dens_path))
    table = read_quantiles(str(quant_path))
    recomputed = quantiles(curve, np.asarray(table.probs))
    assert np.array_equal(np.asarray(recomputed.values), np.asarray(table.values))


def test_json_format_round_trip(tmp_path):
    payload = dict(MP1)
    payload["grid"] = {"points": 60}
    payload["output"] = {"format": "json"}
    config = write_config(tmp_path, "mp_json.json", payload)
    json_path = tmp_path / "d.json"
    assert cli.main(["density", "--config", config, "--out", str(json_path)]) == 0
    from_json = read_density(str(json_path))

    payload["output"] = {"format": "csv"}
    config_csv = write_config(tmp_path, "mp_csv.json", payload)
    csv_path = tmp_path / "d.csv"
    assert cli.main(["density", "--config", config_csv, "--out", str(csv_path)]) == 0
    from_csv = read_density(str(csv_path))
    assert np.array_equal(from_json.xs, from_csv.xs)
    assert np.array_equal(from_json.rhos, from_csv.rhos)
    assert from_json.total_mass == from_csv.total_mass


# ----------------------------------------------------------------- config errs


def test_unknown_field_is_named(tmp_path, capsys):
    payload = {"network": {"layers": [{"nonlinearity": "relu", "sigma_w_sq": 2.0, "foo": 1}]}}
    config = write_config(tmp_path, "unknown.json", payload)
    assert cli.main(["density", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "network.layers[0].foo" in err


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"network": {,}}')
    assert cli.main(["density", "--config", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_network_section(tmp_path, capsys):
    config = write_config(tmp_path, "empty.json", {"y": 1e-6})
    assert cli.main(["density", "--config", config]) == 2
    assert "network" in capsys.readouterr().err


def test_unwritable_out_path_fails_cleanly(tmp_path):
    config = write_config(tmp_path, "mp.json", MP1)
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert cli.main(["density", "--config", config, "--out", str(missing_dir)]) == 1
