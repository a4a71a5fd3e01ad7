"""End-to-end command surface: configs in, artifacts and exit codes out."""

import dataclasses
import json
import math
import os
import stat
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from freespectra import (
    atom_lower_bound,
    cdf,
    cli,
    ks_distance,
    master_from_spec,
    monte_carlo_spectrum,
    network_model,
    quantiles,
)
from freespectra.artifacts import read_density, read_quantiles
from freespectra.solver import SolveStats, SolverError

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
    payload["grid"] = {"x_min": 0.02, "x_max": 4.0, "points": 200}
    config = write_config(tmp_path, "mp.json", payload)
    out = tmp_path / "density.csv"
    assert cli.main(["density", "--config", config, "--out", str(out)]) == 0
    curve = read_density(str(out))
    assert curve.xs.size == 200
    # the log grid has no row at 2; compare with the MP density at the row's own x
    row = int(np.argmin(np.abs(curve.xs - 2.0)))
    x = curve.xs[row]
    mp = math.sqrt(x * (4.0 - x)) / (2.0 * math.pi * x)
    assert abs(curve.rhos[row] - mp) <= 1e-4
    text = out.read_text()
    for key in ("# y:", "# total_mass:", "# atom_lower_bound:", "# newton_iterations:", "# basins:"):
        assert key in text


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_total_mass_header_is_the_trapezoid_mass_of_its_rows(tmp_path, fmt):
    payload = {**RELU4, "grid": {"points": 150}, "output": {"format": fmt}}
    config = write_config(tmp_path, f"relu4_{fmt}.json", payload)
    out = tmp_path / f"density.{fmt}"
    assert cli.main(["density", "--config", config, "--out", str(out)]) == 0
    text = out.read_text()
    if fmt == "json":
        doc = json.loads(text)
        header, xs, rhos = doc["total_mass"], np.array(doc["x"]), np.array(doc["rho"])
    else:
        lines = text.splitlines()
        header = float(next(line for line in lines if line.startswith("# total_mass:"))[13:])
        rows = lines[lines.index("x,rho") + 1:]
        xs, rhos = np.array([[float(v) for v in row.split(",")] for row in rows]).T
    assert header == float(np.sum(np.diff(xs) * (rhos[1:] + rhos[:-1]) / 2.0))


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


@pytest.mark.parametrize(
    "grid, message",
    [
        (
            {"x_min": 1e6},
            "config: grid.x_min: 1000000.0 is not below the automatic upper end 11.0; "
            "set grid.x_max as well",
        ),
        (
            {"x_max": 1e-6},
            "config: grid.x_max: 1e-06 is not above the automatic lower end 0.0001; "
            "set grid.x_min as well",
        ),
    ],
    ids=["x_min", "x_max"],
)
def test_lone_grid_bound_outside_the_automatic_window_is_a_config_error(
    tmp_path, capsys, grid, message
):
    # Marchenko-Pastur's automatic window is [1e-4 m1, m1 + 10 sigma] = [1e-4, 11]
    payload = dict(MP1)
    payload["grid"] = grid
    config = write_config(tmp_path, "lone.json", payload)
    assert cli.main(["density", "--config", config]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_density_relu4_nonnegative(tmp_path):
    config = write_config(tmp_path, "relu4.json", RELU4)
    out = tmp_path / "relu4.csv"
    assert cli.main(["density", "--config", config, "--out", str(out)]) == 0
    curve = read_density(str(out))
    assert curve.xs.size == 200
    assert np.all(curve.rhos >= 0)
    assert curve.atom_lower_bound == 0.5


def exhausted(*args, **kwargs):
    """Stands in for an allocation that fails; a real one of this size can
    end in the OOM killer where memory is overcommitted."""
    raise MemoryError("cannot allocate")


def test_density_on_a_grid_too_large_to_allocate_fails_cleanly(tmp_path, capsys, monkeypatch):
    # 1e11 points of np.logspace need 745 GiB; numpy's MemoryError names
    # them ("Unable to allocate 745. GiB for an array with shape ..."), and
    # the command line reports that message
    monkeypatch.setattr("freespectra.spectrum.np.logspace", exhausted)
    config = write_config(tmp_path, "huge.json", {**MP1, "grid": {"points": 100000000000}})
    out = tmp_path / "huge.csv"
    assert cli.main(["density", "--config", config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: out of memory: cannot allocate\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, site, payload",
    [
        ("validate", "freespectra.oracles._bartlett_factor", {**RELU4, "mc": {"n0": 64}}),
        ("density", "freespectra.spectrum.basin_certificates", MP1),
    ],
    ids=["validate_sample", "density_solve"],
)
def test_out_of_memory_anywhere_exits_1_and_names_it(
    tmp_path, capsys, monkeypatch, command, site, payload
):
    monkeypatch.setattr(site, exhausted)
    config = write_config(tmp_path, "run.json", payload)
    assert cli.main([command, "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: cannot allocate\n"


# ------------------------------------------------------------------ quantiles


def test_quantiles_requires_a_config(capsys):
    # argparse refuses the command line itself, with its usage exit status
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["quantiles"])
    assert exit_info.value.code == 2
    assert "--config" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["density", "quantiles", "validate", "bench"])
@pytest.mark.parametrize(
    "flag", [["--points", "50"], ["--y", "1e-3"], ["--seed", "3"]], ids=["points", "y", "seed"]
)
def test_a_run_is_its_config_and_out_path(tmp_path, capsys, command, flag):
    # grid.points, y and mc.seed are set in the config file alone; argparse
    # refuses a flag for them with its usage exit status
    config = write_config(tmp_path, "mp.json", MP1)
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--config", config, *flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    options = [line.split("  ")[1] for line in lines if line.startswith("  -")]
    assert options == ["-h, --help", "--config CONFIG", "--out OUT"]


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


def test_validate_reports_the_zeros_and_the_atom(tmp_path, capsys):
    # zeros: the sample's exact zeros, atom: the master equation's
    # atom_lower_bound; the KS distance compares the zeros' share with the
    # law's CDF at the sample's floor, so it is at least that gap.  Here
    # zeros/n0 = 0.52, the atom 0.5 and F(floor) 0.50043, so the gap to
    # the atom itself, 0.02, exceeds the distance, 0.0196.  F(floor) solved
    # alone and among the sample's values agree to rounding.
    payload = dict(RELU4)
    payload["mc"] = {"n0": 400, "seed": 5}
    config = write_config(tmp_path, "relu4_mc.json", payload)
    assert cli.main(["validate", "--config", config]) == 0
    report = capsys.readouterr().out
    fields = dict(line.split(": ", 1) for line in report.splitlines())
    spec = network_model.NetworkSpec(
        layers=(network_model.LayerSpec(network_model.Nonlinearity.RELU, 2.0),) * 4
    )
    sample = monte_carlo_spectrum(spec, 400, seed=5)
    assert int(fields["zeros"]) == np.count_nonzero(sample.values == 0.0) > 0
    meq = master_from_spec(spec)
    assert float(fields["atom"]) == atom_lower_bound(meq) == 0.5
    at_floor = cdf(meq, [float(fields["floor"])])[0]
    assert abs(int(fields["zeros"]) / 400 - at_floor) <= float(fields["ks_distance"]) + 1e-12


def test_validate_reports_the_counters_of_its_ray_walk(tmp_path, capsys):
    # one line per SolveStats field after the result, each the count of the
    # KS distance's own ray walk, as a direct ks_distance call counts it
    payload = dict(RELU4)
    payload["mc"] = {"n0": 400, "seed": 5}
    config = write_config(tmp_path, "relu4_mc.json", payload)
    assert cli.main(["validate", "--config", config]) == 0
    lines = capsys.readouterr().out.splitlines()
    keys = [line.split(": ", 1)[0] for line in lines]
    names = [field.name for field in dataclasses.fields(SolveStats)]
    assert keys[keys.index("result") + 1 :] == names
    fields = dict(line.split(": ", 1) for line in lines)
    spec = network_model.NetworkSpec(
        layers=(network_model.LayerSpec(network_model.Nonlinearity.RELU, 2.0),) * 4
    )
    stats = SolveStats()
    ks = ks_distance(monte_carlo_spectrum(spec, 400, seed=5), master_from_spec(spec), stats)
    assert float(fields["ks_distance"]) == ks
    assert {name: int(fields[name]) for name in names} == dataclasses.asdict(stats)
    assert stats.certificate_tests > 0 and stats.basins > 0


@pytest.mark.parametrize(
    "nonlinearity, gain, depth, r, zeros, censored",
    [("linear", 1.0, 8, 1000, 54, 54), ("relu", 2.0, 4, 482, 518, 0)],
    ids=["linear_x8", "relu_x4"],
)
def test_validate_reports_the_censored_zeros_and_the_floor(
    tmp_path, capsys, nonlinearity, gain, depth, r, zeros, censored
):
    # the floor r eps lambda_max pins rounding noise among the Gram's r
    # eigenvalues to zero; linear x 8 (r = n0) has no other zeros, and the
    # 518 zeros of ReLU x 4 are the n0 - r exact ones
    layer = {"nonlinearity": nonlinearity, "sigma_w_sq": gain}
    payload = {"network": {"layers": [layer] * depth}, "mc": {"n0": 1000, "seed": 3}}
    cli.main(["validate", "--config", write_config(tmp_path, "mc.json", payload)])
    report = capsys.readouterr().out
    keys = [line.split(": ", 1)[0] for line in report.splitlines()]
    assert keys[keys.index("zeros") :][:3] == ["zeros", "censored", "floor"]
    fields = dict(line.split(": ", 1) for line in report.splitlines())
    assert (int(fields["zeros"]), int(fields["censored"])) == (zeros, censored)
    nl = network_model.Nonlinearity(nonlinearity)
    spec = network_model.NetworkSpec(layers=(network_model.LayerSpec(nl, gain),) * depth)
    sample = monte_carlo_spectrum(spec, 1000, seed=3)
    assert float(fields["floor"]) == sample.floor == r * np.finfo(float).eps * sample.values[-1]
    assert sample.censored == censored


def test_density_names_the_grid_whose_trapezoid_mass_is_refused(tmp_path, capsys):
    # ReLU then linear: 5 and 2 grid points over the default window hold
    # more trapezoid mass than any law, while 3 points pass
    network = {
        "layers": [
            {"nonlinearity": "relu", "sigma_w_sq": 2.0},
            {"nonlinearity": "linear", "sigma_w_sq": 1.0},
        ]
    }

    def density(points):
        payload = {"network": network, "grid": {"points": points}}
        config = write_config(tmp_path, f"coarse_{points}.json", payload)
        return cli.main(["density", "--config", config, "--out", str(tmp_path / "out.csv")])

    for points, mass in ((5, "1.29"), (2, "145.7")):
        assert density(points) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: total_mass {mass}")
        assert f"exceeds 1.02: the trapezoid mass over {points} grid points on [0.0001, " in err
        assert "either the law is wrong or the grid is too coarse" in err
    assert density(3) == 0


@pytest.mark.parametrize(
    "layer, depth",
    [
        ({"nonlinearity": "linear", "sigma_w_sq": 1.0}, 4),
        ({"nonlinearity": "linear", "sigma_w_sq": 1.0}, 16),
        ({"nonlinearity": "relu", "sigma_w_sq": 2.0}, 16),
        ({"nonlinearity": "relu", "sigma_w_sq": 2.0}, 64),
        ({"nonlinearity": "relu", "sigma_w_sq": 1.978}, 1),
        ({"nonlinearity": "relu", "sigma_w_sq": 2.0, "lambda": 1e-8}, 1),
    ],
    ids=["linear_x4", "linear_x16", "relu_x16", "relu_x64", "relu_x1", "relu_1e11_units"],
)
def test_validate_passes_deep_and_wide_nets_at_its_defaults(tmp_path, capsys, layer, depth):
    # against a 400-point grid's trapezoid CDF these read KS 0.1457, a
    # refusal ("grid window misses the bulk"), 0.2660, 0.4180, 0.1546 (at
    # y = 1e-3, whose smoothing spread the atom over the window) and a
    # refusal; the last net's layer is 1e11 units wide at n0 = 1000
    payload = {"network": {"layers": [layer] * depth}, "y": 1e-3 if depth == 1 else 1e-6}
    assert cli.main(["validate", "--config", write_config(tmp_path, "deep.json", payload)]) == 0
    fields = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert fields["result"] == "pass"
    assert float(fields["ks_distance"]) <= 0.02


def test_validate_reads_neither_the_grid_nor_y(tmp_path, capsys):
    # the KS distance compares the sample with the law's exact CDF, so no
    # grid field or y changes the report
    reports = []
    for extra in [
        {},
        {"grid": {"points": 3, "x_min": 5.0, "x_max": 6.0}, "y": 0.5},
    ]:
        payload = dict(RELU4, mc={"n0": 300, "seed": 1}, **extra)
        config = write_config(tmp_path, "relu4_mc.json", payload)
        assert cli.main(["validate", "--config", config]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_validate_requires_mc(tmp_path, capsys):
    payload = dict(MP1)
    payload["mc"] = {"enabled": False}
    config = write_config(tmp_path, "mc_off.json", payload)
    assert cli.main(["validate", "--config", config]) == 2
    assert "validation requires mc.enabled" in capsys.readouterr().err


def test_validate_names_a_layer_too_wide_to_count(tmp_path, capsys):
    # lambda 1e-17 makes layer 1 1e20 units wide at n0 = 1000, more than
    # numpy's binomial counts (2**63 - 1), whose OverflowError the CLI does
    # not catch; the grid and y play no part in validate
    payload = {
        "network": {"layers": [{"nonlinearity": "relu", "sigma_w_sq": 2.0, "lambda": 1e-17}]},
        "grid": {"x_min": 0.99, "x_max": 1.01, "points": 400},
        "y": 1e-3,
        "mc": {"n0": 1000},
    }
    config = write_config(tmp_path, "wide.json", payload)
    assert cli.main(["validate", "--config", config]) == 1
    assert capsys.readouterr().err == (
        "error: layer 1 has 100000000000000000000 units at n0=1000, "
        "more than the 2**63 - 1 a binomial draw counts\n"
    )


def test_validate_seed_override(tmp_path, capsys):
    distances = []
    for seed in (3, 4):
        payload = {**MP1, "mc": {"n0": 500, "seed": seed}}
        config = write_config(tmp_path, f"mp_mc_{seed}.json", payload)
        assert cli.main(["validate", "--config", config]) == 0
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


BENCH_HEADER = "method,wall_ms,points,newton_iterations,basins,degree"


def test_bench_header_and_row_order(tmp_path, capsys):
    payload = dict(MP1)
    payload["grid"] = {"points": 40}
    payload["mc"] = {"n0": 200, "seed": 0}
    config = write_config(tmp_path, "mp_bench.json", payload)
    assert cli.main(["bench", "--config", config]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == BENCH_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["lilypads_grid", "all_roots_grid", "monte_carlo"]
    assert [int(row[2]) for row in rows] == [40, 40, 200]
    assert int(rows[0][3]) > 0 and int(rows[0][4]) > 0
    assert [row[3:5] for row in rows[1:]] == [["0", "0"], ["0", "0"]]


def test_bench_out_without_monte_carlo_writes_two_rows_and_echoes_them(tmp_path, capsys):
    payload = dict(MP1)
    payload["grid"] = {"points": 40}
    payload["mc"] = {"enabled": False}
    config = write_config(tmp_path, "mp_no_mc.json", payload)
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--config", config, "--out", str(out)]) == 0
    echoed = capsys.readouterr().out
    assert out.read_text() == echoed
    lines = echoed.splitlines()
    assert lines[0] == BENCH_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == ["lilypads_grid", "all_roots_grid"]


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


def test_solve_failure_exits_1_and_names_it(tmp_path, capsys, monkeypatch):
    def explode(meq, z_objective, proxy=None, stats=None, certificate=None):
        raise SolverError("step rounds to zero")

    monkeypatch.setattr("freespectra.spectrum.newton_lilypads", explode)
    config = write_config(tmp_path, "mp.json", MP1)
    assert cli.main(["density", "--config", config]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: branch solve failed at x=")
    assert captured.err.endswith(": step rounds to zero\n")


def test_out_onto_a_fifo_exits_1_and_leaves_the_fifo(tmp_path, capsys):
    config = write_config(tmp_path, "mp.json", MP1)
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    assert cli.main(["density", "--config", config, "--out", str(fifo)]) == 1
    err = capsys.readouterr().err
    assert "out.fifo" in err and "omit --out" in err
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_repeated_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(MP1)[:-1] + ', "y": 1e-6, "y": 1e-3}')
    assert cli.main(["density", "--config", str(path)]) == 2
    assert "repeated key 'y'" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    # it exited 1 with the codec's message alone
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(MP1).encode()[:-1] + b', "y": 1e-6} \xff')
    assert cli.main(["density", "--config", str(path)]) == 2
    message = f"error: config: parse error in {path}: 'utf-8' codec can't decode byte 0xff"
    assert capsys.readouterr().err.startswith(message)


def test_grid_log_spaced_is_an_unknown_field(tmp_path, capsys):
    # every grid is log-spaced; the field that chose a linear one is gone
    config = write_config(tmp_path, "linear.json", {**MP1, "grid": {"log_spaced": True}})
    assert cli.main(["density", "--config", config]) == 2
    assert capsys.readouterr().err == "error: config: grid.log_spaced: unknown field\n"


def test_unwritable_out_path_fails_cleanly(tmp_path, capsys):
    config = write_config(tmp_path, "mp.json", MP1)
    missing_dir = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert cli.main(["density", "--config", config, "--out", str(missing_dir)]) == 1
    # the error names the path asked for, not the temp file written first
    err = capsys.readouterr().err
    assert "no/such/dir/x.csv" in err and ".tmp-artifact-" not in err
