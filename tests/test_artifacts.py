"""Serialization: bit-exact round trips and atomic writes."""

import json
import math
import stat

import numpy as np
import pytest

from freespectra import (
    DensityCurve,
    LayerSpec,
    NetworkSpec,
    Nonlinearity,
    QuantileTable,
    SolveStats,
    density_grid,
    master_from_spec,
)
from freespectra.artifacts import (
    read_density,
    read_quantiles,
    render_density,
    render_quantiles,
    write_density,
    write_quantiles,
    write_text,
)


def awkward_curve():
    # values chosen to expose any formatting that is not shortest-round-trip
    xs = np.array([0.1 + 0.2, 1.0 / 3.0, 2.0, 1e300])
    rhos = np.array([1e-300, 0.1, 5e-324, 0.0])
    return DensityCurve(
        xs=xs,
        rhos=rhos,
        y=1e-6,
        total_mass=0.30000000000000004,
        atom_lower_bound=0.5,
        stats=SolveStats(
            newton_iterations=17,
            basins=4,
            doublings=2,
            restarts=1,
            certificate_tests=9,
            rejected_tests=3,
        ),
    )


def test_density_csv_round_trip_is_bit_exact(tmp_path):
    curve = awkward_curve()
    path = tmp_path / "c.csv"
    write_density(curve, str(path))
    back = read_density(str(path))
    assert np.array_equal(back.xs, curve.xs)
    assert np.array_equal(back.rhos, curve.rhos)
    assert back.y == curve.y
    assert back.total_mass == curve.total_mass
    assert back.atom_lower_bound == curve.atom_lower_bound
    assert back.stats == curve.stats


def test_density_json_round_trip_is_bit_exact(tmp_path):
    curve = awkward_curve()
    path = tmp_path / "c.json"
    write_density(curve, str(path), fmt="json")
    back = read_density(str(path))
    assert np.array_equal(back.xs, curve.xs)
    assert np.array_equal(back.rhos, curve.rhos)
    assert back.total_mass == curve.total_mass
    assert back.stats == curve.stats


def test_density_csv_without_certificate_counters_keeps_its_stats(tmp_path):
    # headers written before the certificate counters existed still read back
    text = render_density(awkward_curve())
    old = [line for line in text.splitlines() if "certificate_tests" not in line]
    old = [line for line in old if "rejected_tests" not in line]
    path = tmp_path / "old.csv"
    path.write_text("\n".join(old) + "\n")
    back = read_density(str(path))
    assert back.stats == SolveStats(newton_iterations=17, basins=4, doublings=2, restarts=1)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_lifts_round_trip_and_read_as_zero_when_missing(tmp_path, fmt):
    curve = awkward_curve()
    curve.stats.lifts = 5
    path = tmp_path / f"c.{fmt}"
    write_density(curve, str(path), fmt=fmt)
    assert read_density(str(path)).stats == curve.stats
    # a file written before the lifts counter existed reads it as 0
    if fmt == "json":
        doc = json.loads(path.read_text())
        del doc["stats"]["lifts"]
        path.write_text(json.dumps(doc))
    else:
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines if "lifts" not in line) + "\n")
    curve.stats.lifts = 0
    assert read_density(str(path)).stats == curve.stats


def test_density_json_ignores_keys_that_are_not_counters(tmp_path):
    # as the CSV header does, so a counter can leave SolveStats and its old
    # files still read
    curve = awkward_curve()
    path = tmp_path / "c.json"
    write_density(curve, str(path), fmt="json")
    doc = json.loads(path.read_text())
    doc["stats"]["retired_counter"] = 0
    path.write_text(json.dumps(doc))
    assert read_density(str(path)).stats == curve.stats


def test_density_csv_holding_nan_is_refused(tmp_path):
    path = tmp_path / "nan.csv"
    text = render_density(awkward_curve(), "csv").replace("\n2.0,5e-324\n", "\n2.0,nan\n")
    assert "2.0,nan" in text
    path.write_text(text)
    with pytest.raises(ValueError, match="rhos must be finite, got nan"):
        read_density(str(path))


@pytest.mark.parametrize("row, fields", [("2.0", 1), ("2.0,5e-324,0.5", 3), ("2.0;5e-324", 1)])
def test_density_csv_with_a_malformed_row_is_refused(tmp_path, row, fields):
    # a one-field row used to raise IndexError, and a three-field row was
    # read as its first two fields
    lines = render_density(awkward_curve(), "csv").splitlines()
    number = lines.index("2.0,5e-324") + 1
    lines[number - 1] = row
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    message = f"^line {number}: expected 2 comma-separated fields, got {fields}$"
    with pytest.raises(ValueError, match=message):
        read_density(str(path))


def test_quantiles_csv_with_a_malformed_row_is_refused(tmp_path):
    table = QuantileTable(probs=(0.1, 0.5), values=(1.0, 2.0), atom_lower_bound=0.0, total_mass=1.0)
    lines = render_quantiles(table).splitlines()
    lines[-1] = "0.5,2.0"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"^line {len(lines)}: expected 3 comma-separated fields, got 2$"):
        read_quantiles(str(path))


def test_csv_reader_skips_blank_lines(tmp_path):
    curve = awkward_curve()
    path = tmp_path / "blank.csv"
    path.write_text(render_density(curve, "csv").replace("\n2.0,", "\n\n  \n2.0,") + "\n\n")
    back = read_density(str(path))
    assert np.array_equal(back.xs, curve.xs)
    assert np.array_equal(back.rhos, curve.rhos)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("field", ["y", "atom_lower_bound"])
def test_density_artifact_holding_a_nan_y_or_atom_is_refused(tmp_path, fmt, field):
    text = render_density(awkward_curve(), fmt)
    # replace the field's value, however the writer spells it, with NaN
    key, end, nan = (f"# {field}:", "\n", " nan") if fmt == "csv" else (f'"{field}":', ",", "NaN")
    assert text.count(key) == 1
    start = text.index(key) + len(key)
    path = tmp_path / f"nan.{fmt}"
    path.write_text(text[:start] + nan + text[text.index(end, start):])
    with pytest.raises(ValueError, match=f"^{field} must .*, got nan$"):
        read_density(str(path))


# Doubles where a shortest round-trip writer changes its spelling or its
# precision: both sides of the switches between fixed and exponent notation,
# the subnormals and the extremes.
_SWITCHES = (1e-5, 1e-4, 1e15, 1e16)
SPECIAL_DOUBLES = (
    0.0,
    5e-324,
    1e-323,
    2.2250738585072009e-308,
    2.2250738585072014e-308,
    1e-300,
    1e300,
    1.7976931348623157e308,
    0.1 + 0.2,
    *_SWITCHES,
    *np.nextafter(_SWITCHES, 0.0).tolist(),
    *np.nextafter(_SWITCHES, math.inf).tolist(),
)


def random_doubles(rng, count):
    """Finite nonnegative doubles from uniform random bit patterns."""
    # one pattern in 2048 is inf or NaN, so twice the draws leave more than enough
    values = rng.integers(0, 2**63, size=2 * count, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)][:count]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_density_round_trips_random_bit_patterns(tmp_path, fmt, seed):
    rng = np.random.default_rng(seed)
    specials = np.array(SPECIAL_DOUBLES)
    subnormals = rng.integers(1, 2**52, size=200, dtype=np.uint64).view(np.float64)
    xs = np.unique(np.concatenate([random_doubles(rng, 3000), specials, subnormals]))
    rhos = rng.permutation(
        np.concatenate([random_doubles(rng, xs.size - specials.size - 1), specials, [-0.0]])
    )
    small = specials[specials <= 1.0]
    curve = DensityCurve(
        xs=xs,
        rhos=rhos,
        y=float(rng.choice(specials)),
        total_mass=float(rng.choice(small)) if seed % 2 else rng.random(),
        atom_lower_bound=rng.random() if seed % 2 else float(rng.choice(small)),
        stats=SolveStats(newton_iterations=seed, basins=2**40),
    )
    path = tmp_path / f"random.{fmt}"
    write_density(curve, str(path), fmt=fmt)
    back = read_density(str(path))
    assert np.array_equal(back.xs.view(np.uint64), xs.view(np.uint64))
    assert np.array_equal(back.rhos.view(np.uint64), rhos.view(np.uint64))
    for field in ("y", "total_mass", "atom_lower_bound"):
        assert math.copysign(1.0, getattr(back, field)) == math.copysign(1.0, getattr(curve, field))
        assert getattr(back, field) == getattr(curve, field)
    assert back.stats == curve.stats
    assert render_density(back, fmt) == path.read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_of_strided_arrays_renders_as_their_copies(fmt):
    # every other element of a longer array: a view that is not contiguous
    curve = awkward_curve()
    wide = np.repeat(np.column_stack((curve.xs, curve.rhos)), 2, axis=0)
    strided = DensityCurve(
        xs=wide[::2, 0],
        rhos=wide[::2, 1],
        y=curve.y,
        total_mass=curve.total_mass,
        atom_lower_bound=curve.atom_lower_bound,
        stats=curve.stats,
    )
    assert not strided.xs.flags.c_contiguous
    assert render_density(strided, fmt) == render_density(curve, fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_with_a_numpy_scalar_y_round_trips(tmp_path, fmt):
    # a numpy y used to reach the header as "np.float64(1e-06)", which the
    # reader refused
    meq = master_from_spec(NetworkSpec((LayerSpec(Nonlinearity.RELU, 2.0),)))
    curve = density_grid(meq, np.linspace(0.5, 3.0, 6), y=np.float64(1e-6))
    assert type(curve.y) is float
    path = tmp_path / f"numpy_y.{fmt}"
    write_density(curve, str(path), fmt=fmt)
    back = read_density(str(path))
    assert back.y == 1e-6
    assert np.array_equal(back.rhos, curve.rhos)
    assert render_density(back, fmt) == path.read_text()


def test_density_json_is_one_line():
    text = render_density(awkward_curve(), "json")
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert json.loads(text)["rho"] == awkward_curve().rhos.tolist()


def test_quantiles_round_trip_and_zero_value_log(tmp_path):
    table = QuantileTable(
        probs=(0.1, 0.5, 0.9),
        values=(0.0, 1.0 / 3.0, 7.25),
        atom_lower_bound=0.25,
        total_mass=0.96,
    )
    text = render_quantiles(table)
    assert "-inf" in text.splitlines()[3]  # log10 of the zero quantile
    path = tmp_path / "q.csv"
    write_quantiles(table, str(path))
    back = read_quantiles(str(path))
    assert tuple(back.probs) == table.probs
    assert tuple(back.values) == table.values
    assert back.atom_lower_bound == table.atom_lower_bound
    assert back.total_mass == table.total_mass


def test_render_density_headers_cover_stats():
    text = render_density(awkward_curve())
    head = [line for line in text.splitlines() if line.startswith("#")]
    keys = {line.split(":")[0][2:] for line in head}
    assert keys == {
        "y",
        "total_mass",
        "atom_lower_bound",
        "newton_iterations",
        "basins",
        "doublings",
        "restarts",
        "certificate_tests",
        "rejected_tests",
        "lifts",
    }


def test_write_text_stdout_when_no_path(capsys):
    write_text("hello artifact\n", None)
    assert capsys.readouterr().out == "hello artifact\n"


def test_write_text_replaces_atomically(tmp_path):
    path = tmp_path / "x.csv"
    write_text("first\n", str(path))
    write_text("second\n", str(path))
    assert path.read_text() == "second\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-artifact-")]
    assert leftovers == []


def test_write_text_gives_the_mode_open_gives(tmp_path):
    # the temp file behind the atomic write is created 0600; the artifact is not
    plain = tmp_path / "plain.csv"
    with open(plain, "w") as handle:
        handle.write("x\n")
    path = tmp_path / "artifact.csv"
    write_text("x\n", str(path))
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_write_text_missing_directory_raises(tmp_path):
    with pytest.raises(OSError):
        write_text("x\n", str(tmp_path / "nope" / "x.csv"))
