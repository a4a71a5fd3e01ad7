"""Serialization: bit-exact round trips and atomic writes."""

import dataclasses
import json
import math
import os
import re
import stat

import numpy as np
import orjson
import pytest

from freespectra import (
    DensityCurve,
    LayerSpec,
    NetworkSpec,
    Nonlinearity,
    QuantileTable,
    SolveStats,
    artifacts,
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
    values = rng.permutation(
        np.concatenate([random_doubles(rng, xs.size - specials.size - 1), specials, [-0.0]])
    )
    small = specials[specials <= 1.0]
    # total_mass is the rows' trapezoid mass, at most 1.02, so no curve holds
    # arbitrary doubles in both columns: xs carries them under a zero density,
    # and rhos carries them, between zeros, on consecutive subnormals, whose
    # cells are 5e-324 wide
    grid = np.arange(1, 2 * values.size + 1, dtype=np.uint64).view(np.float64)
    rhos = np.zeros(grid.size)
    rhos[::2] = values
    for name, (grid_xs, grid_rhos) in {"xs": (xs, np.zeros(xs.size)), "rhos": (grid, rhos)}.items():
        curve = DensityCurve(
            xs=grid_xs,
            rhos=grid_rhos,
            y=float(rng.choice(specials)),
            atom_lower_bound=rng.random() if seed % 2 else float(rng.choice(small)),
            stats=SolveStats(newton_iterations=seed, basins=2**40),
        )
        path = tmp_path / f"random_{name}.{fmt}"
        write_density(curve, str(path), fmt=fmt)
        back = read_density(str(path))
        assert np.array_equal(back.xs.view(np.uint64), grid_xs.view(np.uint64))
        assert np.array_equal(back.rhos.view(np.uint64), grid_rhos.view(np.uint64))
        for field in ("y", "total_mass", "atom_lower_bound"):
            sign = math.copysign(1.0, getattr(back, field))
            assert sign == math.copysign(1.0, getattr(curve, field))
            assert getattr(back, field) == getattr(curve, field)
        assert back.stats == curve.stats
        assert render_density(back, fmt) == path.read_text()


def nested_csv_rows(columns):
    """The CSV rows as the (n, k) stack dumps nested, brackets between rows as line breaks."""
    rows = orjson.dumps(np.column_stack(columns), option=orjson.OPT_SERIALIZE_NUMPY)
    return rows.replace(b"],[", b"\n").replace(b"null", b"-inf")[2:-2].decode()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_csv_rows_match_the_nested_dump(seed):
    # the rows are dumped as one flat array and every k-th comma becomes a
    # line break; the text is byte for byte the nested dump's
    rng = np.random.default_rng(seed)
    values = rng.permutation(np.concatenate([random_doubles(rng, 4000), SPECIAL_DOUBLES]))
    grid = np.arange(1, 2 * values.size + 1, dtype=np.uint64).view(np.float64)
    rhos = np.zeros(grid.size)
    rhos[::2] = values
    curves = [
        DensityCurve(xs=np.unique(values), rhos=np.zeros(np.unique(values).size), y=1e-6),
        DensityCurve(xs=grid, rhos=rhos, y=1e-6),
    ]
    for curve in curves:
        text = render_density(curve, "csv")
        assert text.endswith("x,rho\n" + nested_csv_rows((curve.xs, curve.rhos)) + "\n")
    # three columns, the last holding -inf wherever a quantile is zero
    for size in (1, 2, 3, 1000):
        probs = np.sort(rng.uniform(0.0, 1.0, size))
        quantile_values = np.where(rng.random(size) < 0.3, 0.0, random_doubles(rng, size))
        table = QuantileTable(
            probs=probs, values=quantile_values, atom_lower_bound=0.25, total_mass=0.75
        )
        columns = (table.probs, table.values, table.log10_values)
        text = render_quantiles(table, "csv")
        assert text.endswith("prob,value,log10_value\n" + nested_csv_rows(columns) + "\n")
        assert ("-inf" in text) == (0.0 in table.values)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_of_strided_arrays_renders_as_their_copies(fmt):
    # every other element of a longer array: a view that is not contiguous
    curve = awkward_curve()
    wide = np.repeat(np.column_stack((curve.xs, curve.rhos)), 2, axis=0)
    strided = DensityCurve(
        xs=wide[::2, 0],
        rhos=wide[::2, 1],
        y=curve.y,
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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_read_columns_are_contiguous(tmp_path, fmt):
    # a CSV's columns were strided views of one (rows, columns) table
    density, table = tmp_path / f"d.{fmt}", tmp_path / f"q.{fmt}"
    write_density(awkward_curve(), str(density), fmt=fmt)
    write_quantiles(zero_quantile_table(), str(table), fmt=fmt)
    back = read_density(str(density))
    assert back.xs.flags.c_contiguous and back.rhos.flags.c_contiguous
    _, columns = artifacts._load(str(table), ("probs", "values", "log10_values"))
    assert all(column.flags.c_contiguous for column in columns)


def test_density_json_is_one_line():
    text = render_density(awkward_curve(), "json")
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert json.loads(text)["rho"] == awkward_curve().rhos.tolist()


def zero_quantile_table():
    return QuantileTable(
        probs=(0.1, 0.5, 0.9),
        values=(0.0, 1.0 / 3.0, 7.25),
        atom_lower_bound=0.25,
        total_mass=0.96,
    )


def test_quantiles_round_trip_and_zero_value_log(tmp_path):
    table = zero_quantile_table()
    text = render_quantiles(table)
    assert "-inf" in text.splitlines()[3]  # log10 of the zero quantile
    path = tmp_path / "q.csv"
    write_quantiles(table, str(path))
    back = read_quantiles(str(path))
    assert tuple(back.probs) == table.probs
    assert tuple(back.values) == table.values
    assert back.atom_lower_bound == table.atom_lower_bound
    assert back.total_mass == table.total_mass


def test_json_artifacts_are_strict_json(tmp_path):
    # RFC 8259 has no -Infinity: the log10 of a zero quantile is written null
    curve, table = awkward_curve(), zero_quantile_table()
    doc = orjson.loads(render_density(curve, "json"))
    assert doc["rho"] == curve.rhos.tolist()
    assert doc["stats"] == dataclasses.asdict(curve.stats)
    text = render_quantiles(table, "json")
    doc = orjson.loads(text)
    assert doc["log10_values"] == [None, math.log10(1.0 / 3.0), math.log10(7.25)]
    path = tmp_path / "q.json"
    path.write_text(text)
    assert read_quantiles(str(path)) == table


def legacy_text(header, columns, title, fmt):
    """An artifact spelled by repr and json.dumps, as files were before orjson."""
    if fmt == "json":
        doc = {**header, **{key: [float(v) for v in values] for key, values in columns.items()}}
        return json.dumps(doc) + "\n"
    flat = {}
    for key, value in header.items():
        flat.update(value if isinstance(value, dict) else {key: value})
    lines = [f"# {key}: {value!r}" for key, value in flat.items()]
    lines.append(title)
    lines += [",".join(repr(float(v)) for v in row) for row in zip(*columns.values())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_artifacts_spelled_by_repr_and_json_dumps_still_read(tmp_path, fmt):
    curve, table = awkward_curve(), zero_quantile_table()
    density = legacy_text(
        {
            "y": curve.y,
            "total_mass": curve.total_mass,
            "atom_lower_bound": curve.atom_lower_bound,
            "stats": dataclasses.asdict(curve.stats),
        },
        {"x": curve.xs, "rho": curve.rhos},
        "x,rho",
        fmt,
    )
    quantile_text = legacy_text(
        {"atom_lower_bound": table.atom_lower_bound, "total_mass": table.total_mass},
        {"probs": table.probs, "values": table.values, "log10_values": table.log10_values},
        "prob,value,log10_value",
        fmt,
    )
    # the spellings orjson does not write
    assert "1e-06" in density and "1e+300" in density
    assert ("-Infinity" if fmt == "json" else ",-inf\n") in quantile_text
    assert (", " in density) == (fmt == "json")
    density_path, quantile_path = tmp_path / f"d.{fmt}", tmp_path / f"q.{fmt}"
    density_path.write_text(density)
    quantile_path.write_text(quantile_text)
    back = read_density(str(density_path))
    assert np.array_equal(back.xs.view(np.uint64), curve.xs.view(np.uint64))
    assert np.array_equal(back.rhos.view(np.uint64), curve.rhos.view(np.uint64))
    assert (back.y, back.total_mass, back.atom_lower_bound) == (
        curve.y,
        curve.total_mass,
        curve.atom_lower_bound,
    )
    assert back.stats == curve.stats
    assert read_quantiles(str(quantile_path)) == table


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"probs": [0.1, 7.0, 0.9]}, "probs must lie strictly inside (0, 1), got 7.0"),
        ({"probs": [0.1, 0.5, 2.0]}, "probs must lie strictly inside (0, 1), got 2.0"),
        ({"values": [math.nan, 1.0, 2.0]}, "values must be finite and nonnegative, got nan"),
        ({"values": [0.0, -3.0, 7.25]}, "values must be finite and nonnegative, got -3.0"),
        ({"values": [0.0, 1.0, math.inf]}, "values must be finite and nonnegative, got inf"),
        ({"values": [0.0, 1.0]}, "probs and values must have equal lengths, got 3 and 2"),
        ({"probs": [], "values": [], "log10_values": []}, "probs must be nonempty"),
        ({"atom_lower_bound": -1.0}, "atom_lower_bound must lie in [0, 1], got -1.0"),
        ({"atom_lower_bound": 2.5}, "atom_lower_bound must lie in [0, 1], got 2.5"),
        ({"total_mass": math.inf}, "total_mass must be finite, got inf"),
        ({"total_mass": math.nan}, "total_mass must be finite, got nan"),
    ],
)
def test_quantile_artifact_with_a_bad_field_is_refused(tmp_path, edits, message):
    doc = json.loads(render_quantiles(zero_quantile_table(), "json"))
    doc.update(edits)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_quantiles(str(path))


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


def test_write_text_applies_the_umask_set_after_import(tmp_path):
    # the mode once came from the umask read at import, so this gave 0644
    old = os.umask(0o077)
    try:
        path = tmp_path / "private.csv"
        write_text("x\n", str(path))
    finally:
        os.umask(old)
    assert stat.S_IMODE(path.stat().st_mode) == 0o600


def test_write_text_onto_a_directory_raises_and_leaves_no_temp_file(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError):
        write_text("x\n", str(tmp_path / "taken"))
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_write_text_refuses_a_temp_name_that_exists(tmp_path, monkeypatch):
    # a link at the temp name is neither written through nor removed
    victim = tmp_path / "victim"
    victim.write_text("keep\n")
    link = tmp_path / f".tmp-artifact-{'00' * 8}"
    link.symlink_to(victim)
    monkeypatch.setattr(os, "urandom", lambda size: bytes(size))
    with pytest.raises(FileExistsError):
        write_text("x\n", str(tmp_path / "artifact.csv"))
    assert victim.read_text() == "keep\n" and link.is_symlink()
    assert not (tmp_path / "artifact.csv").exists()
