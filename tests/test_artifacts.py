"""Serialization: bit-exact round trips and atomic writes."""

import dataclasses
import io
import json
import math
import os
import random
import re
import stat
import warnings

import numpy as np
import orjson
import pytest

from _memory import traced_peak
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


def refusal(path, message):
    """The pattern of a reader's refusal of path: its path, then message, exactly."""
    return f"^{re.escape(f'{path}: {message}')}$"


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


@pytest.mark.parametrize(
    "fmt, old, new, message",
    [
        ("csv", "# y: 1e-6\n", "# y: 1e-6\n# y: 0.5\n", "line 2: repeated key 'y'"),
        ("json", '"y":1e-6,', '"y":1e-6,"y":0.5,', "repeated key 'y'"),
        ("json", '"basins":4,', '"basins":4,"basins":5,', "repeated key 'basins'"),
        ("json", '"y":1e-6,', '"y":1e-6,"basins":5,', "repeated key 'basins'"),
    ],
    ids=["csv", "json", "json_stats", "json_stats_and_top"],
)
def test_density_header_with_a_repeated_key_is_refused(tmp_path, fmt, old, new, message):
    # the last of the two values was read, with no error
    text = render_density(awkward_curve(), fmt)
    assert text.count(old) == 1
    path = tmp_path / f"repeated.{fmt}"
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError, match=refusal(path, message)):
        read_density(str(path))


@pytest.mark.parametrize(
    "fmt, old, new, line",
    [
        ("csv", "# y: 1e-6\n", "# y: 1e-6\xff\n", 1),
        ("csv", "# basins: 4\n", "# basins\xff: 4\n", 5),
        ("json", '"y":1e-6,', '"y":1e-6,\n\n"note":"\xff",', 3),
    ],
    ids=["csv_value", "csv_key", "json"],
)
def test_density_with_bytes_that_are_not_utf8_is_refused(tmp_path, fmt, old, new, line):
    # a bare UnicodeDecodeError named neither the file nor the line
    text = render_density(awkward_curve(), fmt)
    assert text.count(old) == 1
    path = tmp_path / f"latin1.{fmt}"
    path.write_bytes(text.replace(old, new).encode("latin-1"))
    message = f"line {line}: b'\\xff' is not UTF-8"
    with pytest.raises(ValueError, match=refusal(path, message)):
        read_density(str(path))


@pytest.mark.parametrize(
    "stats, message",
    [
        (5, "the artifact's stats must be an object, got 5"),
        ([["y", "7"]], "the artifact's stats must be an object, got [['y', '7']]"),
        ("", "the artifact's stats must be an object, got ''"),
    ],
    ids=["number", "pairs", "empty_string"],
)
def test_density_json_with_stats_that_is_not_an_object_is_refused(tmp_path, stats, message):
    # 5 raised a TypeError, and the pairs read as y = 7.0 over the header's 1e-6
    doc = json.loads(render_density(awkward_curve(), "json"))
    doc["stats"] = stats
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=refusal(path, message)):
        read_density(str(path))


def test_density_json_stats_cannot_replace_a_header_value(tmp_path):
    curve = awkward_curve()
    doc = json.loads(render_density(curve, "json"))
    doc["stats"].update(y=7.0, atom_lower_bound=0.0, x=[1.0, 2.0])
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(doc))
    back = read_density(str(path))
    assert (back.y, back.atom_lower_bound, back.stats) == (curve.y, 0.5, curve.stats)
    assert np.array_equal(back.xs, curve.xs)


@pytest.mark.parametrize(
    "key, value",
    [
        ("x", {"a": 1}),
        ("rho", 5),
        ("x", ["0.3", "0.4", "2.0", "3.0"]),
        ("rho", [True, 0.1, 0.0, 0.0]),
        ("x", [[0.3, 0.4], [2.0, 3.0]]),
        ("x", None),
    ],
    ids=["object", "number", "strings", "bool", "nested", "null"],
)
def test_json_column_that_is_not_an_array_of_numbers_is_refused(tmp_path, key, value):
    # an object column raised a TypeError from numpy, and strings read as floats
    doc = json.loads(render_density(awkward_curve(), "json"))
    doc[key] = value
    path = tmp_path / "column.json"
    path.write_text(json.dumps(doc))
    message = f"the artifact's column {key} must be an array of numbers"
    with pytest.raises(ValueError, match=refusal(path, message)):
        read_density(str(path))


def test_density_csv_holding_nan_is_refused(tmp_path):
    path = tmp_path / "nan.csv"
    text = render_density(awkward_curve(), "csv").replace("\n2.0,5e-324\n", "\n2.0,nan\n")
    assert "2.0,nan" in text
    path.write_text(text)
    with pytest.raises(ValueError, match=refusal(path, "rhos must be finite, got nan")):
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
    message = f"line {number}: expected 2 comma-separated fields, got {fields}"
    with pytest.raises(ValueError, match=refusal(path, message)):
        read_density(str(path))


def test_quantiles_csv_with_a_malformed_row_is_refused(tmp_path):
    table = QuantileTable(probs=(0.1, 0.5), values=(1.0, 2.0), atom_lower_bound=0.0, total_mass=1.0)
    lines = render_quantiles(table).splitlines()
    lines[-1] = "0.5,2.0"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    message = f"line {len(lines)}: expected 3 comma-separated fields, got 2"
    with pytest.raises(ValueError, match=refusal(path, message)):
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
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {field} must .*, got nan$"):
        read_density(str(path))


MISSING = object()


def with_header(text, fmt, key, value):
    """An artifact's text with one header value replaced, or dropped when value is MISSING.

    A CSV value is a str, spelled as it is; a JSON value is any JSON value.
    """
    if fmt == "json":
        doc = json.loads(text)
        holder = doc["stats"] if key in doc.get("stats", {}) else doc
        if value is MISSING:
            del holder[key]
        else:
            holder[key] = value
        return json.dumps(doc)
    lines = text.splitlines()
    number = next(i for i, line in enumerate(lines) if line.startswith(f"# {key}:"))
    if value is MISSING:
        del lines[number]
    else:
        lines[number] = f"# {key}: {value}"
    return "\n".join(lines) + "\n"


def artifact_text(kind, fmt):
    if kind == "density":
        return render_density(awkward_curve(), fmt), read_density
    return render_quantiles(zero_quantile_table(), fmt), read_quantiles


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "kind, key",
    [
        ("density", "y"),
        ("density", "atom_lower_bound"),
        ("quantiles", "atom_lower_bound"),
        ("quantiles", "total_mass"),
    ],
)
def test_artifact_without_a_header_key_names_it(tmp_path, fmt, kind, key):
    # a bare KeyError: 'y' did not say that the header lacked it
    text, read = artifact_text(kind, fmt)
    path = tmp_path / f"{kind}.{fmt}"
    path.write_text(with_header(text, fmt, key, MISSING))
    with pytest.raises(ValueError, match=refusal(path, f"the header has no {key}")):
        read(str(path))


@pytest.mark.parametrize("kind", ["density", "quantiles"])
def test_each_refusal_of_a_reader_names_its_file_once(tmp_path, kind):
    # only a byte that is not UTF-8 named the file; "line 2: repeated key 'y'" did not
    text, read = artifact_text(kind, "csv")
    lines = text.splitlines()
    number = next(i for i, line in enumerate(lines) if line.startswith("# atom_lower_bound:")) + 1
    line = lines[number - 1]
    edits = [
        # refused by the reader's _load
        ([line, line], f"line {number + 1}: repeated key 'atom_lower_bound'"),
        ([line + "\xff"], f"line {number}: b'\\xff' is not UTF-8"),
        # refused by the curve or table it builds
        (["# atom_lower_bound: 2.5"], "atom_lower_bound must lie in [0, 1], got 2.5"),
    ]
    path = tmp_path / f"{kind}.csv"
    for replacement, message in edits:
        edited = lines[: number - 1] + replacement + lines[number:]
        path.write_bytes(("\n".join(edited) + "\n").encode("latin-1"))
        with pytest.raises(ValueError, match=refusal(path, message)):
            read(str(path))


def test_json_artifact_nested_past_the_recursion_limit_is_refused(tmp_path):
    # json.loads raised a bare RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"x": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
        read_density(str(path))


@pytest.mark.parametrize(
    "kind, key",
    [
        ("density", "x"),
        ("density", "rho"),
        ("quantiles", "probs"),
        ("quantiles", "values"),
        ("quantiles", "log10_values"),
    ],
)
def test_json_artifact_without_a_column_names_it(tmp_path, kind, key):
    # a bare KeyError: 'rho' escaped the handler of the command line
    text, read = artifact_text(kind, "json")
    path = tmp_path / f"{kind}.json"
    path.write_text(with_header(text, "json", key, MISSING))
    with pytest.raises(ValueError, match=refusal(path, f"the artifact has no column {key}")):
        read(str(path))


@pytest.mark.parametrize(
    "kind, key, parse_as, csv_value, json_value",
    [
        ("density", "y", "float", "abc", "abc"),
        ("density", "y", "float", "", None),
        ("density", "basins", "int", "3.5", 3.5),
        ("density", "lifts", "int", "1e3", True),
        ("quantiles", "total_mass", "float", "0.9.6", [0.96]),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_artifact_with_a_header_value_that_does_not_parse_names_it(
    tmp_path, fmt, kind, key, parse_as, csv_value, json_value
):
    # float() and int() raised without the key, and int() read a JSON 3.5 as 3
    text, read = artifact_text(kind, fmt)
    value = csv_value if fmt == "csv" else json_value
    path = tmp_path / f"{kind}.{fmt}"
    path.write_text(with_header(text, fmt, key, value))
    message = f"{key} must parse as {parse_as}, got {value!r}"
    with pytest.raises(ValueError, match=refusal(path, message)):
        read(str(path))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_density_artifact_with_y_zero_is_refused(tmp_path, fmt):
    # y = 0 once marked a curve built without a solve; no solve writes it
    text, read = artifact_text("density", fmt)
    path = tmp_path / f"zero.{fmt}"
    path.write_text(with_header(text, fmt, "y", "0" if fmt == "csv" else 0.0))
    with pytest.raises(ValueError, match=refusal(path, "y must be positive and finite, got 0.0")):
        read(str(path))


@pytest.mark.parametrize("tail", ["", "\n", "\r\n\n", " \n\t\n"])
def test_csv_of_its_column_names_alone_reads_as_zero_rows(tmp_path, tail):
    # numpy's C reader warns on an empty body and reads it as one column
    lines = render_density(awkward_curve()).splitlines()
    path = tmp_path / "empty.csv"
    path.write_text("\n".join(lines[: lines.index("x,rho") + 1]) + tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, columns = artifacts._load(str(path), ("x", "rho"))
        assert [column.shape for column in columns] == [(0,), (0,)]
        message = "a density curve needs at least two grid points"
        with pytest.raises(ValueError, match=refusal(path, message)):
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
    with pytest.raises(ValueError, match=refusal(path, message)):
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



def test_write_removes_its_temp_file_when_a_chunk_raises(tmp_path):
    # chunks are written as they come, so one can fail with the temp file
    # half written: it is removed, and the target keeps what it held
    path = tmp_path / "artifact.csv"
    path.write_text("old\n")

    def chunks():
        yield b"x,rho\n"
        raise RuntimeError("chunk failed")

    with pytest.raises(RuntimeError, match="^chunk failed$"):
        artifacts._write(chunks(), str(path))
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.csv"]


def test_write_text_refuses_a_fifo_and_leaves_it_a_fifo(tmp_path):
    # renaming over a FIFO would leave its reader with nothing to read
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    with pytest.raises(OSError, match="omit --out to write to stdout") as info:
        write_text("x\n", str(fifo))
    assert info.value.filename == str(fifo)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["out.fifo"]


def test_write_text_refuses_an_empty_path_and_writes_nothing(tmp_path, monkeypatch):
    # "" resolves to the working directory; the temp file was made in its
    # parent, and the rename's error named the temp file
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    with pytest.raises(OSError, match="omit --out to write to stdout") as info:
        write_text("x\n", "")
    assert info.value.filename == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run"]
    assert list(run.iterdir()) == []


def test_write_text_writes_through_a_symlink_into_its_target_directory(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    real = store / "real.csv"
    real.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    write_text("new\n", str(link))
    assert link.is_symlink() and os.readlink(link) == str(real)
    assert real.read_text() == "new\n"
    # a dangling link gets its target made
    dangling = tmp_path / "dangling.csv"
    dangling.symlink_to(store / "made.csv")
    write_text("made\n", str(dangling))
    assert dangling.is_symlink() and (store / "made.csv").read_text() == "made\n"
    leftovers = [p for p in (*tmp_path.iterdir(), *store.iterdir()) if ".tmp-artifact-" in p.name]
    assert leftovers == []

def test_csv_codec_holds_about_one_buffer_per_artifact(tmp_path):
    # the whole text as one str, then its lines, tokens and floats, peaked at
    # 3.4 times the file's size to write and 8.6 times to read
    rng = np.random.default_rng(11)
    xs = np.cumsum(rng.uniform(1e-5, 2e-5, 200_000))
    rhos = rng.uniform(0.0, 1.0, xs.size)
    curve = DensityCurve(
        xs=xs, rhos=rhos / (2.0 * xs[-1]), y=1e-6, stats=SolveStats(basins=xs.size)
    )
    path = tmp_path / "large.csv"
    write_density(curve, str(path))
    size = path.stat().st_size
    assert size > 7_000_000
    assert traced_peak(lambda: write_density(curve, str(path))) < size
    assert traced_peak(lambda: read_density(str(path))) < size
    back = read_density(str(path))
    assert np.array_equal(back.xs, curve.xs) and np.array_equal(back.rhos, curve.rhos)


def test_csv_read_of_a_small_artifact_scans_no_more_than_its_body(tmp_path):
    # a file's read allocates all it asks for, and a 64 kB read of this
    # 400-row file's body took 5.4 times the file's size
    xs = np.linspace(1.0, 2.0, 400)
    curve = DensityCurve(xs=xs, rhos=np.full(xs.size, 1.0 / 3.0), y=1e-6)
    path = tmp_path / "small.csv"
    write_density(curve, str(path))
    size = path.stat().st_size
    assert size < artifacts._SCAN
    assert traced_peak(lambda: read_density(str(path))) < 2 * size


def test_csv_with_crlf_line_ends_reads_bit_identical(tmp_path):
    curve, table = awkward_curve(), zero_quantile_table()
    density, quantile_path = tmp_path / "d.csv", tmp_path / "q.csv"
    density.write_bytes(render_density(curve).replace("\n", "\r\n").encode())
    quantile_path.write_bytes(render_quantiles(table).replace("\n", "\r\n").encode())
    back = read_density(str(density))
    assert np.array_equal(back.xs.view(np.uint64), curve.xs.view(np.uint64))
    assert np.array_equal(back.rhos.view(np.uint64), curve.rhos.view(np.uint64))
    assert back.stats == curve.stats and back.y == curve.y
    assert read_quantiles(str(quantile_path)) == table


@pytest.mark.parametrize("kind", ["density", "quantiles"])
@pytest.mark.parametrize("edit", ["dropped", "reordered"])
def test_csv_without_its_column_names_is_refused(tmp_path, kind, edit):
    # a file that lost its column names once read back without its first row
    if kind == "density":
        text, read, title = render_density(awkward_curve()), read_density, "x,rho"
    else:
        text, read = render_quantiles(zero_quantile_table()), read_quantiles
        title = "prob,value,log10_value"
    lines = text.splitlines()
    number = lines.index(title) + 1
    if edit == "dropped":
        del lines[number - 1]
    else:
        lines[number - 1] = ",".join(reversed(title.split(",")))
    path = tmp_path / f"{kind}.csv"
    path.write_text("\n".join(lines) + "\n")
    message = f"line {number}: expected the column names {title!r}, got {lines[number - 1]!r}"
    with pytest.raises(ValueError, match=refusal(path, message)):
        read(str(path))
    # white space around the names is no other line
    lines.insert(number - 1, f"  {title}\t")
    if edit == "reordered":
        del lines[number]
    path.write_text("\n".join(lines) + "\n")
    read(str(path))


@pytest.mark.parametrize("kind", ["density", "quantiles"])
@pytest.mark.parametrize("kept", ["header", "nothing", "white_space"])
def test_csv_that_ends_before_its_column_names_is_refused(tmp_path, kind, kept):
    # such a file once read as zero rows, or as a missing header value when empty
    if kind == "density":
        text, read, title = render_density(awkward_curve()), read_density, "x,rho"
    else:
        text, read = render_quantiles(zero_quantile_table()), read_quantiles
        title = "prob,value,log10_value"
    lines = text.splitlines()
    kept_text = {
        "header": "\n".join(lines[: lines.index(title)]) + "\n",
        "nothing": "",
        "white_space": " \n\t\r\n\n",
    }[kept]
    path = tmp_path / f"{kind}.csv"
    path.write_text(kept_text)
    message = f"expected the column names {title!r}, got the end of the file"
    with pytest.raises(ValueError, match=refusal(path, message)):
        read(str(path))


@pytest.mark.parametrize(
    "field",["abc", "1_0", "", " ", "0x10", "1 2", "1.0-2.0", "2.0\x00", "2.0\xff"]
)
def test_csv_with_a_field_that_is_not_a_float_names_its_line(tmp_path, field):
    # float() raised without a line number, and it read "1_0" as 10.0
    lines = render_density(awkward_curve(), "csv").splitlines()
    number = lines.index("2.0,5e-324") + 1
    lines[number - 1] = f"2.0,{field}"
    path = tmp_path / "bad.csv"
    # latin-1 writes "\xff" as the one byte, which is not UTF-8
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    quoted = field.encode("latin-1").decode(errors="replace").strip()
    message = f"line {number}: could not convert string to float: {quoted!r}"
    with pytest.raises(ValueError, match=refusal(path, message)):
        read_density(str(path))


@pytest.mark.parametrize("byte", ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0"])
@pytest.mark.parametrize("side", ["front", "back"])
def test_csv_with_a_field_padded_by_unicode_white_space_names_its_line(tmp_path, side, byte):
    # numpy's C reader decodes a body as Latin-1 and strips these bytes from a
    # field as white space, so it read this body, where float() refuses the
    # field and the line reader named it once another row was bad
    lines = render_density(awkward_curve(), "csv").splitlines()
    number = lines.index("2.0,5e-324") + 1
    field = byte + "5e-324" if side == "front" else "5e-324" + byte
    lines[number - 1] = f"2.0,{field}"
    path = tmp_path / "padded.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    quoted = field.encode("latin-1").decode(errors="replace")
    message = f"line {number}: could not convert string to float: {quoted!r}"
    with pytest.raises(ValueError, match=refusal(path, message)):
        read_density(str(path))


_FIELDS = (b"1.5", b"-2e3", b"5e-324", b"nan", b"-inf", b"+4", b"\r", b" ", b"\t", b"", b" 3 ")
_FIELDS += (b"5\r", b"\r6", b"1 2", b"1_0", b"abc", b"1.0-2.0", b"\x00", b"7\x008")
_FIELDS += (b"#", b"2#x", b'"1"', b"1,2\r3,4", b"Infinity", b"1d5", b"1e400", b"\xa0")
_FIELDS += (b"\x0b", b"\x0c")


def random_body(rng):
    """A CSV body of a few lines, most of them two floats, some malformed."""
    lines = []
    for _ in range(rng.randint(1, 5)):
        count = rng.choice((2, 2, 2, 2, 1, 3, 0))
        lines.append(b",".join(rng.choice(_FIELDS[:6] * 6 + _FIELDS) for _ in range(count)))
    body = rng.choice((b"\n", b"\r\n")).join(lines)
    return body + rng.choice((b"", b"\n", b"\r\n", b"\n\n"))


def fieldwise_columns(body, fields, first):
    """The reader's contract, with float() on each field alone and "1_0" refused.

    A row with the wrong number of fields is named before a field that is
    not a float, wherever each is.
    """
    rows = []
    for number, line in enumerate(body.split(b"\n"), start=first):
        tokens = line.split(b",")
        if len(tokens) == fields:
            rows.append((number, [token.strip() for token in tokens]))
        elif line.strip():
            message = f"expected {fields} comma-separated fields, got {len(tokens)}"
            raise ValueError(f"line {number}: {message}")
    values = []
    for number, tokens in rows:
        for token in tokens:
            try:
                if b"_" in token:
                    raise ValueError(token)
                values.append(float(token))
            except ValueError:
                text = token.decode(errors="replace")
                message = f"line {number}: could not convert string to float: {text!r}"
                raise ValueError(message) from None
    table = np.array(values, dtype=float).reshape(-1, fields)
    return [table[:, j] for j in range(fields)]


def parsed(parse, body):
    try:
        return [column.view(np.uint64).tolist() for column in parse(body, 2, 3)]
    except ValueError as exc:
        return str(exc)


def read_body(body, fields, first):
    return artifacts._read_body(io.BytesIO(body), fields, first)


def test_csv_bodies_read_as_each_field_read_alone():
    # numpy's string parser reads a field of white space as -1.0, and its C
    # reader reads "2#x" as 2 unless told there are no comments; both readers
    # must read, or refuse with the same message, every body as float() on
    # each field does
    rng = random.Random(29)
    seen = set()
    for _ in range(4000):
        body = random_body(rng)
        reference = parsed(fieldwise_columns, body)
        assert parsed(read_body, body) == reference, body
        assert parsed(artifacts._parse_rows, body) == reference, body
        seen.add(isinstance(reference, str))
    assert seen == {True, False}


@pytest.mark.parametrize(
    "rows", [1, artifacts._BLOCK - 1, artifacts._BLOCK, 2 * artifacts._BLOCK + 1]
)
def test_csv_blocks_join_as_one_dump(tmp_path, rows):
    # the rows go out one block of _BLOCK at a time, as bytes; the file and
    # the rendered text are the one nested dump
    rng = np.random.default_rng(rows)
    values = np.where(rng.random(rows) < 0.3, 0.0, random_doubles(rng, rows))
    table = QuantileTable(
        probs=np.sort(rng.uniform(0.0, 1.0, rows)),
        values=values,
        atom_lower_bound=0.25,
        total_mass=0.75,
    )
    text = render_quantiles(table, "csv")
    assert text.endswith(
        "prob,value,log10_value\n"
        + nested_csv_rows((table.probs, table.values, table.log10_values))
        + "\n"
    )
    path = tmp_path / "q.csv"
    write_quantiles(table, str(path))
    assert path.read_bytes() == text.encode()
    assert read_quantiles(str(path)) == table
