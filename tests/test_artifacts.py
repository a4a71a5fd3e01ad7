"""Serialization: bit-exact round trips and atomic writes."""

import json
import math

import numpy as np
import pytest

from freespectra import DensityCurve, QuantileTable, SolveStats
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


def test_write_text_missing_directory_raises(tmp_path):
    with pytest.raises(OSError):
        write_text("x\n", str(tmp_path / "nope" / "x.csv"))
