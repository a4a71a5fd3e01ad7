"""Serialization of density curves and quantile tables.

An artifact is a header of named scalars and a table of named float columns,
written as CSV ("# key: value" lines, a line of column names, then the rows)
or as one JSON document on one line.  Every float is spelled by orjson, whose
Ryu conversion (Adams, PLDI 2018) finds the same shortest round-trip digits
as `repr`, so a parsed artifact reconstructs bit-identical doubles.  The log10
of a zero quantile is written null in JSON, which is valid JSON, and -inf in
CSV.  Files are written atomically: a new temp file in the same directory,
created as a plain open creates it (mode 0666 less the umask at write time),
then renamed.  A density's total_mass header is written for readers and
recomputed from the rows on read.  Files spelled by `repr` and json.dumps,
as quantile tables once were, read to the same doubles.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import Optional

import numpy as np
import orjson

from .solver import SolveStats
from .spectrum import DensityCurve, QuantileTable

__all__ = [
    "write_text",
    "render_density",
    "render_quantiles",
    "write_density",
    "write_quantiles",
    "read_density",
    "read_quantiles",
]

# The solve counters: SolveStats declares each once.
_STAT_KEYS = tuple(field.name for field in dataclasses.fields(SolveStats))

# orjson writes a C-contiguous float64 array straight from its buffer, with no
# Python float per element.
_NUMPY = orjson.OPT_SERIALIZE_NUMPY


def write_text(text: str, path: Optional[str] = None) -> None:
    """Write to path atomically, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-artifact-{os.urandom(8).hex()}")
    # "x" is O_EXCL: an existing name or link is refused, never written through
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _render(header: dict, columns: dict, title: str, fmt: str) -> str:
    """The artifact text of a header and its float columns.

    columns maps each JSON key to its values; title is the CSV's line of
    column names.  A dict-valued header entry, the solve counters, stays one
    nested object in JSON and gives one CSV header line per entry; a None
    entry gives no CSV line.
    """
    if fmt == "json":
        arrays = {key: np.ascontiguousarray(values, dtype=float) for key, values in columns.items()}
        doc = {**header, **arrays}
        return orjson.dumps(doc, option=_NUMPY | orjson.OPT_APPEND_NEWLINE).decode()
    lines = []
    for key, value in header.items():
        for name, item in value.items() if isinstance(value, dict) else [(key, value)]:
            if item is not None:
                lines.append(f"# {name}: {orjson.dumps(item, option=_NUMPY).decode()}")
    # The (n, k) stack dumps as [[a,b],[a,b],...] in one C pass; the brackets
    # between rows become line breaks, and a memoryview drops the outer ones
    # without another copy.  orjson spells -inf null, the only non-finite float
    # an artifact holds; no other spelling has an "n", and a one-byte search is
    # a memchr, several times faster than a search for "null".
    rows = orjson.dumps(np.column_stack(tuple(columns.values())), option=_NUMPY)
    rows = rows.replace(b"],[", b"\n")
    if b"n" in rows:
        rows = rows.replace(b"null", b"-inf")
    lines += [title, str(memoryview(rows)[2:-2], "ascii"), ""]
    return "\n".join(lines)


def render_density(curve: DensityCurve, fmt: str = "csv") -> str:
    header = {
        "y": curve.y,
        "total_mass": curve.total_mass,
        "atom_lower_bound": curve.atom_lower_bound,
        "stats": None if curve.stats is None else dataclasses.asdict(curve.stats),
    }
    return _render(header, {"x": curve.xs, "rho": curve.rhos}, "x,rho", fmt)


def render_quantiles(table: QuantileTable, fmt: str = "csv") -> str:
    header = {"atom_lower_bound": table.atom_lower_bound, "total_mass": table.total_mass}
    columns = {"probs": table.probs, "values": table.values, "log10_values": table.log10_values}
    return _render(header, columns, "prob,value,log10_value", fmt)


def write_density(curve: DensityCurve, path: Optional[str] = None, fmt: str = "csv") -> None:
    write_text(render_density(curve, fmt), path)


def write_quantiles(table: QuantileTable, path: Optional[str] = None, fmt: str = "csv") -> None:
    write_text(render_quantiles(table, fmt), path)


def _split_artifact(text: str, fields: int) -> tuple[dict, list]:
    """The "# key: value" header and the `fields` float columns of a CSV.

    The header lines precede the column-name line; every nonblank line after
    it is a row of exactly `fields` comma-separated floats, and a row with
    any other count raises a ValueError naming its line.  The rows are split
    in one pass, as one list of tokens, not one list per row, and each column
    is parsed from its slice of it into its own array; float() spells each
    token back into the double it was written from.
    """
    lines = text.splitlines()
    meta: dict = {}
    body = len(lines)
    for number, line in enumerate(lines):
        line = line.strip()
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line:
            body = number + 1
            break
    rows = []
    for number, line in enumerate(lines[body:], start=body + 1):
        if line.count(",") == fields - 1:
            rows.append(line)
        elif line.strip():
            raise ValueError(
                f"line {number}: expected {fields} comma-separated fields, "
                f"got {line.count(',') + 1}"
            )
    tokens = ",".join(rows).split(",") if rows else []
    columns = (tokens[j::fields] for j in range(fields))
    return meta, [np.fromiter(map(float, column), float, len(column)) for column in columns]


def _load(path: str, keys: tuple) -> tuple[dict, list]:
    """The header and the float columns named by keys, from either format.

    A JSON document's "stats" object folds into the header, as its counters
    are header lines in CSV; a CSV's columns are taken in the order of keys.
    json.loads also reads the -Infinity that json.dumps once wrote.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        meta = json.loads(text)
        meta.update(meta.pop("stats", None) or {})
        return meta, [np.array(meta.pop(key), dtype=float) for key in keys]
    return _split_artifact(text, len(keys))


def read_density(path: str) -> DensityCurve:
    meta, (xs, rhos) = _load(path, ("x", "rho"))
    # Files written before the certificate counters existed lack them; those
    # read as 0.  A key that is not a counter is ignored, so a counter can
    # leave SolveStats without making older files unreadable.
    counters = {key: int(meta[key]) for key in _STAT_KEYS if key in meta}
    return DensityCurve(
        xs=xs,
        rhos=rhos,
        y=float(meta["y"]),
        atom_lower_bound=float(meta["atom_lower_bound"]),
        stats=SolveStats(**counters) if counters else None,
    )


def read_quantiles(path: str) -> QuantileTable:
    meta, (probs, values, _) = _load(path, ("probs", "values", "log10_values"))
    return QuantileTable(
        probs=probs,
        values=values,
        atom_lower_bound=float(meta["atom_lower_bound"]),
        total_mass=float(meta["total_mass"]),
    )
