"""Serialization of density curves and quantile tables.

Every float is written with shortest round-trip formatting, so a parsed
artifact reconstructs bit-identical doubles; files are written atomically
(temp file in the same directory, then rename, with the mode a plain open
would give).  A density artifact's floats, headers included, are spelled by
orjson, whose Ryu conversion (Adams, PLDI 2018) finds the same shortest digits
as `repr` in C, several times faster; its JSON is one line with compact
separators.  Quantile tables hold a few rows and a log10 column that can be
-inf, which JSON has no literal for, so they keep `repr` and json.dumps.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import tempfile
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

# The solve counters, in header order: SolveStats declares each once.
_STAT_KEYS = tuple(field.name for field in dataclasses.fields(SolveStats))

# mkstemp creates its file with mode 0600; an artifact gets what open() would
# give it, 0666 less the umask.  Reading the umask means setting it, so read it
# once here rather than on every write.
_UMASK = os.umask(0)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK

# orjson writes a C-contiguous float64 array straight from its buffer, with no
# Python float per element.
_NUMPY = orjson.OPT_SERIALIZE_NUMPY


def write_text(text: str, path: Optional[str] = None) -> None:
    """Write to path atomically, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        os.fchmod(fd, _FILE_MODE)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _stat_items(stats: Optional[SolveStats]) -> list:
    if stats is None:
        return []
    return [(key, getattr(stats, key)) for key in _STAT_KEYS]


def _csv_rows(xs: np.ndarray, rhos: np.ndarray) -> str:
    """The lines "x,rho" of two float columns, without a final newline."""
    # The (n, 2) stack dumps as [[x,rho],[x,rho],...] in one C pass, and the
    # brackets between pairs become line breaks; decoding through a memoryview
    # drops the outer brackets without copying the bytes once more.
    pairs = orjson.dumps(np.column_stack((xs, rhos)), option=_NUMPY).replace(b"],[", b"\n")
    return str(memoryview(pairs)[2:-2], "ascii")


def render_density(curve: DensityCurve, fmt: str = "csv") -> str:
    if fmt == "json":
        doc = {
            "y": curve.y,
            "total_mass": curve.total_mass,
            "atom_lower_bound": curve.atom_lower_bound,
            "stats": dict(_stat_items(curve.stats)) or None,
            "x": np.ascontiguousarray(curve.xs),
            "rho": np.ascontiguousarray(curve.rhos),
        }
        return orjson.dumps(doc, option=_NUMPY | orjson.OPT_APPEND_NEWLINE).decode()
    header = [
        ("y", curve.y),
        ("total_mass", curve.total_mass),
        ("atom_lower_bound", curve.atom_lower_bound),
        *_stat_items(curve.stats),
    ]
    lines = [f"# {key}: {orjson.dumps(value).decode()}" for key, value in header]
    lines += ["x,rho", _csv_rows(curve.xs, curve.rhos), ""]
    return "\n".join(lines)


def render_quantiles(table: QuantileTable, fmt: str = "csv") -> str:
    logs = [math.log10(v) if v > 0 else -math.inf for v in table.values]
    if fmt == "json":
        doc = {
            "atom_lower_bound": table.atom_lower_bound,
            "total_mass": table.total_mass,
            "probs": list(table.probs),
            "values": list(table.values),
            "log10_values": logs,
        }
        return json.dumps(doc) + "\n"
    lines = [
        f"# atom_lower_bound: {table.atom_lower_bound!r}",
        f"# total_mass: {table.total_mass!r}",
        "prob,value,log10_value",
    ]
    lines.extend(
        f"{p!r},{v!r},{lg!r}" for p, v, lg in zip(table.probs, table.values, logs)
    )
    return "\n".join(lines) + "\n"


def write_density(curve: DensityCurve, path: Optional[str] = None, fmt: str = "csv") -> None:
    write_text(render_density(curve, fmt), path)


def write_quantiles(table: QuantileTable, path: Optional[str] = None, fmt: str = "csv") -> None:
    write_text(render_quantiles(table, fmt), path)


def _split_artifact(text: str) -> tuple[dict, list]:
    meta: dict = {}
    rows: list = []
    header_seen = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif not header_seen:
            header_seen = True
        else:
            rows.append(line.split(","))
    return meta, rows


def _stats_from_meta(meta: dict) -> Optional[SolveStats]:
    # Files written before the certificate counters existed lack them; those
    # read as 0.  A key that is not a counter is ignored, so a counter can
    # leave SolveStats without making older files unreadable.
    present = {key: int(meta[key]) for key in _STAT_KEYS if key in meta}
    return SolveStats(**present) if present else None


def read_density(path: str) -> DensityCurve:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return DensityCurve(
            xs=np.array(doc["x"], dtype=float),
            rhos=np.array(doc["rho"], dtype=float),
            y=float(doc["y"]),
            total_mass=float(doc["total_mass"]),
            atom_lower_bound=float(doc["atom_lower_bound"]),
            stats=_stats_from_meta(doc.get("stats") or {}),
        )
    meta, rows = _split_artifact(text)
    xs = np.array([float(row[0]) for row in rows])
    rhos = np.array([float(row[1]) for row in rows])
    return DensityCurve(
        xs=xs,
        rhos=rhos,
        y=float(meta["y"]),
        total_mass=float(meta["total_mass"]),
        atom_lower_bound=float(meta["atom_lower_bound"]),
        stats=_stats_from_meta(meta),
    )


def read_quantiles(path: str) -> QuantileTable:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        doc = json.loads(text)
        return QuantileTable(
            probs=tuple(float(p) for p in doc["probs"]),
            values=tuple(float(v) for v in doc["values"]),
            atom_lower_bound=float(doc["atom_lower_bound"]),
            total_mass=float(doc["total_mass"]),
        )
    meta, rows = _split_artifact(text)
    return QuantileTable(
        probs=tuple(float(row[0]) for row in rows),
        values=tuple(float(row[1]) for row in rows),
        atom_lower_bound=float(meta["atom_lower_bound"]),
        total_mass=float(meta["total_mass"]),
    )
