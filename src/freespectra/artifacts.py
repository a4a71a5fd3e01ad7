"""Serialization of density curves and quantile tables.

An artifact is a header of named scalars and a table of named float columns,
written as CSV ("# key: value" lines, a line of column names, then the rows)
or as one JSON document on one line.  Every float is spelled by orjson, whose
Ryu conversion (Adams, PLDI 2018) finds the same shortest round-trip digits
as `repr`, so a parsed artifact reconstructs bit-identical doubles.  The log10
of a zero quantile is written null in JSON, which is valid JSON, and -inf in
CSV.  Files are written atomically: a new temp file in the same directory,
created as a plain open creates it (mode 0666 less the umask at write time),
then renamed.  A symbolic link is written through, its target replaced in the
target's own directory, and an existing path that is not a regular file (a
FIFO, a device, a directory) is refused, never replaced.  A density's
total_mass header is written for readers and recomputed from the rows on
read.  Files spelled by `repr` and json.dumps, as quantile tables once were,
read to the same doubles.

Both directions hold about one buffer per artifact.  A CSV goes to its file
as bytes while it is rendered: the header, then the rows in blocks of _BLOCK,
each one orjson dump edited in place; a JSON document is orjson's bytes as
they come.  Besides the stack of its columns, a write holds one block of
text at a time: a 200,000-row density writes at a traced peak of half its
file's size.  A file is read in binary: the header one line at a time, then
the body straight from the file by numpy's C reader (np.loadtxt, numpy 1.23
or later), at a traced peak below the file's size.  The line of column
names must be the artifact's own, so a file that lost it does not lose its
first row, and a file that ends before it is refused.  A body that reader
refuses goes to one that splits it line by line, skips lines of white space
and names the line of a row with the wrong number of fields or a field that
is not a float.  So does a body holding a byte that Unicode, but not
bytes.strip, counts as white space when read as Latin-1, which the C reader
would strip from a field; the body is scanned for those bytes in chunks
first.  Line breaks are "\\n" or "\\r\\n".  A header value or a JSON column
that is missing, a header value that does not parse, a repeated header key,
a JSON stats that is not an object and a JSON column that is not an array of
numbers are named, and so is the line of a byte that is not UTF-8 in a CSV
header or a JSON document.  A JSON document nested past the interpreter's
recursion limit is refused like any other that does not parse.  Every
refusal of read_density and read_quantiles, a ValueError, begins with the
file's path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import json
import os
import sys
import warnings
from typing import BinaryIO, Iterable, Iterator, Optional

import numpy as np
import orjson

from .config import _unique_keys
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

# Rows per orjson dump of a CSV body: a few hundred kB of text, so a write
# holds one block of it besides the column stack.
_BLOCK = 4096

# Each artifact's CSV line of column names, by its JSON keys.
_TITLES = {
    ("x", "rho"): b"x,rho",
    ("probs", "values", "log10_values"): b"prob,value,log10_value",
}

_COMMA, _NEWLINE = ord(","), ord("\n")

# The types json.loads gives a JSON number and null, the entries of a column
_NUMBERS = {int, float, type(None)}

# The bytes that loadtxt, which decodes a body as Latin-1, strips from a field
# as white space, and float() and _parse_rows refuse; a body is scanned for
# them in chunks of _SCAN bytes.
_PADDING = tuple(bytes([byte]) for byte in b"\x1c\x1d\x1e\x1f\x85\xa0")
_SCAN = 1 << 16


def _write(chunks: Iterable, path: Optional[str]) -> None:
    """Write byte chunks to path atomically, each as it comes, or to stdout when path is None.

    An OSError naming path refuses a path whose target exists and is not a
    regular file, as "" is the working directory.
    """
    if path is None:
        sys.stdout.write(b"".join(chunks).decode())
        return
    # a link is written through: its target is replaced in its own directory
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):  # a FIFO, a device, a directory
        raise OSError(errno.EEXIST, "not a regular file; omit --out to write to stdout", path)
    tmp = os.path.join(os.path.dirname(target), f".tmp-artifact-{os.urandom(8).hex()}")
    # "x" is O_EXCL: a file or link already at the temp name is refused, never written through
    try:
        handle = open(tmp, "xb")
    except OSError as err:  # named by the path asked for, not the temp file's
        raise type(err)(err.errno, err.strerror, path) from None
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_text(text: str, path: Optional[str] = None) -> None:
    """Write to path atomically, or to stdout when path is None."""
    _write((text.encode(),), path)


def _chunks(header: dict, columns: dict, fmt: str) -> Iterator:
    """The artifact of a header and its float columns, as byte chunks.

    columns maps each JSON key to its values.  A dict-valued header entry,
    the solve counters, stays one nested object in JSON and gives one CSV
    header line per entry; a None entry gives no CSV line.
    """
    if fmt == "json":
        arrays = {key: np.ascontiguousarray(values, dtype=float) for key, values in columns.items()}
        yield orjson.dumps({**header, **arrays}, option=_NUMPY | orjson.OPT_APPEND_NEWLINE)
        return
    lines = []
    for key, value in header.items():
        for name, item in value.items() if isinstance(value, dict) else [(key, value)]:
            if item is not None:
                lines.append(b"# %s: %s" % (name.encode(), orjson.dumps(item, option=_NUMPY)))
    lines += [_TITLES[tuple(columns)], b""]
    yield b"\n".join(lines)
    # Each block of the (n, k) stack dumps row by row as one flat [a,b,a,b,...]
    # in one C pass.  In that buffer every k-th comma, found as a byte, becomes
    # a line break and the closing bracket the last one; a memoryview drops
    # the opening bracket.  orjson spells -inf null, the only non-finite float
    # an artifact holds; no other spelling has an "n", and a one-byte search
    # is a memchr, several times faster than a search for "null".
    stack = np.column_stack(tuple(columns.values()))
    k = stack.shape[1]
    for start in range(0, len(stack), _BLOCK):
        rows = bytearray(orjson.dumps(stack[start : start + _BLOCK].ravel(), option=_NUMPY))
        chars = np.frombuffer(rows, dtype=np.uint8)
        chars[np.flatnonzero(chars == _COMMA)[k - 1 :: k]] = _NEWLINE
        chars[-1] = _NEWLINE
        if b"n" in rows:
            rows = rows.replace(b"null", b"-inf")
        yield memoryview(rows)[1:]


def _density(curve: DensityCurve) -> tuple[dict, dict]:
    header = {
        "y": curve.y,
        "total_mass": curve.total_mass,
        "atom_lower_bound": curve.atom_lower_bound,
        "stats": None if curve.stats is None else dataclasses.asdict(curve.stats),
    }
    return header, {"x": curve.xs, "rho": curve.rhos}


def _quantiles(table: QuantileTable) -> tuple[dict, dict]:
    header = {"atom_lower_bound": table.atom_lower_bound, "total_mass": table.total_mass}
    columns = {"probs": table.probs, "values": table.values, "log10_values": table.log10_values}
    return header, columns


def render_density(curve: DensityCurve, fmt: str = "csv") -> str:
    return b"".join(_chunks(*_density(curve), fmt)).decode()


def render_quantiles(table: QuantileTable, fmt: str = "csv") -> str:
    return b"".join(_chunks(*_quantiles(table), fmt)).decode()


def write_density(curve: DensityCurve, path: Optional[str] = None, fmt: str = "csv") -> None:
    _write(_chunks(*_density(curve), fmt), path)


def write_quantiles(table: QuantileTable, path: Optional[str] = None, fmt: str = "csv") -> None:
    _write(_chunks(*_quantiles(table), fmt), path)


def _parse_floats(text: bytes) -> Optional[np.ndarray]:
    """The comma-separated floats of text, or None where one does not parse.

    numpy before 2.0 warns on unparsable text, and returns what it read,
    where later versions raise.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, sep=",")
        except (ValueError, DeprecationWarning):
            return None


def _parse_rows(body: bytes, fields: int, first: int) -> list:
    """The columns of a CSV body, line by line; first is its first line's number.

    A line that is empty or white space is skipped; any other line must hold
    `fields` comma-separated floats, each with white space around it or none.
    The fields, stripped, are parsed in one pass; where that fails, each is
    parsed alone, and the first line that does not hold its floats raises a
    ValueError naming it.
    """
    lines, numbers = [], []
    for number, line in enumerate(body.split(b"\n"), start=first):
        tokens = line.split(b",")
        if len(tokens) != fields:
            if line.strip():
                raise ValueError(
                    f"line {number}: expected {fields} comma-separated fields, got {len(tokens)}"
                )
            continue
        lines.append(b",".join(token.strip() for token in tokens))
        numbers.append(number)
    values = _parse_floats(b",".join(lines))
    if values is None or values.size != fields * len(lines):
        for number, line in zip(numbers, lines):
            for token in line.split(b","):
                # numpy reads a field of white space as -1.0; a stripped one is empty
                parsed = _parse_floats(token) if token else None
                if parsed is None or parsed.size != 1:
                    text = token.decode(errors="replace")
                    raise ValueError(f"line {number}: could not convert string to float: {text!r}")
    return [np.ascontiguousarray(values[j::fields]) for j in range(fields)]


def _padded(handle: BinaryIO) -> bool:
    """Whether handle holds a byte of _PADDING from its position on, where it is left.

    No read asks for more than _SCAN bytes or more than is left, as a file's
    read allocates all it asks for.
    """
    start = handle.tell()
    end = handle.seek(0, os.SEEK_END)
    handle.seek(start)
    chunks = iter(lambda: handle.read(min(_SCAN, end - handle.tell())), b"")
    found = any(byte in chunk for chunk in chunks for byte in _PADDING)
    handle.seek(start)
    return found


def _read_body(handle: BinaryIO, fields: int, first: int) -> list:
    """The `fields` float columns of the CSV body from handle's position on, parsed in C.

    `comments=None`, or "2#x" reads as 2.  A body that holds a byte of _PADDING,
    or that loadtxt refuses or reads with other than `fields` columns, goes to
    _parse_rows, which names its bad line from first.
    """
    start = handle.tell()
    if not _padded(handle):
        try:
            with warnings.catch_warnings():
                # an empty body warns, and reads as one column: _parse_rows reads it
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
            if table.shape[1] == fields:
                return [np.ascontiguousarray(column) for column in table.T]
        except ValueError:
            pass
    handle.seek(start)
    return _parse_rows(handle.read(), fields, first)


def _utf8(raw: bytes, number: int) -> str:
    """raw, read from line `number` on, as UTF-8; a ValueError names a bad byte's line."""
    try:
        return raw.decode()
    except UnicodeDecodeError as err:
        line = number + raw.count(b"\n", 0, err.start)
        bad = raw[err.start : err.end]
        raise ValueError(f"line {line}: {bad!r} is not UTF-8") from None


def _load(path: str, keys: tuple) -> tuple[dict, list]:
    """The header and the float columns named by keys, from either format.

    A JSON document's "stats" object gives the header its counters alone, as
    they are header lines in CSV; a JSON column holds numbers or nulls.  A
    CSV's columns are taken in the order of keys.  The header lines of a CSV
    precede its line of column names, which must be the artifact's own;
    json.loads also reads the -Infinity that json.dumps once wrote.
    """
    title = _TITLES[keys]
    meta: dict = {}
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if stripped.startswith(b"#"):
                key, _, value = stripped[1:].partition(b":")
                key = _utf8(key.strip(), number)
                if key in meta:
                    raise ValueError(f"line {number}: repeated key {key!r}")
                meta[key] = _utf8(value.strip(), number)
            elif stripped.startswith(b"{") and not meta:
                text = _utf8(line + handle.read(), number)
                try:
                    meta = json.loads(text, object_pairs_hook=_unique_keys)
                except RecursionError as err:  # nested past the interpreter's recursion limit
                    raise ValueError(str(err)) from None
                stats = meta.pop("stats", None)
                if not isinstance(stats, (dict, type(None))):
                    raise ValueError(f"the artifact's stats must be an object, got {stats!r}")
                counters = [(key, stats[key]) for key in _STAT_KEYS if key in (stats or {})]
                meta = _unique_keys([*meta.items(), *counters])
                for key in keys:
                    if key not in meta:
                        raise ValueError(f"the artifact has no column {key}")
                    if not (isinstance(meta[key], list) and set(map(type, meta[key])) <= _NUMBERS):
                        raise ValueError(f"the artifact's column {key} must be an array of numbers")
                return meta, [np.array(meta.pop(key), dtype=float) for key in keys]
            elif stripped == title:
                return meta, _read_body(handle, len(keys), number + 1)
            elif stripped:
                raise ValueError(
                    f"line {number}: expected the column names {title.decode()!r}, "
                    f"got {stripped.decode(errors='replace')!r}"
                )
    raise ValueError(f"expected the column names {title.decode()!r}, got the end of the file")


def _header(meta: dict, key: str, kind: type = float):
    """meta[key] parsed from its text as kind, so a JSON 3.5 is no int; a ValueError names key."""
    if key not in meta:
        raise ValueError(f"the header has no {key}")
    try:
        return kind(str(meta[key]))
    except ValueError:
        raise ValueError(f"{key} must parse as {kind.__name__}, got {meta[key]!r}") from None


@contextlib.contextmanager
def _naming(path: str) -> Iterator:
    """Prefix the message of a ValueError raised inside with path, once."""
    try:
        yield
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def read_density(path: str) -> DensityCurve:
    with _naming(path):
        meta, (xs, rhos) = _load(path, ("x", "rho"))
        # Files written before the certificate counters existed lack them;
        # those read as 0.  A key that is not a counter is ignored, so a
        # counter can leave SolveStats without making older files unreadable.
        counters = {key: _header(meta, key, int) for key in _STAT_KEYS if key in meta}
        return DensityCurve(
            xs=xs,
            rhos=rhos,
            y=_header(meta, "y"),
            atom_lower_bound=_header(meta, "atom_lower_bound"),
            stats=SolveStats(**counters) if counters else None,
        )


def read_quantiles(path: str) -> QuantileTable:
    with _naming(path):
        meta, (probs, values, _) = _load(path, ("probs", "values", "log10_values"))
        return QuantileTable(
            probs=probs,
            values=values,
            atom_lower_bound=_header(meta, "atom_lower_bound"),
            total_mass=_header(meta, "total_mass"),
        )
