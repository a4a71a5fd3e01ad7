"""Run configuration: a single JSON document describing network, grid and outputs.

Parsing is strict — unknown fields are rejected with their full path, and a
key repeated in one object and a file that is not UTF-8 are rejected by
name, so typos surface immediately instead of silently falling back to
defaults or to the last of two values.
Every object is read by _read from a table of its fields, and every setting
is checked once, where its dataclass is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from typing import Any, Optional

from .network_model import LayerSpec, NetworkSpec, Nonlinearity

__all__ = [
    "ConfigError",
    "GridConfig",
    "MonteCarloConfig",
    "OutputConfig",
    "RunConfig",
    "load_config",
    "parse_run_config",
]

DEFAULT_PROBS = tuple(round(0.1 * k, 1) for k in range(1, 10))


class ConfigError(ValueError):
    """Invalid or malformed run configuration; message carries the field path."""


def _check_positive(value: float, where: str, prefix: str = "") -> None:
    """Refuse a value that is not a positive finite number, naming its field."""
    if not (isfinite(value) and value > 0):
        detail = "" if isfinite(value) else f" and finite, got {value!r}"
        raise ConfigError(f"config: {where}: {prefix}must be positive{detail}")


@dataclass(frozen=True)
class GridConfig:
    x_min: Optional[float] = None
    x_max: Optional[float] = None
    points: int = 200

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ConfigError("config: grid.points: must be at least 2")
        for name, value in (("x_min", self.x_min), ("x_max", self.x_max)):
            if value is not None:
                _check_positive(value, f"grid.{name}")
        if self.x_min is not None and self.x_max is not None and self.x_min >= self.x_max:
            raise ConfigError("config: grid.x_min: must be below grid.x_max")


@dataclass(frozen=True)
class MonteCarloConfig:
    n0: int = 1000
    seed: int = 0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.n0 < 4:
            raise ConfigError("config: mc.n0: must be at least 4")


@dataclass(frozen=True)
class OutputConfig:
    format: str = "csv"
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json"):
            raise ConfigError(f"config: output.format: must be 'csv' or 'json', got {self.format!r}")


@dataclass(frozen=True)
class RunConfig:
    network: NetworkSpec
    grid: GridConfig = GridConfig()
    y: float = 1e-6
    probs: tuple = DEFAULT_PROBS
    mc: MonteCarloConfig = MonteCarloConfig()
    output: OutputConfig = OutputConfig()

    def __post_init__(self) -> None:
        _check_positive(self.y, "y", "y ")
        for p in self.probs:
            if not (0.0 < p < 1.0):
                raise ConfigError(f"config: probs: must lie strictly inside (0, 1), got {p}")


def _read(data: Any, ctx: str, cls, fields: dict, required: tuple = ()):
    """Build cls from the JSON object data found at path ctx ("" for the root).

    fields maps each allowed key, in reading order, to (argument of cls,
    reader); a reader takes the value and its path.  An object that is not a
    mapping, an unknown key and a missing required key are refused first.  A
    plain ValueError of a reader or of cls is reported at the path it came
    from; a ConfigError passes unchanged.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config: {ctx or '<root>'}: expected an object, got {type(data).__name__}")
    prefix = f"{ctx}." if ctx else ""
    for key in data:
        if key not in fields:
            raise ConfigError(f"config: {prefix}{key}: unknown field")
    for key in required:
        if key not in data:
            raise ConfigError(f"config: {prefix}{key}: required")
    kwargs = {}
    where = ctx
    try:
        for key, (name, reader) in fields.items():
            if key in data:
                where = prefix + key
                kwargs[name] = reader(data[key], where)
        where = ctx
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"config: {where}: {err}") from None


def _section(cls, fields: dict, required: tuple = ()):
    """The reader of a nested object built as cls."""
    return lambda data, ctx: _read(data, ctx, cls, fields, required)


def _as_list(value: Any, ctx: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"config: {ctx}: expected an array, got {type(value).__name__}")
    return value


def _as_real(value: Any, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config: {ctx}: expected a number, got {value!r}")
    return float(value)


def _as_int(value: Any, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"config: {ctx}: expected an integer, got {value!r}")
    return value


def _as_bool(value: Any, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"config: {ctx}: expected true or false, got {value!r}")
    return value


def _as_str(value: Any, ctx: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"config: {ctx}: expected a string, got {value!r}")
    return value


def _as_nonlinearity(value: Any, ctx: str) -> Nonlinearity:
    return Nonlinearity.from_name(_as_str(value, ctx))


def _as_path(value: Any, ctx: str) -> Optional[str]:
    return None if value is None else _as_str(value, ctx)


_LAYER_FIELDS = {
    "nonlinearity": ("nonlinearity", _as_nonlinearity),
    "sigma_w_sq": ("sigma_w_sq", _as_real),
    "sigma_b_sq": ("sigma_b_sq", _as_real),
    "lambda": ("width_ratio", _as_real),
}


def _as_layers(value: Any, ctx: str) -> tuple:
    return tuple(
        _read(item, f"{ctx}[{i}]", LayerSpec, _LAYER_FIELDS, ("nonlinearity", "sigma_w_sq"))
        for i, item in enumerate(_as_list(value, ctx))
    )


def _as_probs(value: Any, ctx: str) -> tuple:
    probs = _as_list(value, ctx)
    if not probs:
        raise ConfigError(f"config: {ctx}: must be nonempty")
    return tuple(_as_real(p, f"{ctx}[{i}]") for i, p in enumerate(probs))


_NETWORK_FIELDS = {
    "layers": ("layers", _as_layers),
    "input_mean_square": ("input_mean_square", _as_real),
}
_GRID_FIELDS = {
    "x_min": ("x_min", _as_real),
    "x_max": ("x_max", _as_real),
    "points": ("points", _as_int),
}
_MC_FIELDS = {"n0": ("n0", _as_int), "seed": ("seed", _as_int), "enabled": ("enabled", _as_bool)}
_OUTPUT_FIELDS = {"format": ("format", _as_str), "path": ("path", _as_path)}
_RUN_FIELDS = {
    "network": ("network", _section(NetworkSpec, _NETWORK_FIELDS, ("layers",))),
    "grid": ("grid", _section(GridConfig, _GRID_FIELDS)),
    "y": ("y", _as_real),
    "probs": ("probs", _as_probs),
    "mc": ("mc", _section(MonteCarloConfig, _MC_FIELDS)),
    "output": ("output", _section(OutputConfig, _OUTPUT_FIELDS)),
}


def parse_run_config(data: Any) -> RunConfig:
    return _read(data, "", RunConfig, _RUN_FIELDS, ("network",))


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; json keeps the last of a repeated key, this refuses it."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as err:
        raise ConfigError(f"config: cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config: parse error in {path} at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except ValueError as err:  # a repeated key, or bytes that are not UTF-8
        raise ConfigError(f"config: parse error in {path}: {err}") from None
    return parse_run_config(data)
