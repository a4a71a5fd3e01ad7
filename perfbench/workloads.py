"""The three benchmark workloads as seeded lists of cases.

A case is one closed-loop request: a run configuration handed to the
in-process CLI (`density`, `quantiles` or `validate`).  The structure of every
case -- depth, nonlinearity and width ratio of each layer, smoothing offset y,
grid size, output format, Monte-Carlo width -- is fixed in the tables below, so
every seed does the same kind of work and the end-to-end figures are comparable
between seeds.  The seed draws what may vary without changing the kind of work:
each layer's weight gain (within 5 % of the layer's usual gain), the
Monte-Carlo seeds and the grid points sampled by the all-roots checks.  Cases
run in table order, so the process's memory high-water mark does not depend on
the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("sweep", "cli", "validate")

# Usual weight gain sigma_w^2 per nonlinearity (critical initialisation for
# linear and ReLU); the seed jitters each layer's gain within GAIN_JITTER.
NOMINAL_GAIN = {"linear": 1.0, "relu": 2.0, "hard_tanh": 1.5, "hard_sine": 1.5}
GAIN_JITTER = 0.05

# Per-case deadlines in seconds.  Each sits well above the slowest case of its
# workload that completes and well below the known overruns, so the set of
# failed cases, and with it failed_frac, repeats from run to run.
DEADLINE_S = {"sweep": 2.0, "cli": 8.0, "validate": 8.0}

# Speed reference (see speed.py) that is slowed like each workload's own work.
REFERENCE = {"sweep": "interpreter", "cli": "interpreter", "validate": "blas"}

# Grid points sampled per case for the all-roots branch check.
BRANCH_SAMPLES = 8


def _layers(text: str) -> tuple:
    """"relu:2 linear:0.5" -> (("relu", 2.0), ("linear", 0.5))."""
    out = []
    for token in text.split():
        name, ratio = token.split(":")
        out.append((name, float(ratio)))
    return tuple(out)


def _repeat(pattern: str, depth: int) -> str:
    tokens = pattern.split()
    return " ".join(tokens[i % len(tokens)] for i in range(depth))


# sweep: depth 1-4 stratum, one case per (depth, y) cell and draw, layers drawn
# once over all four nonlinearities and ratios {0.5, 1, 2}; 400-point default
# grids.  Certified continuation does almost all of the work.
_SWEEP_SHALLOW = (
    ("relu:1", 1e-3),
    ("hard_sine:2 linear:0.5", 1e-3),
    ("hard_sine:2 linear:0.5 hard_sine:1", 1e-3),
    ("relu:2 relu:1 hard_tanh:1 linear:0.5", 1e-3),
    ("hard_sine:2", 1e-6),
    ("hard_sine:1 hard_sine:0.5", 1e-6),
    ("relu:2 linear:0.5 linear:1", 1e-6),
    ("hard_sine:0.5 relu:1 hard_sine:0.5 hard_tanh:0.5", 1e-6),
    ("linear:2", 1e-9),
    ("linear:0.5 relu:1", 1e-9),
    ("linear:2 hard_tanh:2 linear:2", 1e-9),
    ("relu:1 hard_sine:0.5 hard_tanh:0.5 relu:2", 1e-9),
    ("relu:1", 1e-3),
    ("relu:0.5 relu:1", 1e-3),
    ("relu:2 relu:1 hard_sine:2", 1e-3),
    ("relu:0.5 hard_tanh:1 hard_sine:1 relu:0.5", 1e-3),
    ("relu:1", 1e-6),
    ("hard_sine:2 linear:1", 1e-6),
    ("hard_sine:0.5 relu:2 hard_tanh:1", 1e-6),
    ("hard_tanh:1 hard_sine:2 linear:0.5 hard_tanh:2", 1e-6),
    ("linear:2", 1e-9),
    ("hard_sine:2 hard_sine:0.5", 1e-9),
    ("hard_tanh:2 relu:0.5 relu:0.5", 1e-9),
    ("linear:2 hard_tanh:2 hard_sine:2 relu:1", 1e-9),
    ("hard_tanh:0.5", 1e-3),
    ("hard_sine:0.5 hard_sine:1", 1e-3),
    ("relu:2 relu:2 hard_sine:0.5", 1e-3),
    ("relu:0.5 hard_tanh:1 hard_sine:2 hard_sine:2", 1e-3),
    ("hard_sine:0.5", 1e-6),
    ("linear:1 relu:2", 1e-6),
    ("hard_sine:1 hard_tanh:1 hard_sine:0.5", 1e-6),
    ("relu:2 relu:2 hard_sine:2 relu:2", 1e-6),
    ("linear:1", 1e-9),
    ("relu:0.5 hard_tanh:2", 1e-9),
    ("hard_sine:0.5 hard_sine:2 relu:0.5", 1e-9),
    ("hard_sine:2 relu:0.5 linear:1 hard_sine:0.5", 1e-9),
    ("linear:2", 1e-3),
    ("hard_tanh:0.5 hard_tanh:1", 1e-3),
    ("hard_tanh:0.5 hard_tanh:0.5 hard_tanh:1", 1e-3),
    ("hard_tanh:0.5 relu:1 hard_sine:1 linear:2", 1e-3),
    ("hard_tanh:1", 1e-6),
    ("linear:1 hard_sine:2", 1e-6),
    ("relu:1 linear:2 relu:1", 1e-6),
    ("hard_sine:1 hard_sine:0.5 hard_sine:2 linear:0.5", 1e-6),
    ("linear:0.5", 1e-9),
    ("relu:0.5 hard_sine:0.5", 1e-9),
    ("hard_sine:2 linear:2 hard_sine:0.5", 1e-9),
    ("linear:1 linear:1 relu:1 hard_tanh:1", 1e-9),
)

# Tiny-y pair: the same net stalls at y = 1e-9 and solves at once at 1e-6.
# The mixed linear/ReLU net is the one a seeded probe reported stalling at
# y = 1e-9; it is kept whether it stalls here or not.
_SWEEP_TINY_Y = (
    ("hard_sine:2 hard_sine:2 hard_sine:2", 1e-9),
    ("hard_sine:2 hard_sine:2 hard_sine:2", 1e-6),
    ("linear:2 linear:2 relu:0.5 relu:1", 1e-9),
)

# Deep stratum, depth 8-64.  Solve cost grows about 3x per layer of depth, so
# these overrun the deadline or fail loudly at the parent commit.
_SWEEP_DEEP = (
    (_repeat("linear:1", 8), 1e-6),
    (_repeat("relu:2 relu:0.5", 16), 1e-6),
    (_repeat("hard_sine:2 hard_sine:1 hard_sine:0.5", 32), 1e-6),
    (_repeat("linear:0.5 linear:2 linear:1", 64), 1e-3),
    (_repeat("hard_tanh:1", 64), 1e-6),
    (_repeat("hard_sine:1", 64), 1e-6),
)

# cli: depth 1-2, all four nonlinearities, ratios != 1, grids of thousands to
# tens of thousands of points.  Each net runs `density` in one format and
# `quantiles` in the other.  Warm starts certify nearly every point at once,
# so per-point solver cost, config parsing, quantile inversion and artifact
# writing carry the time.
_CLI = (
    ("linear:0.5", 20000),
    ("relu:2", 10000),
    ("hard_tanh:0.5 hard_sine:2", 5000),
    ("hard_sine:0.5 relu:2", 2000),
    ("relu:0.5 linear:2", 20000),
    ("hard_tanh:2", 10000),
    ("linear:2 hard_tanh:0.5", 5000),
    ("hard_sine:2 linear:0.5", 2000),
)

# validate: the `validate` command (solve, Monte-Carlo sample, KS distance)
# plus the all-roots cross-check at sampled grid points, both timed.  Matmul,
# eigvalsh and the Aberth iteration carry the time.  Each row is
# (layers, n0, number of Monte-Carlo seeds).
_VALIDATE = (
    ("linear:2", 1000, 2),
    ("relu:0.5 relu:2", 1000, 2),
    ("hard_sine:2 hard_sine:0.5", 1500, 1),
    ("relu:2 linear:0.5 hard_sine:1", 1000, 2),
    ("hard_tanh:0.5 hard_tanh:2", 1000, 1),
    ("linear:0.5 relu:2", 2000, 1),
    ("relu:0.5 relu:2 relu:0.5 relu:2", 1500, 1),
    ("hard_sine:0.5 linear:2 relu:0.5", 1000, 1),
)
_VALIDATE_ROOTS_POINTS = 8
# Degree-21 master equation (depth 20) for the all-roots cross-check alone.
_VALIDATE_DEEP_ROOTS = (_repeat("hard_sine:2", 20), 400, 40)


@dataclass(frozen=True)
class Case:
    """One request of a workload; `layers` holds (nonlinearity, ratio, gain)."""

    case_id: str
    command: str
    layers: tuple
    y: float
    points: int
    fmt: str = "csv"
    n0: int = 0
    mc_seed: int = 0
    roots: int = 0
    sample_seed: int = 0

    @property
    def depth(self) -> int:
        return len(self.layers)

    def describe(self) -> str:
        layers = " ".join(f"{n}:{r:g}@{g:.4f}" for n, r, g in self.layers[:4])
        if self.depth > 4:
            layers += f" ... depth {self.depth}"
        text = f"{self.command} [{layers}] y={self.y:g} points={self.points} fmt={self.fmt}"
        if self.n0:
            text += f" n0={self.n0} mc_seed={self.mc_seed}"
        if self.roots:
            text += f" roots={self.roots}"
        return text

    def record(self) -> dict:
        return {
            "case_id": self.case_id,
            "command": self.command,
            "layers": [
                {"nonlinearity": n, "lambda": r, "sigma_w_sq": g} for n, r, g in self.layers
            ],
            "y": self.y,
            "points": self.points,
            "format": self.fmt,
            "n0": self.n0,
            "mc_seed": self.mc_seed,
            "roots": self.roots,
        }

    def config(self, out_path: str) -> dict:
        """The JSON run configuration the CLI receives for this case."""
        doc = {
            "network": {
                "layers": [
                    {"nonlinearity": n, "sigma_w_sq": g, "lambda": r} for n, r, g in self.layers
                ]
            },
            "grid": {"points": self.points},
            "y": self.y,
            "output": {"format": self.fmt, "path": out_path},
        }
        if self.command == "validate":
            doc["mc"] = {"n0": self.n0, "seed": self.mc_seed, "enabled": True}
        return doc

    def output_name(self) -> str:
        suffix = "txt" if self.command == "validate" else self.fmt
        return f"{self.case_id}.{suffix}"


def _gains(rng: random.Random, layers: tuple) -> tuple:
    return tuple(
        (name, ratio, NOMINAL_GAIN[name] * (1.0 + GAIN_JITTER * (2.0 * rng.random() - 1.0)))
        for name, ratio in layers
    )


def build_cases(workload: str, seed: int) -> list:
    """The workload's cases for this seed, in run order (the first is the warm-up case)."""
    rng = random.Random(f"{workload}:{seed}")
    cases = []

    def add(command, text, y, points, **kwargs):
        case_id = f"{workload}-{len(cases):02d}"
        cases.append(
            Case(
                case_id=case_id,
                command=command,
                layers=_gains(rng, _layers(text)),
                y=y,
                points=points,
                sample_seed=rng.randrange(2**31),
                **kwargs,
            )
        )

    if workload == "sweep":
        for text, y in _SWEEP_SHALLOW + _SWEEP_TINY_Y + _SWEEP_DEEP:
            add("density", text, y, 400)
    elif workload == "cli":
        for index, (text, points) in enumerate(_CLI):
            first, second = ("csv", "json") if index % 2 == 0 else ("json", "csv")
            add("density", text, 1e-6, points, fmt=first)
            add("quantiles", text, 1e-6, points, fmt=second)
    elif workload == "validate":
        for text, n0, seeds in _VALIDATE:
            for _ in range(seeds):
                add(
                    "validate", text, 1e-6, 400,
                    n0=n0, mc_seed=rng.randrange(2**31), roots=_VALIDATE_ROOTS_POINTS,
                )
        text, points, roots = _VALIDATE_DEEP_ROOTS
        add("density", text, 1e-6, points, roots=roots)
    else:
        raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")
    return cases


def write_configs(cases: list, directory: str) -> dict:
    """Write one config file per case; returns case_id -> (config path, output path)."""
    paths = {}
    for case in cases:
        out_path = os.path.join(directory, case.output_name())
        config_path = os.path.join(directory, f"{case.case_id}.config.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(case.config(out_path), handle, indent=1)
        paths[case.case_id] = (config_path, out_path)
    return paths
