"""Wall-clock comparison of the three pipelines on one configuration.

Times are reported for information only; the interesting quantity is the solver
statistics column, which exposes the warm-start savings (Newton iterations grow
sublinearly in grid size).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .oracles import all_roots, monte_carlo_spectrum
from .spectrum import density_grid
from .transform_algebra import RationalMasterEq

__all__ = ["BenchRow", "run_bench", "render_bench"]


@dataclass(frozen=True)
class BenchRow:
    method: str
    wall_ms: float
    points: int
    newton_iterations: int
    basins: int
    degree: int


def run_bench(config: RunConfig, meq: RationalMasterEq, xs: np.ndarray) -> list:
    """Time each pipeline on the run's master equation meq over the grid xs."""
    degree = meq.degree
    rows = []

    start = time.perf_counter()
    curve = density_grid(meq, xs=xs, y=config.y)
    elapsed = (time.perf_counter() - start) * 1e3
    stats = curve.stats
    rows.append(
        BenchRow(
            method="lilypads_grid",
            wall_ms=elapsed,
            points=xs.size,
            newton_iterations=stats.newton_iterations,
            basins=stats.basins,
            degree=degree,
        )
    )

    start = time.perf_counter()
    for x in xs:
        all_roots(meq, complex(float(x), config.y))
    elapsed = (time.perf_counter() - start) * 1e3
    rows.append(
        BenchRow(
            method="all_roots_grid",
            wall_ms=elapsed,
            points=xs.size,
            newton_iterations=0,
            basins=0,
            degree=degree,
        )
    )

    if config.mc.enabled:
        start = time.perf_counter()
        monte_carlo_spectrum(config.network, config.mc.n0, config.mc.seed)
        elapsed = (time.perf_counter() - start) * 1e3
        rows.append(
            BenchRow(
                method="monte_carlo",
                wall_ms=elapsed,
                points=config.mc.n0,
                newton_iterations=0,
                basins=0,
                degree=degree,
            )
        )
    return rows


def render_bench(rows) -> str:
    lines = ["method,wall_ms,points,newton_iterations,basins,degree"]
    for row in rows:
        lines.append(
            f"{row.method},{row.wall_ms:.3f},{row.points},"
            f"{row.newton_iterations},{row.basins},{row.degree}"
        )
    return "\n".join(lines) + "\n"
