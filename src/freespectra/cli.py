"""Command-line entry point.

Subcommands: density (solve and tabulate the smoothed density), quantiles
(invert the CDF, printing log10 of each quantile), validate (a Monte-Carlo
sample against the law's exact CDF, KS threshold; it solves no grid, so the
grid fields and y do not change it), bench (timing and solver-statistics
table).  Each reads its run from the JSON file named by --config, which is
required; --out replaces output.path.  The bench table's columns are
method,wall_ms,points,newton_iterations,basins,degree, with one row each for
lilypads_grid, all_roots_grid and, when mc.enabled, monte_carlo (points = n0);
wall_ms is informational, the Newton count shows the warm-start savings.  A
validate report or bench table written to output.path is echoed to stdout.
Exit status: 0 success, 1 runtime or validation failure (an allocation
that fails included), 2 bad configuration or command line.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from typing import Optional

from . import spectrum
from .artifacts import write_density, write_quantiles, write_text
from .config import ConfigError, RunConfig, load_config
from .oracles import all_roots, ks_distance, monte_carlo_spectrum
from .solver import SolveStats
from .spectrum import default_grid, density_grid, quantiles

__all__ = ["main"]

_KS_THRESHOLD = 0.08


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freespectra",
        description="Limiting singular value spectra of deep-network Jacobians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output path (default: config output.path, else stdout)")
        p.set_defaults(func=func)
    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config)
    if args.out is None:
        return config
    return dataclasses.replace(config, output=dataclasses.replace(config.output, path=args.out))


def _window(config: RunConfig):
    """The run's master equation and the grid its config asks for."""
    # called through the spectrum module, so that a wrapper installed there sees it
    meq = spectrum.master_from_spec(config.network)
    grid = config.grid
    return meq, default_grid(meq, points=grid.points, x_min=grid.x_min, x_max=grid.x_max)


def _solve_curve(config: RunConfig):
    meq, xs = _window(config)
    return density_grid(meq, xs=xs, y=config.y)


def cmd_density(args: argparse.Namespace) -> int:
    config = _load(args)
    curve = _solve_curve(config)
    write_density(curve, config.output.path, config.output.format)
    return 0


def cmd_quantiles(args: argparse.Namespace) -> int:
    config = _load(args)
    curve = _solve_curve(config)
    table = quantiles(curve, config.probs)
    write_quantiles(table, config.output.path, config.output.format)
    if config.output.path is not None:
        for p, v, log10 in zip(table.probs, table.values, table.log10_values):
            print(f"q({p!r}) = {v!r}   log10 = {log10!r}")
    return 0


def _report(text: str, config: RunConfig) -> None:
    """Write text to output.path, or to stdout when none is set; echo it when one is."""
    write_text(text, config.output.path)
    if config.output.path is not None:
        sys.stdout.write(text)


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load(args)
    if not config.mc.enabled:
        raise ConfigError("config: mc.enabled: validation requires mc.enabled")
    # called through the spectrum module, as in _window
    meq = spectrum.master_from_spec(config.network)
    emp = monte_carlo_spectrum(config.network, config.mc.n0, config.mc.seed)
    stats = SolveStats()
    ks = ks_distance(emp, meq, stats)
    passed = ks <= _KS_THRESHOLD
    counters = "".join(f"{key}: {value}\n" for key, value in dataclasses.asdict(stats).items())
    _report(
        f"n0: {config.mc.n0}\n"
        f"seed: {config.mc.seed}\n"
        f"zeros: {int((emp.values == 0.0).sum())}\n"
        f"censored: {emp.censored}\n"
        f"floor: {emp.floor!r}\n"
        f"atom: {spectrum.atom_lower_bound(meq)!r}\n"
        f"ks_distance: {ks!r}\n"
        f"threshold: {_KS_THRESHOLD!r}\n"
        f"result: {'pass' if passed else 'fail'}\n" + counters,
        config,
    )
    return 0 if passed else 1


def cmd_bench(args: argparse.Namespace) -> int:
    config = _load(args)
    meq, xs = _window(config)

    def lilypads() -> tuple:
        stats = density_grid(meq, xs=xs, y=config.y).stats
        return stats.newton_iterations, stats.basins

    def roots() -> tuple:
        for x in xs:
            all_roots(meq, complex(float(x), config.y))
        return 0, 0

    def sample() -> tuple:
        monte_carlo_spectrum(config.network, config.mc.n0, config.mc.seed)
        return 0, 0

    # (method, points, run); each run returns its (newton_iterations, basins)
    entries = [("lilypads_grid", xs.size, lilypads), ("all_roots_grid", xs.size, roots)]
    if config.mc.enabled:
        entries.append(("monte_carlo", config.mc.n0, sample))
    lines = ["method,wall_ms,points,newton_iterations,basins,degree"]
    for method, points, run in entries:
        start = time.perf_counter()
        iterations, basins = run()
        wall_ms = (time.perf_counter() - start) * 1e3
        lines.append(f"{method},{wall_ms:.3f},{points},{iterations},{basins},{meq.degree}")
    _report("\n".join(lines) + "\n", config)
    return 0


# (name, handler, help) of each subcommand
_COMMANDS = (
    ("density", cmd_density, "tabulate the smoothed spectral density"),
    ("quantiles", cmd_quantiles, "quantiles of the absolutely continuous part"),
    ("validate", cmd_validate, "Monte-Carlo sample vs the law's exact CDF (KS test)"),
    ("bench", cmd_bench, "timing table for the three pipelines"),
)

_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list] = None) -> int:
    global _parser
    if _parser is None:
        # Building the parser costs about a millisecond; parse with one per process.
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except MemoryError as err:  # numpy's names the array's size, shape and dtype
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
