"""Command-line entry point.

Subcommands: density (solve and tabulate the smoothed density), quantiles
(invert the CDF, printing log10 of each quantile), validate (Monte-Carlo
against the analytic curve, KS threshold), bench (timing and solver-statistics
table).  Exit status: 0 success, 1 runtime or validation failure, 2 bad
configuration.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional

from . import spectrum
from .artifacts import write_density, write_quantiles, write_text
from .bench import render_bench, run_bench
from .config import ConfigError, RunConfig, apply_overrides, load_config
from .oracles import ks_distance, monte_carlo_spectrum
from .solver import SolverError
from .spectrum import default_grid, density_grid, quantiles, uniform_density_curve

__all__ = ["main"]

_KS_THRESHOLD = 0.08


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freespectra",
        description="Limiting singular value spectra of deep-network Jacobians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, config_required: bool) -> None:
        p.add_argument("--config", required=config_required, help="JSON run configuration")
        p.add_argument("--out", help="output path (default: config output.path, else stdout)")
        p.add_argument("--points", type=int, help="override grid point count")
        p.add_argument("--y", type=float, help="override the smoothing offset y > 0")
        p.add_argument("--seed", type=int, help="override the Monte-Carlo seed")

    p_density = sub.add_parser("density", help="tabulate the smoothed spectral density")
    add_common(p_density, config_required=True)
    p_density.set_defaults(func=cmd_density)

    p_quant = sub.add_parser("quantiles", help="quantiles of the absolutely continuous part")
    add_common(p_quant, config_required=False)
    p_quant.add_argument(
        "--synthetic",
        nargs=2,
        type=float,
        metavar=("LO", "HI"),
        help="test mode: skip the solver and use a uniform density on [LO, HI]",
    )
    p_quant.set_defaults(func=cmd_quantiles)

    p_val = sub.add_parser("validate", help="Monte-Carlo vs analytic curve (KS test)")
    add_common(p_val, config_required=True)
    p_val.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser("bench", help="timing table for the three pipelines")
    add_common(p_bench, config_required=True)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    return apply_overrides(
        config,
        points=args.points,
        y=args.y,
        seed=args.seed,
        out=args.out,
    )


def _solve_curve(config: RunConfig):
    # called through the spectrum module, so that a wrapper installed there sees it
    meq = spectrum.master_from_spec(config.require_network())
    xs = default_grid(
        meq,
        points=config.grid.points,
        x_min=config.grid.x_min,
        x_max=config.grid.x_max,
        log_spaced=config.grid.log_spaced,
    )
    return density_grid(meq, xs=xs, y=config.y)


def cmd_density(args: argparse.Namespace) -> int:
    config = _load(args)
    curve = _solve_curve(config)
    write_density(curve, config.output.path, config.output.format)
    return 0


def cmd_quantiles(args: argparse.Namespace) -> int:
    config = _load(args)
    if getattr(args, "synthetic", None) is not None:
        try:
            curve = uniform_density_curve(*args.synthetic)
        except ValueError as err:
            raise ConfigError(f"--synthetic: {err}") from None
    else:
        curve = _solve_curve(config)
    table = quantiles(curve, config.probs)
    write_quantiles(table, config.output.path, config.output.format)
    if config.output.path is not None:
        for p, v in zip(table.probs, table.values):
            log10 = math.log10(v) if v > 0 else -math.inf
            print(f"q({p!r}) = {v!r}   log10 = {log10!r}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    config = _load(args)
    if not config.mc.enabled:
        raise ConfigError("config: mc.enabled: validation requires mc.enabled")
    spec = config.require_network()
    curve = _solve_curve(config)
    emp = monte_carlo_spectrum(spec, config.mc.n0, config.mc.seed)
    ks = ks_distance(emp, curve)
    passed = ks <= _KS_THRESHOLD
    report = (
        f"n0: {config.mc.n0}\n"
        f"seed: {config.mc.seed}\n"
        f"ks_distance: {ks!r}\n"
        f"threshold: {_KS_THRESHOLD!r}\n"
        f"result: {'pass' if passed else 'fail'}\n"
    )
    write_text(report, config.output.path)
    if config.output.path is not None:
        sys.stdout.write(report)
    return 0 if passed else 1


def cmd_bench(args: argparse.Namespace) -> int:
    config = _load(args)
    rows = run_bench(config)
    text = render_bench(rows)
    write_text(text, config.output.path)
    if config.output.path is not None:
        sys.stdout.write(text)
    return 0


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
    except SolverError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
