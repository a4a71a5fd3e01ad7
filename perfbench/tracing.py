"""Harness-side tracing of the package's public functions.

Each traced function is replaced, for the duration of a traced pass, at the
module attribute where its caller looks it up (for example
`freespectra.solver.is_in_basin`, which `newton_lilypads` and `_descend` read
from their module globals).  A wrapper records, per case, the call count, the
inclusive time and the self time (duration minus the time covered by traced
children).  Functions called at most a few times per case also leave one span
each (name, start, end, parent span, case); the hot per-point functions are
only aggregated per case, because a stalled case makes tens of millions of
calls.  A patch site that no longer exists is reported as absent and the run
goes on without it.
"""

from __future__ import annotations

import importlib
import itertools
import os
import time
from collections import defaultdict

SPAN = "span"
HOT = "hot"

# (layer metric prefix, kind, patch sites as (module, attribute)).
WRAPS = (
    ("cli.main", SPAN, (("freespectra.cli", "main"),)),
    ("config.load_config", SPAN, (("freespectra.cli", "load_config"),)),
    ("spectrum.default_grid", SPAN, (("freespectra.cli", "default_grid"),)),
    ("spectrum.density_grid", SPAN, (("freespectra.cli", "density_grid"),)),
    ("spectrum.quantiles", SPAN, (("freespectra.cli", "quantiles"),)),
    ("artifacts.write_density", SPAN, (("freespectra.cli", "write_density"),)),
    ("artifacts.write_quantiles", SPAN, (("freespectra.cli", "write_quantiles"),)),
    ("oracles.monte_carlo_spectrum", SPAN, (("freespectra.cli", "monte_carlo_spectrum"),)),
    ("oracles.ks_distance", SPAN, (("freespectra.cli", "ks_distance"),)),
    ("oracles.all_roots", SPAN, (("freespectra.oracles", "all_roots"),)),
    (
        "transform_algebra.master_from_spec",
        SPAN,
        (("freespectra.spectrum", "master_from_spec"),),
    ),
    (
        "network_model.summarize",
        SPAN,
        (
            ("freespectra.spectrum", "summarize"),
            ("freespectra.transform_algebra", "summarize"),
            ("freespectra.oracles", "summarize"),
        ),
    ),
    ("solver.newton_lilypads", HOT, (("freespectra.spectrum", "newton_lilypads"),)),
    ("solver.newton_raphson", HOT, (("freespectra.solver", "newton_raphson"),)),
    ("solver.is_in_basin", HOT, (("freespectra.solver", "is_in_basin"),)),
    ("transform_algebra.eval_phi", HOT, (("freespectra.solver", "eval_phi"),)),
    (
        "transform_algebra.second_derivative_bound",
        HOT,
        (("freespectra.solver", "second_derivative_bound"),),
    ),
)

_STAT_KEYS = ("basins", "doublings", "newton_iterations", "restarts")


def mc_flops(spec, n0: int) -> float:
    """Modelled floating-point operations of one `monte_carlo_spectrum` call.

    Layer widths follow N_l = round(n0 / Lambda_l).  Each layer after the first
    multiplies its (N_l x N_{l-1}) weight into the (N_{l-1} x n0) Jacobian; the
    Gram product J^T J costs 2 n0^2 N_L and the symmetric eigenvalue solve
    about (4/3) n0^3 for the tridiagonal reduction.
    """
    widths = [n0]
    lam = 1.0
    for layer in spec.layers:
        lam *= layer.width_ratio
        widths.append(max(1, int(round(n0 / lam))))
    flops = 0.0
    for ell in range(2, len(widths)):
        flops += 2.0 * widths[ell] * widths[ell - 1] * n0
    flops += 2.0 * n0 * n0 * widths[-1] + (4.0 / 3.0) * n0**3
    return flops


class Tracer:
    """Spans and per-case aggregates of one traced pass."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list = []
        self.absent: list = []
        self._frames: list = []  # [span id or None, child seconds] per open call
        self._span_ids: list = []  # ids of the open spans, innermost last
        self._case = None
        self._agg: dict = {}
        self._counters: dict = {}
        self.by_case: dict = {}
        self._patched: list = []
        self._ids = itertools.count()

    # -- case bookkeeping -------------------------------------------------
    def begin_case(self, key) -> None:
        self._case = key
        self._agg = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total, self, rejected
        self._counters = defaultdict(float)
        self.by_case[key] = (self._agg, self._counters)
        self.active = True

    def end_case(self) -> None:
        self.active = False

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        for prefix, kind, sites in WRAPS:
            found = False
            for module_name, attr in sites:
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    continue
                found = True
                setattr(module, attr, self._wrap(prefix, kind, original))
                self._patched.append((module, attr, original))
            if not found:
                self.absent.append(prefix)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, prefix: str, kind: str, fn):
        clock = time.perf_counter
        frames = self._frames
        span_ids = self._span_ids
        spans = self.spans
        hook = _HOOKS.get(prefix)
        rejected_on_none = prefix == "solver.is_in_basin"
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [None, 0.0]
            if kind == SPAN:
                frame[0] = next(tracer._ids)
                parent = span_ids[-1] if span_ids else None
                span_ids.append(frame[0])
            frames.append(frame)
            agg = tracer._agg[prefix]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][1] += duration
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if kind == SPAN:
                    span_ids.pop()
                    spans.append((frame[0], prefix, start, end, parent, tracer._case, frame[1]))
            if rejected_on_none and result is None:
                agg[3] += 1
            if hook is not None:
                hook(tracer._counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------
    def layer_metrics(self, completed_keys) -> dict:
        """Per-layer metrics summed over the completed cases of the pass."""
        agg = defaultdict(lambda: [0, 0.0, 0.0, 0])
        counters = defaultdict(float)
        for key in completed_keys:
            case_agg, case_counters = self.by_case.get(key, ({}, {}))
            for name, values in case_agg.items():
                total = agg[name]
                for i in range(4):
                    total[i] += values[i]
            for name, value in case_counters.items():
                counters[name] += value

        out: dict = {}
        present = [prefix for prefix, _, _ in WRAPS if prefix not in self.absent]
        for prefix in present:
            calls, total, self_s, rejected = agg[prefix]
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.s"] = total
            out[f"{prefix}.self_s"] = self_s
            if prefix == "solver.is_in_basin":
                out[f"{prefix}.accepted"] = calls - rejected
                out[f"{prefix}.rejected"] = rejected
                out[f"{prefix}.accept_ratio"] = (calls - rejected) / calls if calls else 0.0
        # SolveStats fields are read by name, so a renamed field goes absent.
        for key in _STAT_KEYS:
            if f"solver.{key}" in counters:
                out[f"solver.{key}"] = int(counters[f"solver.{key}"])
        points = counters.get("solver.points", 0)
        if "solver.basins" in out and points:
            out["solver.basins_per_point"] = out["solver.basins"] / points
        if "artifacts.write_density" in present:
            out["artifacts.write_density.bytes"] = int(counters.get("artifacts.write_density.bytes", 0))
        if "oracles.monte_carlo_spectrum" in present:
            flops = counters.get("oracles.mc_flop_computed", 0.0)
            seconds = agg["oracles.monte_carlo_spectrum"][1]
            out["oracles.mc_flop_computed"] = flops
            out["oracles.mc_gflops"] = flops / seconds / 1e9 if seconds > 0 else 0.0
        return out

    def span_records(self) -> list:
        return [
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "case": list(case) if isinstance(case, tuple) else case,
                "self_s": (end - start) - child,
            }
            for span_id, name, start, end, parent, case, child in self.spans
        ]


def _density_hook(counters, args, kwargs, curve) -> None:
    counters["solver.points"] += curve.xs.size
    stats = getattr(curve, "stats", None)
    for key in _STAT_KEYS:
        if stats is not None and hasattr(stats, key):
            counters[f"solver.{key}"] += getattr(stats, key)


def _write_density_hook(counters, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is not None and os.path.exists(path):
        counters["artifacts.write_density.bytes"] += os.path.getsize(path)


def _mc_hook(counters, args, kwargs, result) -> None:
    spec = args[0] if args else kwargs["spec"]
    n0 = args[1] if len(args) > 1 else kwargs["n0"]
    counters["oracles.mc_flop_computed"] += mc_flops(spec, n0)


_HOOKS = {
    "spectrum.density_grid": _density_hook,
    "artifacts.write_density": _write_density_hook,
    "oracles.monte_carlo_spectrum": _mc_hook,
}
