"""Run one workload: set-up, timed passes under per-case deadlines, output
checks outside the timed region, metrics and the report.

The harness drives the package only through `freespectra.cli.main` and the
package's public functions.  Cases run one after another in this process (a
closed loop with one client); a case's deadline is enforced here with a
real-time interval timer, and an overrun counts as a failed case.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import freespectra
from freespectra import artifacts as fs_artifacts
from freespectra import cli as fs_cli
from freespectra import config as fs_config
from freespectra import oracles as fs_oracles
from freespectra import spectrum as fs_spectrum

import speed
import tracing
import workloads

OUT_DIR = ".perfbench-out"
SETUP_PROBES = 7
KS_THRESHOLD = 0.08
MASS_CAP = 1.02
MP_TOL = 1e-5
BRANCH_TOL = 1e-9
TAIL_BEYOND = 10

# Wall time of one untraced pass over the completed cases on a 2-core x86 box.
# A run makes max(MIN_PASSES, seconds // NOMINAL_PASS_S) passes, so the amount
# of work in a run depends only on --seconds and never on how fast this
# particular run went.
NOMINAL_PASS_S = {"sweep": 2.0, "cli": 2.8, "validate": 5.0}
MIN_PASSES = 3

# Speed-reference samples per pass, spread evenly over its cases.
REF_SAMPLES = 8

# Metric names and units come from BENCHMARK.json at the checkout root, the
# one list of what the result object carries.  case_tail_s, failed_frac,
# mass_deficit_max and ks_max are printed too but are not listed there: the
# tail sits among the few slowest cases of a workload and jumps when two of
# them swap rank, and the others are 0 or undefined on some workloads.
def metric_units(root: str) -> tuple:
    """([(name, unit)] end-to-end, [(name, unit)] per-layer) from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        [(m["name"], m["unit"]) for m in spec["per_layer"]],
    )


class DeadlineExceeded(BaseException):
    """Raised into the running case by the interval timer.

    A BaseException, so that the package's own handlers (which catch
    RuntimeError, ValueError and OSError) let it through.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


# -- solver-output capture -----------------------------------------------------


class Capture:
    """Records (master equation, z, m) of every grid-point solve of a case.

    Installed at `freespectra.spectrum.newton_lilypads`, where `density_grid`
    looks the solver up; the all-roots branch check compares against these.
    """

    def __init__(self) -> None:
        self.meq = None
        self.zs: list = []
        self.ms: list = []
        self.available = False
        self._original = None

    def reset(self) -> None:
        self.meq = None
        del self.zs[:], self.ms[:]

    def install(self) -> None:
        original = getattr(fs_spectrum, "newton_lilypads", None)
        if original is None:
            return
        zs, ms = self.zs, self.ms

        def capture(meq, z, *args, **kwargs):
            m = original(meq, z, *args, **kwargs)
            self.meq = meq
            zs.append(z)
            ms.append(m)
            return m

        self._original = original
        fs_spectrum.newton_lilypads = capture
        self.available = True

    def uninstall(self) -> None:
        if self._original is not None:
            fs_spectrum.newton_lilypads = self._original
            self._original = None

    def sample(self, count: int, seed: int) -> list:
        """(master equation, z, m) at `count` seeded grid points of the last case."""
        picks = random.Random(seed).sample(range(len(self.zs)), min(count, len(self.zs)))
        return [(self.meq, self.zs[i], self.ms[i]) for i in sorted(picks)]


# -- running one case ----------------------------------------------------------


def execute(case, paths, deadline: float, capture: Capture, tracer=None, key=None) -> dict:
    """Run a case in the timed region; returns its outcome (no checks yet)."""
    config_path, _ = paths
    argv = [case.command, "--config", config_path]
    capture.reset()
    stdout, stderr = io.StringIO(), io.StringIO()
    saved_streams = sys.stdout, sys.stderr
    outcome = {"status": "ok", "reason": "", "code": None, "roots": []}
    if tracer is not None:
        tracer.begin_case(key)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = fs_cli.main(argv)
                outcome["code"] = code
                if code == 0 and case.roots:
                    for meq, z, m in capture.sample(case.roots, case.sample_seed):
                        outcome["roots"].append((meq, z, m, fs_oracles.all_roots(meq, z).roots))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        outcome.update(status="failed", reason=f"deadline: overran {deadline:g} s")
    except Exception as exc:  # a crash inside the package is a failed case, not a harness error
        outcome.update(status="failed", reason=f"exception: {type(exc).__name__}: {exc}")
    latency = time.perf_counter() - start
    # A timer signal landing inside redirect_stdout's exit could skip the restore.
    sys.stdout, sys.stderr = saved_streams
    if tracer is not None:
        tracer.end_case()
    outcome["latency_s"] = latency
    if outcome["status"] == "ok" and outcome["code"] != 0:
        message = stderr.getvalue().strip() or stdout.getvalue().strip().replace("\n", "; ")
        outcome.update(status="failed", reason=f"exit {outcome['code']}: {message}")
    return outcome


# -- output checks (outside the timed region) ------------------------------------


def _mp_density(case, xs: np.ndarray) -> np.ndarray:
    """Marchenko-Pastur density smoothed at y, from the closed-form Stieltjes root.

    For one linear layer with gain s and ratio lam the master equation is the
    quadratic s*lam*m^2 + (s*(1+lam) - z) m + s = 0; the physical root is the
    one whose density -Im((m+1)/z)/pi is larger.
    """
    (_, lam, gain), = case.layers
    z = xs + 1j * case.y
    a, b, c = gain * lam, gain * (1.0 + lam) - z, gain
    disc = np.sqrt(b * b - 4.0 * a * c)
    q = -0.5 * np.where((np.conj(b) * disc).real >= 0, b + disc, b - disc)
    roots = np.stack([q / a, c / q])
    rho = -((roots + 1.0) / z).imag / math.pi
    return rho.max(axis=0)


def _branch_problems(samples) -> list:
    """Solver m against the all-roots oracle at the sampled grid points.

    The branch test of the package's acceptance criterion 4: m must lie within
    1e-9 of a root of P(m) - zQ(m), and that root's density -Im((m+1)/z)/pi
    must not be negative beyond -1e-10.
    """
    problems, oracle = [], []
    for _, z, m, roots in samples:
        if not all(math.isfinite(r.real) and math.isfinite(r.imag) for r in roots):
            oracle.append(f"z={z!r}: all_roots returned non-finite roots")
            continue
        distance = min((abs(m - r) for r in roots), default=math.inf)
        density = -((m + 1.0) / z).imag / math.pi
        if not (distance <= BRANCH_TOL and density >= -1e-10):
            problems.append(
                f"z={z!r}: m={m!r} is {distance:.3g} from the nearest root, density {density:.3g}"
            )
    return problems, oracle


def check_case(case, paths, outcome, capture: Capture) -> dict:
    """Output checks of a completed case; returns {check name: problem or ''}."""
    _, out_path = paths
    checks: dict = {}
    with open(out_path, "r", encoding="utf-8") as handle:
        text = handle.read()

    if case.command == "density":
        try:
            curve = fs_artifacts.read_density(out_path)
        except (ValueError, KeyError) as exc:
            checks["density_readable"] = f"{type(exc).__name__}: {exc}"
            return checks
        rhos = curve.rhos
        ok = bool(np.all(np.isfinite(rhos)) and np.all(rhos >= 0.0))
        checks["rho_finite_nonneg"] = "" if ok else "rho has a negative or non-finite value"
        # The curve is the Poisson-smoothed law, so the share of the atom that
        # the width-y Lorentzian spreads into [x_min, x_max] is part of
        # total_mass; count the atom once.  For y << x_min the share is ~0 and
        # this is plain total_mass + atom <= 1.02.
        y, atom = curve.y, curve.atom_lower_bound
        leak = atom * (math.atan(curve.xs[-1] / y) - math.atan(curve.xs[0] / y)) / math.pi
        total = curve.total_mass + atom - leak
        checks["mass_le_1.02"] = (
            "" if total <= MASS_CAP else f"total_mass + atom - smoothed atom in window = {total!r}"
        )
        same = fs_artifacts.render_density(curve, case.fmt) == text
        checks["density_round_trip"] = "" if same else "re-rendered artifact differs"
        outcome["mass_deficit"] = 1.0 - curve.atom_lower_bound - curve.total_mass
        if case.depth == 1 and case.layers[0][0] == "linear":
            err = float(np.max(np.abs(rhos - _mp_density(case, curve.xs)) / np.maximum(1.0, rhos)))
            outcome["mp_error"] = err
            checks["marchenko_pastur"] = "" if err <= MP_TOL else f"sup error {err:.3e} > {MP_TOL:g}"
    elif case.command == "quantiles":
        try:
            table = fs_artifacts.read_quantiles(out_path)
        except (ValueError, KeyError) as exc:
            checks["quantiles_readable"] = f"{type(exc).__name__}: {exc}"
            return checks
        same = fs_artifacts.render_quantiles(table, case.fmt) == text
        checks["quantiles_round_trip"] = "" if same else "re-rendered artifact differs"
        values = np.asarray(table.values)
        ok = bool(np.all(np.isfinite(values)) and np.all(np.diff(values) >= 0.0))
        checks["quantiles_monotone"] = "" if ok else f"values not monotone: {table.values}"
    elif case.command == "validate":
        checks.update(_ks_check(outcome, text))

    if capture.available:
        samples = outcome["roots"]
        if not case.roots:
            samples = [
                (meq, z, m, fs_oracles.all_roots(meq, z).roots)
                for meq, z, m in capture.sample(workloads.BRANCH_SAMPLES, case.sample_seed)
            ]
        problems, oracle = _branch_problems(samples)
        checks["branch_all_roots"] = "; ".join(problems[:2])
        checks["all_roots_finite"] = "; ".join(oracle[:2])
    return checks


def _ks_check(outcome, text: str) -> dict:
    fields = dict(
        line.split(":", 1) for line in text.splitlines() if ":" in line
    )
    try:
        ks = float(fields["ks_distance"])
    except (KeyError, ValueError):
        return {"ks_within_0.08": "report has no ks_distance"}
    outcome["ks"] = ks
    return {"ks_within_0.08": "" if ks <= KS_THRESHOLD else f"ks_distance {ks:.4f} > {KS_THRESHOLD}"}


# -- passes --------------------------------------------------------------------


def run_checked(case, paths, deadline, capture, tracer=None, key=None) -> dict:
    """Run a case once, then check its output outside the timed region."""
    outcome = execute(case, paths, deadline, capture, tracer, key)
    outcome["checks"] = {}
    if outcome["status"] == "ok":
        outcome["checks"] = check_case(case, paths, outcome, capture)
        bad = {name: why for name, why in outcome["checks"].items() if why}
        if bad:
            reason = "check: " + "; ".join(f"{k}: {v}" for k, v in bad.items())
            outcome.update(status="failed", reason=reason)
            # Non-finite all-roots output leaves the case unverified rather
            # than wrong, unless the all-roots solve is the case's own work.
            outcome["silent_wrong"] = bool(set(bad) - {"all_roots_finite"}) or bool(case.roots)
    elif case.command == "validate" and outcome.get("code") == 1:
        # The command ran to the end and reported its own KS failure.
        if os.path.exists(paths[1]):
            with open(paths[1], "r", encoding="utf-8") as handle:
                outcome["checks"] = _ks_check(outcome, handle.read())
    outcome.pop("roots", None)
    outcome["raw_latencies"] = [outcome["latency_s"]]
    outcome["latencies"] = []
    return outcome


def run_passes(workload, cases, paths, capture, count: int) -> list:
    """`count` passes over the cases, one case after another.

    The first pass runs and checks every case.  Later passes time again only
    the cases that completed, so a failed case is attempted once per run.
    Each pass also times the workload's speed reference about REF_SAMPLES
    times between its cases, and its latencies are scaled to reference
    seconds by the median of those samples.  A case's latency is the median
    of its scaled latencies.
    """
    deadline = workloads.DEADLINE_S[workload]
    reference = workloads.REFERENCE[workload]
    every = max(1, len(cases) // REF_SAMPLES)
    outcomes: list = []
    for index in range(count):
        samples, ran = [], []
        for position, case in enumerate(cases):
            if position % every == 0:
                samples.append(speed.sample(reference))
            if index == 0:
                outcome = run_checked(case, paths[case.case_id], deadline, capture)
                outcomes.append(outcome)
            else:
                outcome = outcomes[position]
                if outcome["status"] != "ok":
                    continue
                again = execute(case, paths[case.case_id], deadline, capture)
                outcome["raw_latencies"].append(again["latency_s"])
                if again["status"] != "ok":
                    outcome.update(status="failed", reason=f"pass {index}: {again['reason']}")
            ran.append(outcome)
        factor = speed.scale(reference, samples)
        for outcome in ran:
            outcome["latencies"].append(outcome["raw_latencies"][-1] * factor)
    for outcome in outcomes:
        outcome["latency_s"] = statistics.median(outcome["latencies"])
        outcome["raw_latency_s"] = statistics.median(outcome["raw_latencies"])
    return list(zip(cases, outcomes))


# -- metrics -------------------------------------------------------------------


def tail(latencies: list) -> tuple:
    """Highest percentile with at least TAIL_BEYOND cases beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return math.inf, 0.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def end_to_end_metrics(results: list, setup_s) -> tuple:
    """Metrics of one run; wall time and throughput cover completed cases only,
    so a deadline overrun shows in `failed`, not as deadline time."""
    completed = [(case, o) for case, o in results if o["status"] == "ok"]
    latencies = [o["latency_s"] if o["status"] == "ok" else math.inf for _, o in results]
    wall = sum(o["latency_s"] for _, o in completed)
    tail_value, tail_pct, count = tail(latencies)
    deficits = [o["mass_deficit"] for _, o in completed if "mass_deficit" in o]
    metrics = {
        "wall_s": wall,
        "case_p50_s": statistics.median(latencies),
        "points_per_s": sum(case.points for case, _ in completed) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    attempted = len(latencies)
    failed = attempted - len(completed)
    extra = {
        "failed_frac": failed / attempted,
        "case_tail_s": tail_value,
        "tail_percentile": tail_pct,
        "cases": count,
        "passes": max(len(o["raw_latencies"]) for _, o in results),
        "raw_wall_s": sum(o["raw_latency_s"] for _, o in completed),
    }
    if deficits:
        extra["mass_deficit_max"] = max(deficits)
    ks = [o["ks"] for _, o in results if "ks" in o]
    if ks:
        extra["ks_max"] = max(ks)
    return metrics, extra, attempted, failed


# -- set-up --------------------------------------------------------------------


def prepare(workload: str, seed: int, directory: str) -> tuple:
    """Generate the workload's configs, write and parse them."""
    cases = workloads.build_cases(workload, seed)
    paths = workloads.write_configs(cases, directory)
    for config_path, _ in paths.values():
        fs_config.load_config(config_path)
    return cases, paths


def setup_probe(workload: str, seed: int, root: str) -> int:
    """Body of one set-up probe: configs plus one warm-up case, in a fresh interpreter."""
    directory = tempfile.mkdtemp(prefix="probe-", dir=os.path.join(root, OUT_DIR))
    try:
        cases, paths = prepare(workload, seed, directory)
        signal.signal(signal.SIGALRM, _on_alarm)
        outcome = execute(cases[0], paths[cases[0].case_id], workloads.DEADLINE_S[workload], Capture())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0 if outcome["status"] == "ok" else 1


def measure_setup(workload: str, seed: int, script: str) -> float:
    """Median over SETUP_PROBES fresh interpreters running the set-up, each
    wall time scaled to reference seconds by speed samples taken just before."""
    walls = []
    for _ in range(SETUP_PROBES):
        reference = workloads.REFERENCE[workload]
        factor = speed.scale(reference, [speed.sample(reference) for _ in range(3)])
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, script, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
            check=False,
        )
        walls.append((time.perf_counter() - start) * factor)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.decode(errors='replace').strip()}")
    return statistics.median(walls)


# -- environment ---------------------------------------------------------------


def _git_commit(root: str) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=False
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "freespectra": getattr(freespectra, "__version__", "unknown"),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "FREESPECTRA_THREADS": os.environ.get("FREESPECTRA_THREADS", "unset"),
        "deadline_s": workloads.DEADLINE_S[workload],
        "platform": platform.platform(),
    }


# -- the run -------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def run(workload: str, seed: int, seconds: int, trace: int, root: str, script: str) -> int:
    end_to_end, per_layer = metric_units(root)
    out_root = os.path.join(root, OUT_DIR)
    os.makedirs(out_root, exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_root)
    signal.signal(signal.SIGALRM, _on_alarm)
    env = environment(root, workload, seed, seconds, trace)
    capture = Capture()
    tracer = None
    try:
        setup_s = None if trace else measure_setup(workload, seed, script)
        cases, paths = prepare(workload, seed, directory)
        capture.install()
        execute(cases[0], paths[cases[0].case_id], workloads.DEADLINE_S[workload], capture)
        # Keep the harness's own long-lived objects out of the collector's
        # scans, as they would be in a fresh `freespectra` process.
        gc.collect()
        gc.freeze()

        count = 1 if trace else max(MIN_PASSES, int(seconds // NOMINAL_PASS_S[workload]))
        results = run_passes(workload, cases, paths, capture, count)
        shown = [results]
        layer = None
        if trace:
            # One untraced pass (above) and one traced pass: their difference
            # is the tracing overhead.
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = [
                    (case, run_checked(case, paths[case.case_id], workloads.DEADLINE_S[workload],
                                       capture, tracer, (1, case.case_id)))
                    for case in cases
                ]
            finally:
                tracer.uninstall()
            done = [(1, case.case_id) for case, o in traced if o["status"] == "ok"]
            layer = tracer.layer_metrics(done)
            layer["trace.overhead_s"] = sum(o["latency_s"] for _, o in traced) - sum(
                o["raw_latency_s"] for _, o in results
            )
            layer["trace.timed_out_cases"] = sum(
                1 for _, o in traced if o["reason"].startswith("deadline")
            )
            shown.append(traced)
    finally:
        capture.uninstall()
        shutil.rmtree(directory, ignore_errors=True)

    metrics, extra, attempted, failed = end_to_end_metrics(results, setup_s)
    result = {
        "correct": not any(o.get("silent_wrong") for results in shown for _, o in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    if trace:
        result["metrics"] = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in per_layer if name in layer
        }
    else:
        result["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in end_to_end}
    _print_report(env, shown, metrics, extra, layer, tracer, end_to_end, per_layer)

    record = dict(result, env=env, extra=extra, cases=[
        dict(case.record(), traced=bool(index), status=o["status"], reason=o["reason"],
             latency_s=o["latency_s"], latencies=o["latencies"],
             raw_latencies=o["raw_latencies"], checks=o["checks"],
             **{k: o[k] for k in ("mass_deficit", "ks", "mp_error") if k in o})
        for index, results in enumerate(shown) for case, o in results
    ])
    if trace:
        record["layer_all"] = layer
        record["spans"] = tracer.span_records()
    name = f"result-{workload}-seed{seed}-trace{trace}.json"
    with open(os.path.join(out_root, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(f"result written to {OUT_DIR}/{name}")
    print(json.dumps(result))
    return 0


def _print_report(env, shown, metrics, extra, layer, tracer, end_to_end, per_layer) -> None:
    """Human-readable lines: environment, every case, check tallies, failed
    specs, then each metric with its unit."""
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for index, results in enumerate(shown):
        for case, o in results:
            if index:
                timing = f"{o['latency_s']:.4f} s traced"
            else:
                timing = (f"{o['latency_s']:.4f} ref-s, {o['raw_latency_s']:.4f} s "
                          f"(median of {len(o['raw_latencies'])})")
            line = f"{'traced' if index else 'run'} {case.case_id} {o['status']:6s} {timing}  {case.describe()}"
            if o["reason"]:
                line += f"  -- {o['reason']}"
            print(line)
    check_totals: dict = {}
    for results in shown:
        for _, o in results:
            for name, why in o["checks"].items():
                ok_count, total = check_totals.get(name, (0, 0))
                check_totals[name] = (ok_count + (not why), total + 1)
    print("checks: " + ", ".join(f"{k} {ok}/{n} passed" for k, (ok, n) in sorted(check_totals.items())))
    failed_specs = sorted(
        {(case.case_id, case.describe(), o["reason"].split(":")[0])
         for results in shown for case, o in results if o["status"] != "ok"}
    )
    for case_id, text, why in failed_specs:
        print(f"failed: {case_id} ({why}) {text}")
    if layer is None:
        for name, unit in end_to_end:
            line = f"metric {name} = {_fmt(metrics[name])} {unit}"
            if name == "wall_s":
                line += f"  (unscaled {_fmt(extra['raw_wall_s'])} s)"
            if name == "case_p50_s":
                line += f"  (median of {extra['cases']} cases, each the median of up to {extra['passes']} passes)"
                line += (
                    f"\nmetric case_tail_s = {_fmt(extra['case_tail_s'])} s"
                    f"  (p{extra['tail_percentile']:.1f}: {TAIL_BEYOND} of {extra['cases']} cases beyond it)"
                )
            print(line)
        print(f"metric failed_frac = {_fmt(extra['failed_frac'])} ratio  "
              f"({round(extra['failed_frac'] * extra['cases'])}/{extra['cases']} cases)")
        for name in ("mass_deficit_max", "ks_max"):
            if name in extra:
                print(f"metric {name} = {_fmt(extra[name])} ratio")
        return
    if tracer.absent:
        print("absent (patch site missing): " + ", ".join(tracer.absent))
    traced_wall = sum(o["latency_s"] for case, o in shown[-1] if o["status"] == "ok")
    shares = sorted(
        ((layer[name] / traced_wall, name[: -len(".self_s")]) for name in layer if name.endswith(".self_s")),
        reverse=True,
    )
    print("self-time share of the completed traced cases: "
          + ", ".join(f"{name} {share:.1%}" for share, name in shares))
    for name, unit in per_layer:
        print(f"layer {name} = {_fmt(layer[name])} {unit}" if name in layer else f"layer {name} absent")
