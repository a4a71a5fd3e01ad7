"""Acceptance gate: the eight headline guarantees, one pass/fail line each.

Each test prints a `[PASS]`/`[FAIL] criterion N` line outside the capture
(so it lands in piped logs) and then asserts, so the suite both reports and
enforces.  Tolerances and runtime caps are stated inline next to each check.
"""

import json
import math
import time
import warnings

import numpy as np

from _grid_moments import grid_moments, support_upper_bound
from _s_transform import (
    compose_layers,
    factor_coefficients,
    factor_roots,
    layer_s_transforms,
    master_from_s_transform,
)
from freespectra import (
    LayerSpec,
    NetworkSpec,
    Nonlinearity,
    SolveStats,
    all_roots,
    closed_form_moments,
    cli,
    default_grid,
    density_grid,
    eval_phi,
    is_in_basin,
    ks_distance,
    master_from_spec,
    master_from_summary,
    monte_carlo_spectrum,
    newton_lilypads,
    newton_raphson,
    summarize,
)
from freespectra.artifacts import read_density, read_quantiles

ALL_NLS = (Nonlinearity.LINEAR, Nonlinearity.RELU, Nonlinearity.HARD_TANH, Nonlinearity.HARD_SINE)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _random_spec(rng, max_depth=6, nls=ALL_NLS, sigma_hi=4.0):
    return NetworkSpec(
        layers=tuple(
            LayerSpec(
                nonlinearity=nls[rng.integers(0, len(nls))],
                sigma_w_sq=float(rng.uniform(0.5, sigma_hi)),
                width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
            )
            for _ in range(int(rng.integers(1, max_depth + 1)))
        )
    )


def test_criterion_1_marchenko_pastur_exactness(capsys):
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),))
    xs = np.logspace(-3, math.log10(5.0), 400)
    start = time.perf_counter()
    curve = density_grid(master_from_spec(spec), xs=xs, y=1e-9)
    elapsed = time.perf_counter() - start
    mask = (xs >= 0.1) & (xs <= 3.9)
    exact = np.sqrt(xs[mask] * (4.0 - xs[mask])) / (2.0 * math.pi * xs[mask])
    err = float(np.max(np.abs(curve.rhos[mask] - exact)))
    ok = err <= 1e-5 and elapsed <= 1.0
    _report(capsys, 1, ok, f"MP density sup error {err:.2e} (tol 1e-5) in {elapsed:.2f}s (cap 1s)")


def test_criterion_2_moment_consistency(capsys):
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    worst_m1 = worst_var = 0.0
    for _ in range(50):
        spec = _random_spec(rng)
        meq = master_from_spec(spec)
        closed = closed_form_moments(meq)
        xs = default_grid(meq, points=400, x_max=support_upper_bound(spec))
        curve = density_grid(meq, xs=xs, y=1e-6)
        grid = grid_moments(curve)
        worst_m1 = max(worst_m1, abs(grid.m1 - closed.m1) / closed.m1)
        grid_var = grid.m2 - grid.m1**2
        worst_var = max(worst_var, abs(grid_var - closed.variance) / closed.variance)
    elapsed = time.perf_counter() - start
    ok = worst_m1 <= 0.01 and worst_var <= 0.05 and elapsed <= 30.0
    _report(
        capsys,
        2,
        ok,
        f"50 random specs: worst m1 error {100 * worst_m1:.3f}% (tol 1%), "
        f"worst variance error {100 * worst_var:.3f}% (tol 5%) in {elapsed:.1f}s (cap 30s)",
    )


def test_criterion_3_monte_carlo_agreement(capsys):
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(4)))
    start = time.perf_counter()
    meq = master_from_spec(spec)
    distances = []
    for seed in (0, 1, 2):
        emp = monte_carlo_spectrum(spec, 1000, seed=seed)
        distances.append(ks_distance(emp, meq))
    elapsed = time.perf_counter() - start
    ok = max(distances) <= 0.08 and elapsed <= 60.0
    _report(
        capsys,
        3,
        ok,
        "ReLU depth-4 KS distances "
        + ", ".join(f"{d:.4f}" for d in distances)
        + f" (tol 0.08 each) in {elapsed:.1f}s (cap 60s)",
    )


def test_criterion_4_branch_correctness(capsys):
    rng = np.random.default_rng(40404)
    mismatches = 0
    worst_dist = 0.0
    worst_density = 0.0
    for _ in range(1000):
        spec = _random_spec(rng)
        meq = master_from_spec(spec)
        m1 = closed_form_moments(meq).m1
        z = complex(
            float(rng.uniform(-1.0, 20.0)) * m1,
            float(10 ** rng.uniform(-9, 1)),
        )
        m = newton_lilypads(meq, z)
        dist = min(abs(m - r) for r in all_roots(meq, z).roots)
        density = -((m + 1) / z).imag / math.pi
        worst_dist = max(worst_dist, dist)
        worst_density = min(worst_density, density)
        if dist > 1e-9 or density < -1e-10:
            mismatches += 1
    ok = mismatches == 0
    _report(
        capsys,
        4,
        ok,
        f"1000 random (spec, z): {mismatches} mismatches (allowed 0); "
        f"worst root distance {worst_dist:.2e} (tol 1e-9), "
        f"worst density {worst_density:.2e} (floor -1e-10)",
    )


def test_criterion_5_kantorovich_soundness(capsys):
    # z and start sampling is free; we concentrate on shallow-to-mid nets so
    # the 1e-12 residual stays above the Horner noise floor, and verify the
    # certificate's t* inclusion for every certified start regardless
    rng = np.random.default_rng(50505)
    certified = 0
    residual_checked = 0
    worst_resid = 0.0
    worst_iters = 0
    attempts = 0
    while certified < 10_000 and attempts < 400_000:
        spec = _random_spec(rng, max_depth=4, sigma_hi=2.5)
        meq = master_from_spec(spec)
        m1 = closed_form_moments(meq).m1
        z = complex(
            float(rng.uniform(0.1, 5.0)) * m1,
            float(10 ** rng.uniform(-3, 1)) * max(1.0, m1),
        )
        roots = all_roots(meq, z).roots
        candidates = [0j]
        for root in roots:
            for _ in range(3):
                radius = float(10 ** rng.uniform(-4, -0.5)) * max(1.0, abs(root))
                angle = float(rng.uniform(0, 2 * math.pi))
                candidates.append(root + radius * complex(math.cos(angle), math.sin(angle)))
        for m0 in candidates:
            attempts += 1
            cert = is_in_basin(meq, z, m0)
            if cert is None:
                continue
            certified += 1
            stats = SolveStats()
            m = newton_raphson(meq, z, m0, stats=stats)  # raises on divergence
            worst_iters = max(worst_iters, stats.newton_iterations)
            # every root is <= 0, so P's coefficients are nonnegative and
            # sum_k |c_k| |m|^k = prod_j gain (|m| + |r_j|)
            majorant = math.prod(meq.gain * (abs(m) + abs(r)) for r in factor_roots(meq))
            floor = 4.0 * 2.0**-52 * (majorant / abs(z) + abs(m))
            # the true root lies within t* of m0; the returned iterate adds its
            # own stopping error, at most ~kappa * final residual
            slack = 4.0 * cert.kappa * max(1e-12, floor) + 1e-15
            assert abs(m - m0) <= cert.t_star + slack
            if floor < 1e-13:
                residual_checked += 1
                resid = abs(eval_phi(meq, z, m)[0])
                worst_resid = max(worst_resid, resid)
                assert resid < 1e-12
            if certified >= 10_000:
                break
    ok = certified >= 10_000 and worst_iters <= 100 and worst_resid < 1e-12
    _report(
        capsys,
        5,
        ok,
        f"{certified} certified starts, all converged within {worst_iters} iters "
        f"(cap 100); {residual_checked} floor-clean starts hit residual "
        f"{worst_resid:.2e} (tol 1e-12); t* inclusion held throughout",
    )


def test_criterion_6_telescoping_equivalence(capsys):
    rng = np.random.default_rng(60606)
    worst = 0.0
    for _ in range(100):
        spec = _random_spec(rng)
        summaries = summarize(spec)
        direct = master_from_summary(summaries)
        P, Q = master_from_s_transform(compose_layers(layer_s_transforms(summaries)))
        factored = factor_coefficients(direct)
        assert len(P.coeffs) == len(factored)
        assert Q.coeffs == (0j, 1 + 0j)
        for got, want in zip(P.coeffs, factored):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-12
    _report(capsys, 6, ok, f"100 random specs: worst composed-vs-factored coefficient gap {worst:.2e} (tol 1e-12)")


def test_criterion_7_quantile_observable(tmp_path, capsys):
    payload = {
        "network": {"layers": [{"nonlinearity": "relu", "sigma_w_sq": 2.0}] * 4},
        "grid": {"points": 400},
    }
    config = tmp_path / "relu4.json"
    config.write_text(json.dumps(payload))
    outs = [tmp_path / "q1.csv", tmp_path / "q2.csv"]
    for out in outs:
        assert cli.main(["quantiles", "--config", str(config), "--out", str(out)]) == 0
    identical = outs[0].read_bytes() == outs[1].read_bytes()

    dens = tmp_path / "d.csv"
    assert cli.main(["density", "--config", str(config), "--out", str(dens)]) == 0
    curve = read_density(str(dens))
    table = read_quantiles(str(outs[0]))
    q90 = table.values[list(table.probs).index(0.9)]
    # brute-force inversion: adaptive quadrature of the piecewise-linear
    # interpolant (log-gridded spike at low x rules out uniform resampling)
    from scipy.integrate import quad
    from scipy.optimize import brentq

    def interp_rho(v):
        return float(np.interp(v, curve.xs, curve.rhos))

    def cdf(v):
        lo = math.log10(curve.xs[0])
        cuts = np.logspace(lo, math.log10(v), 24)
        with warnings.catch_warnings():
            # grid kinks inside each segment trip quad's roundoff heuristic;
            # the 1e-3 comparison tolerance dwarfs the flagged error
            warnings.simplefilter("ignore")
            return sum(
                quad(interp_rho, a, b, epsabs=1e-10, epsrel=1e-9, limit=400)[0]
                for a, b in zip(cuts[:-1], cuts[1:])
            )

    target = 0.9 * cdf(float(curve.xs[-1]))
    q90_bf = brentq(lambda v: cdf(v) - target, float(curve.xs[0]), float(curve.xs[-1]), xtol=1e-10)
    gap = abs(q90 - q90_bf)
    ok = identical and gap <= 1e-3
    _report(
        capsys,
        7,
        ok,
        f"90th percentile byte-identical across runs: {identical}; "
        f"CLI {q90!r} vs quadrature inversion {q90_bf:.6f}, gap {gap:.2e} (tol 1e-3)",
    )


def test_criterion_8_bench_substitution(tmp_path, capsys):
    # training-correlation tables and absolute timings are out of desk scope;
    # the stated substitute is the warm-start sublinearity of the bench
    counts = {}
    rows_ok = True
    for points in (200, 400):
        payload = {
            "network": {"layers": [{"nonlinearity": "linear", "sigma_w_sq": 1.0}]},
            "grid": {"points": points},
            "mc": {"n0": 200, "seed": 0},
        }
        config = tmp_path / f"mp_{points}.json"
        config.write_text(json.dumps(payload))
        assert cli.main(["bench", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("method")]
        rows_ok = rows_ok and len(lines) == 3 and all(float(l.split(",")[1]) > 0 for l in lines)
        lily = next(l for l in lines if l.startswith("lilypads_grid"))
        counts[points] = int(lily.split(",")[3])
    factor = counts[400] / counts[200]
    ok = rows_ok and factor < 2.0
    _report(
        capsys,
        8,
        ok,
        f"bench rows positive: {rows_ok}; Newton iterations {counts[200]} -> {counts[400]} "
        f"on 200->400 points, growth factor {factor:.3f} (required < 2)",
    )
