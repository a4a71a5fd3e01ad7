"""Density grids, quantiles, moments, and their bookkeeping."""

import gc
import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import freespectra.oracles as oracles_module
import freespectra.solver as solver_module
import freespectra.spectrum as spectrum_module
from _curves import uniform_density_curve
from _grid_moments import grid_moments, layer_moments, support_upper_bound
from _s_transform import phi_errors
from freespectra.oracles import all_roots
from freespectra import (
    DensityCurve,
    LayerSpec,
    NetworkSpec,
    Nonlinearity,
    SolverError,
    SolveStats,
    atom_lower_bound,
    branch_roots,
    cdf,
    closed_form_moments,
    default_grid,
    density_grid,
    eval_phi,
    ks_distance,
    master_from_spec,
    monte_carlo_spectrum,
    newton_lilypads,
    quantiles,
)


def mp_spec():
    return NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),))


def relu4_spec():
    return NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(4)))


def mp_cdf(t):
    """Closed-form MP(1) CDF via the substitution x = u^2."""
    u = math.sqrt(t)
    return (u * math.sqrt(4 - u * u) / 2 + 2 * math.asin(u / 2)) / math.pi


# ------------------------------------------------------------------ envelopes


def test_atom_lower_bound_values():
    assert atom_lower_bound(master_from_spec(mp_spec())) == 0.0
    assert atom_lower_bound(master_from_spec(relu4_spec())) == 0.5
    wide = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=2.0),))
    assert atom_lower_bound(master_from_spec(wide)) == 0.5
    ht = NetworkSpec(layers=(LayerSpec(Nonlinearity.HARD_TANH, 1.0),))
    assert atom_lower_bound(master_from_spec(ht)) == pytest.approx(0.31731050786291415, rel=1e-12)
    mixed = NetworkSpec(
        layers=(
            LayerSpec(Nonlinearity.RELU, 2.0),
            LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=4.0),
        )
    )
    assert atom_lower_bound(master_from_spec(mixed)) == pytest.approx(0.75, rel=1e-12)


def test_support_upper_bound_values():
    assert support_upper_bound(mp_spec()) == pytest.approx(4.0, rel=1e-12)
    assert support_upper_bound(relu4_spec()) == pytest.approx(4096.0, rel=1e-12)
    wide = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.5, width_ratio=2.0),))
    assert support_upper_bound(wide) == pytest.approx(1.5 * (1 + math.sqrt(2)) ** 2, rel=1e-12)


def test_default_grid_brackets_from_moments():
    meq = master_from_spec(mp_spec())
    xs = default_grid(meq)
    assert xs.size == 200
    assert xs[0] == pytest.approx(1e-4, rel=1e-12)
    assert xs[-1] == pytest.approx(11.0, rel=1e-12)
    assert np.all(np.diff(xs) > 0)
    # log spacing: constant ratio
    ratios = xs[1:] / xs[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-9)


# -------------------------------------------------------------------- density


def test_density_matches_mp_closed_form_at_two():
    curve = density_grid(master_from_spec(mp_spec()), xs=np.array([2.0, 5.0]), y=1e-9)
    assert abs(curve.rhos[0] - 1 / (2 * math.pi)) <= 1e-6
    assert curve.rhos[1] <= 1e-8  # outside [0, 4]
    assert curve.y == 1e-9


def test_density_flattens_as_y_grows():
    meq = master_from_spec(mp_spec())
    soft = density_grid(meq, xs=np.array([1.0, 2.0]), y=1.0)
    sharp = density_grid(meq, xs=np.array([1.0, 2.0]), y=1e-4)
    assert soft.rhos[1] < sharp.rhos[1]


def test_density_reverse_traversal_invariance():
    # walking the grid upward from its smallest x finds the density that
    # density_grid's downward walk finds
    spec = relu4_spec()
    meq = master_from_spec(spec)
    xs = default_grid(meq, points=60)
    fwd = density_grid(meq, xs=xs, y=1e-6)
    zs = xs + 1e-6j
    ms = spectrum_module._walk_roots(meq, zs, SolveStats())
    rev = np.maximum(-((ms + 1.0) / zs).imag / math.pi, 0.0)
    assert np.max(np.abs(fwd.rhos - rev)) <= 1e-9


def record_grid_roots(monkeypatch):
    """Install recorders of every root a density grid solves; returns their list.

    A grid's roots come from its sequential solves and its lockstep batch; each
    entry is (z, m, whether m came from the batch).
    """
    solved = []
    original = spectrum_module.newton_lilypads
    original_batch = spectrum_module.newton_lockstep

    def recording(meq, z, *args):
        m = original(meq, z, *args)
        solved.append((z, m, False))
        return m

    def recording_batch(meq, z, *args):
        ms = original_batch(meq, z, *args)
        solved.extend((z, m, True) for z, m in zip(z.tolist(), ms.tolist()))
        return ms

    monkeypatch.setattr("freespectra.spectrum.newton_lilypads", recording)
    monkeypatch.setattr("freespectra.spectrum.newton_lockstep", recording_batch)
    return solved


def test_density_grid_refuses_a_negative_density(monkeypatch):
    # roots on the conjugate branch give rho < 0; the grid names the first x
    original = spectrum_module._walk_roots
    monkeypatch.setattr(
        spectrum_module, "_walk_roots", lambda meq, zs, stats: np.conj(original(meq, zs, stats))
    )
    meq = master_from_spec(mp_spec())
    xs = np.linspace(0.5, 3.5, 50)
    with pytest.raises(SolverError, match="negative density .* at x=") as info:
        density_grid(meq, xs=xs, y=1e-6)
    assert info.value.z == complex(xs[0], 1e-6)


def test_density_assembly_matches_per_point_division(monkeypatch):
    # rho is assembled with numpy's complex division; the per-point Python
    # division is the reference, up to a few ulps of either rounding
    solved = record_grid_roots(monkeypatch)
    meq = master_from_spec(relu4_spec())
    xs = default_grid(meq, points=200)
    curve = density_grid(meq, xs=xs, y=1e-6)
    reference = {z.real: max(0.0, -((m + 1.0) / z).imag / math.pi) for z, m, _ in solved}
    expected = np.array([reference[x] for x in xs.tolist()])
    assert np.all(np.abs(curve.rhos - expected) <= 4 * np.spacing(expected))


@pytest.mark.parametrize("nonlinearity", list(Nonlinearity))
def test_every_grid_root_is_on_the_decaying_branch(monkeypatch, nonlinearity):
    # criterion 4's test at every point of a grid, the batched ones included:
    # m lies within 1e-9 of a root of the master equation and rho >= -1e-10
    solved = record_grid_roots(monkeypatch)
    batched = 0
    for depth in (1, 2, 5, 16):
        spec = NetworkSpec(
            layers=tuple(LayerSpec(nonlinearity, 1.5, width_ratio=0.5) for _ in range(depth))
        )
        meq = master_from_spec(spec)
        xs = default_grid(meq, points=150)
        for y in (1e-3, 1e-6, 1e-9):
            del solved[:]
            density_grid(meq, xs=xs, y=y)
            assert sorted(z.real for z, _, _ in solved) == xs.tolist()
            batched += sum(in_batch for _, _, in_batch in solved)
            for z, m, _ in solved:
                distance = min(abs(m - r) for r in all_roots(meq, z).roots)
                assert distance <= 1e-9, (spec, z, m, distance)
                assert -((m + 1) / z).imag / math.pi >= -1e-10, (spec, z, m)
    assert batched > 500


@pytest.mark.parametrize(
    "nonlinearity, gain, depth",
    [(Nonlinearity.LINEAR, 1.0, 16), (Nonlinearity.HARD_SINE, 1.5, 32), (Nonlinearity.RELU, 2.0, 64)],
)
def test_deep_grid_halves_rejected_jumps(monkeypatch, nonlinearity, gain, depth):
    # on deep nets a 64-point jump rarely certifies but an 8-point one does;
    # halving the rejected segments keeps most points in the batch instead
    # of walking all 400 in sequence
    calls = {"sequential": 0}
    original = spectrum_module.newton_lilypads

    def counting(*args):
        calls["sequential"] += 1
        return original(*args)

    monkeypatch.setattr("freespectra.spectrum.newton_lilypads", counting)
    spec = NetworkSpec(layers=tuple(LayerSpec(nonlinearity, gain) for _ in range(depth)))
    meq = master_from_spec(spec)
    density_grid(meq, xs=default_grid(meq, points=400), y=1e-6)
    assert calls["sequential"] <= 64


def walk_grid(meq, points, y):
    """_walk_roots on a default grid of the given size, largest x first, and its stats."""
    xs = default_grid(meq, points=points)
    stats = SolveStats()
    return spectrum_module._walk_roots(meq, xs[::-1] + 1j * y, stats), stats


@pytest.mark.parametrize(
    "layers, y",
    [
        (((Nonlinearity.RELU, 2.0, 0.5), (Nonlinearity.LINEAR, 1.0, 2.0)), 1e-6),
        (((Nonlinearity.HARD_SINE, 1.5, 2.0),) * 3, 1e-9),
        (((Nonlinearity.LINEAR, 1.0, 1.0),) * 16, 1e-6),
    ],
)
def test_grid_blocks_change_no_root_or_counter(monkeypatch, layers, y):
    # the batched pass's arithmetic is per point, so 7-point blocks and one
    # block for the whole grid give the same roots and counters, bit for bit
    spec = NetworkSpec(layers=tuple(LayerSpec(n, gain, width_ratio=r) for n, gain, r in layers))
    meq = master_from_spec(spec)
    runs = []
    for block in (7, 10**9):
        monkeypatch.setattr(spectrum_module, "_BLOCK", block)
        runs.append(walk_grid(meq, 2000, y))
    (small, small_stats), (whole, whole_stats) = runs
    assert np.array_equal(small.view(np.uint64), whole.view(np.uint64))
    assert small_stats == whole_stats
    assert small_stats.rejected_tests > 0


@pytest.mark.parametrize("points", [400, 2000, 5000, 20000])
def test_grid_makes_at_least_eight_sequential_solves(monkeypatch, points):
    # the doubling stride is capped at (n - 1) // 8 points, so even a grid
    # whose every jump certifies is sampled by 8 sequential solves
    calls = {"sequential": 0}
    original = spectrum_module.newton_lilypads

    def counting(*args):
        calls["sequential"] += 1
        return original(*args)

    monkeypatch.setattr("freespectra.spectrum.newton_lilypads", counting)
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=0.5),))
    meq = master_from_spec(spec)
    density_grid(meq, xs=default_grid(meq, points=points), y=1e-6)
    assert calls["sequential"] >= 8


def relu_linear_grid_stats(points):
    """The counters of the ReLU + linear net's default grid of the given size, at y = 1e-6."""
    spec = NetworkSpec(
        layers=(LayerSpec(Nonlinearity.RELU, 2.0), LayerSpec(Nonlinearity.LINEAR, 1.0))
    )
    meq = master_from_spec(spec)
    return density_grid(meq, default_grid(meq, points=points), y=1e-6).stats


@pytest.mark.parametrize("points", [100, 20000])
def test_every_accepted_certificate_test_leads_to_one_basin(points):
    # 125 = 169 - 44 and 20,012 = 20,060 - 48; every grid point takes at least one
    stats = relu_linear_grid_stats(points)
    assert stats.basins == stats.certificate_tests - stats.rejected_tests, stats
    assert stats.basins >= points, stats


def test_tangent_predictor_keeps_coarse_rejections_low():
    # the coarse pass starts its jumps from the branch tangent: 41 rejected
    # tests on this 400-point grid, against 57 when every jump started from
    # its head's root
    stats = relu_linear_grid_stats(400)
    assert stats.rejected_tests < 50, stats


def test_hermite_starts_keep_a_large_grid_below_two_newton_iterations_per_point():
    # each batched point starts from the cubic Hermite interpolant between
    # its two solved neighbours: 37,388 iterations on 20,000 points
    stats = relu_linear_grid_stats(20000)
    assert stats.newton_iterations < 2 * 20000, stats


def test_points_far_from_their_head_are_on_the_decaying_branch(monkeypatch):
    # the jumps double up to 2,499 points on a 20,000-point grid; criterion
    # 4's test at the 64 batched points that start farthest from their head
    solved = record_grid_roots(monkeypatch)
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.RELU, 2.0, width_ratio=0.5),))
    meq = master_from_spec(spec)
    xs = default_grid(meq, points=20000)
    density_grid(meq, xs=xs, y=1e-6)
    index = {x: k for k, x in enumerate(xs[::-1].tolist())}
    walked = np.array(sorted(index[z.real] for z, _, in_batch in solved if not in_batch))
    batched = [(index[z.real], z, m) for z, m, in_batch in solved if in_batch]
    offsets = np.array([k for k, _, _ in batched])
    offsets -= walked[np.searchsorted(walked, offsets) - 1]
    farthest = np.argsort(offsets)[-64:]
    assert offsets[farthest].min() > 1000
    for i in farthest.tolist():
        _, z, m = batched[i]
        distance = min(abs(m - r) for r in all_roots(meq, z).roots)
        assert distance <= 1e-9, (z, m, distance)
        assert -((m + 1) / z).imag / math.pi >= -1e-10, (z, m)


def test_branch_slope_is_the_derivative_of_the_root():
    # dm/dz from the factors equals m/(z phi'(m)) at a root, up to the stop
    # rule's residual, and a central difference of the solved branch, up to
    # the roots' own error over the 2h step
    rng = np.random.default_rng(25)
    nls = list(Nonlinearity)
    for _ in range(40):
        spec = NetworkSpec(
            layers=tuple(
                LayerSpec(
                    nonlinearity=nls[rng.integers(0, len(nls))],
                    sigma_w_sq=float(rng.uniform(0.5, 2.5)),
                    width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
                )
                for _ in range(int(rng.integers(1, 9)))
            )
        )
        meq = master_from_spec(spec)
        for x in default_grid(meq, points=50)[::7].tolist():
            z, h = complex(x, 1e-3), 1e-6
            m = newton_lilypads(meq, z)
            slope = spectrum_module._branch_slope(meq, z, m)
            implicit = m / (z * eval_phi(meq, z, m)[1])
            assert abs(slope - implicit) <= 1e-10 * abs(implicit), (spec, z)
            central = newton_lilypads(meq, z + h, (z, m)) - newton_lilypads(meq, z - h, (z, m))
            central /= 2 * h
            assert abs(slope - central) <= 1e-5 * abs(slope), (spec, z)


@pytest.mark.parametrize("m", [1.0, -1.0, 0.0, complex(math.nan, 0.0), complex(math.inf, 0.0)])
def test_branch_slope_is_zero_where_it_is_not_finite(m):
    # Marchenko-Pastur's P(m) = (m + 1)^2 has dz/dm = 0 at its branch point
    # m = 1 and a pole of the rate at its root -1 and at 0; a NaN or an
    # infinite m has no slope either.  It is taken as 0, so a predicted
    # start falls back to the head's root and an interpolant stays finite
    meq = master_from_spec(mp_spec())
    assert spectrum_module._branch_slope(meq, complex(4.0, 1e-6), complex(m)) == 0j


def record_grid_starts(monkeypatch):
    """Install a recorder of the batched pass's starts; returns their list.

    Each entry is (z, m0, certified) for one point the batched pass tested.
    """
    starts = []
    original = spectrum_module.basin_certificates

    def recording(meq, z, m0, stats=None):
        certs = original(meq, z, m0, stats)
        starts.extend(zip(z.tolist(), m0.tolist(), certs.certified.tolist()))
        return certs

    monkeypatch.setattr("freespectra.spectrum.basin_certificates", recording)
    return starts


@pytest.mark.parametrize("points", [2, 3, 65, 400, 4097, 20000])
def test_every_batched_point_lies_between_two_sequential_solves(monkeypatch, points):
    # a batched start interpolates between the solved ends of its interval,
    # so the coarse pass must have solved a point on each side of it
    coarse = []
    original = spectrum_module.newton_lilypads

    def recording(meq, z, *args):
        if not starts:
            coarse.append(z.real)
        return original(meq, z, *args)

    starts = record_grid_starts(monkeypatch)
    monkeypatch.setattr("freespectra.spectrum.newton_lilypads", recording)
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.RELU, 2.0, width_ratio=0.5),) * 2)
    meq = master_from_spec(spec)
    walk_grid(meq, points, 1e-6)
    xs = default_grid(meq, points=points)
    assert {xs[0], xs[-1]} <= set(coarse)
    batched = np.array([z.real for z, _, _ in starts])
    assert batched.size == points - len(coarse)
    coarse = np.sort(coarse)
    after = np.searchsorted(coarse, batched)
    assert np.all((after > 0) & (after < coarse.size))
    assert np.all((coarse[after - 1] < batched) & (batched < coarse[after]))


@pytest.mark.parametrize(
    "layers",
    [
        ((Nonlinearity.RELU, 2.0, 1.0),) * 4,
        ((Nonlinearity.HARD_TANH, 1.5, 2.0),) * 3,
    ],
)
def test_points_whose_start_lay_farthest_are_on_the_decaying_branch(monkeypatch, layers):
    # criterion 4's test at the 64 batched points of a 20,000-point grid whose
    # interpolated start lay farthest, relative to |m|, from their root
    starts = record_grid_starts(monkeypatch)
    solved = record_grid_roots(monkeypatch)
    spec = NetworkSpec(layers=tuple(LayerSpec(n, gain, width_ratio=r) for n, gain, r in layers))
    meq = master_from_spec(spec)
    density_grid(meq, xs=default_grid(meq, points=20000), y=1e-6)
    roots = {z: m for z, m, in_batch in solved if in_batch}
    batched = [(z, m0, roots[z]) for z, m0, certified in starts if certified]
    errors = np.array([abs(m0 - m) / abs(m) for _, m0, m in batched])
    assert len(batched) > 15000
    for i in np.argsort(errors)[-64:].tolist():
        z, _, m = batched[i]
        distance = min(abs(m - r) for r in all_roots(meq, z).roots)
        assert distance <= 1e-9, (z, m, distance)
        assert -((m + 1) / z).imag / math.pi >= -1e-10, (z, m)


def sequential_walk_roots(meq, xs, y):
    """Reference roots in grid order: every point solved by newton_lilypads
    from its neighbour, largest x first, with no coarse jumps and no batch."""
    zs = (xs + 1j * y).tolist()[::-1]
    m = newton_lilypads(meq, zs[0])
    ms = [m]
    for previous, z in zip(zs, zs[1:]):
        m = newton_lilypads(meq, z, (previous, m))
        ms.append(m)
    return np.array(ms[::-1])


DEEP_NETS = [
    (Nonlinearity.LINEAR, 1.0, 8, 2.0, 1e-3),
    (Nonlinearity.HARD_SINE, 1.5, 16, 1.0, 1e-9),
    (Nonlinearity.HARD_TANH, 1.5, 32, 0.5, 1e-9),
    (Nonlinearity.RELU, 2.0, 64, 1.0, 1e-6),
]


@pytest.mark.parametrize("nonlinearity, gain, depth, ratio, y", DEEP_NETS)
def test_deep_grid_matches_the_sequential_walk(nonlinearity, gain, depth, ratio, y):
    # Each solve stops by _converged, within about its last Newton step,
    # _EPSILON (1 + |m|), of the root, so two solves of one point from
    # different starts may differ by 2 _EPSILON (1 + |m|).  rho is
    # -Im((m + 1)/z)/pi, so that moves it by up to 2 _EPSILON (1 + |m|)/(pi |z|),
    # about 4e-12 next to a density of 3.5e-10 at x = 0.353 on hard_tanh x32;
    # beyond that, the two may differ only in their last digits, 1e-8 rho.
    spec = NetworkSpec(
        layers=tuple(LayerSpec(nonlinearity, gain, width_ratio=ratio) for _ in range(depth))
    )
    meq = master_from_spec(spec)
    xs = default_grid(meq, points=400)
    zs = xs + 1j * y
    ms = sequential_walk_roots(meq, xs, y)
    reference = np.maximum(-((ms + 1.0) / zs).imag / math.pi, 0.0)
    curve = density_grid(meq, xs=xs, y=y)
    stop = 2 * solver_module._EPSILON * (1 + np.abs(ms))
    bound = 1e-8 * reference + stop / (math.pi * np.abs(zs))
    assert np.max(np.abs(curve.rhos - reference) / bound) <= 1.0


@pytest.mark.parametrize(
    "nonlinearity, gain, depth, ratio",
    [net[:4] for net in DEEP_NETS]
    + [(Nonlinearity.RELU, 2.0, 4, 2.0), (Nonlinearity.HARD_SINE, 1.5, 3, 2.0)],
)
def test_predicted_heads_are_on_the_decaying_branch(monkeypatch, nonlinearity, gain, depth, ratio):
    # criterion 4's test at every head of the coarse pass that was solved
    # from a start predicted along the branch tangent, not from the root of
    # the head before it
    solved, predicted = {}, []
    original = spectrum_module.newton_lilypads

    def recording(meq, z, proxy=None, stats=None, certificate=None):
        m = original(meq, z, proxy, stats, certificate)
        if certificate is not None and proxy[1] != solved[proxy[0]]:
            predicted.append((z, m))
        solved[z] = m
        return m

    monkeypatch.setattr("freespectra.spectrum.newton_lilypads", recording)
    spec = NetworkSpec(
        layers=tuple(LayerSpec(nonlinearity, gain, width_ratio=ratio) for _ in range(depth))
    )
    meq = master_from_spec(spec)
    density_grid(meq, xs=default_grid(meq, points=400), y=1e-9)
    assert len(predicted) >= 4
    for z, m in predicted:
        distance = min(abs(m - r) for r in all_roots(meq, z).roots)
        assert distance <= 1e-9, (z, m, distance)
        assert -((m + 1) / z).imag / math.pi >= -1e-10, (z, m)


def test_density_grid_leaves_no_reference_cycles():
    # a grid's arrays are freed by reference counting when it returns, not
    # left for the cyclic collector
    meq = master_from_spec(relu4_spec())
    density_grid(meq, xs=default_grid(meq, points=400))
    gc.collect()
    gc.disable()
    try:
        density_grid(meq, xs=default_grid(meq, points=400))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_noise_floor_next_to_a_root_of_p():
    # near x = 7.754e-9 the root m sits next to P's root -1 and phi's rounding
    # is about 4 eps |phi'| |m|; without that term in the noise floor Newton
    # ran out of iterations there
    spec = mp_spec()
    meq = master_from_spec(spec)
    xs = default_grid(meq, points=400, x_min=1e-12 * closed_form_moments(meq).m1)
    curve = density_grid(meq, xs=xs, y=1e-9)
    assert np.all(np.isfinite(curve.rhos))
    assert curve.stats.basins == 405


@pytest.mark.parametrize(
    "layers",
    [
        ((Nonlinearity.RELU, 2.0, 1100),),
        ((Nonlinearity.RELU, 2.0, 3000),),
        ((Nonlinearity.RELU, 4.0, 300), (Nonlinearity.RELU, 1.0, 300)),
    ],
    ids=["relu2x1100", "relu2x3000", "relu4x300-relu1x300"],
)
def test_deep_net_density_completes(layers):
    # prod sigma^2 Lambda is 2^1100, 2^3000 and 2^600 here, far outside the
    # doubles for the first two; the factors share the gain, so no partial
    # product forms it.  The window's mass is not asserted: the default window
    # misses mass as depth grows.
    spec = NetworkSpec(
        layers=tuple(LayerSpec(nl, gain) for nl, gain, depth in layers for _ in range(depth))
    )
    meq = master_from_spec(spec)
    curve = density_grid(meq, default_grid(meq))
    assert np.all(np.isfinite(curve.rhos))
    assert np.all(curve.rhos >= 0.0) and curve.rhos.max() > 0.0


def test_deep_alternating_net_stays_in_the_exponent_range():
    # ReLU sigma^2 = 2 at width ratios 4 and 0.25 in turn holds the roots
    # -0.125 and -0.5 3000 times each, with gain (m - r) near 1/2 and 2 at
    # small m: either power alone is about 2^-3000 or 2^3000, outside the
    # doubles, while P and every partial product of the binary powering stay
    # inside them
    spec = NetworkSpec(
        layers=tuple(
            LayerSpec(Nonlinearity.RELU, 2.0, width_ratio=4.0 if layer % 2 == 0 else 0.25)
            for layer in range(6000)
        )
    )
    meq = master_from_spec(spec)
    assert meq.roots == (-1.0, -0.125, -0.5) and meq.multiplicities == (1, 3000, 3000)
    xs = default_grid(meq, points=100)
    curve = density_grid(meq, xs=xs)
    assert np.all(np.isfinite(curve.rhos))
    assert np.all(curve.rhos >= 0.0) and curve.rhos.max() > 0.0
    # phi at 5 grid points, at the roots the grid walk found, against 160-bit
    # arithmetic on the 6001 factors one by one
    pytest.importorskip("mpmath")
    zs = xs[::-1] + 1e-6j
    ms = spectrum_module._walk_roots(meq, zs, SolveStats())
    for i in (0, 25, 50, 75, 99):
        z, m = complex(zs[i]), complex(ms[i])
        [(err, _)], p_over_z, slope, _ = phi_errors(meq, z, m, [eval_phi(meq, z, m)])
        assert err <= 4 * 2.0**-52 * (meq.degree * p_over_z + abs(m) + slope * abs(m)), z


def test_density_validates_inputs():
    meq = master_from_spec(mp_spec())
    with pytest.raises(ValueError, match="y must be positive"):
        density_grid(meq, xs=np.array([1.0, 2.0]), y=0.0)
    for y in (math.nan, math.inf):
        with pytest.raises(ValueError, match="y must be positive and finite"):
            density_grid(meq, xs=np.array([1.0, 2.0]), y=y)
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            density_grid(meq, xs=np.array([1.0, x]), y=1e-6)
    with pytest.raises(ValueError):
        density_grid(meq, xs=np.array([-1.0, 2.0]), y=1e-6)
    with pytest.raises(ValueError):
        density_grid(meq, xs=np.array([2.0, 1.0]), y=1e-6)


@pytest.mark.parametrize("xs", [[], [1.0], [[1.0, 2.0], [3.0, 4.0]]], ids=["0", "1", "2d"])
def test_density_refuses_a_tiny_grid_before_solving(monkeypatch, xs):
    def unreachable(*args, **kwargs):
        raise AssertionError("solved a grid that is refused")

    monkeypatch.setattr(spectrum_module, "newton_lilypads", unreachable)
    meq = master_from_spec(mp_spec())
    size = np.asarray(xs).size
    with pytest.raises(ValueError, match=f"at least two points, got {size} in shape"):
        density_grid(meq, xs=xs, y=1e-6)


@pytest.mark.parametrize("order", ["decreasing", "repeated"])
def test_density_refuses_a_grid_that_does_not_increase_before_solving(monkeypatch, order):
    # such a grid was solved in full before DensityCurve refused it
    def unreachable(*args, **kwargs):
        raise AssertionError("solved a grid that is refused")

    monkeypatch.setattr(spectrum_module, "_walk_roots", unreachable)
    meq = master_from_spec(relu4_spec())
    xs = default_grid(meq, points=2000)
    xs = xs[::-1] if order == "decreasing" else np.insert(xs, 1000, xs[1000])
    with pytest.raises(ValueError, match="^xs must be strictly increasing and nonnegative$"):
        density_grid(meq, xs=xs, y=1e-6)


def assert_window_scales_with_m1(meq, unit):
    """meq's law is unit's, of first moment 1, scaled by m1: the default
    window is unit's times m1 to 1e-12, and the density solved over it at
    y = 1e-6 m1 is unit's over m1 to 1e-9."""
    m1 = closed_form_moments(meq).m1
    xs, unit_xs = default_grid(meq, points=50), default_grid(unit, points=50)
    assert np.all(np.isfinite(xs))
    assert np.max(np.abs(xs / m1 - unit_xs)) <= 1e-12 * unit_xs[-1]
    rhos, unit_rhos = density_grid(meq, xs=xs, y=1e-6 * m1).rhos, density_grid(unit, xs=unit_xs).rhos
    assert np.max(np.abs(rhos * m1 - unit_rhos)) <= 1e-9 * np.max(unit_rhos)


def test_default_grid_names_an_overflowing_window():
    # m1 = 1e250, whose variance 25 * 1e500 overflows: the window was refused
    # as "variance = inf", and its sigma is now m1 sqrt(25)
    def linear(gain):
        return master_from_spec(
            NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.LINEAR, gain) for _ in range(25)))
        )

    assert closed_form_moments(linear(1e10)).variance == math.inf
    assert_window_scales_with_m1(linear(1e10), linear(1.0))


def test_default_grid_keeps_the_window_of_an_underflowing_variance():
    # ReLU x 600 at sigma_w^2 = 1 has m1 = 2^-600, whose square underflows to
    # a variance of 0, and the window collapsed to [1e-4 m1, m1]; at
    # sigma_w^2 = 2 the same law has m1 = 1 and reaches 347 m1
    def relu(gain):
        return master_from_spec(
            NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, gain) for _ in range(600)))
        )

    assert closed_form_moments(relu(1.0)).variance == 0.0
    assert_window_scales_with_m1(relu(1.0), relu(2.0))


def test_default_grid_names_an_overflowing_first_moment():
    # m1 = P(0) is past the doubles here; the complex products of its binary
    # powering turn the overflow into nan, which the window names as inf
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.HARD_TANH, 1e10) for _ in range(80)))
    with pytest.raises(ValueError, match=r"m1 = inf and variance = inf"):
        default_grid(master_from_spec(spec))


def test_default_grid_refuses_one_point_and_a_bracket_that_is_not_increasing():
    meq = master_from_spec(mp_spec())
    with pytest.raises(ValueError, match=r"^grid needs at least 2 points$"):
        default_grid(meq, points=1)
    for x_min, x_max in ((2.0, 1.0), (0.0, 1.0)):
        with pytest.raises(ValueError, match=rf"^invalid grid bracket \[{x_min}, {x_max}\]$"):
            default_grid(meq, x_min=x_min, x_max=x_max)


OUT_OF_MEMORY = MemoryError("cannot allocate")


def exhausted(*args, **kwargs):
    """Stands in for an allocation that fails; a real one of this size can
    end in the OOM killer where memory is overcommitted."""
    raise OUT_OF_MEMORY


def test_density_grid_passes_on_a_memory_error_raised_inside_its_solve(monkeypatch):
    # numpy's MemoryError names the array it could not allocate; the library
    # passes it on as it is, and the command line reports it
    monkeypatch.setattr(spectrum_module, "basin_certificates", exhausted)
    meq = master_from_spec(mp_spec())
    with pytest.raises(MemoryError) as caught:
        density_grid(meq, xs=default_grid(meq, points=400))
    assert caught.value is OUT_OF_MEMORY


@pytest.mark.parametrize(
    "owner, allocation, call",
    [
        (np, "logspace", lambda meq: default_grid(meq, points=10**11)),
        (np, "empty", lambda meq: density_grid(meq, xs=[0.5, 1.0, 2.0])),
        (np, "unique", lambda meq: branch_roots(meq, [2.0 + 1e-6j, 0.5 + 1e-6j])),
        (oracles_module, "_bartlett_factor", lambda meq: monte_carlo_spectrum(relu4_spec(), 64, 2)),
    ],
    ids=["default_grid", "density_grid", "branch_roots", "monte_carlo"],
)
def test_each_entry_point_passes_on_numpy_memory_error_as_it_is(
    monkeypatch, owner, allocation, call
):
    monkeypatch.setattr(owner, allocation, exhausted)
    with pytest.raises(MemoryError) as caught:
        call(master_from_spec(mp_spec()))
    assert caught.value is OUT_OF_MEMORY


def test_density_failure_names_the_grid_point(monkeypatch):
    def explode(meq, z_objective, proxy=None, stats=None, certificate=None):
        raise SolverError("synthetic failure")

    monkeypatch.setattr("freespectra.spectrum.newton_lilypads", explode)
    with pytest.raises(SolverError, match="branch solve failed at x="):
        density_grid(master_from_spec(mp_spec()), xs=np.array([1.0, 2.0]), y=1e-6)


def test_density_failure_in_the_batched_pass_names_the_grid_point(monkeypatch):
    # the points the walk jumps over are solved together; the one that fails
    # is named by its x in the error the grid raises
    def explode(meq, z, m0, value, deriv, stats=None):
        raise SolverError("synthetic failure", z=complex(z[1]))

    monkeypatch.setattr("freespectra.spectrum.newton_lockstep", explode)
    meq = master_from_spec(mp_spec())
    xs = default_grid(meq, points=400)
    with pytest.raises(SolverError) as info:
        density_grid(meq, xs=xs, y=1e-6)
    x = info.value.z.real
    assert x in xs
    assert str(info.value) == f"branch solve failed at x={x!r}: synthetic failure"


def test_mass_sanity_on_edge_separated_laws():
    # total mass accounts for everything except the rank-deficiency atom;
    # laws with a hard edge at zero are excluded (their x -> 0 tail cannot
    # be captured by any positive window)
    meq = master_from_spec(mp_spec())
    mp = density_grid(meq, xs=default_grid(meq, points=300), y=1e-6)
    assert 1 - 0.02 <= mp.total_mass + mp.atom_lower_bound <= 1.02
    wide_spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.5, width_ratio=2.0),))
    meq = master_from_spec(wide_spec)
    wide = density_grid(meq, xs=default_grid(meq, points=300), y=1e-6)
    assert wide.atom_lower_bound == 0.5
    assert 1 - 0.02 <= wide.total_mass + wide.atom_lower_bound <= 1.02


def test_density_curve_validation():
    xs = np.array([1.0, 2.0, 3.0])
    rho = np.array([0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        DensityCurve(xs=xs[::-1].copy(), rhos=rho, y=1e-6)
    with pytest.raises(ValueError):
        DensityCurve(xs=xs, rhos=-rho, y=1e-6)
    with pytest.raises(ValueError):
        DensityCurve(xs=xs, rhos=rho[:2], y=1e-6)
    with pytest.raises(ValueError):
        DensityCurve(xs=xs, rhos=7.5 * rho, y=1e-6)


@pytest.mark.parametrize("field, bad", [("xs", math.nan), ("rhos", math.nan), ("rhos", math.inf)])
def test_density_curve_refuses_non_finite_values(field, bad):
    # NaN compares False both ways, so the order and sign checks alone let it in
    fields = {"xs": np.array([1.0, 2.0, 3.0]), "rhos": np.array([0.1, 0.1, 0.1])}
    fields[field][1] = bad
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {bad!r}$"):
        DensityCurve(y=1e-6, **fields)


def test_density_curve_total_mass_is_the_trapezoid_mass_of_its_rows():
    curve = DensityCurve(xs=np.array([1.0, 2.0, 4.0]), rhos=np.array([0.1, 0.3, 0.1]), y=1e-6)
    assert curve.total_mass == 0.2 + 0.4
    with pytest.raises(ValueError, match="^total_mass 1.2000000000000002 exceeds 1.02"):
        DensityCurve(xs=np.array([1.0, 2.0, 4.0]), rhos=np.array([0.2, 0.6, 0.2]), y=1e-6)
    # rows whose mass overflows are refused by name
    overflow = pytest.raises(ValueError, match="^total_mass must be finite, got inf$")
    with np.errstate(over="ignore"), overflow:
        DensityCurve(xs=np.array([1.0, 1e308]), rhos=np.array([1e10, 1e10]), y=1e-6)
    # a stale total_mass, by keyword or by position, is refused
    with pytest.raises(TypeError):
        DensityCurve(xs=np.array([1.0, 2.0]), rhos=np.array([0.1, 0.1]), y=1e-6, total_mass=0.1)
    with pytest.raises(TypeError):
        DensityCurve(np.array([1.0, 2.0]), np.array([0.1, 0.1]), 1e-6, 0.1)


def test_density_curve_names_an_overflowing_mass_before_any_warning():
    # the suite turns RuntimeWarning into an error; the overflow of the cell
    # masses must surface as the named ValueError, not as that warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^total_mass must be finite, got inf$"):
            DensityCurve(xs=[1, 1e308], rhos=[1e10, 1e10], y=1e-6)


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("y", math.nan, "y must be positive and finite, got nan"),
        ("y", math.inf, "y must be positive and finite, got inf"),
        ("y", -1e-6, "y must be positive and finite, got -1e-06"),
        ("y", 0.0, "y must be positive and finite, got 0.0"),
        ("atom_lower_bound", math.nan, r"atom_lower_bound must lie in \[0, 1\], got nan"),
        ("atom_lower_bound", -0.25, r"atom_lower_bound must lie in \[0, 1\], got -0.25"),
        ("atom_lower_bound", 1.5, r"atom_lower_bound must lie in \[0, 1\], got 1.5"),
    ],
)
def test_density_curve_refuses_a_bad_y_or_atom(field, bad, message):
    # a NaN atom made quantiles' window check (total_mass + atom < 0.5) pass
    # and came back as the table's atom_lower_bound
    fields = {"y": 1e-6, "atom_lower_bound": 0.5, field: bad}
    with pytest.raises(ValueError, match=f"^{message}$"):
        DensityCurve(xs=np.array([1.0, 2.0]), rhos=np.array([0.1, 0.1]), **fields)
    # the edges stay allowed: atoms 0 and 1; y = 0 is refused, as no solve writes it
    for edge in ({"atom_lower_bound": 0.0}, {"atom_lower_bound": 1.0}):
        fields = {"y": 1e-6, **edge}
        DensityCurve(xs=np.array([1.0, 2.0]), rhos=np.array([0.1, 0.1]), **fields)


# ------------------------------------------------------------------ quantiles


def test_quantiles_uniform_closed_form():
    curve = uniform_density_curve(0.0, 4.0)
    table = quantiles(curve, np.array([0.5, 0.9]))
    assert table.values[0] == pytest.approx(2.0, abs=1e-12)
    assert table.values[1] == pytest.approx(3.6, abs=1e-12)
    assert table.atom_lower_bound == 0.0


def test_quantiles_mp_median_matches_cdf_inversion():
    # the x -> 0 tail carries ~(2/pi)*sqrt(x_min) mass, so the window must
    # open far below the default for a 1e-3 quantile comparison
    meq = master_from_spec(mp_spec())
    xs = default_grid(meq, points=600, x_min=1e-8)
    curve = density_grid(meq, xs=xs, y=1e-9)
    median = quantiles(curve, np.array([0.5])).values[0]
    oracle = brentq(lambda t: mp_cdf(t) - 0.5, 1e-9, 4.0 - 1e-9, xtol=1e-12)
    assert abs(median - oracle) <= 1e-3


def test_quantiles_nondecreasing():
    spec = relu4_spec()
    meq = master_from_spec(spec)
    curve = density_grid(meq, xs=default_grid(meq, points=150), y=1e-6)
    probs = np.linspace(0.1, 0.9, 9)
    values = quantiles(curve, probs).values
    assert np.all(np.diff(values) >= 0)


def test_quantiles_validate_probs():
    curve = uniform_density_curve(0.0, 4.0)
    with pytest.raises(ValueError):
        quantiles(curve, np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        quantiles(curve, np.array([1.0]))
    with pytest.raises(ValueError):
        quantiles(curve, np.array([]))


def test_quantiles_reject_empty_window():
    xs = np.linspace(1.0, 2.0, 10)
    starved = DensityCurve(xs=xs, rhos=np.full(10, 1e-9), y=1e-6)
    with pytest.raises(ValueError, match="grid window misses the bulk"):
        quantiles(starved, np.array([0.5]))


@pytest.mark.parametrize("atom", [0.375, np.nextafter(0.375, 0.0)])
def test_quantiles_refuse_a_window_below_half_its_mass(atom):
    # total_mass + atom exactly 0.5 passes, and the next double below fails
    # by name.  Eight cells of width and density 1/8 hold exactly 1/8.
    xs = np.linspace(1.0, 2.0, 9)
    curve = DensityCurve(xs=xs, rhos=np.full(9, 0.125), y=1e-6, atom_lower_bound=atom)
    assert curve.total_mass == 0.125
    mass = float(0.125 + atom)
    if mass == 0.5:
        assert quantiles(curve, (0.5,)).values[0] == pytest.approx(1.5, rel=1e-12)
        return
    assert mass == np.nextafter(0.5, 0.0)
    message = rf"^grid window misses the bulk: total_mass \+ atom = {mass!r} below 0.5$"
    with pytest.raises(ValueError, match=message):
        quantiles(curve, (0.5,))


def test_quantiles_refuse_a_curve_with_no_mass_on_its_window():
    # the atom alone passes the mass check, and the window's CDF would be 0/0
    xs = np.linspace(1.0, 2.0, 8)
    empty = DensityCurve(xs=xs, rhos=np.zeros(8), y=1e-6, atom_lower_bound=0.6)
    with pytest.raises(ValueError, match="^curve carries no mass on its grid window$"):
        quantiles(empty, (0.5,))


# ------------------------------------------------------------------------ cdf


def test_cdf_matches_marchenko_pastur():
    xs = [1e-6, 1e-4, 1e-2, 0.1, 0.5, 1.0, 2.0, 3.5, 3.999]
    got = cdf(master_from_spec(mp_spec()), xs)
    assert max(abs(f - mp_cdf(x)) for f, x in zip(got, xs)) <= 1e-12


def test_cdf_above_the_edge_is_one_but_for_the_ray():
    # far above the support the ray's offset leaves 1 - F at about 1e-12/pi
    tails = 1.0 - cdf(master_from_spec(mp_spec()), [4.001, 5.0, 50.0, 1e3])
    assert np.all(np.abs(tails) < 1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        mp_spec(),
        relu4_spec(),
        NetworkSpec(layers=(LayerSpec(Nonlinearity.RELU, 2.0, 0.0, 0.5),) * 2),
        NetworkSpec(layers=(LayerSpec(Nonlinearity.HARD_TANH, 1.5),) * 3),
    ],
    ids=["mp", "relu_x4", "relu_x2_wide", "hard_tanh_x3"],
)
def test_cdf_at_zero_is_the_atom(spec):
    meq = master_from_spec(spec)
    assert cdf(meq, [0.0])[0] == atom_lower_bound(meq)
    # just above zero F has barely left the atom; ReLU x 4's root -1/2 of
    # multiplicity 4 makes F - atom about 0.045 x^(1/5) there, 1.4e-4 at 1e-14
    assert 0.0 <= cdf(meq, [1e-14])[0] - atom_lower_bound(meq) < 1e-3


def test_cdf_reads_unsorted_and_tied_points_as_sorted_distinct_ones():
    meq = master_from_spec(relu4_spec())
    distinct = np.array([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 8.0])
    shuffled = np.array([2.0, 0.1, 8.0, 0.0, 1.0, 0.1, 1e-3, 0.5, 2.0, 0.0])
    sorted_f = cdf(meq, distinct)
    got = cdf(meq, shuffled)
    assert np.array_equal(got, sorted_f[np.searchsorted(distinct, shuffled)])
    assert np.all(np.diff(sorted_f) > 0)
    assert cdf(meq, []).shape == (0,)


RELU_LAYER = NetworkSpec(layers=(LayerSpec(Nonlinearity.RELU, 2.0),))


@pytest.mark.parametrize(
    "spec, x",
    [
        (RELU_LAYER, 1e-16),
        (RELU_LAYER, 1e-20),
        (NetworkSpec(layers=(LayerSpec(Nonlinearity.HARD_TANH, 1.5),) * 3), 1e-20),
    ],
    ids=["relu_1e-16", "relu_1e-20", "hard_tanh_x3_1e-20"],
)
def test_cdf_refuses_a_point_where_m_rounds_onto_a_root(spec, x):
    # m - r_max shrinks like x near 0, so below about 1e-16 it is lost in the
    # rounding of m, and F read from it fell to 0, below the atom
    meq = master_from_spec(spec)
    message = f"cdf cannot resolve x={x!r}: m rounds onto the root {max(meq.roots)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cdf(meq, [1.0, x])


@pytest.mark.parametrize(
    "spec, x",
    [
        (RELU_LAYER, 1e-12),
        (NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0, 0.0, 0.5),)), 1e-20),
    ],
    ids=["relu_1e-12", "linear_wide_1e-20"],
)
def test_cdf_just_above_zero_sits_below_the_atom_by_the_ray_offset(spec, x):
    # one ReLU layer's m - r_max is about 4500 eps |r_max| at 1e-12, above
    # the refusal, and F is about atom eps/pi = 1.6e-13 below the atom.  The
    # wide linear layer's m rounds onto the root -1, whose log drops out of
    # Phi, so F keeps its atom 0
    meq = master_from_spec(spec)
    assert abs(cdf(meq, [x])[0] - atom_lower_bound(meq)) <= 1e-12


@pytest.mark.parametrize("bad", [-1.0, -0.0 - 1e-300, math.nan, math.inf, -math.inf])
def test_cdf_refuses_a_point_that_is_negative_or_not_finite(bad):
    meq = master_from_spec(mp_spec())
    with pytest.raises(ValueError, match=rf"^cdf needs finite x >= 0, got {bad!r}$"):
        cdf(meq, [1.0, bad, 2.0])


def test_cdf_takes_every_argument_in_the_closed_lower_half_plane():
    # ReLU at ratio 0.5 then hard_tanh at ratio 2: m - r_j crosses the
    # negative real axis, where the principal branch's +pi put F near 1.4
    spec = NetworkSpec(
        layers=(
            LayerSpec(Nonlinearity.RELU, 2.0, 0.0, 0.5),
            LayerSpec(Nonlinearity.HARD_TANH, 1.5, 0.0, 2.0),
        )
    )
    meq = master_from_spec(spec)
    emp = monte_carlo_spectrum(spec, 1000, seed=0)
    f = cdf(meq, np.r_[emp.floor, emp.values])
    atom = atom_lower_bound(meq)
    assert np.all(f >= atom - 1e-12) and np.all(f <= 1.0 + 1e-12)
    assert ks_distance(emp, meq) <= 0.03


def test_cdf_counts_each_distinct_point_of_its_ray_walk_once():
    meq = master_from_spec(relu4_spec())
    distinct, tied = SolveStats(), SolveStats()
    cdf(meq, [0.0, 0.1, 0.5, 2.0], distinct)
    cdf(meq, [2.0, 0.5, 0.0, 0.1, 2.0, 0.5], tied)
    assert distinct == tied and distinct.certificate_tests > 0 and distinct.basins >= 3
    # with no stats the walk still runs and counts into a throwaway
    assert np.array_equal(cdf(meq, [0.1, 2.0]), cdf(meq, [0.1, 2.0], SolveStats()))


def test_cdf_failure_names_the_point_on_the_ray(monkeypatch):
    def explode(meq, z_objective, proxy=None, stats=None, certificate=None):
        raise SolverError("synthetic failure")

    monkeypatch.setattr("freespectra.spectrum.newton_lilypads", explode)
    with pytest.raises(SolverError) as info:
        cdf(master_from_spec(mp_spec()), [0.0, 0.5, 2.0])
    assert str(info.value) == "branch solve failed at x=2.0: synthetic failure"
    assert info.value.z == complex(2.0, 2e-12)


@pytest.mark.parametrize("nonlinearity, gain", [("linear", 1.0), ("relu", 2.0)])
@pytest.mark.parametrize("depth", [1, 4, 16])
@pytest.mark.parametrize("scale", [0.5, 3.0])
def test_cdf_at_a_scaled_gain_is_the_cdf_at_the_scaled_point(nonlinearity, gain, depth, scale):
    # with no bias the roots do not move with the gain and P scales by
    # s^L, so F at gain s sigma_w^2 and x s^L is F at sigma_w^2 and x
    # (ROADMAP item 21); measured to within 1e-15
    def law(sigma_w_sq):
        layer = LayerSpec(Nonlinearity(nonlinearity), sigma_w_sq)
        return master_from_spec(NetworkSpec(layers=(layer,) * depth))

    xs = np.logspace(-6, 1.5, 40)
    scaled = cdf(law(scale * gain), xs * scale**depth)
    assert np.max(np.abs(scaled - cdf(law(gain), xs))) <= 1e-14


@pytest.mark.parametrize("depth", [1, 2, 4, 8, 16])
def test_cdf_of_a_linear_net_near_zero_has_the_log_slope_of_one_over_depth_plus_one(depth):
    # (m + 1)^(L + 1) = z m, so near 0 m + 1 ~ (-z)^(1/(L + 1)), and the
    # log-slope of F tends to 1/(L + 1) (ROADMAP item 15).  Its relative
    # error over [1e-14, 1e-12] is 7e-10, -8.5e-6, -4.2e-4, -3.9e-3 and
    # -1.2e-2 for L = 1, 2, 4, 8 and 16, and over [1e-10, 1e-8] it is larger
    meq = master_from_spec(NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),) * depth))

    def slope_error(lo, hi):
        f_lo, f_hi = cdf(meq, [lo, hi])
        return abs(math.log(f_hi / f_lo) / math.log(hi / lo) * (depth + 1) - 1.0)

    near = slope_error(1e-14, 1e-12)
    assert near <= 0.02
    if depth >= 2:
        assert near < slope_error(1e-10, 1e-8)


# --------------------------------------------------------------- branch_roots


def unreachable(*args, **kwargs):
    raise AssertionError("walked points that are refused")


def test_branch_roots_read_shuffled_tied_and_2d_points_as_sorted_distinct_ones():
    meq = master_from_spec(relu4_spec())
    distinct = np.array([1e-3, 0.1, 0.5, 1.0, 2.0, 8.0]) + 1e-6j
    expected_stats = SolveStats()
    expected = branch_roots(meq, distinct, expected_stats)
    picks = np.array([3, 0, 5, 1, 3, 4, 2, 0])
    stats = SolveStats()
    assert np.array_equal(branch_roots(meq, distinct[picks], stats), expected[picks])
    assert stats == expected_stats
    square = distinct[picks].reshape(2, 4)
    assert np.array_equal(branch_roots(meq, square), expected[picks].reshape(2, 4))
    assert np.array_equal(branch_roots(meq, square.T), expected[picks].reshape(2, 4).T)
    assert np.array_equal(branch_roots(meq, distinct[::-1]), expected[::-1])
    # one point, given once or three times; its roots never land in the caller's array
    alone = branch_roots(meq, distinct[4:5])
    assert distinct[4] == 2.0 + 1e-6j
    assert np.array_equal(branch_roots(meq, distinct[[4, 4, 4]]), np.repeat(alone, 3))
    assert branch_roots(meq, []).shape == (0,)
    assert branch_roots(meq, np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("points", [400, 9000])
def test_branch_roots_of_a_grid_are_the_walk_of_its_reversed_copy(points):
    # 9000 points span three blocks of the batched pass
    meq = master_from_spec(relu4_spec())
    zs = default_grid(meq, points=points) + 1e-6j
    stats, walk_stats = SolveStats(), SolveStats()
    walked = spectrum_module._walk_roots(meq, zs[::-1].copy(), walk_stats)
    given = zs.copy()
    got = branch_roots(meq, zs, stats)
    assert np.array_equal(got, walked[::-1]) and got.flags.c_contiguous
    assert stats == walk_stats
    assert np.array_equal(zs, given)
    assert np.array_equal(branch_roots(meq, zs[::-1]), walked)


@pytest.mark.parametrize(
    "bad, message",
    [
        (complex(math.nan, 1e-6), "branch_roots needs finite points, got (nan+1e-06j)"),
        (complex(1.5, math.inf), "branch_roots needs finite points, got (1.5+infj)"),
        (complex(1.5, 0.0), "branch_roots needs Im z > 0, got (1.5+0j)"),
        (complex(1.5, -1e-6), "branch_roots needs Im z > 0, got (1.5-1e-06j)"),
        (
            complex(2.0, 1e-3),
            "branch_roots: points (2+1e-06j) and (2+0.001j) share Re z but differ in Im z",
        ),
    ],
    ids=["nan", "inf", "real", "lower", "same_re"],
)
def test_branch_roots_refuse_a_point_by_name(monkeypatch, bad, message):
    monkeypatch.setattr(spectrum_module, "_walk_roots", unreachable)
    meq = master_from_spec(mp_spec())
    with pytest.raises(ValueError) as info:
        branch_roots(meq, [1.0 + 1e-6j, bad, 2.0 + 1e-6j])
    assert str(info.value) == message


# -------------------------------------------------------------------- moments


def test_closed_form_moments_examples():
    m = closed_form_moments(master_from_spec(relu4_spec()))
    assert m.m1 == pytest.approx(1.0, rel=1e-14)
    assert m.variance == pytest.approx(8.0, rel=1e-14)
    m = closed_form_moments(master_from_spec(mp_spec()))
    assert (m.m1, m.variance) == (1.0, 1.0)
    faint = NetworkSpec(
        layers=(LayerSpec(Nonlinearity.LINEAR, 1e-12), LayerSpec(Nonlinearity.LINEAR, 1.0))
    )
    assert closed_form_moments(master_from_spec(faint)).m1 <= 1e-11


def random_deep_spec(rng):
    return NetworkSpec(
        layers=tuple(
            LayerSpec(
                nonlinearity=list(Nonlinearity)[rng.integers(0, 4)],
                sigma_w_sq=float(rng.uniform(0.5, 3.0)),
                sigma_b_sq=float(rng.uniform(0.0, 0.5)),
                width_ratio=float(2.0 ** rng.uniform(-2.0, 2.0)),
            )
            for _ in range(int(rng.integers(1, 65)))
        )
    )


def test_closed_form_moments_match_the_layer_formula():
    # the factors' P(0) and sum_j k_j / (-r_j) against prod c sigma^2 and
    # sum Lambda / c over the layers, at depth 1-64 and width ratios 0.25-4
    rng = np.random.default_rng(12)
    specs = [random_deep_spec(rng) for _ in range(200)]
    specs.append(NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(1100))))
    assert {layer.nonlinearity for spec in specs for layer in spec.layers} == set(Nonlinearity)
    for spec in specs:
        closed = closed_form_moments(master_from_spec(spec))
        oracle = layer_moments(spec)
        assert closed.m1 == pytest.approx(oracle.m1, rel=1e-13), spec
        assert closed.variance == pytest.approx(oracle.variance, rel=1e-13), spec


def test_closed_form_variance_survives_width_change():
    # single rectangular Gaussian factor: squared-singular variance is
    # sigma^4 * Lambda, the sharp discriminator for the moment bookkeeping
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.5, width_ratio=2.0),))
    meq = master_from_spec(spec)
    closed = closed_form_moments(meq)
    assert closed.m1 == pytest.approx(1.5, rel=1e-14)
    assert closed.variance == pytest.approx(1.5**2 * 2.0, rel=1e-14)
    xs = default_grid(meq, points=400)
    curve = density_grid(meq, xs=xs, y=1e-6)
    grid = grid_moments(curve)
    assert grid.m1 == pytest.approx(closed.m1, rel=0.01)
    grid_var = grid.m2 - grid.m1**2
    assert grid_var == pytest.approx(closed.variance, rel=0.05)


def test_grid_moments_mp1():
    meq = master_from_spec(mp_spec())
    curve = density_grid(meq, xs=default_grid(meq, points=400), y=1e-6)
    grid = grid_moments(curve)
    assert grid.m1 == pytest.approx(1.0, rel=0.01)
    assert grid.m2 == pytest.approx(2.0, rel=0.02)
    assert grid.coverage_ok is True


def test_grid_moments_uniform_synthetic():
    curve = uniform_density_curve(0.0, 4.0)
    grid = grid_moments(curve)
    assert grid.m1 == pytest.approx(2.0, rel=1e-12)
    # the flat curve stays hot to the very edge of its window
    assert grid.coverage_ok is False


def test_grid_moments_flags_soft_resolution():
    meq = master_from_spec(mp_spec())
    curve = density_grid(meq, xs=default_grid(meq, points=100), y=1e-3)
    assert grid_moments(curve).coverage_ok is False
