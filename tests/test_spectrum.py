"""Density grids, quantiles, moments, and their bookkeeping."""

import gc
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

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
    closed_form_moments,
    default_grid,
    density_grid,
    eval_phi,
    master_from_spec,
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
    lin = default_grid(meq, points=50, x_min=0.5, x_max=2.0, log_spaced=False)
    assert np.allclose(np.diff(lin), lin[1] - lin[0], rtol=1e-12)


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


def sequential_walk_rhos(spec, xs, y):
    """Reference grid: every point solved by newton_lilypads from its
    neighbour, largest x first, with no coarse jumps and no batch."""
    meq = master_from_spec(spec)
    zs = (xs + 1j * y).tolist()[::-1]
    m = newton_lilypads(meq, zs[0])
    ms = [m]
    for previous, z in zip(zs, zs[1:]):
        m = newton_lilypads(meq, z, (previous, m))
        ms.append(m)
    ms = np.array(ms[::-1])
    return np.maximum(-((ms + 1.0) / (xs + 1j * y)).imag / math.pi, 0.0)


@pytest.mark.parametrize(
    "nonlinearity, gain, depth, ratio, y",
    [
        (Nonlinearity.LINEAR, 1.0, 8, 2.0, 1e-3),
        (Nonlinearity.HARD_SINE, 1.5, 16, 1.0, 1e-9),
        (Nonlinearity.HARD_TANH, 1.5, 32, 0.5, 1e-9),
        (Nonlinearity.RELU, 2.0, 64, 1.0, 1e-6),
    ],
)
def test_deep_grid_matches_the_sequential_walk(nonlinearity, gain, depth, ratio, y):
    spec = NetworkSpec(
        layers=tuple(LayerSpec(nonlinearity, gain, width_ratio=ratio) for _ in range(depth))
    )
    meq = master_from_spec(spec)
    xs = default_grid(meq, points=400)
    reference = sequential_walk_rhos(spec, xs, y)
    curve = density_grid(meq, xs=xs, y=y)
    scale = np.maximum(reference, 1e-12 * reference.max())
    assert np.max(np.abs(curve.rhos - reference) / scale) <= 1e-8


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
    assert curve.stats.basins == 406


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
    curve = density_grid(master_from_spec(spec))
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


def test_default_grid_names_an_overflowing_window():
    # m1 = 1e250 and its variance 25 * 1e500 overflows, so the default x_max
    # would be inf and the solve would fail far from the cause
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.LINEAR, 1e10) for _ in range(25)))
    meq = master_from_spec(spec)
    with pytest.raises(ValueError, match=r"m1 = 9\.99+\d*e\+249 and variance = inf") as info:
        default_grid(meq)
    assert "grid.x_min and grid.x_max" in str(info.value)
    xs = default_grid(meq, points=50, x_min=1e246, x_max=1e251)
    assert np.all(np.isfinite(density_grid(meq, xs=xs).rhos))


def test_default_grid_names_an_overflowing_first_moment():
    # m1 = P(0) is past the doubles here; the complex products of its binary
    # powering turn the overflow into nan, which the window names as inf
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.HARD_TANH, 1e10) for _ in range(80)))
    with pytest.raises(ValueError, match=r"m1 = inf and variance = inf"):
        default_grid(master_from_spec(spec))


def test_density_failure_names_the_grid_point(monkeypatch):
    def explode(meq, z_objective, proxy=None, stats=None, certificate=None):
        raise SolverError("synthetic failure")

    monkeypatch.setattr("freespectra.spectrum.newton_lilypads", explode)
    with pytest.raises(SolverError, match="density solve failed at x="):
        density_grid(master_from_spec(mp_spec()), xs=np.array([1.0, 2.0]), y=1e-6)


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
        ("y", math.nan, "y must be finite and nonnegative, got nan"),
        ("y", math.inf, "y must be finite and nonnegative, got inf"),
        ("y", -1e-6, "y must be finite and nonnegative, got -1e-06"),
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
    # the edges stay allowed: y = 0 for a curve built without a solve, atoms 0 and 1
    for edge in ({"y": 0.0}, {"atom_lower_bound": 0.0}, {"atom_lower_bound": 1.0}):
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
