"""Finite-size sampling, the all-roots baseline, and distribution distance."""

import math

import numpy as np
import pytest

from _s_transform import factor_coefficients
from freespectra import (
    DensityCurve,
    EmpiricalSpectrum,
    LayerSpec,
    NetworkSpec,
    Nonlinearity,
    RationalMasterEq,
    all_roots,
    closed_form_moments,
    default_grid,
    density_grid,
    g_moment,
    ks_distance,
    master_from_spec,
    monte_carlo_spectrum,
    newton_lilypads,
    uniform_density_curve,
)
from freespectra.network_model import Nonlinearity as NL
from freespectra.network_model import activation, activation_derivative, summarize
from freespectra.oracles import (
    _STREAM_BIAS,
    _STREAM_GAIN,
    _STREAM_INPUT,
    _STREAM_WEIGHT,
    _ZERO_SNAP,
    _generator,
)


def mp_spec():
    return NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),))


def relu4_spec():
    return NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(4)))


def mp_cdf(t):
    if t <= 0:
        return 0.0
    if t >= 4:
        return 1.0
    u = math.sqrt(t)
    return (u * math.sqrt(4 - u * u) / 2 + 2 * math.asin(u / 2)) / math.pi


def random_spec(rng):
    nls = list(Nonlinearity)
    return NetworkSpec(
        layers=tuple(
            LayerSpec(
                nonlinearity=nls[rng.integers(0, len(nls))],
                sigma_w_sq=float(rng.uniform(0.5, 4.0)),
                width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
            )
            for _ in range(int(rng.integers(1, 7)))
        )
    )


# ---------------------------------------------------------------- monte carlo


def test_empirical_spectrum_validation():
    with pytest.raises(ValueError):
        EmpiricalSpectrum(values=np.array([1.0, 2.0]), n0=3, seed=0)
    with pytest.raises(ValueError):
        EmpiricalSpectrum(values=np.array([-1.0, 2.0]), n0=2, seed=0)
    emp = EmpiricalSpectrum(values=np.array([2.0, 1.0]), n0=2, seed=0)
    assert np.array_equal(emp.values, [1.0, 2.0])


def test_monte_carlo_is_deterministic_per_seed():
    a = monte_carlo_spectrum(mp_spec(), 200, seed=7)
    b = monte_carlo_spectrum(mp_spec(), 200, seed=7)
    c = monte_carlo_spectrum(mp_spec(), 200, seed=8)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert a.values.size == 200
    assert np.all(a.values >= 0)
    assert np.all(np.diff(a.values) >= 0)


def test_monte_carlo_matches_mp_closed_form():
    emp = monte_carlo_spectrum(mp_spec(), 1000, seed=0)
    n = emp.values.size
    gaps = []
    for i, x in enumerate(emp.values):
        f = mp_cdf(float(x))
        gaps.append(max(f - i / n, (i + 1) / n - f))
    assert max(gaps) <= 0.08


def test_monte_carlo_vanishing_gain_gives_zero_matrix():
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1e-20),))
    emp = monte_carlo_spectrum(spec, 64, seed=1)
    assert np.all(emp.values == 0.0)


def test_monte_carlo_relu_kills_half_the_rows():
    spec = relu4_spec()
    seed = 11
    emp = monte_carlo_spectrum(spec, 1000, seed=seed)
    # reconstruct each layer's derivative diagonal from its dedicated stream
    for ell in range(1, 5):
        pre = math.sqrt(2.0) * _generator(seed, ell, _STREAM_GAIN).standard_normal(1000)
        frac = np.mean(activation_derivative(NL.RELU, pre) == 0.0)
        assert abs(frac - 0.5) <= 0.05
    assert np.mean(emp.values == 0.0) >= 0.45  # rank deficiency shows up at zero


def test_monte_carlo_width_validation():
    with pytest.raises(ValueError, match="n0 must be at least 4"):
        monte_carlo_spectrum(mp_spec(), 3, seed=0)
    skinny = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=1000.0),))
    with pytest.raises(ValueError, match="width rounds to zero"):
        monte_carlo_spectrum(skinny, 4, seed=0)


def test_monte_carlo_forward_mode():
    with pytest.raises(ValueError, match="mode"):
        monte_carlo_spectrum(mp_spec(), 16, seed=0, mode="backward")
    # for a linear net both modes build the same Jacobian
    a = monte_carlo_spectrum(mp_spec(), 200, seed=5, mode="swapped")
    b = monte_carlo_spectrum(mp_spec(), 200, seed=5, mode="forward")
    assert np.array_equal(a.values, b.values)
    fwd = monte_carlo_spectrum(relu4_spec(), 400, seed=3, mode="forward")
    assert 0.4 <= np.mean(fwd.values == 0.0) <= 0.6
    assert np.all(fwd.values >= 0)


def test_monte_carlo_mean_tracks_first_moment():
    rng = np.random.default_rng(21)
    nls = list(Nonlinearity)
    for _ in range(5):
        spec = NetworkSpec(
            layers=tuple(
                LayerSpec(
                    nonlinearity=nls[rng.integers(0, len(nls))],
                    sigma_w_sq=float(rng.uniform(0.5, 4.0)),
                    width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
                )
                for _ in range(int(rng.integers(1, 5)))
            )
        )
        closed = closed_form_moments(master_from_spec(spec))
        emp = monte_carlo_spectrum(spec, 800, seed=int(rng.integers(0, 100)))
        spread = 3.0 * math.sqrt(max(closed.variance, 1e-12) / 800) + 0.15 * closed.m1
        assert abs(emp.values.mean() - closed.m1) <= spread


def test_monte_carlo_hard_tanh_keeps_two_sided_band():
    # the sampler is faithful to the physical derivative: each hard_tanh
    # entry survives with probability erf(1/sqrt(2q)), the coefficient used
    # by the master equation
    spec = NetworkSpec(
        layers=(
            LayerSpec(Nonlinearity.HARD_SINE, 2.62),
            LayerSpec(Nonlinearity.HARD_TANH, 0.81, width_ratio=0.5),
        )
    )
    q2 = 0.81 * g_moment(Nonlinearity.HARD_SINE, 2.62)
    keep = math.erf(1.0 / math.sqrt(2.0 * q2))
    predicted = 2.62 * keep * 0.81
    means = [monte_carlo_spectrum(spec, 800, seed=s).values.mean() for s in range(3)]
    assert np.mean(means) == pytest.approx(predicted, rel=0.05)



def full_gram_spectrum(spec, n0, seed, mode="swapped"):
    """Reference sampler: every row of every layer, eigenvalues of the n0 x n0 J^T J."""
    summaries = summarize(spec)
    widths = [n0] + [int(round(n0 / s.Lambda)) for s in summaries]
    jac = None
    signal = None
    if mode == "forward":
        rng = _generator(seed, 0, _STREAM_INPUT)
        signal = math.sqrt(spec.input_mean_square) * rng.standard_normal(n0)
    for ell, (s, layer) in enumerate(zip(summaries, spec.layers), start=1):
        n_out, n_in = widths[ell], widths[ell - 1]
        weight = _generator(seed, ell, _STREAM_WEIGHT).standard_normal((n_out, n_in))
        weight *= math.sqrt(layer.sigma_w_sq / n_out)
        if mode == "swapped":
            pre = math.sqrt(s.q) * _generator(seed, ell, _STREAM_GAIN).standard_normal(n_out)
        else:
            pre = weight @ signal
            if layer.sigma_b_sq > 0.0:
                bias = _generator(seed, ell, _STREAM_BIAS).standard_normal(n_out)
                pre = pre + math.sqrt(layer.sigma_b_sq) * bias
            signal = activation(layer.nonlinearity, pre)
        diag = activation_derivative(layer.nonlinearity, pre)
        jac = diag[:, None] * (weight if jac is None else weight @ jac)
    values = np.clip(np.linalg.eigvalsh(jac.T @ jac), 0.0, None)
    values[values < _ZERO_SNAP] = 0.0
    return np.sort(values)


GAIN = {NL.LINEAR: 1.0, NL.RELU: 2.0, NL.HARD_TANH: 1.5, NL.HARD_SINE: 1.5}


def ratio_spec(text, bias=0.0):
    """"relu:0.5 relu:2" -> ReLU layers with width ratios 0.5 and 2 at their usual gains."""
    layers = []
    for token in text.split():
        name, ratio = token.split(":")
        nl = Nonlinearity(name)
        layers.append(LayerSpec(nl, GAIN[nl], sigma_b_sq=bias, width_ratio=float(ratio)))
    return NetworkSpec(layers=tuple(layers))


VALIDATE_NETS = (
    "linear:2",
    "relu:0.5 relu:2",
    "hard_sine:2 hard_sine:0.5",
    "relu:2 linear:0.5 hard_sine:1",
    "hard_tanh:0.5 hard_tanh:2",
    "linear:0.5 relu:2",
    "relu:0.5 relu:2 relu:0.5 relu:2",
    "hard_sine:0.5 linear:2 relu:0.5",
)


@pytest.mark.parametrize(
    "text, mode",
    [(text, "swapped") for text in VALIDATE_NETS]
    + [("relu:0.5 relu:2 relu:0.5 relu:2", "forward"), ("hard_tanh:0.5 hard_tanh:2", "forward")],
)
def test_live_assembly_matches_full_gram(text, mode):
    # dropping dead rows, compressing bottlenecks and taking the smaller Gram
    # must leave the spectrum of the full n0 x n0 J^T J, zeros included
    spec = ratio_spec(text, bias=0.1 if mode == "forward" else 0.0)
    for seed in (3, 4):
        emp = monte_carlo_spectrum(spec, 300, seed=seed, mode=mode)
        ref = full_gram_spectrum(spec, 300, seed, mode)
        assert np.count_nonzero(emp.values == 0.0) == np.count_nonzero(ref == 0.0)
        assert np.max(np.abs(emp.values - ref)) <= 1e-9 * ref[-1]


def test_bottleneck_leaves_exactly_the_missing_rank_at_zero():
    # widths n0 -> n0/2 -> n0: rank n0/2, every other eigenvalue an exact zero
    spec = ratio_spec("hard_sine:2 hard_sine:0.5")
    emp = monte_carlo_spectrum(spec, 300, seed=9)
    assert np.count_nonzero(emp.values == 0.0) == 300 - 150
    assert emp.values[150] > 1e-3


@pytest.mark.parametrize("order", ["dead_first", "dead_last"])
def test_all_dead_layer_gives_only_zeros(order):
    # sigma_w^2 = 1e8 puts every hard_tanh preactivation far outside (-1, 1)
    dead = LayerSpec(Nonlinearity.HARD_TANH, 1e8)
    relu = LayerSpec(Nonlinearity.RELU, 2.0)
    layers = (dead, relu) if order == "dead_first" else (relu, dead)
    spec = NetworkSpec(layers=layers)
    ell = layers.index(dead) + 1
    seed = 3
    q = summarize(spec)[ell - 1].q
    pre = math.sqrt(q) * _generator(seed, ell, _STREAM_GAIN).standard_normal(64)
    assert not np.any(activation_derivative(NL.HARD_TANH, pre))
    emp = monte_carlo_spectrum(spec, 64, seed=seed)
    assert np.array_equal(emp.values, np.zeros(64))
    assert np.array_equal(full_gram_spectrum(spec, 64, seed), np.zeros(64))


# ------------------------------------------------------------------ all roots


def test_all_roots_mp_quadratic():
    meq = master_from_spec(mp_spec())
    roots = sorted(all_roots(meq, 2 + 1j).roots, key=lambda r: r.imag)
    golden = [1j * (1 - math.sqrt(5)) / 2, 1j * (1 + math.sqrt(5)) / 2]
    for got, want in zip(roots, golden):
        assert abs(got - want) <= 1e-12


def test_all_roots_degree_one():
    meq = RationalMasterEq(gain=3.0, roots=(-2.0 / 3.0,), multiplicities=(1,))  # P(m) = 2 + 3m
    z = 5 + 2j
    (root,) = all_roots(meq, z).roots
    assert root == pytest.approx(-2.0 / (3.0 - z), rel=1e-13)


def test_all_roots_count_matches_degree():
    rng = np.random.default_rng(22)
    for _ in range(15):
        spec = random_spec(rng)
        meq = master_from_spec(spec)
        z = complex(rng.uniform(0.05, 5), 10 ** rng.uniform(-6, 1))
        roots = all_roots(meq, z).roots
        assert len(roots) == meq.degree


def test_all_roots_residuals_are_polished():
    rng = np.random.default_rng(23)
    for _ in range(10):
        spec = random_spec(rng)
        meq = master_from_spec(spec)
        z = complex(rng.uniform(0.1, 4), 10 ** rng.uniform(-5, 0.5))
        coeffs = factor_coefficients(meq).astype(complex)
        coeffs[1] -= z
        for root in all_roots(meq, z).roots:
            resid = np.polyval(coeffs[::-1], root)
            scale = np.polyval(np.abs(coeffs[::-1]), max(1.0, abs(root)))
            assert abs(resid) <= 1e-10 * scale


def test_all_roots_names_coefficient_overflow():
    # the solver reads the factors, but the oracle multiplies them out:
    # 2^1100 (m + 1)(m + 1/2)^1100 has no double coefficients
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(1100)))
    with pytest.raises(ValueError, match="coefficients overflow"):
        all_roots(master_from_spec(spec), 1.0 + 1e-6j)


def test_all_roots_rejects_real_z():
    with pytest.raises(ValueError):
        all_roots(master_from_spec(mp_spec()), 2.0 + 0j)


def test_lilypads_sits_on_the_branch_root():
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(2)))
    meq = master_from_spec(spec)
    z = 4j
    roots = all_roots(meq, z).roots
    assert len(roots) == 3
    m = newton_lilypads(meq, z)
    dens = [-((r + 1) / z).imag for r in roots]
    branch = roots[int(np.argmax(dens))]
    assert abs(m - branch) <= 1e-9
    assert max(dens) >= 0


# ------------------------------------------------------------------- distance


def test_ks_distance_of_inverse_cdf_samples_is_small():
    curve = uniform_density_curve(0.0, 4.0)
    rng = np.random.default_rng(31)
    samples = 4.0 * rng.uniform(size=1000)
    emp = EmpiricalSpectrum(values=np.sort(samples), n0=1000, seed=31)
    assert ks_distance(emp, curve) <= 0.05


def test_ks_distance_all_zeros_vs_atomless_curve():
    meq = master_from_spec(mp_spec())
    curve = density_grid(meq, xs=default_grid(meq, points=120), y=1e-6)
    emp = EmpiricalSpectrum(values=np.zeros(50), n0=50, seed=0)
    assert ks_distance(emp, curve) >= 0.99


def test_ks_distance_credits_the_atom():
    spec = relu4_spec()
    meq = master_from_spec(spec)
    curve = density_grid(meq, xs=default_grid(meq, points=200), y=1e-6)
    emp = monte_carlo_spectrum(spec, 500, seed=0)
    assert ks_distance(emp, curve) <= 0.1


def test_ks_distance_rejects_starved_curve():
    xs = np.linspace(1.0, 2.0, 8)
    starved = DensityCurve(xs=xs, rhos=np.full(8, 1e-9), y=1e-6, total_mass=1e-9)
    emp = EmpiricalSpectrum(values=np.linspace(0, 1, 16), n0=16, seed=0)
    with pytest.raises(ValueError, match="mass"):
        ks_distance(emp, starved)


def test_ks_distance_refuses_a_curve_with_no_mass_on_its_window():
    # the atom alone passes the mass check, and the window's CDF was 0/0:
    # NaN, which max dropped, so this pair scored KS 0.0
    xs = np.linspace(1.0, 2.0, 8)
    empty = DensityCurve(xs=xs, rhos=np.zeros(8), y=1e-6, total_mass=0.0, atom_lower_bound=0.6)
    emp = EmpiricalSpectrum(values=np.r_[np.zeros(6), 1.0, 1.2, 1.5, 1.9], n0=10, seed=0)
    with pytest.raises(ValueError, match="^curve carries no mass on its grid window$"):
        ks_distance(emp, empty)
