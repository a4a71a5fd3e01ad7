"""Finite-size sampling, the all-roots baseline, and distribution distance."""

import math

import numpy as np
import pytest

from _curves import uniform_density_curve
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
    quantiles,
)
from freespectra.network_model import Nonlinearity as NL
from freespectra.network_model import activation_derivative, summarize
from freespectra.oracles import (
    _STREAM_CHI,
    _STREAM_GAIN,
    _STREAM_WEIGHT,
    _ZERO_SNAP,
    _bartlett_factor,
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



def full_gram_spectrum(spec, n0, seed):
    """Reference sampler: from the oracle's layer-1 factor, every row of every
    later layer, and eigenvalues of the n0 x n0 J^T J.

    Layer 1 is the oracle's Bartlett factor T (k x k), set in the first k
    columns of a k x n0 matrix.  After it, the entries between live units come
    from the weight stream, as the oracle draws them; every other entry is a
    nonzero draw of an independent generator, which must not reach the
    spectrum.
    """
    summaries = summarize(spec)
    widths = [n0] + [int(round(n0 / s.Lambda)) for s in summaries]
    jac = live_prev = None
    filler = np.random.default_rng(seed + 1000)
    for ell, (s, layer) in enumerate(zip(summaries, spec.layers), start=1):
        n_out = widths[ell]
        pre = math.sqrt(s.q) * _generator(seed, ell, _STREAM_GAIN).standard_normal(n_out)
        diag = activation_derivative(layer.nonlinearity, pre)
        live = np.flatnonzero(diag)
        scale = math.sqrt(layer.sigma_w_sq / n_out)
        if jac is None:
            factor = _bartlett_factor(seed, live.size, n0)
            jac = np.zeros((factor.shape[0], n0))
            jac[:, : factor.shape[1]] = scale * factor
            live_prev = np.arange(factor.shape[0])
            continue
        weight = 1.0 + filler.uniform(size=(n_out, jac.shape[0]))
        block = _generator(seed, ell, _STREAM_WEIGHT).standard_normal((live.size, live_prev.size))
        weight[np.ix_(live, live_prev)] = block
        live_prev = live
        jac = diag[:, None] * ((scale * weight) @ jac)
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


# the bias reaches the sampler only through q, the variance of its gains,
# which sets how many hard_tanh units stay live
BIASED_NET = "hard_tanh:0.5 hard_tanh:2"


@pytest.mark.parametrize("text", VALIDATE_NETS, ids=lambda text: f"{text}-swapped")
def test_live_assembly_matches_full_gram(text):
    # dropping dead rows, compressing bottlenecks and taking the smaller Gram
    # must leave the spectrum of the full n0 x n0 J^T J, zeros included
    spec = ratio_spec(text, bias=0.1 if text == BIASED_NET else 0.0)
    for seed in (3, 4):
        emp = monte_carlo_spectrum(spec, 300, seed=seed)
        ref = full_gram_spectrum(spec, 300, seed)
        assert np.count_nonzero(emp.values == 0.0) == np.count_nonzero(ref == 0.0)
        assert np.max(np.abs(emp.values - ref)) <= 1e-9 * ref[-1]


def live_counts(spec, n0, seed):
    """live_0 = n0, then each layer's live units, read off its gain stream."""
    summaries = summarize(spec)
    live = [n0]
    for ell, (s, layer) in enumerate(zip(summaries, spec.layers), start=1):
        n_out = int(round(n0 / s.Lambda))
        pre = math.sqrt(s.q) * _generator(seed, ell, _STREAM_GAIN).standard_normal(n_out)
        live.append(int(np.count_nonzero(activation_derivative(layer.nonlinearity, pre))))
    return live


def test_oracle_draws_only_live_weight_entries(monkeypatch):
    # layer 1 draws its Bartlett factor, k = min(live_1, n0): k (k - 1) / 2
    # normals and k chi-squares; layer 2 then draws live_2 x k, and every
    # later layer live_l x live_{l-1}
    drawn = []

    class Counting:
        def __init__(self, generator, layer, stream):
            self.generator = generator
            self.key = (layer, stream)

        def standard_normal(self, size):
            out = self.generator.standard_normal(size)
            drawn.append(("normal", *self.key, out.size))
            return out

        def chisquare(self, df):
            out = self.generator.chisquare(df)
            drawn.append(("chi2", *self.key, out.size))
            return out

    def counting(seed, layer, stream):
        generator = _generator(seed, layer, stream)
        return generator if stream == _STREAM_GAIN else Counting(generator, layer, stream)

    monkeypatch.setattr("freespectra.oracles._generator", counting)
    # the first layer is wide (live_1 < n0) in ReLU x 4 and tall in the other
    for spec in (relu4_spec(), ratio_spec("linear:0.5 relu:2 relu:1")):
        n0, seed = 400, 11
        drawn.clear()
        monte_carlo_spectrum(spec, n0, seed=seed)
        live = live_counts(spec, n0, seed)
        k = min(live[1], n0)
        expected = [
            ("normal", 1, _STREAM_WEIGHT, k * (k - 1) // 2),
            ("chi2", 1, _STREAM_CHI, k),
            ("normal", 2, _STREAM_WEIGHT, live[2] * k),
        ]
        expected += [
            ("normal", ell, _STREAM_WEIGHT, live[ell] * live[ell - 1]) for ell in range(3, len(live))
        ]
        assert drawn == expected
    # ReLU x 4 draws about (1/8 + 3/4) n0^2 entries, against 4 n0^2 drawn in full
    drawn.clear()
    monte_carlo_spectrum(relu4_spec(), n0, seed=seed)
    assert sum(entry[-1] for entry in drawn) < 0.25 * 4 * n0 * n0


@pytest.mark.parametrize("rows, cols", [(5, 8), (8, 5), (6, 6)])
def test_bartlett_factor_has_the_wishart_mean(rows, cols):
    # E[T T^T] = big I: diagonal i holds i normal squares and chi^2_{big-i};
    # each diagonal entry averages 2000 draws of standard deviation
    # sqrt(2 big) <= 4, so a chi-square degree off by one moves it at least
    # 11 standard errors, against a tolerance of about 5
    k, big = min(rows, cols), max(rows, cols)
    draws = np.array([_bartlett_factor(seed, rows, cols) for seed in range(2000)])
    assert draws.shape == (2000, k, k)
    assert np.all(np.triu(draws, 1) == 0.0)
    mean = np.einsum("sij,skj->ik", draws, draws) / 2000
    assert np.max(np.abs(mean - big * np.eye(k))) <= 0.45


def test_bartlett_first_layer_needs_unit_derivatives(monkeypatch):
    # D_1 is absorbed into the Bartlett factor's orthogonal factor only when
    # every live derivative is +-1
    def halved(nl, h):
        return 0.5 * activation_derivative(nl, h)

    monkeypatch.setattr("freespectra.oracles.activation_derivative", halved)
    with pytest.raises(ValueError, match="^layer 1 has a live derivative other than"):
        monte_carlo_spectrum(relu4_spec(), 64, seed=0)


def full_draw_spectrum(spec, n0, seed):
    """The swapped sampler drawing whole weight matrices: each layer's weights
    first, then the live block taken by index, assembled as the oracle
    assembles its later layers."""
    summaries = summarize(spec)
    widths = [n0] + [int(round(n0 / s.Lambda)) for s in summaries]
    jac = live_prev = None
    for ell, (s, layer) in enumerate(zip(summaries, spec.layers), start=1):
        n_out, n_in = widths[ell], widths[ell - 1]
        weight = _generator(seed, ell, _STREAM_WEIGHT).standard_normal((n_out, n_in))
        weight *= math.sqrt(layer.sigma_w_sq / n_out)
        pre = math.sqrt(s.q) * _generator(seed, ell, _STREAM_GAIN).standard_normal(n_out)
        diag = activation_derivative(layer.nonlinearity, pre)
        live = np.flatnonzero(diag)
        block = weight[live] if jac is None else weight[np.ix_(live, live_prev)]
        if jac is not None:
            if jac.shape[0] < min(jac.shape[1], live.size):
                jac = np.linalg.qr(jac.T, mode="r").T
            block = block @ jac
        block *= diag[live, None]
        jac, live_prev = block, live
    gram = jac @ jac.T if jac.shape[0] < jac.shape[1] else jac.T @ jac
    values = np.zeros(n0)
    values[: gram.shape[0]] = np.linalg.eigvalsh(gram)
    values = np.clip(values, 0.0, None)
    values[values < _ZERO_SNAP] = 0.0
    return np.sort(values)


def spectrum_statistics(values):
    """tr(J^T J)/n0, tr((J^T J)^2)/n0 and lambda_max of one sample."""
    return values.mean(), np.mean(values * values), values[-1]


@pytest.mark.parametrize(
    "text",
    [
        # tall first layer (live_1 = 2 n0 > n0), then wide and tall layers
        "linear:0.5 linear:2 linear:0.5",
        # wide first layer, and hard_sine's +-1 derivatives throughout
        "hard_sine:2 hard_sine:0.5 hard_sine:2 hard_sine:1",
        # single layers, tall and wide
        "hard_sine:0.5",
        "linear:2",
    ],
)
def test_nets_without_dead_units_keep_the_full_draw_sample(text):
    # the Bartlett first layer keeps the law of the whole-matrix draw: over
    # 240 seeds, the paired differences of each statistic average to zero
    # within 4 standard errors
    spec, n0, seeds = ratio_spec(text), 24, range(240)
    diffs = np.array(
        [
            np.subtract(
                spectrum_statistics(monte_carlo_spectrum(spec, n0, seed=seed).values),
                spectrum_statistics(full_draw_spectrum(spec, n0, seed)),
            )
            for seed in seeds
        ]
    )
    error = diffs.std(axis=0, ddof=1) / math.sqrt(len(seeds))
    assert np.all(np.abs(diffs.mean(axis=0)) <= 4.0 * error)


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


@pytest.mark.parametrize("total_mass", [0.375, np.nextafter(0.375, 0.0)])
def test_quantiles_and_ks_distance_share_one_mass_check(total_mass):
    # total_mass + atom exactly 0.5 passes both, and the next double below
    # fails both with one message; ks_distance once refused 0.5 itself, with
    # a message of its own
    xs = np.linspace(1.0, 2.0, 8)
    curve = DensityCurve(
        xs=xs, rhos=np.full(8, 0.25), y=1e-6, total_mass=total_mass, atom_lower_bound=0.125
    )
    emp = EmpiricalSpectrum(values=np.r_[np.zeros(4), 1.1, 1.4, 1.6, 1.9], n0=8, seed=0)
    mass = float(total_mass + 0.125)
    if mass == 0.5:
        assert quantiles(curve, (0.5,)).values[0] == pytest.approx(1.5, rel=1e-12)
        assert 0.0 <= ks_distance(emp, curve) <= 1.0
        return
    assert mass == np.nextafter(0.5, 0.0)
    message = rf"^grid window misses the bulk: total_mass \+ atom = {mass!r} below 0.5$"
    with pytest.raises(ValueError, match=message):
        quantiles(curve, (0.5,))
    with pytest.raises(ValueError, match=message):
        ks_distance(emp, curve)


def test_ks_distance_refuses_a_curve_with_no_mass_on_its_window():
    # the atom alone passes the mass check, and the window's CDF was 0/0:
    # NaN, which max dropped, so this pair scored KS 0.0
    xs = np.linspace(1.0, 2.0, 8)
    empty = DensityCurve(xs=xs, rhos=np.zeros(8), y=1e-6, total_mass=0.0, atom_lower_bound=0.6)
    emp = EmpiricalSpectrum(values=np.r_[np.zeros(6), 1.0, 1.2, 1.5, 1.9], n0=10, seed=0)
    with pytest.raises(ValueError, match="^curve carries no mass on its grid window$"):
        ks_distance(emp, empty)
