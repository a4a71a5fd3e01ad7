"""Finite-size sampling, the all-roots baseline, and distribution distance."""

import math

import numpy as np
import pytest

from _activations import activation_derivative
from _memory import traced_peak
from _s_transform import factor_coefficients
from freespectra import (
    EmpiricalSpectrum,
    LayerSpec,
    NetworkSpec,
    Nonlinearity,
    RationalMasterEq,
    all_roots,
    atom_lower_bound,
    cdf,
    closed_form_moments,
    g_moment,
    ks_distance,
    master_from_spec,
    monte_carlo_spectrum,
    newton_lilypads,
)
from freespectra.network_model import Nonlinearity as NL
from freespectra.network_model import summarize
from freespectra.oracles import (
    _BLOCK,
    _STREAM_CHI,
    _STREAM_LIVE,
    _STREAM_WEIGHT,
    _bartlett_factor,
    _bidiagonal_factor,
    _bidiagonal_gram,
    _bidiagonal_left_inplace,
    _generator,
    _lower_gram_inplace,
    _lower_product_inplace,
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
        EmpiricalSpectrum(values=np.array([-1.0, 2.0]))
    emp = EmpiricalSpectrum(values=np.array([2.0, 1.0]))
    assert np.array_equal(emp.values, [1.0, 2.0])
    # the sample size is values.size, and the seed stays with the config
    for stale in ({"n0": 2}, {"seed": 0}):
        with pytest.raises(TypeError):
            EmpiricalSpectrum(values=np.array([2.0, 1.0]), **stale)
    with pytest.raises(TypeError):
        EmpiricalSpectrum(np.array([2.0, 1.0]))
    # a sample built directly pins nothing; the censored count is among the zeros
    assert (emp.floor, emp.censored) == (0.0, 0)
    assert EmpiricalSpectrum(values=np.array([0.0, 0.0, 1.0]), censored=2).censored == 2
    for censored in (-1, 3):
        with pytest.raises(ValueError, match="censored must count exact zeros"):
            EmpiricalSpectrum(values=np.array([0.0, 0.0, 1.0]), censored=censored)
    # ks_distance divided by the size of an empty sample, and scored
    # [nan, nan] as the atom against any curve
    with pytest.raises(ValueError, match="^a sample needs at least one value$"):
        EmpiricalSpectrum(values=np.array([]))
    for values in ([np.nan, np.nan], [1.0, np.nan], [np.nan, 0.0, 2.0]):
        with pytest.raises(ValueError, match="^squared singular values cannot be NaN$"):
            EmpiricalSpectrum(values=np.array(values))


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


def test_monte_carlo_vanishing_gain_scales_the_sample():
    # sigma_w^2 scales every entry of the triangle, so at one seed the
    # sigma_w^2 = 1e-20 sample is 1e-20 times the sigma_w^2 = 1 one, to
    # rounding relative to lambda_max; the zero snap is relative to the
    # spectrum's scale, so no tiny eigenvalue is pinned to a spurious atom
    def sample(gain):
        spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, gain),))
        return monte_carlo_spectrum(spec, 64, seed=1).values

    tiny, unit = sample(1e-20), sample(1.0)
    assert np.all(tiny > 0.0)
    assert np.max(np.abs(tiny / 1e-20 - unit)) <= 1e-12 * unit[-1]


def test_monte_carlo_relu_kills_half_the_rows():
    spec = relu4_spec()
    seed = 11
    emp = monte_carlo_spectrum(spec, 1000, seed=seed)
    # each layer's live count, read off its dedicated stream
    for live in live_counts(spec, 1000, seed)[1:]:
        assert abs(live / 1000 - 0.5) <= 0.05
    assert np.mean(emp.values == 0.0) >= 0.45  # rank deficiency shows up at zero


def test_monte_carlo_width_validation():
    with pytest.raises(ValueError, match="n0 must be at least 4"):
        monte_carlo_spectrum(mp_spec(), 3, seed=0)
    skinny = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=1000.0),))
    with pytest.raises(ValueError, match="width rounds to zero"):
        monte_carlo_spectrum(skinny, 4, seed=0)
    # numpy's binomial counts up to 2**63 - 1 and raises OverflowError past
    # it: 2**62 units are counted, and 2**63 are refused naming the layer
    def wide(exponent):
        return NetworkSpec(
            layers=(LayerSpec(Nonlinearity.HARD_TANH, 1.5, width_ratio=2.0**-(exponent - 2)),)
        )

    assert monte_carlo_spectrum(wide(62), 4, seed=0).values.size == 4
    with pytest.raises(ValueError, match=rf"^layer 1 has {2**63} units at n0=4, more than the 2"):
        monte_carlo_spectrum(wide(63), 4, seed=0)


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


def live_counts(spec, n0, seed):
    """live_0 = n0, then each layer's live units, the oracle's binomial draw
    read off the layer's live stream."""
    live = [n0]
    for ell, s in enumerate(summarize(spec), start=1):
        live.append(int(_generator(seed, ell, _STREAM_LIVE).binomial(round(n0 / s.Lambda), s.c)))
    return live


def test_oracle_draws_only_live_weight_entries(monkeypatch):
    # every layer but the bottleneck's draws one r x r Bartlett factor, r the
    # narrowest live width (n0 included): r (r - 1) / 2 normals from its
    # weight stream, one call per row straight into it, and r chi-squares from
    # its chi stream.  The bottleneck's layer k = max(b, 1), b the first index
    # of r among the live widths, draws a bidiagonal: r chi-squares from its
    # chi stream, r - 1 from its weight stream, and no normals
    drawn = []

    class Counting:
        def __init__(self, generator, layer, stream):
            self.generator = generator
            self.key = (layer, stream)

        def standard_normal(self, *, out):
            self.generator.standard_normal(out=out)
            drawn.append(("normal", *self.key, out.size))
            return out

        def chisquare(self, df):
            out = self.generator.chisquare(df)
            drawn.append(("chi2", *self.key, out.size))
            return out

    def counting(seed, layer, stream):
        generator = _generator(seed, layer, stream)
        return generator if stream == _STREAM_LIVE else Counting(generator, layer, stream)

    monkeypatch.setattr("freespectra.oracles._generator", counting)
    # the narrowest width is layer 1's in ReLU x 4 and hard_sine x 2 (both
    # draw their layers last first), n0 in the tall single layer, and layer
    # 2's in the last net
    n0, seed = 400, 11
    for spec in (
        relu4_spec(),
        ratio_spec("linear:0.5"),
        ratio_spec("hard_sine:2 hard_sine:0.5"),
        ratio_spec("linear:0.5 relu:2 relu:1"),
    ):
        drawn.clear()
        monte_carlo_spectrum(spec, n0, seed=seed)
        live = live_counts(spec, n0, seed)
        r = min(live)
        k = max(live.index(r), 1)
        depth = len(spec.layers)
        # with the bidiagonal at layer 1 of two or more, the layers are
        # drawn last first
        order = range(depth, 0, -1) if k == 1 and depth > 1 else range(1, depth + 1)
        expected = []
        for ell in order:
            if ell == k:
                expected += [("chi2", ell, _STREAM_CHI, r), ("chi2", ell, _STREAM_WEIGHT, r - 1)]
                continue
            expected += [("normal", ell, _STREAM_WEIGHT, i) for i in range(1, r)]
            expected.append(("chi2", ell, _STREAM_CHI, r))
        assert drawn == expected
        normals = sum(e[-1] for e in drawn if e[0] == "normal")
        assert normals == (len(spec.layers) - 1) * r * (r - 1) // 2
    # ReLU x 4 draws about 4 (n0/2)^2 / 2 = n0^2 / 2 numbers, against 4 n0^2
    # for whole weight matrices
    drawn.clear()
    monte_carlo_spectrum(relu4_spec(), n0, seed=seed)
    assert sum(entry[-1] for entry in drawn) < 0.15 * 4 * n0 * n0


def test_oracle_never_compresses_a_bottleneck(monkeypatch):
    # the triangles are already bottleneck-wide: no QR factorization is left
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    for text in VALIDATE_NETS:
        monte_carlo_spectrum(ratio_spec(text), 200, seed=5)


@pytest.mark.parametrize(
    "rows, cols, reverse",
    [(5, 8, False), (8, 5, False), (6, 6, False), (5, 8, True), (8, 5, True), (6, 6, True)],
    ids=["5-8", "8-5", "6-6", "5-8-reversed", "8-5-reversed", "6-6-reversed"],
)
def test_bartlett_factor_has_the_wishart_mean(rows, cols, reverse):
    # a wide block's LQ factor has E[L L^T] = cols I, and a tall or square
    # block's QL factor E[L^T L] = rows I: the Gram's diagonal entry i holds
    # a chi-square and i (LQ) or r - 1 - i (QL) normal squares.  A reversed
    # draw has the law of P L^T P, P the reversal, so its other Gram has
    # that mean: on the square block the reversal turns the QL degrees
    # 1 + i into the LQ degrees r - i.  Each diagonal entry averages 2000
    # draws of standard deviation sqrt(2 max(rows, cols)) <= 4, so a
    # chi-square degree off by one moves it at least 11 standard errors,
    # against a tolerance of about 5
    r = min(rows, cols)
    draws = np.array(
        [_bartlett_factor(seed, 1, rows, cols, reverse=reverse) for seed in range(2000)]
    )
    assert draws.shape == (2000, r, r)
    assert np.all(np.triu(draws, 1) == 0.0)
    if (rows < cols) != reverse:
        mean = np.einsum("sij,skj->ik", draws, draws) / 2000
    else:
        mean = np.einsum("sji,sjk->ik", draws, draws) / 2000
    assert np.max(np.abs(mean - max(rows, cols) * np.eye(r))) <= 0.45


def dense_bidiagonal(d, s):
    """The r x r lower bidiagonal of diagonal d and subdiagonal s."""
    dense = np.diag(d)
    dense[np.arange(1, d.size), np.arange(d.size - 1)] = s
    return dense


@pytest.mark.parametrize("rows, cols", [(5, 8), (8, 5), (6, 6)])
def test_bidiagonal_factor_has_the_wishart_moments(rows, cols):
    # B B^T is Wishart_r(a, I) in its eigenvalues, a = max(rows, cols), so
    # E tr(B B^T) = r a and E tr((B B^T)^2) = r a (r + a + 1).  Each mean is
    # over 4000 draws; one chi-square degree off by one moves E tr(B B^T) by
    # 1, about 7 of its standard errors
    r, a = min(rows, cols), max(rows, cols)
    factors = [_bidiagonal_factor(seed, 1, rows, cols, 1.0) for seed in range(4000)]
    assert all(d.shape == (r,) and s.shape == (r - 1,) for d, s in factors)
    draws = np.array([dense_bidiagonal(d, s) for d, s in factors])
    gram = np.einsum("sij,skj->sik", draws, draws)
    traces = np.stack([np.trace(gram, axis1=1, axis2=2), np.sum(gram * gram, axis=(1, 2))])
    error = traces.std(axis=1, ddof=1) / math.sqrt(4000)
    gap = traces.mean(axis=1) - [r * a, r * a * (r + a + 1)]
    assert np.all(np.abs(gap) <= 3.0 * error)
    # the scale multiplies every entry
    scaled = dense_bidiagonal(*_bidiagonal_factor(0, 1, rows, cols, 0.5))
    assert np.array_equal(scaled, 0.5 * draws[0])


# the fourth of each layer's four generator keys, which the oracle never draws
_STREAM_SPARE = 3


def derivative_diagonal(nl, q, width, live, generator):
    """width derivatives phi'(sqrt(q) g), g standard normal, given that live
    of them are nonzero: the first live nonzero ones of a stream of draws,
    at live places drawn at random, and 0 elsewhere."""
    found = np.empty(0)
    while found.size < live:
        derivative = activation_derivative(nl, math.sqrt(q) * generator.standard_normal(width))
        found = np.concatenate([found, derivative[derivative != 0.0]])
    diagonal = np.zeros(width)
    diagonal[generator.permutation(width)[:live]] = found[:live]
    return diagonal


def full_draw_spectrum(spec, n0, seed):
    """Reference sampler of the swapped model: every layer's whole weight
    matrix and derivative diagonal, the n_L x n0 product, and eigenvalues of
    the n0 x n0 J^T J.  Nothing is dropped, factored or compressed.  Each
    diagonal has the oracle's live count, so the two samples are paired."""
    summaries = summarize(spec)
    widths = [n0] + [int(round(n0 / s.Lambda)) for s in summaries]
    live = live_counts(spec, n0, seed)
    jac = np.eye(n0)
    for ell, (s, layer) in enumerate(zip(summaries, spec.layers), start=1):
        n_out, n_in = widths[ell], widths[ell - 1]
        weight = _generator(seed, ell, _STREAM_WEIGHT).standard_normal((n_out, n_in))
        weight *= math.sqrt(layer.sigma_w_sq / n_out)
        spare = _generator(seed, ell, _STREAM_SPARE)
        diagonal = derivative_diagonal(layer.nonlinearity, s.q, n_out, live[ell], spare)
        jac = diagonal[:, None] * (weight @ jac)
    values = np.clip(np.linalg.eigvalsh(jac.T @ jac), 0.0, None)
    values[values < n0 * np.finfo(float).eps * values.max()] = 0.0
    return np.sort(values)


def spectrum_statistics(values):
    """tr(J^T J)/n0, tr((J^T J)^2)/n0 and lambda_max of one sample."""
    return values.mean(), np.mean(values * values), values[-1]


def paired_law_gaps(spec, n0, seeds):
    """Mean paired difference of each statistic, oracle minus whole-matrix
    draw, over the seeds, and its standard error.  Every oracle sample must
    keep at least n0 - r exact zeros, r the narrowest live width."""
    diffs = []
    for seed in seeds:
        values = monte_carlo_spectrum(spec, n0, seed=seed).values
        assert np.count_nonzero(values == 0.0) >= n0 - min(live_counts(spec, n0, seed))
        reference = full_draw_spectrum(spec, n0, seed)
        diffs.append(np.subtract(spectrum_statistics(values), spectrum_statistics(reference)))
    diffs = np.array(diffs)
    return diffs.mean(axis=0), diffs.std(axis=0, ddof=1) / math.sqrt(len(seeds))


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
    # the triangles keep the law of the whole-matrix draw: over 240 seeds,
    # the paired differences of each statistic average to zero within 4
    # standard errors
    gap, error = paired_law_gaps(ratio_spec(text), 24, range(240))
    assert np.all(np.abs(gap) <= 4.0 * error)


@pytest.mark.parametrize("text", VALIDATE_NETS, ids=lambda text: f"{text}-swapped")
def test_live_assembly_matches_full_gram(text):
    # dropping dead units and drawing one bottleneck-wide triangle per layer
    # keep the law of the full n0 x n0 J^T J: over 400 seeds, the paired
    # differences of each statistic average to zero within 4 standard errors
    spec = ratio_spec(text, bias=0.1 if text == BIASED_NET else 0.0)
    gap, error = paired_law_gaps(spec, 24, range(400))
    assert np.all(np.abs(gap) <= 4.0 * error)


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
    assert live_counts(spec, 64, seed)[ell] == 0
    emp = monte_carlo_spectrum(spec, 64, seed=seed)
    assert np.array_equal(emp.values, np.zeros(64))
    assert np.array_equal(full_draw_spectrum(spec, 64, seed), np.zeros(64))


KERNEL_SIZES = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3)


def relative_gap(got, want):
    """max |got - want| over max |want|; 0 for empty arrays."""
    return np.max(np.abs(got - want), initial=0.0) / max(np.max(np.abs(want), initial=0.0), 1e-300)


@pytest.mark.parametrize("r", KERNEL_SIZES)
def test_lower_product_matches_the_dense_product(r):
    # the product overwrites its right operand, block row by block row
    rng = np.random.default_rng(r)
    a, b = np.tril(rng.standard_normal((2, r, r)))
    product = b.copy()
    _lower_product_inplace(a, product)
    assert np.all(np.triu(product, 1) == 0.0)
    assert relative_gap(product, a @ b) <= 1e-13


@pytest.mark.parametrize("r", KERNEL_SIZES)
def test_lower_gram_matches_the_dense_gram_below_the_diagonal(r):
    # the Gram overwrites j's lower half; the blocks above the diagonal
    # blocks keep j's zeros
    j = np.tril(np.random.default_rng(r).standard_normal((r, r)))
    gram = j.copy()
    _lower_gram_inplace(gram)
    assert relative_gap(np.tril(gram), np.tril(j.T @ j)) <= 1e-13
    block = np.arange(r) // _BLOCK
    assert np.all(gram[block[:, None] < block[None, :]] == 0.0)


def bidiagonal_and_triangle(r):
    """The diagonal and subdiagonal of a random r x r lower bidiagonal, and a
    random lower triangle, r x r."""
    rng = np.random.default_rng(r)
    d, s = rng.standard_normal(r), rng.standard_normal(max(r - 1, 0))
    return d, s, np.tril(rng.standard_normal((r, r)))


@pytest.mark.parametrize("r", KERNEL_SIZES)
def test_bidiagonal_left_product_matches_the_dense_product(r):
    # B b overwrites b, block row by block row from the bottom
    d, s, b = bidiagonal_and_triangle(r)
    product = b.copy()
    _bidiagonal_left_inplace(d, s, product)
    assert np.all(np.triu(product, 1) == 0.0)
    assert relative_gap(product, dense_bidiagonal(d, s) @ b) <= 1e-14


@pytest.mark.parametrize("r", KERNEL_SIZES)
def test_bidiagonal_gram_is_the_dense_tridiagonal_gram(r):
    # B^T B is tridiagonal: its lower half goes to a new array whose strict
    # upper triangle is 0
    d, s, _ = bidiagonal_and_triangle(r)
    bidiagonal = dense_bidiagonal(d, s)
    gram = _bidiagonal_gram(d, s)
    assert np.all(np.triu(gram, 1) == 0.0)
    assert relative_gap(gram, np.tril(bidiagonal.T @ bidiagonal)) <= 1e-14


@pytest.mark.parametrize("r", [1, _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
def test_bartlett_factor_draws_one_row_major_stream_of_normals(r, tall):
    # one standard_normal call per row continues one draw of all r (r - 1) / 2
    # normals below the diagonal, in row-major order; a buffer holding
    # anything is overwritten with the same factor
    seed, layer = 6, 2
    rows, cols = (r + 3, r) if tall else (r, r + 3)
    below = _generator(seed, layer, _STREAM_WEIGHT).standard_normal(r * (r - 1) // 2)
    factor = _bartlett_factor(seed, layer, rows, cols)
    assert np.array_equal(factor[np.tri(r, k=-1, dtype=bool)], below)
    assert np.all(np.triu(factor, 1) == 0.0)
    buffer = np.full((r, r), np.nan)
    assert _bartlett_factor(seed, layer, rows, cols, out=buffer) is buffer
    assert np.array_equal(buffer, factor)


def traced_peak_doubles(spec, n0, seed):
    """tracemalloc's peak over one monte_carlo_spectrum call, in doubles."""
    return traced_peak(lambda: monte_carlo_spectrum(spec, n0, seed=seed)) / 8


# validate's "hard_sine:0.5 linear:2 relu:0.5" net: at seed 3 its ReLU
# leaves 988 of layer 3's 2 n0 units live, the narrowest width, so layers 1
# and 2 are triangles
VALIDATE_DEEP_NET = NetworkSpec(
    layers=(
        LayerSpec(Nonlinearity.HARD_SINE, 1.5, width_ratio=0.5),
        LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=2.0),
        LayerSpec(Nonlinearity.RELU, 2.0, width_ratio=0.5),
    )
)


@pytest.mark.parametrize(
    "spec, bottleneck",
    [(NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),) * 8), (1000, 0)),
     (VALIDATE_DEEP_NET, (988, 3))],
    ids=["linear_x8", "validate_net"],
)
def test_monte_carlo_holds_two_triangles_at_any_depth(spec, bottleneck):
    # the product and one factor buffer, r x r each, plus a block row of
    # scratch and a few arrays of n0; a fresh array per factor, product and
    # Gram peaked at 3.6 r^2 on these nets
    n0, seed = 1000, 3
    live = live_counts(spec, n0, seed)
    r = min(live)
    assert (r, live.index(r)) == bottleneck
    monte_carlo_spectrum(spec, 64, seed=seed)  # the generators' one-time set-up
    assert traced_peak_doubles(spec, n0, seed) <= 2 * r * r + 2 * _BLOCK * r + 8 * n0


def test_monte_carlo_samples_a_layer_of_1e11_units_in_arrays_of_n0():
    # lambda 1e-8 makes layer 1 1e11 units wide at n0 = 1000; its live count
    # is one binomial draw, where each unit's pre-activation took 745 GiB.
    # About 5e10 of them are live, so the n0 squared singular values sit at
    # sigma_w^2 c = 1, within the Marchenko-Pastur edges 1 +- 2 sqrt(n0 / 5e10)
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.RELU, 2.0, width_ratio=1e-8),))
    monte_carlo_spectrum(spec, 64, seed=0)  # the generators' one-time set-up
    assert traced_peak_doubles(spec, 1000, 0) * 8 < 64 * 2**20
    values = monte_carlo_spectrum(spec, 1000, seed=0).values
    assert np.max(np.abs(values - 1.0)) <= 1e-3


# the CI smoke's late.json net: at seed 3 its ReLU leaves r = 517 of layer
# 2's n0 units live, the narrowest width, so layer 2 is the bidiagonal
LATE_BOTTLENECK_NET = NetworkSpec(
    layers=(
        LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=0.5),
        LayerSpec(Nonlinearity.RELU, 2.0, width_ratio=2.0),
    )
)


def test_monte_carlo_holds_one_triangle_when_the_bottleneck_is_the_output():
    # layer 1's triangle holds the product and the bidiagonal multiplies it
    # in place; the bidiagonal held as a dense r x r array peaked at 2.33 r^2
    n0, seed = 1000, 3
    live = live_counts(LATE_BOTTLENECK_NET, n0, seed)
    r = min(live)
    assert (r, live.index(r)) == (517, 2)
    monte_carlo_spectrum(LATE_BOTTLENECK_NET, 64, seed=seed)  # the generators' one-time set-up
    assert traced_peak_doubles(LATE_BOTTLENECK_NET, n0, seed) <= r * r + 2 * _BLOCK * r + 8 * n0


def dense_kernel_spectrum(spec, n0, seed):
    """The oracle's sample with dense kernels: J itself, the same factors,
    the bidiagonal at layer k = max(b, 1) and triangles elsewhere, multiplied
    as full matrices in layer order, and eigvalsh of the whole Gram,
    unsnapped.  Where the oracle builds P J^T P (k = 1 on two or more
    layers), each of its triangles F is drawn reversed, so J's is P F^T P."""
    summaries = summarize(spec)
    live = live_counts(spec, n0, seed)
    r = min(live)
    b = live.index(r)
    flip = b <= 1 and len(spec.layers) > 1
    jac = np.eye(r)
    for ell, (s, layer) in enumerate(zip(summaries, spec.layers), start=1):
        block = (r, live[ell - 1]) if ell <= b else (live[ell], r)
        scale = math.sqrt(layer.sigma_w_sq / int(round(n0 / s.Lambda)))
        if ell == max(b, 1):
            factor = dense_bidiagonal(*_bidiagonal_factor(seed, ell, *block, scale))
        else:
            factor = scale * _bartlett_factor(seed, ell, *block, reverse=flip)
            if flip:
                factor = factor.T[::-1, ::-1]
        jac = factor @ jac
    values = np.zeros(n0)
    values[:r] = np.linalg.eigvalsh(jac.T @ jac)
    return np.sort(np.clip(values, 0.0, None))


@pytest.mark.parametrize(
    "text, seed, bottleneck",
    [("hard_sine:2 hard_sine:0.5", 4, 1), ("hard_sine:0.5 linear:2 relu:0.5", 6, 0)],
    ids=["b1", "b0"],
)
def test_bidiagonal_at_layer_1_multiplies_as_its_flip(monkeypatch, text, seed, bottleneck):
    # with the bottleneck at layer 1 of two or more (at seed 6 the ReLU
    # leaves 308 of its 600 units live, so b = 0), the kernel gets the
    # diagonal and subdiagonal of P B^T P, P the reversal and B the same
    # draw, exactly, in contiguous arrays
    spec, n0 = ratio_spec(text), 300
    live = live_counts(spec, n0, seed)
    r = min(live)
    assert live.index(r) == bottleneck
    seen = []
    kernel = _bidiagonal_left_inplace

    def capture(d, s, b):
        seen.append((d.copy(), s.copy(), d.flags.c_contiguous and s.flags.c_contiguous))
        kernel(d, s, b)

    monkeypatch.setattr("freespectra.oracles._bidiagonal_left_inplace", capture)
    monte_carlo_spectrum(spec, n0, seed=seed)
    block = (r, n0) if bottleneck else (live[1], r)
    scale = math.sqrt(spec.layers[0].sigma_w_sq / int(round(n0 / summarize(spec)[0].Lambda)))
    bidiagonal = dense_bidiagonal(*_bidiagonal_factor(seed, 1, *block, scale))
    [(d, s, contiguous)] = seen
    assert contiguous
    assert np.array_equal(dense_bidiagonal(d, s), bidiagonal.T[::-1, ::-1])


def test_triangle_kernels_keep_the_dense_kernel_sample():
    # at n0 = 300 the bottleneck r spans one to three blocks; the block
    # kernels and the zero snap move each eigenvalue by rounding only.  The
    # nets put the bidiagonal at each of its three places: alone (linear:2),
    # at layer 1 before triangles, where the oracle builds P J^T P and the
    # reference J, and at a later layer after them
    widths = []
    for text in VALIDATE_NETS:
        spec = ratio_spec(text)
        values = monte_carlo_spectrum(spec, 300, seed=4).values
        reference = dense_kernel_spectrum(spec, 300, 4)
        assert np.max(np.abs(values - reference)) <= 1e-12 * reference[-1]
        widths.append(min(live_counts(spec, 300, 4)))
    assert min(widths) < _BLOCK < 2 * _BLOCK < max(widths)


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


def test_all_roots_refuses_a_root_whose_residual_stays_large(monkeypatch):
    # a polish that moves each root off P(m) = z m leaves residuals the check names
    monkeypatch.setattr("freespectra.oracles._polish", lambda meq, z, root: root + 0.5)
    with pytest.raises(RuntimeError, match=r"^root .* kept relative residual above 1e-10$"):
        all_roots(master_from_spec(mp_spec()), 2 + 1j)


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
    # Marchenko-Pastur samples drawn through its closed-form CDF, inverted
    # by bisection to well below the sample's resolution
    rng = np.random.default_rng(31)
    samples = []
    for u in rng.uniform(size=1000):
        lo, hi = 0.0, 4.0
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mp_cdf(mid) < u else (lo, mid)
        samples.append(hi)
    emp = EmpiricalSpectrum(values=np.array(samples))
    assert ks_distance(emp, master_from_spec(mp_spec())) <= 0.05


def test_ks_distance_all_zeros_vs_atomless_curve():
    # Marchenko-Pastur has no atom, so a sample of zeros misses all of it
    emp = EmpiricalSpectrum(values=np.zeros(50))
    assert ks_distance(emp, master_from_spec(mp_spec())) == 1.0


def test_ks_distance_credits_the_atom():
    spec = relu4_spec()
    emp = monte_carlo_spectrum(spec, 500, seed=0)
    assert ks_distance(emp, master_from_spec(spec)) <= 0.1


def test_ks_distance_compares_the_zeros_with_the_cdf_at_the_floor():
    # nine zeros and one positive value, at floor 0 and at a positive floor:
    # the zeros' share, 0.9, meets the atom 0.5 at floor 0 and F(0.25) =
    # 0.7547 above it, and that gap is the distance; at 2.0, F = 0.8738 is
    # within 0.13 of both one-sided limits, 0.9 and 1.  Each point's root,
    # and so F, depends on the points walked with it to within rounding.
    meq = master_from_spec(relu4_spec())
    values = np.r_[np.zeros(9), 2.0]
    for floor in (0.0, 0.25):
        model = cdf(meq, [floor, 2.0])
        emp = EmpiricalSpectrum(values=values, floor=floor, censored=1)
        assert abs(0.9 - model[0]) > max(abs(1.0 - model[1]), abs(model[1] - 0.9))
        assert ks_distance(emp, meq) == pytest.approx(abs(0.9 - model[0]), abs=1e-14)
    assert cdf(meq, [0.0])[0] == atom_lower_bound(meq) == 0.5


def test_ks_distance_meets_each_value_from_the_left():
    # one value near Marchenko-Pastur's upper edge: the sample's CDF is 0
    # just below it, where F is 0.99, and 1 at it
    meq = master_from_spec(mp_spec())
    emp = EmpiricalSpectrum(values=np.array([3.9]))
    at_value = cdf(meq, [0.0, 3.9])[1]
    assert ks_distance(emp, meq) == at_value == pytest.approx(mp_cdf(3.9), abs=1e-12)


def test_censored_share_meets_the_cdf_at_the_floor():
    # linear x 16 has no atom, but its law puts about 0.22 of its mass below
    # the sample's rounding floor, where the sampler pins it as censored
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),) * 16)
    emp = monte_carlo_spectrum(spec, 1000, seed=0)
    meq = master_from_spec(spec)
    assert atom_lower_bound(meq) == 0.0
    at_floor = cdf(meq, [emp.floor])[0]
    share = emp.censored / 1000
    assert 0.2 < share < 0.25
    assert abs(share - at_floor) <= 3 * math.sqrt(at_floor * (1 - at_floor) / 1000)
