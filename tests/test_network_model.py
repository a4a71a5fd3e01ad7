"""Layer statistics: closed forms vs quadrature, recurrences, validation."""

import math

import numpy as np
import pytest
from scipy.special import ndtr

from freespectra import (
    LayerSpec,
    NetworkSpec,
    Nonlinearity,
    g_moment,
    layer_coefficient,
    propagate_variances,
    summarize,
)

from _activations import activation, activation_derivative
from _quadrature import gaussian_second_moment


ALL_NLS = (Nonlinearity.LINEAR, Nonlinearity.RELU, Nonlinearity.HARD_TANH, Nonlinearity.HARD_SINE)

# kink locations of each activation, in its argument
KINKS = {
    Nonlinearity.LINEAR: (),
    Nonlinearity.RELU: (0.0,),
    Nonlinearity.HARD_TANH: (-1.0, 1.0),
    Nonlinearity.HARD_SINE: tuple(float(k) for k in range(-61, 62, 2)),
}


def test_nonlinearity_enum_is_closed():
    assert {nl.value for nl in Nonlinearity} == {"linear", "relu", "hard_tanh", "hard_sine"}
    assert Nonlinearity.from_name("relu") is Nonlinearity.RELU
    with pytest.raises(ValueError, match="unknown nonlinearity"):
        Nonlinearity.from_name("tanh")


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(Nonlinearity.RELU, sigma_w_sq=0.0)
    with pytest.raises(ValueError):
        LayerSpec(Nonlinearity.RELU, sigma_w_sq=1.0, width_ratio=-1.0)
    with pytest.raises(ValueError):
        LayerSpec(Nonlinearity.RELU, sigma_w_sq=1.0, sigma_b_sq=-0.1)
    with pytest.raises(ValueError):
        NetworkSpec(layers=())


def test_propagate_variances_relu_pair():
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(2)))
    assert propagate_variances(spec) == pytest.approx([2.0, 2.0], abs=0)


def test_propagate_variances_single_linear():
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),))
    assert propagate_variances(spec) == [1.0]


def test_propagate_variances_names_the_layer_whose_variance_overflows():
    # q^1 = 1e200, and q^2 = 1e200 * 1e200 is past the doubles
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1e200),) * 2)
    with pytest.raises(ValueError, match=r"^nonpositive or nonfinite variance q=inf at layer 2$"):
        propagate_variances(spec)


def test_propagate_variances_hard_tanh_with_bias():
    spec = NetworkSpec(
        layers=(
            LayerSpec(Nonlinearity.HARD_TANH, 1.0, sigma_b_sq=0.5),
            LayerSpec(Nonlinearity.HARD_TANH, 1.0, sigma_b_sq=0.5),
        )
    )
    q1, q2 = propagate_variances(spec)
    assert q1 == 1.5
    oracle = gaussian_second_moment(
        lambda h: activation(Nonlinearity.HARD_TANH, h), 1.5, KINKS[Nonlinearity.HARD_TANH]
    )
    assert abs(q2 - (oracle + 0.5)) <= 1e-8


def test_g_moment_simple_values():
    assert g_moment(Nonlinearity.LINEAR, 2.0) == 2.0
    assert g_moment(Nonlinearity.RELU, 2.0) == 1.0
    # frozen from the series; cross-checked by quadrature below
    assert g_moment(Nonlinearity.HARD_SINE, 1.0) == pytest.approx(0.3304185730674768, rel=1e-12)
    assert g_moment(Nonlinearity.HARD_SINE, 1.0) == pytest.approx(0.33042, abs=5e-6)


def _kinks_for(nl, q):
    if nl is Nonlinearity.HARD_SINE:
        # kinks at odd integers; list every one the integration window can see
        top = int(40.0 * math.sqrt(q)) + 2
        return tuple(float(k) for k in range(-top, top + 1) if k % 2)
    return KINKS[nl]


def test_g_moment_matches_quadrature_over_q_range():
    qs = np.logspace(-3, 3, 13)
    extra = [0.5, 1.5, 2.0, 7.0]
    for nl in ALL_NLS:
        for q in list(qs) + extra:
            oracle = gaussian_second_moment(lambda h: activation(nl, h), q, _kinks_for(nl, q))
            got = g_moment(nl, float(q))
            assert abs(got - oracle) <= 1e-8, (nl, q, got, oracle)


@pytest.mark.parametrize("side", ["series", "pieces"])
def test_hard_sine_moment_matches_quadrature_to_rounding(side):
    # the Fourier series from q = 0.1 up, and below it the sum over the
    # triangle wave's pieces; the series cut at 200 terms was 6.9 % high at
    # q = 1e-5 and 504 times the exact q at 1e-8
    qs = np.logspace(-1, 3, 17) if side == "series" else np.logspace(-12, -1, 45)[:-1]
    edge = [0.1] if side == "series" else [math.nextafter(0.1, 0.0)]
    for q in list(qs) + edge:
        got = g_moment(Nonlinearity.HARD_SINE, float(q))
        oracle = gaussian_second_moment(
            lambda h: activation(Nonlinearity.HARD_SINE, h), q, _kinks_for(Nonlinearity.HARD_SINE, q)
        )
        assert abs(got - oracle) <= 1e-12 * oracle, (q, got, oracle)


def _hard_tanh_moment_mpmath(q):
    # q E[N^2; |N| < 1/sqrt(q)] = q (2/sqrt(pi)) gamma(3/2, 1/(2q)), lower
    # incomplete gamma, which mpmath takes without the closed form's cancellation
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        t2 = 1 / (2 * mpmath.mpf(q))
        ramp = mpmath.mpf(q) * 2 / mpmath.sqrt(mpmath.pi) * mpmath.gammainc(1.5, 0, t2)
        return ramp + mpmath.erfc(mpmath.sqrt(t2))


def test_hard_tanh_moment_matches_mpmath_to_rounding_at_every_q():
    # the closed form's q erf(t) and sqrt(2q/pi) e^(-t^2) cancel about
    # 3q-fold, which would leave 16385 at q = 1e40 and -9.1e133 at 1e300
    # for a moment just below 1; the scan crosses the switch to the series
    qs = list(np.logspace(-12, 300, 313)) + [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)]
    for q in qs:
        got = g_moment(Nonlinearity.HARD_TANH, float(q))
        oracle = _hard_tanh_moment_mpmath(float(q))
        assert abs(got - oracle) <= 1e-14 * oracle, (q, got, float(oracle))


@pytest.mark.parametrize("gain", [1e40, 1e300])
def test_a_saturated_hard_tanh_layer_hands_on_its_true_moment(gain):
    # layer 2's q is 1.5 g(q1), about 1.5; the cancelling closed form would
    # give about 24,577 at gain 1e40 and a negative variance at 1e300
    spec = NetworkSpec(
        layers=(LayerSpec(Nonlinearity.HARD_TANH, gain), LayerSpec(Nonlinearity.HARD_TANH, 1.5))
    )
    layers = summarize(spec)
    expected = 1.5 * _hard_tanh_moment_mpmath(gain)
    assert abs(layers[1].q - expected) <= 1e-14 * expected, (layers[1].q, float(expected))


def test_g_moment_rejects_bad_q():
    with pytest.raises(ValueError):
        g_moment(Nonlinearity.RELU, 0.0)


def test_layer_coefficient_values():
    assert layer_coefficient(Nonlinearity.RELU, 0.01) == 0.5
    assert layer_coefficient(Nonlinearity.RELU, 100.0) == 0.5
    assert layer_coefficient(Nonlinearity.HARD_SINE, 3.0) == 1.0
    assert layer_coefficient(Nonlinearity.LINEAR, 3.0) == 1.0
    got = layer_coefficient(Nonlinearity.HARD_TANH, 1.0)
    assert got == pytest.approx(0.6826894921370859, rel=1e-12)
    assert got == pytest.approx(0.682689, abs=1e-6)


@pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
def test_layer_coefficient_refuses_a_q_that_is_not_positive_and_finite(q):
    with pytest.raises(ValueError, match=rf"^q must be a positive finite real, got {q}$"):
        layer_coefficient(Nonlinearity.RELU, q)


def test_layer_coefficient_hard_tanh_against_normal_cdf():
    for q in np.logspace(-3, 3, 9):
        oracle = 2.0 * float(ndtr(1.0 / math.sqrt(q))) - 1.0
        assert abs(layer_coefficient(Nonlinearity.HARD_TANH, float(q)) - oracle) <= 1e-12


@pytest.mark.parametrize("nl", ALL_NLS, ids=lambda nl: nl.value)
def test_layer_coefficient_is_the_live_fraction_of_the_derivative(nl):
    # the Monte-Carlo oracle draws each layer's live count as
    # Binomial(N, c) with c = LayerSummary.c, folding every live derivative
    # into a Gaussian block as +-1: over 10^6 pre-activations sqrt(q) g, each
    # derivative is -1, 0 or 1 and the share of nonzero ones is c within 5
    # standard errors (exactly c where c = 1)
    rng = np.random.default_rng(17)
    n = 10**6
    for q in np.logspace(-6, 6, 7):
        for bias in (0.0, 0.5 * q):
            layer = LayerSpec(nl, sigma_w_sq=float(q - bias), sigma_b_sq=float(bias))
            (s,) = summarize(NetworkSpec(layers=(layer,)))
            derivative = activation_derivative(nl, math.sqrt(s.q) * rng.standard_normal(n))
            assert np.all(np.isin(derivative, (-1.0, 0.0, 1.0)))
            live = np.count_nonzero(derivative) / n
            assert abs(live - s.c) <= 5.0 * math.sqrt(s.c * (1.0 - s.c) / n), (q, bias, live, s.c)


def test_layer_coefficient_range_and_monotonicity():
    for nl in ALL_NLS:
        vals = [layer_coefficient(nl, float(q)) for q in np.logspace(-3, 3, 25)]
        assert all(0.0 < v <= 1.0 for v in vals)
    # strictly decreasing where the normal CDF has not saturated to 1.0
    ht = [layer_coefficient(Nonlinearity.HARD_TANH, float(q)) for q in np.logspace(-1.4, 3, 17)]
    assert all(a > b for a, b in zip(ht[:-1], ht[1:]))


def test_relu_critical_gain_is_fixed_point():
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(6)))
    qs = propagate_variances(spec)
    assert qs == pytest.approx([2.0] * 6, rel=1e-14)


def test_hard_sine_moment_approaches_one_third_monotonically():
    # strictly below 1/3 and increasing while the series terms stay above
    # double-precision resolution; saturates to exactly 1/3 for large q
    qs = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    vals = [g_moment(Nonlinearity.HARD_SINE, q) for q in qs]
    assert all(a < b for a, b in zip(vals[:-1], vals[1:]))
    assert all(v < 1.0 / 3.0 for v in vals)
    assert abs(g_moment(Nonlinearity.HARD_SINE, 32.0) - 1.0 / 3.0) < 1e-12


def test_summarize_single_linear():
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),))
    (s,) = summarize(spec)
    assert (s.q, s.c, s.Lambda, s.sigma_w_sq) == (1.0, 1.0, 1.0, 1.0)


def test_summarize_relu_pair():
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(2)))
    for s in summarize(spec):
        assert (s.q, s.c, s.Lambda, s.sigma_w_sq) == (2.0, 0.5, 1.0, 2.0)


def test_summarize_cumulative_ratios():
    spec = NetworkSpec(
        layers=(
            LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=2.0),
            LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=0.5),
        )
    )
    assert [s.Lambda for s in summarize(spec)] == [2.0, 1.0]


def test_activation_shapes_and_ranges():
    h = np.linspace(-4, 4, 401)
    assert np.array_equal(activation(Nonlinearity.LINEAR, h), h)
    relu = activation(Nonlinearity.RELU, h)
    assert np.all(relu >= 0) and np.all(relu[h > 0] == h[h > 0])
    ht = activation(Nonlinearity.HARD_TANH, h)
    assert np.max(np.abs(ht)) == 1.0 and np.all(ht[np.abs(h) <= 1] == h[np.abs(h) <= 1])
    hs = activation(Nonlinearity.HARD_SINE, h)
    assert np.max(np.abs(hs)) <= 1.0 + 1e-15
    # triangle wave: peaks at odd integers, zero at even integers
    assert activation(Nonlinearity.HARD_SINE, np.array([0.0, 1.0, 2.0, 3.0])) == pytest.approx(
        [0.0, 1.0, 0.0, -1.0], abs=1e-14
    )


def test_activation_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = rng.uniform(-5, 5, size=400)
    eps = 1e-6
    for nl in ALL_NLS:
        kinks = np.array(KINKS[nl] + (0.0,)) if KINKS[nl] else np.array([np.inf])
        safe = np.min(np.abs(h[:, None] - kinks[None, :]), axis=1) > 1e-3
        fd = (activation(nl, h[safe] + eps) - activation(nl, h[safe] - eps)) / (2 * eps)
        # cancellation in the difference quotient leaves ~|h|*ulp/eps of noise
        assert np.max(np.abs(fd - activation_derivative(nl, h[safe]))) < 1e-8


def test_relu_derivative_is_bernoulli_mask():
    rng = np.random.default_rng(11)
    h = rng.standard_normal(1000)
    d = activation_derivative(Nonlinearity.RELU, h)
    assert set(np.unique(d)) <= {0.0, 1.0}
    d2 = activation_derivative(Nonlinearity.HARD_SINE, h)
    assert set(np.unique(d2)) <= {-1.0, 1.0}
