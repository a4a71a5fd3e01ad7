"""The factored master equation, its evaluation, and the S-transform oracle."""

import dataclasses
import math
import re

import numpy as np
import pytest

from _s_transform import (
    ComplexPolynomial,
    RationalSTransform,
    compose_layers,
    factor_coefficients,
    factor_roots,
    layer_s_transforms,
    master_from_s_transform,
    phi_errors,
    rect_convolve,
)
from freespectra import (
    LayerSpec,
    NetworkSpec,
    Nonlinearity,
    RationalMasterEq,
    eval_phi,
    master_from_spec,
    master_from_summary,
    summarize,
)
from freespectra.network_model import LayerSummary
from freespectra.transform_algebra import second_derivative_bound


def mp_meq():
    return master_from_spec(NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),)))


def random_spec(rng):
    nls = list(Nonlinearity)
    layers = tuple(
        LayerSpec(
            nonlinearity=nls[rng.integers(0, len(nls))],
            sigma_w_sq=float(rng.uniform(0.5, 4.0)),
            width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
        )
        for _ in range(int(rng.integers(1, 7)))
    )
    return NetworkSpec(layers=layers)


# ---------------------------------------------------------------- polynomials


def test_polynomial_trims_trailing_zeros():
    p = ComplexPolynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1 and p.coeffs == (1 + 0j, 2 + 0j)
    assert ComplexPolynomial([0.0]).coeffs == (0j,)


def test_polynomial_horner_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        p = ComplexPolynomial(coeffs)
        x = complex(rng.standard_normal(), rng.standard_normal())
        expected = np.polyval(coeffs[::-1], x)
        assert p(x) == pytest.approx(expected, rel=1e-12)


def test_polynomial_derivative_consistency():
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    p = ComplexPolynomial(coeffs)
    for _ in range(10):
        x = complex(rng.standard_normal(), rng.standard_normal())
        val, der = p.eval_with_derivative(x)
        assert val == pytest.approx(p(x), rel=1e-13)
        assert der == pytest.approx(p.derivative()(x), rel=1e-12)


def test_polynomial_eval_abs_majorizes():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    p = ComplexPolynomial(coeffs)
    for _ in range(50):
        x = complex(rng.standard_normal(), rng.standard_normal())
        assert abs(p(x)) <= p.eval_abs(abs(x)) * (1 + 1e-12)


def test_polynomial_product_matches_convolution():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    got = (ComplexPolynomial(a) * ComplexPolynomial(b)).coeffs
    assert np.allclose(got, np.convolve(a, b), rtol=1e-13, atol=0)


def test_polynomial_scale_and_compose_scaled():
    p = ComplexPolynomial([1.0, -2.0, 3.0])
    assert p.scale(2.0).coeffs == (2 + 0j, -4 + 0j, 6 + 0j)
    q = p.compose_scaled(3.0)
    for x in (0.3, -1.2, 0.5 + 0.25j):
        assert q(x) == pytest.approx(p(3.0 * x), rel=1e-14)


# ------------------------------------------------------------ master equation


def test_master_is_gain_and_roots():
    # the factors are the only representation: no multiplied-out polynomial is
    # stored, as a field or as state derived from the fields
    fields = ["gain", "roots", "multiplicities"]
    assert [f.name for f in dataclasses.fields(RationalMasterEq)] == fields
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(5)))
    meq = master_from_spec(spec)
    assert sorted(vars(meq)) == sorted([*fields, "levels", "degree"])
    assert meq.roots == (-1.0, -0.5) and meq.multiplicities == (1, 5) and meq.degree == 6
    # 5 = 0b101: -0.5 enters at the top bit and at bit 0, -1 at bit 0 only
    assert meq.levels == ((-0.5,), (), (-1.0, -0.5))


def test_master_refuses_repeated_roots_and_bad_multiplicities():
    with pytest.raises(ValueError, match="distinct"):
        RationalMasterEq(gain=1.0, roots=(-1.0, -1.0), multiplicities=(1, 1))
    for bad in ((0,), (1.0,), (-2,)):
        with pytest.raises(ValueError, match="positive ints"):
            RationalMasterEq(gain=1.0, roots=(-1.0,), multiplicities=bad)
    for roots, mults in (((-1.0,), (1, 1)), ((), ())):
        with pytest.raises(ValueError, match="one multiplicity"):
            RationalMasterEq(gain=1.0, roots=roots, multiplicities=mults)


def test_master_coefficients_mp1():
    meq = mp_meq()
    assert meq.gain == 1.0 and meq.roots == (-1.0,) and meq.multiplicities == (2,)
    assert factor_coefficients(meq).tolist() == [1.0, 2.0, 1.0]


def test_master_coefficients_relu_depth_two():
    # P = (1 + m)(1 + 2m)^2: scales 1, 2, 2, so the gain is 4^(1/3)
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(2)))
    meq = master_from_spec(spec)
    assert meq.gain == pytest.approx(4.0 ** (1.0 / 3.0), rel=1e-15)
    assert meq.roots == (-1.0, -0.5) and meq.multiplicities == (1, 2)
    assert factor_coefficients(meq) == pytest.approx([1, 5, 8, 4], abs=1e-14)
    assert meq.degree == 3


def test_master_coefficients_relu_wide():
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.RELU, 2.0, width_ratio=2.0),))
    meq = master_from_spec(spec)
    assert factor_coefficients(meq) == pytest.approx([1, 5, 4], abs=1e-14)


def test_master_degree_is_depth_plus_one():
    rng = np.random.default_rng(8)
    for _ in range(10):
        spec = random_spec(rng)
        meq = master_from_spec(spec)
        assert meq.degree == spec.depth + 1


def test_master_builds_where_the_overall_scale_overflows():
    # ReLU sigma^2 = 2 at depth 3000 has prod sigma^2 Lambda = 2^3000; the
    # gain is its geometric mean over the 3001 factors
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(3000)))
    meq = master_from_spec(spec)
    assert meq.degree == 3001
    assert meq.gain == pytest.approx(2.0 ** (3000 / 3001), rel=1e-14)
    val, der = eval_phi(meq, 1.0 + 1e-6j, 0.01j)
    assert math.isfinite(abs(val)) and math.isfinite(abs(der))


def test_master_builds_where_one_layer_scale_overflows():
    # sigma^2 Lambda = 1e310 is not a float, but its log and the gain are
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1e300, width_ratio=1e10),))
    meq = master_from_spec(spec)
    assert meq.gain == pytest.approx(1e155, rel=1e-13)
    assert meq.roots == (-1.0, -1e-10) and meq.multiplicities == (1, 1)


def test_master_from_summary_needs_a_layer():
    with pytest.raises(ValueError, match="^need at least one layer summary$"):
        master_from_summary([])


def test_master_names_a_gain_or_root_that_is_not_a_float():
    # scales 1, 1e600 and 1e600: the geometric mean 1e400 overflows
    big = LayerSummary(q=1.0, c=1.0, Lambda=1e300, sigma_w_sq=1e300)
    with pytest.raises(ValueError, match="gain"):
        master_from_summary([big, big])
    tiny = LayerSummary(q=1.0, c=1e-300, Lambda=1e-300, sigma_w_sq=1e-300)
    with pytest.raises(ValueError, match="gain"):
        master_from_summary([tiny, tiny])
    lost = LayerSummary(q=1.0, c=1.0, Lambda=0.0, sigma_w_sq=1.0)
    with pytest.raises(ValueError, match="Lambda"):
        master_from_summary([lost])
    # c/Lambda = 1e310 with every scale a float
    far = LayerSummary(q=1.0, c=1.0, Lambda=1e-310, sigma_w_sq=1.0)
    with pytest.raises(ValueError, match="root"):
        master_from_summary([far])


def test_master_names_a_layer_whose_root_rounds_to_zero():
    # hard_tanh's c = erf(1/sqrt(2q)) read 0 where 2q overflows, and the root
    # -0.0 gave an all-atom law whose variance divided by zero
    fine = LayerSummary(q=1.0, c=1.0, Lambda=1.0, sigma_w_sq=1.0)
    vast = LayerSummary(q=1.7e308, c=0.0, Lambda=1.0, sigma_w_sq=1.7e308)
    message = (
        "root -c/Lambda at layer 2 is not a negative finite float "
        "(q=1.7e+308, c=0.0, Lambda=1.0)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        master_from_summary([fine, vast])
    # c/Lambda = 1e-400 underflows with c and Lambda floats
    lost = LayerSummary(q=1.0, c=1e-200, Lambda=1e200, sigma_w_sq=1.0)
    with pytest.raises(ValueError, match="^root -c/Lambda at layer 1 is not a negative finite"):
        master_from_summary([lost])


def test_residue_recovers_first_moment():
    rng = np.random.default_rng(9)
    for _ in range(50):
        spec = random_spec(rng)
        meq = master_from_spec(spec)
        m1 = math.prod(meq.gain * -r for r in factor_roots(meq))  # P(0)
        closed = 1.0
        for s in summarize(spec):
            closed *= s.c * s.sigma_w_sq
        assert abs(m1 - closed) <= 1e-12 * max(1.0, abs(closed))


# ----------------------------------------------------------------- S-algebra


def _mp_s(ratio):
    return RationalSTransform(ComplexPolynomial([1.0]), ComplexPolynomial([1.0, 1.0]), ratio)


def test_rect_convolve_square_case():
    out = rect_convolve(_mp_s(1.0), _mp_s(1.0))
    assert out.numerator.coeffs == (1 + 0j,)
    assert out.denominator.coeffs == (1 + 0j, 2 + 0j, 1 + 0j)
    assert out.ratio == 1.0


def test_rect_convolve_rescales_left_argument():
    out = rect_convolve(_mp_s(1.0), _mp_s(2.0))
    # S = 1/((1+2m)(1+m)), ratio 2
    assert out.denominator.coeffs == (1 + 0j, 3 + 0j, 2 + 0j)
    assert out.ratio == 2.0


def test_rect_convolve_associativity():
    a, b, c = _mp_s(2.0), _mp_s(3.0), _mp_s(1.0)
    left = rect_convolve(rect_convolve(a, b), c)
    right = rect_convolve(a, rect_convolve(b, c))
    assert left.numerator.coeffs == right.numerator.coeffs
    assert left.denominator.coeffs == right.denominator.coeffs
    assert left.ratio == right.ratio == 6.0


def test_layer_transforms_positive_at_zero():
    rng = np.random.default_rng(10)
    for _ in range(20):
        spec = random_spec(rng)
        for t in layer_s_transforms(summarize(spec)):
            v = t(0.0)
            assert v.imag == 0 and v.real > 0


def test_telescoping_matches_direct_master():
    rng = np.random.default_rng(11)
    for _ in range(25):
        spec = random_spec(rng)
        summaries = summarize(spec)
        direct = master_from_summary(summaries)
        P, Q = master_from_s_transform(compose_layers(layer_s_transforms(summaries)))
        want = factor_coefficients(direct)
        assert len(P.coeffs) == len(want)
        for got, w in zip(P.coeffs, want):
            assert abs(got - w) <= 1e-12 * max(1.0, abs(w))
        assert Q.coeffs == (0j, 1 + 0j)


# ------------------------------------------------------------------- eval_phi


def test_eval_phi_mp1_at_origin():
    val, der = eval_phi(mp_meq(), 10j, 0j)
    assert val == pytest.approx(-0.1j, abs=1e-15)
    assert der == pytest.approx(-1 - 0.2j, abs=1e-15)


def test_eval_phi_no_root_at_origin_pole():
    # Q(0)=0 while P(0)=1, so m=0 is never a spurious root of phi
    rng = np.random.default_rng(12)
    for _ in range(10):
        meq = master_from_spec(random_spec(rng))
        val, _ = eval_phi(meq, 2 + 1j, 0j)
        assert val != 0


def test_eval_phi_quadratic_root():
    root = 1j * (1 - math.sqrt(5)) / 2
    val, _ = eval_phi(mp_meq(), 2 + 1j, root)
    assert abs(val) < 1e-14


def test_eval_phi_rejects_zero_z():
    with pytest.raises(ValueError):
        eval_phi(mp_meq(), 0j, 0j)


@pytest.mark.parametrize("zero", [0j, complex(-0.0, 0.0), complex(0.0, -0.0), -0j])
def test_eval_phi_array_rejects_a_zero_z_and_passes_a_nan_one(zero):
    # a zero anywhere in z is refused; NaN is not zero, so it is evaluated
    meq = mp_meq()
    with pytest.raises(ValueError, match="z must be nonzero"):
        eval_phi(meq, np.array([1j, zero, 2 + 1j]), np.zeros(3, dtype=complex))
    nan = complex(math.nan, 0.0)
    with np.errstate(invalid="ignore"):
        value, _ = eval_phi(meq, np.array([1j, nan]), np.zeros(2, dtype=complex))
    assert value[0] == eval_phi(meq, 1j, 0j)[0] and np.isnan(value[1])


def test_eval_phi_leaves_read_only_arrays_untouched():
    # the updates are made in place, on arrays of eval_phi's own only
    meq = homogeneous(Nonlinearity.RELU, 2.0, 3)
    assert len(meq.levels) > 1
    z = np.array([1j, 2 + 0.5j, -1 + 3j])
    m = np.array([0.1j, -0.4 + 0.2j, 0.3 - 0.1j])
    z_before, m_before = z.copy(), m.copy()
    z.flags.writeable = False
    m.flags.writeable = False
    values, derivs = eval_phi(meq, z, m)
    assert (z == z_before).all() and (m == m_before).all()
    for value, deriv, zi, mi in zip(values, derivs, z_before, m_before):
        scalar = eval_phi(meq, complex(zi), complex(mi))
        assert abs(value - scalar[0]) <= 1e-14 * (1 + abs(scalar[0]))
        assert abs(deriv - scalar[1]) <= 1e-14 * (1 + abs(scalar[1]))


def test_eval_phi_derivative_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(40):
        meq = master_from_spec(random_spec(rng))
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 5))
        m = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        h = 1e-6
        _, der = eval_phi(meq, z, m)
        fd = (eval_phi(meq, z, m + h)[0] - eval_phi(meq, z, m - h)[0]) / (2 * h)
        assert abs(fd - der) <= 1e-6 * max(1.0, abs(der))


_EPS = 2.0**-52


def homogeneous(nonlinearity, gain, depth):
    return master_from_spec(
        NetworkSpec(layers=tuple(LayerSpec(nonlinearity, gain) for _ in range(depth)))
    )


@pytest.mark.parametrize("k", [1, 2, 3, 64, 255, 256, 3000])
def test_grouped_eval_phi_matches_mpmath_on_the_expanded_factors(k):
    # ReLU sigma^2 = 2 x k holds -0.5 k times, linear x (k - 1) holds -1 k
    # times.  Both phi forms must stay inside newton_raphson's noise floor,
    # 4 eps (d |P/z| + |m| + |phi'| |m|), against 160-bit arithmetic on the
    # d factors one by one, and phi' inside 4 eps (d S + |phi'| + 1), S the
    # size of the terms k_j P/(z (m - r_j)) of P'/z
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(1100 + k)
    nets = [homogeneous(Nonlinearity.RELU, 2.0, k)]
    if k > 1:
        nets.append(homogeneous(Nonlinearity.LINEAR, 1.0, k - 1))
    for meq in nets:
        assert k in meq.multiplicities
        d = meq.degree
        root = meq.roots[meq.multiplicities.index(k)]
        # |gain (m - root)| between 0.5 and 1.2 keeps P inside the doubles at
        # k = 3000; the rest sit 1e-1 .. 1e-12 from the repeated root
        far = np.exp(rng.uniform(math.log(0.5), math.log(1.2), 12)) / meq.gain
        near = 10.0 ** -rng.uniform(1, 12, 12)
        angles = rng.uniform(0, 2 * math.pi, 24)
        ms = root + np.concatenate([far, near]) * np.exp(1j * angles)
        zs = 10 ** rng.uniform(-1, 1, 24) * np.exp(1j * rng.uniform(0.05, math.pi - 0.05, 24))
        zs *= rng.choice([-1, 1], 24)
        values, derivs = eval_phi(meq, zs, ms)
        for z, m, array_value, array_deriv in zip(zs, ms, values, derivs):
            z, m = complex(z), complex(m)
            computed = [eval_phi(meq, z, m), (complex(array_value), complex(array_deriv))]
            errors, p_over_z, slope, terms = phi_errors(meq, z, m, computed)
            for err, derr in errors:
                assert err <= 4 * _EPS * (d * p_over_z + abs(m) + slope * abs(m)), (k, z, m)
                assert derr <= 4 * _EPS * (d * terms + slope + 1.0), (k, z, m)


# ------------------------------------------------- second-derivative envelope


def test_second_derivative_bound_mp1_constant():
    meq = mp_meq()
    for center, radius in ((0j, 0.0), (1 + 1j, 2.0), (-3j, 10.0)):
        assert second_derivative_bound(meq, 10j, center, radius) == pytest.approx(0.2, rel=1e-15)


def test_second_derivative_bound_refuses_a_negative_radius():
    meq = mp_meq()
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        second_derivative_bound(meq, 10j, 0j, -1.0)
    with pytest.raises(ValueError, match="^radius must be nonnegative$"):
        second_derivative_bound(meq, np.full(2, 10j), np.zeros(2, complex), np.array([1.0, -1.0]))


def test_second_derivative_bound_degree_one_is_zero():
    # P = 1+m: phi'' vanishes identically
    meq = RationalMasterEq(gain=1.0, roots=(-1.0,), multiplicities=(1,))
    assert second_derivative_bound(meq, 1j, 0.5j, 3.0) == 0.0


def test_second_derivative_bound_is_inf_where_the_modulus_of_z_overflows():
    # Python's abs of this z raised OverflowError, and on arrays M''/|z| read
    # 0, which would certify any start
    meq = master_from_spec(NetworkSpec(layers=(LayerSpec(Nonlinearity.RELU, 2.0),)))
    z = complex(1.5e308, 1.5e308)
    assert second_derivative_bound(meq, z, 0j, 1.0) == math.inf
    with np.errstate(over="ignore"):
        bounds = second_derivative_bound(meq, np.array([z, 1j]), np.zeros(2, complex), np.ones(2))
    assert bounds[0] == math.inf
    assert bounds[1] == second_derivative_bound(meq, 1j, 0j, 1.0)


def test_second_derivative_bound_dominates_fd_oracle():
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(2)))
    meq = master_from_spec(spec)
    z = 4j
    h = 1e-5
    fd = (eval_phi(meq, z, h)[1] - eval_phi(meq, z, -h)[1]) / (2 * h)
    assert second_derivative_bound(meq, z, 0j, 1.0) >= abs(fd)


def test_second_derivative_bound_monotone_in_radius():
    rng = np.random.default_rng(14)
    for _ in range(20):
        meq = master_from_spec(random_spec(rng))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 4))
        center = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        radii = np.sort(rng.uniform(0, 3, size=5))
        vals = [second_derivative_bound(meq, z, center, float(r)) for r in radii]
        assert all(a <= b + 1e-15 for a, b in zip(vals[:-1], vals[1:]))


def test_second_derivative_bound_is_sound_against_mpmath():
    # |phi''| at 120 bits on each disc's boundary (where its maximum lies) and
    # at the point centre + radius, where the bound is attained for a real
    # centre right of every root: the rounding allowance must keep both the
    # scalar and the array bound above it
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(15)
    nls = list(Nonlinearity)
    worst = 0.0
    for disc in range(150):
        spec = NetworkSpec(
            layers=tuple(
                LayerSpec(
                    nonlinearity=nls[rng.integers(0, len(nls))],
                    sigma_w_sq=float(rng.uniform(0.5, 2.5)),
                    width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
                )
                for _ in range(int(rng.integers(1, 65)))
            )
        )
        meq = master_from_spec(spec)
        z = complex(rng.uniform(-3, 30), rng.choice([-1, 1]) * 10 ** rng.uniform(-9, 1))
        if disc % 3 == 0:
            center = complex(rng.uniform(0.0, 2.0), 0.0)
        else:
            center = complex(rng.uniform(-2.5, 1.0), rng.uniform(-1.5, 1.5))
        radius = float(10 ** rng.uniform(-6, 0))
        bound = second_derivative_bound(meq, z, center, radius)
        array_bound = float(
            second_derivative_bound(meq, np.array([z]), np.array([center]), radius)[0]
        )
        angles = [0.0] + list(rng.uniform(0, 2 * math.pi, size=6))
        with mpmath.workprec(120):
            for angle in angles:
                m = mpmath.mpc(center.real, center.imag) + radius * mpmath.expjpi(angle / math.pi)
                v, d1, d2 = mpmath.mpf(1), mpmath.mpc(0), mpmath.mpc(0)
                for r in factor_roots(meq):
                    t = meq.gain * (m - r)
                    d2, d1, v = d2 * t + 2 * d1, d1 * t + v, v * t
                exact = abs(d2) * mpmath.mpf(meq.gain) ** 2 / abs(mpmath.mpc(z.real, z.imag))
                assert exact <= bound
                assert exact <= array_bound
                if bound > 0:
                    worst = max(worst, float(exact / max(bound, array_bound)))
    assert worst > 0.999  # the attained case was sampled, so the test can bite


@pytest.mark.parametrize(
    "nonlinearity, gain",
    [(Nonlinearity.RELU, 2.0), (Nonlinearity.LINEAR, 1.0), (Nonlinearity.HARD_SINE, 1.5)],
)
def test_second_derivative_bound_is_sound_at_high_multiplicity(nonlinearity, gain):
    # homogeneous nets hold one root thousands of times, which the bound
    # raises to a power by squaring; |phi''| at 120 bits over the expanded
    # factors, on each disc's boundary and at centre + radius (attained for a
    # real centre right of every root), must stay below the scalar and the
    # array bound
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    worst = 0.0
    for depth in (64, 700, 3000):
        meq = homogeneous(nonlinearity, gain, depth)
        root = meq.roots[int(np.argmax(meq.multiplicities))]
        assert max(meq.multiplicities) >= depth
        for disc in range(3):
            # |gain (centre - root)| near 1 keeps M'' a finite double
            offset = float(rng.uniform(0.7, 1.05)) / meq.gain
            angle = 0.0 if disc == 0 else float(rng.uniform(-math.pi / 2, math.pi / 2))
            center = root + offset * complex(math.cos(angle), math.sin(angle))
            radius = float(10 ** rng.uniform(-6, -3))
            z = complex(rng.uniform(-3, 30), rng.choice([-1, 1]) * 10 ** rng.uniform(-9, 1))
            bound = second_derivative_bound(meq, z, center, radius)
            array_bound = float(
                second_derivative_bound(meq, np.array([z]), np.array([center]), radius)[0]
            )
            assert math.isfinite(bound) and bound > 0
            with mpmath.workprec(120):
                for point in [0.0, *rng.uniform(0, 2 * math.pi, 2)]:
                    m = mpmath.mpc(center.real, center.imag) + radius * mpmath.expjpi(point / math.pi)
                    v, d1, d2 = mpmath.mpf(1), mpmath.mpc(0), mpmath.mpc(0)
                    for r in factor_roots(meq):
                        t = meq.gain * (m - r)
                        d2, d1, v = d2 * t + 2 * d1, d1 * t + v, v * t
                    exact = abs(d2) * mpmath.mpf(meq.gain) ** 2 / abs(mpmath.mpc(z.real, z.imag))
                    assert exact <= bound and exact <= array_bound, (depth, disc)
                    worst = max(worst, float(exact / max(bound, array_bound)))
    assert worst > 0.999  # the attained case was sampled, so the test can bite


def test_second_derivative_bound_array_is_bitwise_the_scalar_bound():
    # with every modulus taken by hypot, the array kernel rounds exactly like
    # the scalar one, so both carry the same rounding allowance
    rng = np.random.default_rng(16)
    nls = list(Nonlinearity)
    for _ in range(100):
        spec = NetworkSpec(
            layers=tuple(
                LayerSpec(
                    nonlinearity=nls[rng.integers(0, len(nls))],
                    sigma_w_sq=float(rng.uniform(0.5, 2.5)),
                    width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
                )
                for _ in range(int(rng.integers(1, 65)))
            )
        )
        meq = master_from_spec(spec)
        z = rng.uniform(-3, 30, 100) + 1j * rng.choice([-1, 1], 100) * 10 ** rng.uniform(-9, 1, 100)
        center = rng.uniform(-2.5, 2.0, 100) + 1j * rng.uniform(-1.5, 1.5, 100)
        radius = 10 ** rng.uniform(-6, 0, 100)
        bounds = second_derivative_bound(meq, z, center, radius)
        expected = [
            second_derivative_bound(meq, complex(zi), complex(ci), float(ri))
            for zi, ci, ri in zip(z, center, radius)
        ]
        assert bounds.tolist() == expected


def test_second_derivative_bound_array_is_bitwise_the_scalar_bound_over_runs():
    # centres that repeat in runs of equal values, and an empty array: every
    # bound is bit-identical to the scalar one of the same disc
    rng = np.random.default_rng(64)
    nls = list(Nonlinearity)
    for depth in range(1, 65):
        spec = NetworkSpec(
            layers=tuple(
                LayerSpec(
                    nonlinearity=nls[rng.integers(0, len(nls))],
                    sigma_w_sq=float(rng.uniform(0.5, 2.5)),
                    width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
                )
                for _ in range(depth)
            )
        )
        meq = master_from_spec(spec)
        lengths = rng.integers(1, 9, 12)
        lengths[:3] = 1
        heads = rng.uniform(-2.5, 2.0, lengths.size) + 1j * rng.uniform(-1.5, 1.5, lengths.size)
        n = int(lengths.sum())
        z = rng.uniform(-3, 30, n) + 1j * rng.choice([-1, 1], n) * 10 ** rng.uniform(-9, 1, n)
        radius = 10 ** rng.uniform(-6, 0, n)
        for center in (np.repeat(heads, lengths), np.full(n, heads[0])):
            bounds = second_derivative_bound(meq, z, center, radius)
            expected = [
                second_derivative_bound(meq, complex(zi), complex(ci), float(ri))
                for zi, ci, ri in zip(z, center, radius)
            ]
            assert bounds.tolist() == expected, depth
        assert second_derivative_bound(meq, z[:0], heads[:0], radius[:0]).size == 0


def _factor_by_factor(meq, z, m, center, radius, modulus):
    # phi, phi' and the bound written as plain product-rule loops over the
    # roots, one factor at a time, with no powering
    p, dp = 1.0 + 0j, 0j
    v, d1, d2 = 1.0, 0.0, 0.0
    for r in meq.roots:
        t = (m - r) * meq.gain
        dp = dp * t + p
        p = p * t
        big_t = (radius + modulus(center - r)) * meq.gain
        d2 = d2 * big_t + 2.0 * d1
        d1 = d1 * big_t + v
        v = v * big_t
    allowance = 1.0 + (7 * meq.degree - 4) // 2 * 2.0**-52
    bound = d2 * meq.gain * meq.gain / modulus(z) * allowance
    return p / z - m, dp * meq.gain / z - 1.0, bound


def test_one_level_runs_the_factor_by_factor_arithmetic_bit_for_bit():
    # where every root is simple the powering squares once, on the starting
    # (1, 0) and (1, 0, 0), which is exact, so both kernels round as the
    # factor-by-factor product does, for scalars and for arrays alike
    rng = np.random.default_rng(49)
    nets = 0
    while nets < 40:
        meq = master_from_spec(random_spec(rng))
        if len(meq.levels) > 1:
            continue
        nets += 1
        assert meq.levels == (meq.roots,)
        z = rng.uniform(-3, 30, 50) + 1j * rng.choice([-1, 1], 50) * 10 ** rng.uniform(-9, 1, 50)
        m = rng.uniform(-2.5, 2.0, 50) + 1j * rng.uniform(-1.5, 1.5, 50)
        center = rng.uniform(-2.5, 2.0, 50) + 1j * rng.uniform(-1.5, 1.5, 50)
        radius = 10 ** rng.uniform(-6, 0, 50)
        value, deriv = eval_phi(meq, z, m)
        bound = second_derivative_bound(meq, z, center, radius)
        expected = _factor_by_factor(
            meq, z, m, center, radius, lambda c: np.hypot(c.real, c.imag)
        )
        assert value.tolist() == expected[0].tolist()
        assert deriv.tolist() == expected[1].tolist()
        assert bound.tolist() == expected[2].tolist()
        for zi, mi, ci, ri in zip(z.tolist(), m.tolist(), center.tolist(), radius.tolist()):
            got = (*eval_phi(meq, zi, mi), second_derivative_bound(meq, zi, ci, ri))
            assert got == _factor_by_factor(meq, zi, mi, ci, ri, abs)
