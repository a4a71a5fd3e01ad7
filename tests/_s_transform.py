"""S-transform composition: the oracle for the factored master equation.

Per-layer S-transforms S_l(m) = 1/(sigma_l^2 (c_l + lambda_l m)) with width
ratio lambda_l compose under the rectangular free convolution, which rescales
the argument of the left factor by the right factor's ratio, and the composed
law gives the master equation z = P(m)/Q(m) with M^{-1}(m) = (1 + m)/(m S(m)).
The package keeps only the factored form of P; these dense polynomials build
P and Q independently of it, so the two can be compared coefficient by
coefficient.  factor_roots lists the factors one by one, each root repeated by
its multiplicity, and phi_errors measures an evaluation of phi against
high-precision arithmetic on them.
"""

from typing import NamedTuple, Sequence

import numpy as np

from freespectra.network_model import LayerSummary


class ComplexPolynomial:
    """Dense complex polynomial, ascending coefficients, exact trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        c = [complex(v) for v in coeffs]
        while len(c) > 1 and c[-1] == 0:
            c.pop()
        if not c:
            c = [0j]
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: complex) -> complex:
        p = self.coeffs[-1]
        for k in range(len(self.coeffs) - 2, -1, -1):
            p = p * x + self.coeffs[k]
        return p

    def eval_with_derivative(self, x: complex) -> tuple:
        """One Horner pass for (value, derivative)."""
        c = self.coeffs
        p = c[-1]
        dp = 0j
        for k in range(len(c) - 2, -1, -1):
            dp = dp * x + p
            p = p * x + c[k]
        return p, dp

    def eval_abs(self, r: float) -> float:
        """Horner majorant sum_k |c_k| r^k, the rounding-noise scale of __call__."""
        p = abs(self.coeffs[-1])
        for k in range(len(self.coeffs) - 2, -1, -1):
            p = p * r + abs(self.coeffs[k])
        return p

    def derivative(self) -> "ComplexPolynomial":
        if len(self.coeffs) == 1:
            return ComplexPolynomial([0j])
        return ComplexPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def scale(self, s: complex) -> "ComplexPolynomial":
        return ComplexPolynomial([s * c for c in self.coeffs])

    def compose_scaled(self, alpha: complex) -> "ComplexPolynomial":
        """P(alpha * x)."""
        out = []
        power = 1.0 + 0j
        for c in self.coeffs:
            out.append(c * power)
            power *= alpha
        return ComplexPolynomial(out)

    def __mul__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0j] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return ComplexPolynomial(out)


class RationalSTransform(NamedTuple):
    """S(m) = numerator(m)/denominator(m) together with the factor's width ratio."""

    numerator: ComplexPolynomial
    denominator: ComplexPolynomial
    ratio: float

    def __call__(self, m: complex) -> complex:
        return self.numerator(m) / self.denominator(m)


def identity_transform() -> RationalSTransform:
    """Neutral element: S = 1, ratio 1 (the law of the identity factor)."""
    return RationalSTransform(ComplexPolynomial([1.0]), ComplexPolynomial([1.0]), 1.0)


def layer_s_transforms(layers: Sequence[LayerSummary]) -> list:
    """Reduced per-layer transforms S_l(m) = 1/(sigma^2 (c_l + lambda_l m)), ratio lambda_l."""
    out = []
    prev = 1.0
    for layer in layers:
        lam = layer.Lambda / prev
        prev = layer.Lambda
        out.append(
            RationalSTransform(
                ComplexPolynomial([1.0]),
                ComplexPolynomial([layer.sigma_w_sq * layer.c, layer.sigma_w_sq * lam]),
                lam,
            )
        )
    return out


def rect_convolve(a: RationalSTransform, b: RationalSTransform) -> RationalSTransform:
    """Free multiplicative convolution of ratio-carrying factors.

    The product law's S-transform is S_a(b.ratio * m) * S_b(m) and the ratios
    multiply; the argument rescaling is what keeps rectangular factors honest.
    """
    return RationalSTransform(
        a.numerator.compose_scaled(b.ratio) * b.numerator,
        a.denominator.compose_scaled(b.ratio) * b.denominator,
        a.ratio * b.ratio,
    )


def compose_layers(transforms: Sequence[RationalSTransform]) -> RationalSTransform:
    """Fold layer transforms (given in layer order 1..L) into the product law."""
    acc = identity_transform()
    for t in reversed(transforms):
        acc = rect_convolve(acc, t)
    return acc


def master_from_s_transform(s: RationalSTransform) -> tuple:
    """(P, Q) with M^{-1}(m) = (1 + m)/(m S(m)) = P(m)/Q(m)."""
    return (
        s.denominator * ComplexPolynomial([1.0, 1.0]),
        s.numerator * ComplexPolynomial([0.0, 1.0]),
    )


def factor_roots(meq) -> list:
    """The roots of P with each repeated by its multiplicity: one per linear factor."""
    return [r for r, k in zip(meq.roots, meq.multiplicities) for _ in range(k)]


def phi_errors(meq, z: complex, m: complex, computed, prec: int = 160):
    """How far computed (phi_z(m), phi_z'(m)) pairs are from prec-bit
    arithmetic on the factors taken one by one, with the scales to measure it.

    Returns ([(|value - phi|, |deriv - phi'|) for each pair], |P(m)/z|, |phi'|,
    sum_j k_j |P(m)/z| / |m - r_j|), the last the size of the terms that make
    up P'(m)/z.  mpmath is imported on the first call.
    """
    import mpmath

    with mpmath.workprec(prec):
        gain = mpmath.mpf(meq.gain)
        mm = mpmath.mpc(m.real, m.imag)
        zz = mpmath.mpc(z.real, z.imag)
        p, dp = mpmath.mpc(1), mpmath.mpc(0)
        for r in factor_roots(meq):
            t = gain * (mm - r)
            dp = dp * t + p
            p = p * t
        p_over_z = p / zz
        phi, slope = p_over_z - mm, dp * gain / zz - 1
        terms = abs(p_over_z) * sum(k / abs(mm - r) for r, k in zip(meq.roots, meq.multiplicities))
        errors = [
            (
                float(abs(mpmath.mpc(value.real, value.imag) - phi)),
                float(abs(mpmath.mpc(deriv.real, deriv.imag) - slope)),
            )
            for value, deriv in computed
        ]
        return errors, float(abs(p_over_z)), float(abs(slope)), float(terms)


def factor_coefficients(meq) -> np.ndarray:
    """Ascending coefficients of P(m) = prod_j (gain (m - r_j))^k_j, multiplied out."""
    return np.poly(factor_roots(meq))[::-1] * meq.gain ** meq.degree
