"""Rational transform algebra: S-transforms with width ratios and the master equation.

The squared-singular-value law of the layered product is encoded by a rational
inverse moment transform M^{-1}(m) = P(m)/Q(m); its defining equation at a
spectral parameter z is phi_z(m) = P(m)/z - Q(m) = 0.  Per-layer S-transforms
compose under a rectangular free convolution that rescales the argument of the
left factor by the right factor's ratio.

For a network, Q(m) = m and P is a product of real linear factors,
P(m) = K (m + 1) prod_l (m + c_l/Lambda_l).  The solver reads only that
factored form: the multiplied-out coefficients cancel heavily, so both the
evaluation of phi and the bound on phi'' are taken from the factors.  Each
comes in a scalar form and an array form that runs the same arithmetic
elementwise over numpy arrays of z and m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .network_model import LayerSummary, NetworkSpec, summarize

__all__ = [
    "ComplexPolynomial",
    "RationalSTransform",
    "RationalMasterEq",
    "identity_transform",
    "layer_s_transforms",
    "rect_convolve",
    "compose_layers",
    "master_from_summary",
    "master_from_spec",
    "master_from_s_transform",
    "eval_phi",
    "eval_phi_array",
    "second_derivative_bound",
    "second_derivative_bound_array",
]

# Reject master equations whose coefficients leave the comfortably representable
# range; evaluation noise at that scale would dwarf any residual target.
_COEFF_MAGNITUDE_CAP = 1e300

# Machine epsilon (twice the unit roundoff of round-to-nearest doubles).
_EPS = 2.0**-52


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

    def eval_with_derivative(self, x: complex) -> tuple[complex, complex]:
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

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ComplexPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"ComplexPolynomial({list(self.coeffs)!r})"


@dataclass(frozen=True)
class RationalSTransform:
    """S(m) = numerator(m)/denominator(m) together with the factor's width ratio."""

    numerator: ComplexPolynomial
    denominator: ComplexPolynomial
    ratio: float

    def __call__(self, m: complex) -> complex:
        return self.numerator(m) / self.denominator(m)


@dataclass(frozen=True)
class RationalMasterEq:
    """The pair (P, Q) with z = P(m)/Q(m) defining the moment transform branch.

    A network's equation also carries its factored form: P(m) = scale *
    prod_j (m - roots[j]) with real roots, and Q(m) = m.  `eval_phi` and
    `second_derivative_bound` need it; the coefficients serve the all-roots
    oracle and the composition check.
    """

    P: ComplexPolynomial
    Q: ComplexPolynomial
    scale: Optional[float] = None
    roots: Optional[tuple] = None

    def __post_init__(self) -> None:
        for poly, name in ((self.P, "P"), (self.Q, "Q")):
            worst = max(abs(c) for c in poly.coeffs)
            if not math.isfinite(worst) or worst > _COEFF_MAGNITUDE_CAP:
                raise ValueError(
                    f"master equation {name} coefficients overflow (max magnitude {worst:.3g}); "
                    "the network's gains are too large to represent"
                )

    @property
    def degree(self) -> int:
        return max(self.P.degree, self.Q.degree)


def identity_transform() -> RationalSTransform:
    """Neutral element: S = 1, ratio 1 (the law of the identity factor)."""
    return RationalSTransform(ComplexPolynomial([1.0]), ComplexPolynomial([1.0]), 1.0)


def layer_s_transforms(layers: Sequence[LayerSummary]) -> list[RationalSTransform]:
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


def master_from_summary(layers: Sequence[LayerSummary]) -> RationalMasterEq:
    """P(m) = (m+1) * prod_l sigma_l^2 (c_l + Lambda_l m), Q(m) = m.

    Recorded both multiplied out and as K (m+1) prod_l (m + c_l/Lambda_l) with
    K = prod_l sigma_l^2 Lambda_l.
    """
    if not layers:
        raise ValueError("need at least one layer summary")
    P = ComplexPolynomial([1.0, 1.0])
    scale = 1.0
    roots = [-1.0]
    for layer in layers:
        P = P * ComplexPolynomial(
            [layer.sigma_w_sq * layer.c, layer.sigma_w_sq * layer.Lambda]
        )
        scale *= layer.sigma_w_sq * layer.Lambda
        roots.append(-layer.c / layer.Lambda)
    return RationalMasterEq(
        P=P, Q=ComplexPolynomial([0.0, 1.0]), scale=scale, roots=tuple(roots)
    )


def master_from_spec(spec: NetworkSpec) -> RationalMasterEq:
    return master_from_summary(summarize(spec))


def master_from_s_transform(s: RationalSTransform) -> RationalMasterEq:
    """M^{-1}(m) = (1+m)/(m S(m)) as a rational pair."""
    return RationalMasterEq(
        P=s.denominator * ComplexPolynomial([1.0, 1.0]),
        Q=s.numerator * ComplexPolynomial([0.0, 1.0]),
    )


def _factors(meq: RationalMasterEq) -> tuple:
    if meq.roots is None:
        raise ValueError("the master equation carries no factored form")
    return meq.scale, meq.roots


def eval_phi(meq: RationalMasterEq, z: complex, m: complex) -> tuple[complex, complex]:
    """(phi_z(m), phi_z'(m)) with phi_z(m) = P(m)/z - m, P and P' by the product rule."""
    if z == 0:
        raise ValueError("z must be nonzero")
    scale, roots = _factors(meq)
    p = complex(scale)
    dp = 0j
    for r in roots:
        t = m - r
        dp = dp * t + p
        p = p * t
    return p / z - m, dp / z - 1.0


def eval_phi_array(
    meq: RationalMasterEq, z: np.ndarray, m: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """eval_phi elementwise over complex arrays z and m (broadcast together).

    numpy's complex products may round differently from Python's, so values
    can differ from the scalar ones in the last bits.
    """
    z = np.asarray(z, dtype=complex)
    m = np.asarray(m, dtype=complex)
    if np.any(z == 0):
        raise ValueError("z must be nonzero")
    scale, roots = _factors(meq)
    p = np.full(np.broadcast(z, m).shape, complex(scale))
    dp = np.zeros_like(p)
    for r in roots:
        t = m - r
        dp *= t
        dp += p
        p *= t
    return p / z - m, dp / z - 1.0


def _modulus(c: np.ndarray) -> np.ndarray:
    # |c| of a complex array, rounded like Python's abs of a complex: np.abs
    # can be off by almost 2 ulp, hypot is within one, as the bound assumes
    return np.hypot(c.real, c.imag)


def _bound(scale: float, roots: tuple, z, center, radius, modulus):
    v, d1, d2 = scale, 0.0, 0.0
    for r in roots:
        t = radius + modulus(center - r)
        d2 = d2 * t + 2.0 * d1
        d1 = d1 * t + v
        v = v * t
    return d2 / modulus(z) * (1.0 + (4 * len(roots) + 8) * _EPS)


def second_derivative_bound(
    meq: RationalMasterEq, z: complex, center: complex, radius: float
) -> float:
    """Upper bound on sup |phi_z''| over the closed disc |m - center| <= radius.

    About the centre, P(center + w) = K prod_j (w + a_j) with a_j = center - r_j,
    so its Taylor coefficients are K times elementary symmetric functions of the
    a_j, each bounded in modulus by the same function of the |a_j|.  Hence
    sup |P''| <= M''(radius) with M(x) = K prod_j (x + |a_j|), and the bound is
    M''(radius)/|z| (Q = m contributes nothing to phi'').  It is attained when
    the centre is real and right of every root.

    Every term of M'' is a sum of products of nonnegative numbers, so the
    computed value is low by at most a factor (1 - u)^(6d + 5) for d factors
    and unit roundoff u = 2^-53: at most four roundings per radius + |a_j|
    (hypot is within one ulp), two per recurrence step, three for the division
    by |z| and one for the allowance, which is 1 + (4d + 8) * 2^-52.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _bound(*_factors(meq), z, center, radius, abs)


def second_derivative_bound_array(
    meq: RationalMasterEq, z: np.ndarray, center: np.ndarray, radius: np.ndarray
) -> np.ndarray:
    """second_derivative_bound elementwise over arrays of discs.

    Every modulus is taken with np.hypot, so each element is bit-identical to
    the scalar bound of the same disc and the same rounding allowance holds.
    """
    radius = np.asarray(radius, dtype=float)
    if np.any(radius < 0):
        raise ValueError("radius must be nonnegative")
    return _bound(
        *_factors(meq),
        np.asarray(z, dtype=complex),
        np.asarray(center, dtype=complex),
        radius,
        _modulus,
    )
