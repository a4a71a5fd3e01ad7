"""The master equation of a network in factored form, and its evaluation.

The squared-singular-value law of the layered product is encoded by the
inverse moment transform M^{-1}(m) = P(m)/m; its defining equation at a
spectral parameter z is phi_z(m) = P(m)/z - m = 0.  Composing the layers'
S-transforms under the rectangular free convolution gives
P(m) = (m + 1) prod_l sigma_l^2 (c_l + Lambda_l m), a product of d = L + 1
real linear factors.  That product is the only representation kept: one
common gain and the roots, P(m) = prod_j gain (m - r_j), with the gain the
geometric mean of the factor scales, so no partial product forms the overall
scale prod_l sigma_l^2 Lambda_l, which overflows for deep nets.  phi, phi'
and the bound on phi'' are all taken from the factors, each in a scalar form
and an array form that runs the same arithmetic elementwise over numpy arrays
of z and m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .network_model import LayerSummary, NetworkSpec, summarize

__all__ = [
    "RationalMasterEq",
    "master_from_summary",
    "master_from_spec",
    "eval_phi",
    "eval_phi_array",
    "second_derivative_bound",
    "second_derivative_bound_array",
]

# Machine epsilon (twice the unit roundoff of round-to-nearest doubles).
_EPS = 2.0**-52


@dataclass(frozen=True)
class RationalMasterEq:
    """z = P(m)/m with P(m) = prod_j gain (m - roots[j]), the roots real."""

    gain: float
    roots: tuple

    @property
    def degree(self) -> int:
        return len(self.roots)


def master_from_summary(layers: Sequence[LayerSummary]) -> RationalMasterEq:
    """P(m) = (m+1) * prod_l sigma_l^2 (c_l + Lambda_l m) as gain and roots.

    The factor scales are s_0 = 1 for m + 1 and s_l = sigma_l^2 Lambda_l, the
    roots -1 and -c_l/Lambda_l, and the gain is exp(mean_j log s_j).  Each
    log s_l is taken as log sigma_l^2 + log Lambda_l, so no scale is formed
    either.  A ValueError names a Lambda, gain or root that is not a finite
    float.
    """
    if not layers:
        raise ValueError("need at least one layer summary")
    for index, layer in enumerate(layers, start=1):
        if not (math.isfinite(layer.Lambda) and layer.Lambda > 0):
            raise ValueError(
                f"cumulative width ratio Lambda={layer.Lambda!r} at layer {index} "
                f"is not a positive finite float"
            )
        if not math.isfinite(layer.c / layer.Lambda):
            raise ValueError(
                f"root -c/Lambda at layer {index} overflows "
                f"(c={layer.c!r}, Lambda={layer.Lambda!r})"
            )
    roots = (-1.0, *(-layer.c / layer.Lambda for layer in layers))
    mean_log = math.fsum(
        math.log(layer.sigma_w_sq) + math.log(layer.Lambda) for layer in layers
    ) / len(roots)
    try:
        gain = math.exp(mean_log)
    except OverflowError:
        gain = math.inf
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError(
            f"master equation gain exp({mean_log!r}), the geometric mean of the "
            f"factor scales, is not a positive finite float"
        )
    return RationalMasterEq(gain=gain, roots=roots)


def master_from_spec(spec: NetworkSpec) -> RationalMasterEq:
    return master_from_summary(summarize(spec))


def eval_phi(meq: RationalMasterEq, z: complex, m: complex) -> tuple[complex, complex]:
    """(phi_z(m), phi_z'(m)) with phi_z(m) = P(m)/z - m, P and P' by the product rule.

    The recurrence runs in the scaled variable gain * m, whose factors are
    gain (m - r_j); P' is its derivative times gain.
    """
    if z == 0:
        raise ValueError("z must be nonzero")
    gain = meq.gain
    p = 1.0 + 0j
    dp = 0j
    for r in meq.roots:
        t = (m - r) * gain
        dp = dp * t + p
        p = p * t
    return p / z - m, dp * gain / z - 1.0


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
    gain = meq.gain
    p = np.ones(np.broadcast(z, m).shape, dtype=complex)
    dp = np.zeros_like(p)
    for r in meq.roots:
        t = m - r
        t *= gain
        dp *= t
        dp += p
        p *= t
    return p / z - m, dp * gain / z - 1.0


def _modulus(c: np.ndarray) -> np.ndarray:
    # |c| of a complex array, rounded like Python's abs of a complex: np.abs
    # can be off by almost 2 ulp, hypot is within one, as the bound assumes
    return np.hypot(c.real, c.imag)


def _bound(meq: RationalMasterEq, z, center, radius, modulus):
    gain, roots = meq.gain, meq.roots
    v, d1, d2 = 1.0, 0.0, 0.0
    for r in roots:
        t = (radius + modulus(center - r)) * gain
        d2 = d2 * t + 2.0 * d1
        d1 = d1 * t + v
        v = v * t
    return d2 * gain * gain / modulus(z) * (1.0 + (7 * len(roots) - 4) // 2 * _EPS)


def second_derivative_bound(
    meq: RationalMasterEq, z: complex, center: complex, radius: float
) -> float:
    """Upper bound on sup |phi_z''| over the closed disc |m - center| <= radius.

    About the centre, P(center + w) = prod_j gain (w + a_j) with
    a_j = center - r_j, so its Taylor coefficients are gain^d times elementary
    symmetric functions of the a_j, each bounded in modulus by the same
    function of the |a_j|.  Hence sup |P''| <= M''(radius) with
    M(x) = prod_j gain (x + |a_j|), and the bound is M''(radius)/|z| (the -m
    of phi contributes nothing to phi'').  It is attained when the centre is
    real and right of every root.  The recurrence runs on the factors
    T_j = gain (radius + |a_j|), and M'' is gain^2 times its second derivative.

    Every term of M'' is a product of nonnegative numbers, so each rounding
    lowers it by a factor of at least 1 - u (u = 2^-53; hypot, within one
    ulp, counts as two), and the computed value is at least 1 - n u times
    the exact one, with n = 7d - 6 for d >= 2 factors: five roundings in
    each of the d - 2 factors T_j of a term (the subtraction, hypot, the
    addition and the gain), at most two per recurrence step after the first
    (multiply and add), two for the final gain^2, three for the division by
    |z| and one for the allowance.  The allowance 1 + k 2^-52 covers that when
    2k >= n + 1 (for n (n + 1) <= 2^53), so k = (7d - 4) // 2.  For d = 1,
    M'' is 0 exactly.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    return _bound(meq, z, center, radius, abs)


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
        meq,
        np.asarray(z, dtype=complex),
        np.asarray(center, dtype=complex),
        radius,
        _modulus,
    )
