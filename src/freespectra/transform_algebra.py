"""The master equation of a network in factored form, and its evaluation.

The squared-singular-value law of the layered product is encoded by the
inverse moment transform M^{-1}(m) = P(m)/m; its defining equation at a
spectral parameter z is phi_z(m) = P(m)/z - m = 0.  Composing the layers'
S-transforms under the rectangular free convolution gives
P(m) = (m + 1) prod_l sigma_l^2 (c_l + Lambda_l m), a product of d = L + 1
real linear factors.  That product is the only representation kept: one
common gain, the distinct roots and their multiplicities,
P(m) = prod_j (gain (m - r_j))^k_j, with the gain the geometric mean of the
factor scales, so no partial product forms the overall scale
prod_l sigma_l^2 Lambda_l, which overflows for deep nets.  Roots repeat bit
for bit wherever layers share c_l/Lambda_l (ReLU has c = 1/2, and linear and
hard_sine layers c = 1, at every gain), so a homogeneous net at width ratio 1
has at most two distinct roots at any depth.

phi, phi' and the bound on phi'' are all taken from the factors, each by one
function, eval_phi and second_derivative_bound, that takes complex scalars or
numpy arrays alike and runs the same arithmetic elementwise over arrays: there
is one phi kernel for the scalar walk and the batched pass.  Each forms the
powers by one binary powering of the whole product: from the top bit of the
largest multiplicity down, square the partial product, then multiply in each
factor whose multiplicity has that bit (RationalMasterEq.levels), carrying
the derivatives along by the product rule.  For g distinct roots that is
O(g log max_j k_j) multiplies, against O(d) for a product taken factor by
factor, and every partial product is prod_j T_j^floor(k_j / 2^b), about
P^(2^-b), so no power overflows where P itself does not.  A net whose roots
are all distinct has one level, whose squaring of the starting product 1 is
exact, so its arithmetic is the factor-by-factor product's.
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
    "second_derivative_bound",
]

# Machine epsilon (twice the unit roundoff of round-to-nearest doubles).
_EPS = 2.0**-52


@dataclass(frozen=True)
class RationalMasterEq:
    """z = P(m)/m with P(m) = prod_j (gain (m - roots[j]))^multiplicities[j].

    The roots are real and distinct and each multiplicity is a positive int.
    The derived tuple levels lists the roots by the bits of their
    multiplicities, for the binary powering that every evaluation runs: one
    tuple of roots for each bit of the largest multiplicity, from the top bit
    down, holding the roots whose multiplicity has that bit.  The powering
    squares before each level, and before the first that maps the starting
    product 1 to itself exactly.  When every root is simple, levels is
    (roots,).
    """

    gain: float
    roots: tuple
    multiplicities: tuple

    def __post_init__(self) -> None:
        if not self.roots or len(self.roots) != len(self.multiplicities):
            raise ValueError("need one multiplicity for each of at least one root")
        if len(set(self.roots)) != len(self.roots):
            raise ValueError(f"roots must be distinct, got {self.roots!r}")
        for k in self.multiplicities:
            if not (isinstance(k, int) and k >= 1):
                raise ValueError(f"multiplicities must be positive ints, got {k!r}")
        bits = range(max(self.multiplicities).bit_length() - 1, -1, -1)
        levels = tuple(
            tuple([r for r, k in zip(self.roots, self.multiplicities) if k >> bit & 1])
            for bit in bits
        )
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "degree", sum(self.multiplicities))


def master_from_summary(layers: Sequence[LayerSummary]) -> RationalMasterEq:
    """P(m) = (m+1) * prod_l sigma_l^2 (c_l + Lambda_l m) as gain, roots and multiplicities.

    The factor scales are s_0 = 1 for m + 1 and s_l = sigma_l^2 Lambda_l, the
    roots -1 and -c_l/Lambda_l, and the gain is exp(mean_j log s_j).  Roots
    that are equal as floats form one root with their count as multiplicity,
    in the order of their first appearance.  Each log s_l is taken as
    log sigma_l^2 + log Lambda_l, so no scale is formed either.  A ValueError
    names a Lambda or gain that is not a positive finite float, and a root
    that is not a negative one.
    """
    if not layers:
        raise ValueError("need at least one layer summary")
    for index, layer in enumerate(layers, start=1):
        if not (math.isfinite(layer.Lambda) and layer.Lambda > 0):
            raise ValueError(
                f"cumulative width ratio Lambda={layer.Lambda!r} at layer {index} "
                f"is not a positive finite float"
            )
        # c underflows to 0 where hard_tanh's 2q overflows, and c/Lambda where Lambda is vast
        if not 0.0 < layer.c / layer.Lambda < math.inf:
            raise ValueError(
                f"root -c/Lambda at layer {index} is not a negative finite float "
                f"(q={layer.q!r}, c={layer.c!r}, Lambda={layer.Lambda!r})"
            )
    counts: dict = {-1.0: 1}
    for layer in layers:
        root = -layer.c / layer.Lambda
        counts[root] = counts.get(root, 0) + 1
    mean_log = math.fsum(
        math.log(layer.sigma_w_sq) + math.log(layer.Lambda) for layer in layers
    ) / (len(layers) + 1)
    try:
        gain = math.exp(mean_log)
    except OverflowError:
        gain = math.inf
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError(
            f"master equation gain exp({mean_log!r}), the geometric mean of the "
            f"factor scales, is not a positive finite float"
        )
    return RationalMasterEq(
        gain=gain, roots=tuple(counts), multiplicities=tuple(counts.values())
    )


def master_from_spec(spec: NetworkSpec) -> RationalMasterEq:
    return master_from_summary(summarize(spec))


def eval_phi(meq: RationalMasterEq, z, m):
    """(phi_z(m), phi_z'(m)) with phi_z(m) = P(m)/z - m, P and P' by the product rule.

    z and m are complex scalars, or complex numpy arrays that broadcast
    together, over which the same arithmetic runs elementwise: this is the one
    phi kernel of the package.  The recurrence runs in the scaled variable
    gain * m, whose factors are gain (m - r_j); P' is its derivative times
    gain.  The powers come from one binary powering over meq's levels:
    (p, p') -> (p^2, 2 p p') before each level, which leaves the starting
    (1, 0) exactly as it is, and (p, p') -> (p t, p' t + p) for each factor t
    of a level.  Every update is an augmented assignment, so on arrays it is
    made in place; p and p' start as scalars and become new arrays at the
    first factor, so z and m are never written.  Scalars rebind through
    Python's complex arithmetic.  numpy's complex products may round
    differently from Python's, so an array's values can differ from the
    scalar ones in the last bits.
    """
    # type(z) is complex is the cheap test for the scalar walk's calls; an
    # isinstance test of np.ndarray costs about a tenth of a small net's call
    if not (z if type(z) is complex else np.all(z)):
        raise ValueError("z must be nonzero")
    gain = meq.gain
    p, dp = 1.0 + 0j, 0j
    for level in meq.levels:
        dp *= p + p
        p *= p
        for r in level:
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


def second_derivative_bound(meq: RationalMasterEq, z, center, radius):
    """Upper bound on sup |phi_z''| over the closed disc |m - center| <= radius.

    z, center and radius are scalars, or numpy arrays (complex, complex and
    float) that broadcast together, one disc per element.  Unless z is a
    Python complex, every modulus is taken with np.hypot, so each element of
    an array is bit-identical to the scalar bound of the same disc (Python's
    abs of a complex is hypot) and the same rounding allowance holds.  Where
    |z| overflows the bound is inf, never the 0 of M''/inf, which would
    certify any start.

    About the centre, P(center + w) = prod_j (gain (w + a_j))^k_j with
    a_j = center - r_j, so its Taylor coefficients are gain^d times elementary
    symmetric functions of the a_j (each repeated k_j times), each bounded in
    modulus by the same function of the |a_j|.  Hence sup |P''| <= M''(radius)
    with M(x) = prod_j (gain (x + |a_j|))^k_j, and the bound is M''(radius)/|z|
    (the -m of phi contributes nothing to phi'').  It is attained when the
    centre is real and right of every root.  The recurrence runs on the
    factors T_j = gain (radius + |a_j|) by eval_phi's binary powering:
    (v, v', v'') -> (v^2, 2 v v', 2 (v'^2 + v v'')) before each level,
    and (v T, v' T + v, v'' T + 2 v') for each factor T of a level;
    M'' is gain^2 times the final v''.

    Every term of M'' is a product of nonnegative numbers, so each rounding
    lowers it by a factor of at least 1 - u (u = 2^-53; hypot, within one
    ulp, counts as two), and the computed value is at least 1 - n u times
    the exact one, where n is the most roundings on any one term.  Each T_j
    takes five (the subtraction, hypot, the addition and the gain).  When v
    is a product of D factors, its terms take at most 6D - 1 roundings, those
    of v' at most 7D - 7 and those of v'' at most 7D - 12 (D >= 2).  A factor
    step keeps that: v gains T and a multiply (6), v' and v'' a multiply and
    an add (7).  So does a square, which doubles D: 2 (6D - 1) + 1 for v,
    (6D - 1) + (7D - 7) + 1 for v', and for v'' the larger of
    2 (7D - 7) + 1 and (6D - 1) + (7D - 12) + 1, plus one for the add; the
    doubling is exact.  The first squaring maps the starting (1, 0, 0) to
    itself exactly, so it adds none, and the first factor step multiplies 1
    and 0 exactly.  With two more for the final gain^2, three for the
    division by |z| and one for the allowance, n <= 7d - 6, as for the
    factor-by-factor product.  The allowance 1 + k 2^-52 covers that when
    2k >= n + 1 (for n (n + 1) <= 2^53), so k = (7d - 4) // 2.  For d = 1,
    M'' is 0 exactly.
    """
    scalar = type(z) is complex  # the cheap test, as in eval_phi
    if radius < 0 if scalar else np.any(radius < 0):
        raise ValueError("radius must be nonnegative")
    modulus = abs if scalar else _modulus
    try:
        size = modulus(z)
    except OverflowError:  # Python's abs of a complex raises where hypot gives inf
        return math.inf
    gain = meq.gain
    v, d1, d2 = 1.0, 0.0, 0.0
    for level in meq.levels:
        d2 = 2.0 * (d1 * d1 + v * d2)
        d1 = 2.0 * v * d1
        v = v * v
        for r in level:
            t = (radius + modulus(center - r)) * gain
            d2 = d2 * t + 2.0 * d1
            d1 = d1 * t + v
            v = v * t
    bound = d2 * gain * gain / size * (1.0 + (7 * meq.degree - 4) // 2 * _EPS)
    return bound if scalar else np.where(size < np.inf, bound, np.inf)
