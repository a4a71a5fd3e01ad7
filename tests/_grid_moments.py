"""Trapezoid moments of a density curve and an upper edge for its window.

The moment-consistency check integrates a solved curve over a window that
reaches past the support and compares its moments with the closed forms.
"""

import math
from typing import NamedTuple

import numpy as np

from freespectra import DensityCurve, NetworkSpec

_trapz = getattr(np, "trapezoid", None) or np.trapz

# Mild mass renormalization is only trustworthy when the captured mass matches
# the expected continuous mass to this *relative* band; the comparison must not
# be absolute, because for atom-dominated laws the smoothed atom leaks
# O(y / x_min) of spurious mass into the window, which is small on the scale of
# 1 but large on the scale of the continuous part.
_RENORM_BAND = 0.005


class GridMoments(NamedTuple):
    m1: float
    m2: float
    coverage_ok: bool


def support_upper_bound(spec: NetworkSpec) -> float:
    """Upper edge bound: product of per-layer operator-norm limits.

    Each weight factor has squared norm at most sigma_w^2 (1 + sqrt(lambda))^2 in
    the limit, and every activation derivative is bounded by 1.
    """
    return float(
        np.prod([l.sigma_w_sq * (1.0 + math.sqrt(l.width_ratio)) ** 2 for l in spec.layers])
    )


def grid_moments(curve: DensityCurve) -> GridMoments:
    """Trapezoid moments of the curve over its window.

    Renormalizes the absolutely continuous mass to (1 - atom) only when the
    captured mass already agrees with it in relative terms (fully covered
    window, no significant leak from the smoothed atom); otherwise the raw
    integrals are returned and coverage_ok reports the problem.
    """
    xs, rhos = curve.xs, curve.rhos
    mass = float(_trapz(rhos, xs))
    raw_m1 = float(_trapz(xs * rhos, xs))
    raw_m2 = float(_trapz(xs * xs * rhos, xs))

    coverage_ok = curve.y <= 1e-6 * (1.0 + 1e-9)
    hot = np.nonzero(rhos > 1e-6)[0]
    if hot.size:
        coverage_ok = bool(coverage_ok and xs[-1] >= 1.2 * xs[hot[-1]])

    atom = curve.atom_lower_bound
    scale = 1.0
    expected = 1.0 - atom
    if mass > 0.0 and abs(mass - expected) <= _RENORM_BAND * expected:
        scale = expected / mass
    return GridMoments(m1=raw_m1 * scale, m2=raw_m2 * scale, coverage_ok=coverage_ok)
