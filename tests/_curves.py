"""Density curves built without a solve, as fixtures for quantiles and distances."""

import numpy as np

from freespectra import DensityCurve


def uniform_density_curve(x_lo: float, x_hi: float, points: int = 201) -> DensityCurve:
    """The flat density on [x_lo, x_hi]: mass 1, no atom, y = 1e-6."""
    xs = np.linspace(x_lo, x_hi, points)
    rhos = np.full(points, 1.0 / (x_hi - x_lo))
    return DensityCurve(xs=xs, rhos=rhos, y=1e-6)
