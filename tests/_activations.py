"""Each nonlinearity phi and its derivative, the references that g_moment and
layer_coefficient are checked against."""

import numpy as np

from freespectra import Nonlinearity


def activation(nl: Nonlinearity, h: np.ndarray) -> np.ndarray:
    """phi itself: g_moment's reference (the package uses neither phi nor phi')."""
    h = np.asarray(h, dtype=float)
    if nl is Nonlinearity.LINEAR:
        return h
    if nl is Nonlinearity.RELU:
        return np.maximum(h, 0.0)
    if nl is Nonlinearity.HARD_TANH:
        return np.clip(h, -1.0, 1.0)
    if nl is Nonlinearity.HARD_SINE:
        return (2.0 / np.pi) * np.arcsin(np.sin(np.pi * h / 2.0))
    raise ValueError(f"unhandled nonlinearity {nl}")


def activation_derivative(nl: Nonlinearity, h: np.ndarray) -> np.ndarray:
    """phi'(h): the whole-matrix Monte-Carlo draw's derivative diagonal, and
    layer_coefficient's reference, the fraction of it that is nonzero."""
    h = np.asarray(h, dtype=float)
    if nl is Nonlinearity.LINEAR:
        return np.ones_like(h)
    if nl is Nonlinearity.RELU:
        return (h > 0).astype(float)
    if nl is Nonlinearity.HARD_TANH:
        return (np.abs(h) < 1.0).astype(float)
    if nl is Nonlinearity.HARD_SINE:
        # slope of the triangle wave, +-1 almost everywhere
        return np.sign(np.cos(np.pi * h / 2.0))
    raise ValueError(f"unhandled nonlinearity {nl}")
