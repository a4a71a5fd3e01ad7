"""Network descriptions and the per-layer scalars that drive the spectral pipeline.

A network is a stack of layers, each with a pointwise nonlinearity, a weight
variance gain, a bias variance and a width ratio.  What the downstream algebra
needs from a layer is only three numbers: the pre-activation variance q, the
surviving-derivative coefficient c, and the cumulative width ratio Lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Nonlinearity",
    "LayerSpec",
    "NetworkSpec",
    "LayerSummary",
    "g_moment",
    "layer_coefficient",
    "activation",
    "activation_derivative",
    "propagate_variances",
    "summarize",
]

# Truncation for the hard-sine Fourier series: terms decay like exp(-q pi^2 n^2 / 2),
# so 200 terms only matter for q below ~1e-5 and the tail is below 1e-16 long before.
_HARD_SINE_MAX_TERMS = 200
_HARD_SINE_TERM_CUTOFF = 1e-16


class Nonlinearity(Enum):
    LINEAR = "linear"
    RELU = "relu"
    HARD_TANH = "hard_tanh"
    HARD_SINE = "hard_sine"

    @classmethod
    def from_name(cls, name: str) -> "Nonlinearity":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(sorted(m.value for m in cls))
            raise ValueError(f"unknown nonlinearity {name!r} (expected one of {valid})") from None


@dataclass(frozen=True)
class LayerSpec:
    """One layer: nonlinearity, weight gain sigma_w^2, bias variance, width ratio.

    width_ratio is the limit N_{l-1}/N_l of input width over output width.
    """

    nonlinearity: Nonlinearity
    sigma_w_sq: float
    sigma_b_sq: float = 0.0
    width_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma_w_sq) and self.sigma_w_sq > 0):
            raise ValueError(f"sigma_w_sq must be a positive finite real, got {self.sigma_w_sq}")
        if not (math.isfinite(self.sigma_b_sq) and self.sigma_b_sq >= 0):
            raise ValueError(f"sigma_b_sq must be a nonnegative finite real, got {self.sigma_b_sq}")
        if not (math.isfinite(self.width_ratio) and self.width_ratio > 0):
            raise ValueError(f"width_ratio must be a positive finite real, got {self.width_ratio}")


@dataclass(frozen=True)
class NetworkSpec:
    """A full architecture plus the mean square of the (deterministic) input."""

    layers: tuple[LayerSpec, ...]
    input_mean_square: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 1:
            raise ValueError("a network needs at least one layer")
        if not (math.isfinite(self.input_mean_square) and self.input_mean_square > 0):
            raise ValueError(
                f"input_mean_square must be a positive finite real, got {self.input_mean_square}"
            )

    @property
    def depth(self) -> int:
        return len(self.layers)

    def cumulative_ratios(self) -> list[float]:
        """Lambda_l = lambda_1 * ... * lambda_l for each layer."""
        out = []
        acc = 1.0
        for layer in self.layers:
            acc *= layer.width_ratio
            out.append(acc)
        return out


@dataclass(frozen=True)
class LayerSummary:
    """The scalars a layer contributes to the master equation."""

    q: float
    c: float
    Lambda: float
    sigma_w_sq: float


def g_moment(nl: Nonlinearity, q: float) -> float:
    """E[phi(sqrt(q) N)^2] for a standard Gaussian N, in closed form."""
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"q must be a positive finite real, got {q}")
    if nl is Nonlinearity.LINEAR:
        return q
    if nl is Nonlinearity.RELU:
        return 0.5 * q
    if nl is Nonlinearity.HARD_TANH:
        # q E[N^2; |N| < 1/sqrt(q)] restores the ramp, erfc the saturated tails.
        t = 1.0 / math.sqrt(2.0 * q)
        return q * math.erf(t) - math.sqrt(2.0 * q / math.pi) * math.exp(-0.5 / q) + math.erfc(t)
    if nl is Nonlinearity.HARD_SINE:
        total = 1.0 / 3.0
        for n in range(1, _HARD_SINE_MAX_TERMS + 1):
            term = (4.0 / math.pi**2) * ((-1) ** n / n**2) * math.exp(-q * math.pi**2 * n**2 / 2.0)
            total += term
            if abs(term) < _HARD_SINE_TERM_CUTOFF:
                break
        return total
    raise ValueError(f"unhandled nonlinearity {nl}")


def layer_coefficient(nl: Nonlinearity, q: float) -> float:
    """Coefficient c in (0, 1] entering the master equation factor sigma^2 (c + Lambda m)."""
    if not (math.isfinite(q) and q > 0):
        raise ValueError(f"q must be a positive finite real, got {q}")
    if nl is Nonlinearity.LINEAR or nl is Nonlinearity.HARD_SINE:
        return 1.0
    if nl is Nonlinearity.RELU:
        return 0.5
    if nl is Nonlinearity.HARD_TANH:
        # the fraction of live derivatives, P(|N| < 1/sqrt(q)) for N ~ N(0, 1)
        return math.erf(1.0 / math.sqrt(2.0 * q))
    raise ValueError(f"unhandled nonlinearity {nl}")


def activation(nl: Nonlinearity, h: np.ndarray) -> np.ndarray:
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


def propagate_variances(spec: NetworkSpec) -> list[float]:
    """Pre-activation variances q^1..q^L through the layer recurrence."""
    qs: list[float] = []
    moment = spec.input_mean_square
    for index, layer in enumerate(spec.layers, start=1):
        q = layer.sigma_w_sq * moment + layer.sigma_b_sq
        if not (math.isfinite(q) and q > 0):
            raise ValueError(f"nonpositive or nonfinite variance q={q} at layer {index}")
        qs.append(q)
        moment = g_moment(layer.nonlinearity, q)
    return qs


def summarize(spec: NetworkSpec) -> list[LayerSummary]:
    """Per-layer (q, c, Lambda, sigma_w_sq) consumed by the master equation."""
    qs = propagate_variances(spec)
    out = []
    acc = 1.0
    for layer, q in zip(spec.layers, qs):
        acc *= layer.width_ratio
        out.append(
            LayerSummary(
                q=q,
                c=layer_coefficient(layer.nonlinearity, q),
                Lambda=acc,
                sigma_w_sq=layer.sigma_w_sq,
            )
        )
    return out
