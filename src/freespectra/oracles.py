"""Independent validators for the analytic pipeline.

Three cross-checks that share no code with the solver's continuation:
finite-size Monte-Carlo sampling of the Jacobian Gram spectrum, an all-roots
polynomial baseline (companion-matrix eigenvalues, each polished by Newton
steps on eval_phi), and a Kolmogorov-Smirnov distance that accounts for the
point mass at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network_model import NetworkSpec, activation, activation_derivative, summarize
from .spectrum import DensityCurve, _cumulative_mass
from .transform_algebra import RationalMasterEq, eval_phi

__all__ = [
    "EmpiricalSpectrum",
    "RootSet",
    "monte_carlo_spectrum",
    "all_roots",
    "ks_distance",
]

# Per-(seed, layer) substreams; keeps every draw independent of matrix
# assembly order.
_STREAM_WEIGHT = 0
_STREAM_GAIN = 1
_STREAM_BIAS = 2
_STREAM_INPUT = 3

_ZERO_SNAP = 1e-9
_POLISH_MAX_ITERS = 50
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class EmpiricalSpectrum:
    """Sorted squared singular values of one sampled Jacobian."""

    values: np.ndarray
    n0: int
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.sort(np.asarray(self.values, dtype=float)))
        if self.values.size != self.n0:
            raise ValueError("values must have length n0")
        if self.values.size and self.values[0] < 0:
            raise ValueError("squared singular values cannot be negative")


@dataclass(frozen=True)
class RootSet:
    """All roots of P(m) - z m, with multiplicity."""

    roots: tuple


def _generator(seed: int, layer: int, stream: int) -> np.random.Generator:
    key = ((int(seed) % 2**64) << 64) | (4 * layer + stream)
    return np.random.Generator(np.random.Philox(key=key))


def monte_carlo_spectrum(
    spec: NetworkSpec,
    n0: int,
    seed: int,
    mode: str = "swapped",
) -> EmpiricalSpectrum:
    """Sample one Jacobian at base width n0 and return eigenvalues of J^T J.

    Layer widths are N_ell = round(n0 / Lambda_ell); weights have i.i.d.
    N(0, sigma_w^2 / N_ell) entries.  In "swapped" mode each derivative matrix
    D_ell is diagonal with i.i.d. entries phi'(sqrt(q_ell) g), g standard normal,
    independent of the weights.  "forward" mode instead differentiates an actual
    forward pass of a Gaussian input (sanity check only; for width ratios != 1
    its preactivation scale drifts from the infinite-width recurrence).

    Only what can reach a nonzero singular value is assembled.  A zero
    derivative zeroes its row of the product, so each layer multiplies just
    its live rows and the previous layer's live columns.  When the product
    has fewer rows than both its columns and the next layer's live units, it
    is replaced by L from J = L Q (Q with orthonormal rows), which every later
    product sees with the same singular values.  The eigenvalues come from
    the smaller of J J^T and J^T J; the other n0 - min(rows, cols) are exact
    zeros.
    """
    if n0 < 4:
        raise ValueError("n0 must be at least 4")
    if mode not in ("swapped", "forward"):
        raise ValueError(f"mode must be 'swapped' or 'forward', got {mode!r}")
    summaries = summarize(spec)
    widths = [n0]
    for ell, s in enumerate(summaries, start=1):
        w = int(round(n0 / s.Lambda))
        if w < 1:
            raise ValueError(f"layer {ell} width rounds to zero (n0={n0}, Lambda={s.Lambda})")
        widths.append(w)

    jac = None  # live rows of the Jacobian so far
    live_prev = None
    signal = None
    if mode == "forward":
        rng = _generator(seed, 0, _STREAM_INPUT)
        signal = math.sqrt(spec.input_mean_square) * rng.standard_normal(n0)

    for ell, (s, layer) in enumerate(zip(summaries, spec.layers), start=1):
        n_out, n_in = widths[ell], widths[ell - 1]
        weight = _generator(seed, ell, _STREAM_WEIGHT).standard_normal((n_out, n_in))
        weight *= math.sqrt(layer.sigma_w_sq / n_out)
        if mode == "swapped":
            pre = math.sqrt(s.q) * _generator(seed, ell, _STREAM_GAIN).standard_normal(n_out)
        else:
            pre = weight @ signal
            if layer.sigma_b_sq > 0.0:
                bias = _generator(seed, ell, _STREAM_BIAS).standard_normal(n_out)
                pre = pre + math.sqrt(layer.sigma_b_sq) * bias
            signal = activation(layer.nonlinearity, pre)
        diag = activation_derivative(layer.nonlinearity, pre)
        live = np.flatnonzero(diag)
        block = weight[live] if jac is None else weight[np.ix_(live, live_prev)]
        del weight
        if jac is not None:
            if jac.shape[0] < min(jac.shape[1], live.size):
                # Width bottleneck: J = L Q with orthonormal rows Q.
                jac = np.linalg.qr(jac.T, mode="r").T
            block = block @ jac
        block *= diag[live, None]
        jac = block
        live_prev = live

    rows, cols = jac.shape
    gram = jac @ jac.T if rows < cols else jac.T @ jac
    del jac
    values = np.zeros(n0)
    values[: gram.shape[0]] = np.linalg.eigvalsh(gram)
    values = np.clip(values, 0.0, None)
    # Rank-deficiency eigenvalues come out as rounding noise; pin them to the atom.
    values[values < _ZERO_SNAP] = 0.0
    return EmpiricalSpectrum(values=values, n0=n0, seed=seed)


def _polish(meq: RationalMasterEq, z: complex, root: complex) -> complex:
    """Newton steps from root, each kept only if it lowers |phi|.

    phi = (P(m) - z m)/z, so its Newton step is that of P(m) - z m and, at
    fixed z, |phi| orders candidates as |P(m) - z m| does.
    """
    value, deriv = eval_phi(meq, z, root)
    for _ in range(_POLISH_MAX_ITERS):
        if value == 0 or deriv == 0:
            break
        trial = root - value / deriv
        trial_value, trial_deriv = eval_phi(meq, z, trial)
        if not abs(trial_value) < abs(value):
            break
        root, value, deriv = trial, trial_value, trial_deriv
    return root


def all_roots(meq: RationalMasterEq, z: complex) -> RootSet:
    """Every root of P(m) - z m: companion-matrix eigenvalues, each polished.

    The coefficients are multiplied out from the factors, each root repeated
    by its multiplicity, on each call, and a ValueError names their overflow;
    the solver never needs them.  Residuals are checked relative to
    sum_k |c_k| max(1, |root|)^k, the natural attainable scale for
    coefficients spanning many orders of magnitude.
    """
    if z.imag == 0.0:
        raise ValueError(f"z must be off the real axis, got {z}")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = np.poly(np.repeat(meq.roots, meq.multiplicities)) * np.power(
            meq.gain, meq.degree
        )
    if not np.all(np.isfinite(coeffs)):
        raise ValueError(
            f"all-roots coefficients overflow at degree {meq.degree} "
            f"(gain {meq.gain!r}); the multiplied-out polynomial is not representable"
        )
    coeffs = coeffs.astype(complex)
    coeffs[-2] -= z
    roots = np.array([_polish(meq, z, complex(r)) for r in np.roots(coeffs)])
    scale = np.polyval(np.abs(coeffs), np.maximum(1.0, np.abs(roots)))
    bad = np.flatnonzero(np.abs(np.polyval(coeffs, roots)) > _RESIDUAL_TOL * scale)
    if bad.size:
        raise RuntimeError(f"root {roots[bad[0]]} kept relative residual above {_RESIDUAL_TOL}")
    return RootSet(roots=tuple(roots.tolist()))


def ks_distance(emp: EmpiricalSpectrum, curve: DensityCurve) -> float:
    """sup_x |F_emp(x) - F_curve(x)| over the sample points.

    F_curve places atom_lower_bound at zero and renormalizes the trapezoid CDF
    of the grid to the remaining mass.  Sample points exactly at zero are
    compared against the atom alone; at positive points both one-sided limits
    of the empirical CDF are used, which keeps ties at zero from inflating the
    distance.  A curve with no mass on its grid window is refused, as
    quantiles refuses it.
    """
    if not curve.total_mass + curve.atom_lower_bound > 0.5:
        raise ValueError("curve mass (including the atom) too low for a meaningful comparison")
    values = emp.values
    n = values.size
    cum = _cumulative_mass(curve)
    grid_cdf = cum / cum[-1]
    atom = curve.atom_lower_bound

    zeros = int(np.count_nonzero(values == 0.0))
    dist = abs(zeros / n - atom)
    positive = values[values > 0.0]
    if positive.size:
        model = atom + (1.0 - atom) * np.interp(positive, curve.xs, grid_cdf, left=0.0, right=1.0)
        upper = (zeros + 1 + np.arange(positive.size)) / n
        lower = (zeros + np.arange(positive.size)) / n
        dist = max(
            dist,
            float(np.max(np.abs(upper - model))),
            float(np.max(np.abs(model - lower))),
        )
    return float(dist)
