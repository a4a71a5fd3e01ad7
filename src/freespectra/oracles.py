"""Independent validators for the analytic pipeline.

Three cross-checks that share no code with the solver's continuation:
finite-size Monte-Carlo sampling of the Jacobian Gram spectrum, with each
layer's derivative diagonal drawn independent of its weights and the first
layer's weights drawn as their triangular Bartlett factor, an all-roots
polynomial baseline (companion-matrix eigenvalues, each polished by Newton
steps on eval_phi), and a Kolmogorov-Smirnov distance that accounts for the
point mass at zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network_model import NetworkSpec, activation_derivative, summarize
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
# assembly order.  The sampler reads a layer's gain stream first.  Layer 1
# then draws its Bartlett factor: the k chi-squared diagonal entries from its
# chi stream, and the k (k - 1) / 2 normals below the diagonal from its
# weight stream, in row-major order.  Every later layer draws from its weight
# stream only the entries between live units, in row-major order.  Each layer
# owns the four keys 4 layer + stream (see _generator), of which these three
# are drawn; a change to that key would change every sample.
_STREAM_WEIGHT = 0
_STREAM_GAIN = 1
_STREAM_CHI = 2

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


def _bartlett_factor(seed: int, rows: int, cols: int) -> np.ndarray:
    """Lower-triangular k x k factor T, k = min(rows, cols), big = max(rows, cols).

    T_ii^2 ~ chi^2_{big - i} (0-based) and the entries below the diagonal are
    standard normal, so T T^T is Wishart_k(big, I) and T's singular values
    have the law of a rows x cols standard Gaussian matrix's (Bartlett; see
    Edelman, SIAM J. Matrix Anal. Appl. 1988).
    """
    k, big = min(rows, cols), max(rows, cols)
    factor = np.zeros((k, k))
    below = _generator(seed, 1, _STREAM_WEIGHT).standard_normal(k * (k - 1) // 2)
    factor[np.tri(k, k=-1, dtype=bool)] = below
    factor.flat[:: k + 1] = np.sqrt(
        _generator(seed, 1, _STREAM_CHI).chisquare(big - np.arange(k))
    )
    return factor


def monte_carlo_spectrum(spec: NetworkSpec, n0: int, seed: int) -> EmpiricalSpectrum:
    """Sample one Jacobian at base width n0 and return eigenvalues of J^T J.

    Layer widths are N_ell = round(n0 / Lambda_ell); weights have i.i.d.
    N(0, sigma_w^2 / N_ell) entries.  Each derivative matrix D_ell is
    diagonal with i.i.d. entries phi'(sqrt(q_ell) g), g standard normal,
    independent of the weights: the swapped model, whose limit is the free
    multiplicative convolution the master equation describes.

    Only what can reach a nonzero singular value is assembled.  A zero
    derivative zeroes its row of the product, so each layer multiplies just
    its live rows and the previous layer's live columns, and only those
    weight entries are drawn, after the layer's derivative diagonal.

    The first layer's live block G_1 (live_1 x n0) is not drawn at all.  Every
    live derivative is +-1 (a ValueError names a layer where one is not), so
    D_1 on the live units is orthogonal.  When live_1 <= n0, G_1 = T Q with Q
    having orthonormal rows, and J^T J has the nonzero eigenvalues of
    (X T)^T (X T), X being the later layers; when live_1 > n0, G_1 = Q R and
    the next layer's block times D_1 Q is again a Gaussian, independent of R.
    Either way only the singular-value law of G_1 reaches the spectrum, so
    layer 1 draws its k x k Bartlett factor T, k = min(live_1, n0), and layer
    2 draws live_2 x k.  When the product has fewer rows than both its
    columns and the next layer's live units, it is replaced by L from
    J = L Q (Q with orthonormal rows), which every later product sees with
    the same singular values.  The eigenvalues come from the smaller of J J^T
    and J^T J; the other n0 - min(rows, cols) are exact zeros.
    """
    if n0 < 4:
        raise ValueError("n0 must be at least 4")
    summaries = summarize(spec)
    widths = [n0]
    for ell, s in enumerate(summaries, start=1):
        w = int(round(n0 / s.Lambda))
        if w < 1:
            raise ValueError(f"layer {ell} width rounds to zero (n0={n0}, Lambda={s.Lambda})")
        widths.append(w)

    jac = None  # the Bartlett factor, then the live rows of the product
    for ell, (s, layer) in enumerate(zip(summaries, spec.layers), start=1):
        n_out = widths[ell]
        pre = math.sqrt(s.q) * _generator(seed, ell, _STREAM_GAIN).standard_normal(n_out)
        diag = activation_derivative(layer.nonlinearity, pre)
        live = np.flatnonzero(diag)
        scale = math.sqrt(layer.sigma_w_sq / n_out)
        if jac is None:
            if not np.all(np.abs(diag[live]) == 1.0):
                raise ValueError(
                    f"layer {ell} has a live derivative other than +-1; "
                    "its Bartlett factor needs D_1 orthogonal on the live units"
                )
            jac = _bartlett_factor(seed, live.size, widths[0])
            jac *= scale
            continue
        block = _generator(seed, ell, _STREAM_WEIGHT).standard_normal((live.size, jac.shape[0]))
        block *= scale
        if jac.shape[0] < min(jac.shape[1], live.size):
            # Width bottleneck: J = L Q with orthonormal rows Q.
            jac = np.linalg.qr(jac.T, mode="r").T
        block = block @ jac
        block *= diag[live, None]
        jac = block

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
    distance.  A curve whose window misses the bulk, or holds no mass, is
    refused, as quantiles refuses it.
    """
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
