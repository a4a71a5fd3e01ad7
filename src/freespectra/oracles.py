"""Independent validators for the analytic pipeline.

Two cross-checks that share no code with the solver's continuation:
finite-size Monte-Carlo sampling of the Jacobian Gram spectrum, with each
layer's live count drawn independent of its weights, the layer at the
bottleneck drawn as one lower-bidiagonal factor with the singular values
of its Gaussian block, and each other layer's weights as one triangular
Bartlett factor of the bottleneck's width; and an all-roots polynomial
baseline (companion-matrix eigenvalues, each polished by Newton steps on
eval_phi).  A Kolmogorov-Smirnov distance compares a sample with the law's
exact CDF, atom included, which it reads through the continuation
(spectrum.cdf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .network_model import NetworkSpec, summarize
from .solver import SolveStats
from .spectrum import cdf
from .transform_algebra import RationalMasterEq, eval_phi

__all__ = [
    "EmpiricalSpectrum",
    "RootSet",
    "monte_carlo_spectrum",
    "all_roots",
    "ks_distance",
]

# Per-(seed, layer) substreams; keeps every draw independent of matrix
# assembly order.  The sampler draws every layer's live count first, one
# binomial from its live stream, then each layer's r x r factor, last layer
# first where it builds P J^T P.  A Bartlett factor takes its r chi-squared
# diagonal entries from the chi stream, and the r (r - 1) / 2 normals below
# the diagonal from the weight stream, in row-major order; the bottleneck's
# bidiagonal takes its r diagonal chi-squares from the chi stream and its
# r - 1 subdiagonal ones from the weight stream.  Each layer owns the four
# keys 4 layer + stream (see _generator), of which these three are drawn; a
# change to that key would change every sample.
_STREAM_WEIGHT = 0
_STREAM_LIVE = 1
_STREAM_CHI = 2

# Side of the square blocks the triangle kernels multiply; 64-192 time alike.
_BLOCK = 128
_POLISH_MAX_ITERS = 50
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False, kw_only=True)
class EmpiricalSpectrum:
    """Sorted squared singular values of one sampled Jacobian, one per input (n0 = values.size).

    A sample holds at least one value, and none is NaN or negative.

    floor is the snap floor r eps lambda_max below which the sampler pinned
    Gram eigenvalues to 0, and censored the number it pinned, which are among
    the exact zeros; both are 0 for a sample built directly.
    """

    values: np.ndarray
    floor: float = 0.0
    censored: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.sort(np.asarray(self.values, dtype=float)))
        if not self.values.size:
            raise ValueError("a sample needs at least one value")
        # np.sort puts NaN last
        if np.isnan(self.values[-1]):
            raise ValueError("squared singular values cannot be NaN")
        if self.values[0] < 0:
            raise ValueError("squared singular values cannot be negative")
        if not 0 <= self.censored <= np.count_nonzero(self.values == 0.0):
            raise ValueError(f"censored must count exact zeros of the sample, got {self.censored}")


@dataclass(frozen=True)
class RootSet:
    """All roots of P(m) - z m, with multiplicity."""

    roots: tuple


def _generator(seed: int, layer: int, stream: int) -> np.random.Generator:
    key = ((int(seed) % 2**64) << 64) | (4 * layer + stream)
    return np.random.Generator(np.random.Philox(key=key))


def _bartlett_factor(
    seed: int,
    layer: int,
    rows: int,
    cols: int,
    out: Optional[np.ndarray] = None,
    reverse: bool = False,
) -> np.ndarray:
    """Lower-triangular r x r factor L of a rows x cols standard Gaussian block G,
    written into out when it is given.

    r = min(rows, cols), and the entries below the diagonal are standard
    normal; the strict upper triangle is 0.  A wide block (rows < cols) is
    G = L Q, Q with orthonormal rows: L_ii^2 ~ chi^2_{cols - i} (0-based), so
    L L^T is Wishart_r(cols, I).  Otherwise G = Q L, Q with orthonormal
    columns: L_ii^2 ~ chi^2_{rows - r + 1 + i}, so L^T L is Wishart_r(rows, I).
    Either way L has the law of G's triangular factor, independent of Q
    (Bartlett; see Edelman, SIAM J. Matrix Anal. Appl. 1988).  reverse draws
    the degrees in reverse order, which is P L^T P in law, P the reversal.
    Row i's i normals are drawn straight into it, top row first, which
    continues the one row-major stream of r (r - 1) / 2 draws.
    """
    r = min(rows, cols)
    degrees = cols - np.arange(r) if rows < cols else rows - r + 1 + np.arange(r)
    if reverse:
        degrees = degrees[::-1]
    if out is None:
        out = np.zeros((r, r))
    else:
        out.fill(0.0)
    normal = _generator(seed, layer, _STREAM_WEIGHT).standard_normal
    for i in range(1, r):
        normal(out=out[i, :i])
    out.flat[:: r + 1] = np.sqrt(_generator(seed, layer, _STREAM_CHI).chisquare(degrees))
    return out


def _bidiagonal_factor(
    seed: int, layer: int, rows: int, cols: int, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal d and subdiagonal s of a lower-bidiagonal r x r factor B
    with the singular values of a rows x cols standard Gaussian block, times scale.

    r = min(rows, cols) and a = max(rows, cols).  d_i^2 ~ chi^2_{a - i} and
    s_i^2 ~ chi^2_{r - 1 - i} (0-based), s_i being B_{i+1, i}, and every
    other entry of B is 0, so B B^T is Wishart_r(a, I) in its eigenvalues: B
    is the Householder bidiagonal of the block, whose two orthogonal factors
    are dropped (the beta = 1 Laguerre ensemble; Dumitriu & Edelman, J. Math.
    Phys. 43 (2002) 5830).  d comes from the layer's chi stream and s from
    its weight stream.
    """
    r = min(rows, cols)
    d = np.sqrt(_generator(seed, layer, _STREAM_CHI).chisquare(max(rows, cols) - np.arange(r)))
    s = np.sqrt(_generator(seed, layer, _STREAM_WEIGHT).chisquare(np.arange(r - 1, 0, -1)))
    return scale * d, scale * s


def _blocks(n: int) -> list:
    return [slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]


def _lower_product_inplace(a: np.ndarray, b: np.ndarray) -> None:
    """b <- a @ b in place, for lower-triangular r x r a and b.

    Block (I, J) with J <= I sums a[I, K] b[K, J] over J <= K <= I, the only
    blocks that are not zero, so block row I reads only the rows of b up to
    the last of I.  The block rows are formed bottom up, each in one
    block-row temporary before it overwrites its rows of b; the strict upper
    triangle stays exactly 0.
    """
    r = a.shape[0]
    blocks = _blocks(r)
    row = np.empty((min(_BLOCK, r), r))
    for i, rows in reversed(list(enumerate(blocks))):
        out = row[: rows.stop - rows.start]
        for cols in blocks[: i + 1]:
            inner = slice(cols.start, rows.stop)
            np.matmul(a[rows, inner], b[inner, cols], out=out[:, cols])
        b[rows, : rows.stop] = out[:, : rows.stop]


def _lower_gram_inplace(j: np.ndarray) -> None:
    """Overwrite the lower-triangular j with j^T j on and below its diagonal blocks.

    Block (I, C) with C <= I is j[I:, I]^T j[I:, C], as j[K, I] = 0 for K < I,
    so block row I reads only the rows of j from the first of I.  The block
    rows are formed top down, each in one block-row temporary before it
    overwrites its rows of j.  The blocks above the diagonal stay 0, so only
    the lower half is the Gram.
    """
    r = j.shape[0]
    blocks = _blocks(r)
    row = np.empty((min(_BLOCK, r), r))
    for i, rows in enumerate(blocks):
        below = j[rows.start :]
        out = row[: rows.stop - rows.start]
        for cols in blocks[: i + 1]:
            np.matmul(below[:, rows].T, below[:, cols], out=out[:, cols])
        j[rows, : rows.stop] = out[:, : rows.stop]


def _bidiagonal_left_inplace(d: np.ndarray, s: np.ndarray, b: np.ndarray) -> None:
    """b <- B @ b in place, for the lower bidiagonal B of diagonal d and
    subdiagonal s and a lower-triangular r x r b.

    Row i of the product is d_i b[i] + s_{i-1} b[i - 1], so it reads b only
    up to column i.  The block rows are formed bottom up, so the row above
    each block is still b's when the block reads it; each block's
    s_{i-1} b[i - 1] terms go to one block-row temporary before its rows of
    b are scaled by d.  The strict upper triangle stays exactly 0.
    """
    row = np.empty((min(_BLOCK, b.shape[0]), b.shape[0]))
    for rows in reversed(_blocks(b.shape[0])):
        # rows below the first of the matrix add the row above them
        lo = max(rows.start, 1)
        out = row[: rows.stop - lo, : rows.stop]
        np.multiply(s[lo - 1 : rows.stop - 1, None], b[lo - 1 : rows.stop - 1, : rows.stop], out=out)
        b[rows, : rows.stop] *= d[rows, None]
        b[lo : rows.stop, : rows.stop] += out


def _bidiagonal_gram(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The lower half of B^T B, for the lower bidiagonal B of diagonal d and
    subdiagonal s, in a new r x r array: it is tridiagonal, d_j^2 + s_j^2 on
    the diagonal and d_{j+1} s_j below it.  The strict upper triangle is 0."""
    r = d.size
    diagonal = d * d
    diagonal[:-1] += s * s
    gram = np.zeros((r, r))
    gram.flat[:: r + 1] = diagonal
    gram.flat[r :: r + 1] = d[1:] * s
    return gram


def monte_carlo_spectrum(spec: NetworkSpec, n0: int, seed: int) -> EmpiricalSpectrum:
    """Sample one Jacobian at base width n0 and return eigenvalues of J^T J.

    Layer widths are N_ell = round(n0 / Lambda_ell); weights have i.i.d.
    N(0, sigma_w^2 / N_ell) entries.  Each derivative matrix D_ell is
    diagonal with i.i.d. entries phi'(sqrt(q_ell) g), g standard normal,
    independent of the weights: the swapped model, whose limit is the free
    multiplicative convolution the master equation describes.

    No weight matrix and no derivative is drawn.  A zero derivative zeroes
    its row of the product, so J's nonzero singular values are those of
    S_L G_L ... S_1 G_1, G_ell being the d_ell x d_{ell-1} Gaussian block
    between live units (d_0 = n0, d_ell = live_ell) and S_ell the live
    derivatives.  Every live derivative of the four nonlinearities is +-1,
    so each S_ell is orthogonal and folds into the neighbouring Gaussian
    block, and D_ell reaches the spectrum only through live_ell, the number
    of its nonzero entries.  That is Binomial(N_ell, c_ell), c_ell being
    P(phi'(sqrt(q_ell) g) != 0), the layer's coefficient in the master
    equation, and it is drawn as one binomial; a width past numpy's int64
    count raises a ValueError naming the layer.  Let
    r = min(d) and b the first index with d_b = r.  From the bottleneck out,
    G_b = L_b Q_b, Q_b G_{b-1} = L_{b-1} Q_{b-1}, ... (LQ, each Q with
    orthonormal rows, each product again Gaussian and independent), and
    G_{b+1} = Q_{b+1} L_{b+1}, G_{b+2} Q_{b+1} = Q_{b+2} L_{b+2}, ... (QL).  So
    J's nonzero spectrum is that of L_L ... L_1, a product of r x r
    triangles, each drawn as its Bartlett factor (Akemann, Burda & Kieburg,
    J. Phys. A 47 (2014) 395202).  The block at the bottleneck, layer
    k = max(b, 1), is seen only through its singular values: each of its
    orthogonal factors folds into the neighbouring Gaussian block (or, for
    b = 0, drops off the input side) before the blocks beyond are reduced to
    triangles, by LQ on its right and QL on its left, each Q on the side
    away from it.  So layer k is drawn as a lower bidiagonal with those
    singular values (Dumitriu & Edelman, J. Math. Phys. 43 (2002) 5830):
    2r - 1 chi-squares in place of r (r + 1) / 2 draws, held as B's diagonal
    and subdiagonal, and an O(r^2) product in place of an O(r^3 / 3) one.
    Every factor multiplies the product from the left, in place: the first
    triangle's buffer holds it, each later triangle is drawn into one factor
    buffer and multiplied in block by block over the lower half, and B in
    O(r^2).  Where B would end J = L_L ... L_2 B (k = 1, two or more layers)
    the sampler builds P J^T P, P the reversal, with J's singular values:
    P L_ell^T P is in law a Bartlett triangle with its degrees reversed, and
    P B^T P is B with d and s reversed, so the layers are walked last first.
    The lower half of the product's r x r Gram, the half eigvalsh reads,
    then overwrites it; for a single layer it is the tridiagonal B^T B, in
    a new zeroed array.  So a sample holds one r x r array up to depth 2 and
    two beyond, plus the copy eigvalsh makes, and one block row of scratch.
    The Gram's eigenvalues below r eps lambda_max, its rounding floor, are
    pinned to zero and counted as censored; the other n0 - r are exact
    zeros.
    """
    if n0 < 4:
        raise ValueError("n0 must be at least 4")
    live, scales = [n0], []
    for ell, s in enumerate(summarize(spec), start=1):
        w = int(round(n0 / s.Lambda))
        if w < 1:
            raise ValueError(f"layer {ell} width rounds to zero (n0={n0}, Lambda={s.Lambda})")
        if w >= 2**63:  # numpy's binomial counts in int64, and raises OverflowError past it
            raise ValueError(
                f"layer {ell} has {w} units at n0={n0}, more than the 2**63 - 1 "
                "a binomial draw counts"
            )
        live.append(int(_generator(seed, ell, _STREAM_LIVE).binomial(w, s.c)))
        scales.append(math.sqrt(s.sigma_w_sq / w))

    r = min(live)
    b = live.index(r)
    k = max(b, 1)  # the bottleneck's layer, drawn as a bidiagonal
    # B would stand at the right end of J = L_L ... L_2 B: build P J^T P
    flip = k == 1 and len(scales) > 1
    # at most two r x r arrays at any depth: the product of the factors so
    # far, and the buffer each later triangle is drawn into
    jac = factor = None
    for ell in range(len(scales), 0, -1) if flip else range(1, len(scales) + 1):
        block = (r, live[ell - 1]) if ell <= b else (live[ell], r)
        if ell == k:
            bidiagonal = _bidiagonal_factor(seed, ell, *block, scales[ell - 1])
            if flip:  # P B^T P, copied so that the kernel reads unit strides
                bidiagonal = tuple(v[::-1].copy() for v in bidiagonal)
            if jac is not None:
                _bidiagonal_left_inplace(*bidiagonal, jac)
            continue
        factor = _bartlett_factor(seed, ell, *block, out=factor, reverse=flip)
        factor *= scales[ell - 1]
        if jac is None:
            jac, factor = factor, None
        else:
            _lower_product_inplace(factor, jac)
    del factor  # freed before eigvalsh makes its copy

    if jac is None:  # a single layer, the bidiagonal alone
        jac = _bidiagonal_gram(*bidiagonal)
    else:
        _lower_gram_inplace(jac)
    values = np.zeros(n0)
    values[:r] = np.clip(np.linalg.eigvalsh(jac, UPLO="L"), 0.0, None)
    # eigvalsh resolves the Gram's eigenvalues to about r eps lambda_max; pin
    # those below that floor, which are rounding noise, to the atom.
    floor = float(r * np.finfo(float).eps * values.max())
    censored = int(np.count_nonzero(values[:r] < floor))
    values[values < floor] = 0.0
    return EmpiricalSpectrum(values=values, floor=floor, censored=censored)


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


def ks_distance(
    emp: EmpiricalSpectrum, meq: RationalMasterEq, stats: Optional[SolveStats] = None
) -> float:
    """sup over x >= emp.floor of |F_emp(x) - F(x)|, F the law's exact CDF (spectrum.cdf).

    F holds the atom at zero, and is read from one cdf call at the floor and
    the sample's positive values.  The sample's zeros, those the sampler
    pinned below its floor among them, are compared at the floor: zeros/n0
    against F(floor), which is the atom for a sample built directly (floor
    0).  At each positive value both one-sided limits of the empirical CDF
    are compared with F, which keeps ties from inflating the distance.  F is
    the limit law, solved on the ray x (1 + 1e-12 i), not the y-smoothed law
    a density grid samples, since the sample is not smoothed.  The ray
    walk's counters are added to stats when it is given.
    """
    values = emp.values
    n = values.size
    zeros = int(np.count_nonzero(values == 0.0))
    positive = values[zeros:]  # values are sorted and nonnegative
    model = cdf(meq, np.r_[emp.floor, positive], stats)
    # F_emp is (zeros + k)/n from the floor up to the k-th positive value,
    # which each model[k] also meets from the left as (zeros + k - 1)/n
    steps = (zeros + np.arange(positive.size + 1)) / n
    return float(max(np.abs(steps - model).max(), np.abs(model[1:] - steps[:-1]).max(initial=0.0)))
