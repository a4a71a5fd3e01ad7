"""Density curves, quantiles and closed-form moments of limiting squared-singular-value laws.

The density at x is recovered from the decaying-branch solution m(x + iy) of the
master equation through rho = -Im((m+1)/z)/pi, evaluated at a small smoothing
offset y > 0.  A grid is solved in two passes: a sequential walk that jumps
64 points at a time and halves a jump that does not certify, then one batched
certificate test and a lockstep Newton solve for the points jumped over (see
_walk_roots).  Every function here reads the law from the master equation's
factors (a RationalMasterEq) alone, never from the layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import solver
from .solver import (
    SolverError,
    SolveStats,
    basin_certificates,
    newton_lilypads,
    newton_lockstep,
)
# unused here: the CLI calls master_from_spec as this module's attribute (see cli)
from .transform_algebra import RationalMasterEq, eval_phi, master_from_spec

__all__ = [
    "DensityCurve",
    "QuantileTable",
    "Moments",
    "atom_lower_bound",
    "default_grid",
    "density_grid",
    "uniform_density_curve",
    "quantiles",
    "closed_form_moments",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz

_NEGATIVE_DENSITY_TOL = 1e-10

# The coarse pass of a grid first tries to jump _STRIDE points of the walk at a
# time, halving a segment whose jump does not certify.  At 64 a 400-point grid
# still makes at least 8 sequential solves, the sample perfbench's branch check
# draws from; a failed long jump costs one certificate test.
_STRIDE = 64


@dataclass(eq=False)
class DensityCurve:
    """Smoothed density sampled on a grid; treat the arrays as read-only."""

    xs: np.ndarray
    rhos: np.ndarray
    y: float
    total_mass: float
    atom_lower_bound: float = 0.0
    stats: Optional[SolveStats] = None

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.rhos = np.asarray(self.rhos, dtype=float)
        if self.xs.shape != self.rhos.shape or self.xs.ndim != 1:
            raise ValueError("xs and rhos must be 1-D arrays of equal length")
        if self.xs.size < 2:
            raise ValueError("a density curve needs at least two grid points")
        # NaN passes both order checks below, since every comparison with it is False
        for name, values in (("xs", self.xs), ("rhos", self.rhos)):
            finite = np.isfinite(values)
            if not finite.all():
                bad = float(values[np.argmin(finite)])
                raise ValueError(f"{name} must be finite, got {bad!r}")
        if not math.isfinite(self.total_mass):
            raise ValueError(f"total_mass must be finite, got {self.total_mass!r}")
        # y = 0 marks a synthetic curve; a solved one has y > 0
        if not (math.isfinite(self.y) and self.y >= 0):
            raise ValueError(f"y must be finite and nonnegative, got {self.y!r}")
        if not 0.0 <= self.atom_lower_bound <= 1.0:
            raise ValueError(f"atom_lower_bound must lie in [0, 1], got {self.atom_lower_bound!r}")
        if self.xs[0] < 0 or np.any(np.diff(self.xs) <= 0):
            raise ValueError("xs must be strictly increasing and nonnegative")
        if np.any(self.rhos < 0):
            raise ValueError("rhos must be nonnegative (clamp before constructing)")
        if self.total_mass > 1.02:
            raise ValueError(f"total_mass {self.total_mass} exceeds 1.02; not a probability law")


@dataclass(frozen=True)
class QuantileTable:
    """Quantiles of the absolutely continuous part (the atom at 0 is separate)."""

    probs: tuple
    values: tuple
    atom_lower_bound: float
    total_mass: float


class Moments(NamedTuple):
    m1: float
    variance: float


def atom_lower_bound(meq: RationalMasterEq) -> float:
    """Mass forced onto {0} by rank counting, read off the master equation's roots.

    Through layer ell the Jacobian factors through a matrix whose rank fraction
    (relative to the input width) is at most c_ell / Lambda_ell: the width shrinks
    by Lambda_ell and only a c_ell-fraction of derivative entries is nonzero.
    The atom is 1 - min(1, min_ell c_ell / Lambda_ell), and the roots are -1 and
    -c_ell / Lambda_ell, so it is 1 + max_j r_j; 1 + (-x) rounds like 1 - x,
    so the two agree bit for bit.
    """
    return 1.0 + max(meq.roots)


def default_grid(
    meq: RationalMasterEq,
    points: int = 200,
    x_min: Optional[float] = None,
    x_max: Optional[float] = None,
    log_spaced: bool = True,
) -> np.ndarray:
    """Grid bracketing the bulk, 1e-4 m1 to m1 + 10 sigma of the moments; log-spaced by default."""
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    m1, var = closed_form_moments(meq)
    if x_min is None:
        x_min = m1 * 1e-4
    if x_max is None:
        x_max = m1 + 10.0 * math.sqrt(var)
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError(
            f"grid window [{x_min!r}, {x_max!r}] is not finite: the closed-form moments give "
            f"m1 = {m1!r} and variance = {var!r}; set grid.x_min and grid.x_max"
        )
    if not (0.0 < x_min < x_max):
        raise ValueError(f"invalid grid bracket [{x_min}, {x_max}]")
    if log_spaced:
        return np.logspace(math.log10(x_min), math.log10(x_max), points)
    return np.linspace(x_min, x_max, points)


def density_grid(
    meq: RationalMasterEq,
    xs: Optional[Sequence[float]] = None,
    y: float = 1e-6,
) -> DensityCurve:
    """Solve the master equation at z = x + iy over the grid and return the curve.

    xs defaults to default_grid(meq).  The grid is walked from its largest x
    downward.  The walk jumps 64 points at a time, halving a jump until it
    certifies, and solves each jump's end in sequence from the previous one;
    the points jumped over are then certified and solved together from those
    roots (see _walk_roots).  The solver's tolerance and caps are the solver
    module's constants.
    """
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"y must be positive and finite, got {y!r}")
    if xs is None:
        xs = default_grid(meq)
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise ValueError(
            "grid points must be positive and finite (the atom at 0 is handled separately)"
        )
    stats = SolveStats()
    zs = np.empty(xs.size, dtype=complex)
    zs.real = xs[::-1]
    zs.imag = y
    ms = _walk_roots(meq, zs, stats)[::-1]

    rhos = -((ms + 1.0) / (xs + 1j * y)).imag / math.pi
    bad = np.flatnonzero(rhos < -_NEGATIVE_DENSITY_TOL)
    if bad.size:
        x = float(xs[bad[0]])
        raise SolverError(f"negative density {float(rhos[bad[0]])!r} at x={x!r}", z=complex(x, y))
    rhos = np.where(rhos < 0.0, 0.0, rhos)

    mass = float(_trapz(rhos, xs))
    return DensityCurve(
        xs=xs,
        rhos=rhos,
        y=y,
        total_mass=mass,
        atom_lower_bound=atom_lower_bound(meq),
        stats=stats,
    )


def _walk_roots(meq: RationalMasterEq, zs: np.ndarray, stats: SolveStats) -> np.ndarray:
    """Decaying-branch roots at the points zs, given in walk order.

    Coarse pass: the segments end at every _STRIDE-th point and at the last
    one.  Each segment is tested once, its end from the root at its head.  If
    that whole-segment step certifies, newton_lilypads takes it (its descent
    tries the whole gap first) and the end becomes the next head; otherwise
    the segment is halved and its first half tried the same way, down to
    single steps, which are walked from their neighbour.  Batched pass: every
    point inside a jumped segment is tested from that segment's head root by
    basin_certificates, and the certified ones are solved by newton_lockstep.
    The rest are walked, in order, from their neighbour.  Each point is thus
    one certified step from a root on the decaying branch, the step
    newton_lilypads would try first.
    """
    n = zs.size
    z_list = zs.tolist()
    ms = np.empty(n, dtype=complex)
    sequential = np.zeros(n, dtype=bool)

    def walk(k: int, proxy: Optional[tuple]) -> complex:
        z = z_list[k]
        try:
            m = newton_lilypads(meq, z, proxy, stats)
        except SolverError as err:
            raise SolverError(
                f"density solve failed at x={z.real!r}: {err}",
                z=z,
                last_certified=err.last_certified,
            ) from err
        ms[k] = m
        sequential[k] = True
        return m

    # segment ends still to reach, the next one on top
    ends = [n - 1, *range(_STRIDE, n - 1, _STRIDE)[::-1]] if n > 1 else []
    head = 0
    m = walk(0, None)
    while ends:
        end = ends.pop()
        if end - head > 1:
            # called through the solver module, so that a wrapper installed at
            # solver.is_in_basin sees the coarse tests too
            stats.certificate_tests += 1
            if solver.is_in_basin(meq, z_list[end], m) is None:
                stats.rejected_tests += 1
                ends += [end, (head + end) // 2]
                continue
        m = walk(end, (z_list[head], m))
        head = end

    fine = np.flatnonzero(~sequential)
    if fine.size == 0:
        return ms
    # a point inside a jumped segment starts from the segment's head, the
    # nearest sequentially solved point before it
    heads = np.maximum.accumulate(np.where(sequential, np.arange(n), 0))[fine]
    z, m0 = zs[fine], ms[heads]
    certs = basin_certificates(meq, z, m0)
    ok = certs.certified
    solved = int(np.count_nonzero(ok))
    stats.certificate_tests += fine.size
    stats.rejected_tests += fine.size - solved
    try:
        ms[fine[ok]] = newton_lockstep(meq, z[ok], m0[ok], certs.value[ok], certs.deriv[ok], stats)
    except SolverError as err:
        raise SolverError(f"density solve failed at x={err.z.real!r}: {err}", z=err.z) from err
    stats.basins += solved
    for k in fine[~ok].tolist():
        walk(k, (z_list[k - 1], complex(ms[k - 1])))
    return ms


def uniform_density_curve(x_lo: float, x_hi: float, points: int = 201) -> DensityCurve:
    """Synthetic flat curve (mass 1, no atom); used for test modes, not solving."""
    if not (0.0 <= x_lo < x_hi < math.inf):
        raise ValueError(f"need 0 <= x_lo < x_hi < inf, got [{x_lo!r}, {x_hi!r}]")
    xs = np.linspace(x_lo, x_hi, points)
    rhos = np.full(points, 1.0 / (x_hi - x_lo))
    return DensityCurve(xs=xs, rhos=rhos, y=0.0, total_mass=1.0)


def _cumulative_mass(curve: DensityCurve) -> np.ndarray:
    steps = 0.5 * (curve.rhos[1:] + curve.rhos[:-1]) * np.diff(curve.xs)
    out = np.empty(curve.xs.size, dtype=float)
    out[0] = 0.0
    np.cumsum(steps, out=out[1:])
    if not (out[-1] > 0.0):
        raise ValueError("curve carries no mass on its grid window")
    return out


def quantiles(curve: DensityCurve, probs: Sequence[float]) -> QuantileTable:
    """Invert the curve's trapezoid CDF, conditional on the absolutely continuous part.

    The returned values satisfy G(v) = p with G renormalized to [0, 1] over the
    grid window; the atom at zero is reported alongside, never folded in.
    """
    probs = tuple(float(p) for p in probs)
    if not probs:
        raise ValueError("probs must be nonempty")
    for p in probs:
        if not (0.0 < p < 1.0):
            raise ValueError(f"probs must lie strictly inside (0, 1), got {p}")
    if curve.total_mass + curve.atom_lower_bound < 0.5:
        raise ValueError("grid window misses the bulk")
    cum = _cumulative_mass(curve)
    mass = cum[-1]
    # Exact inversion of the trapezoid CDF: within a cell the density is linear,
    # so the cumulative is quadratic in t = v - x0 and the stable root is
    # t = 2T / (rho0 + sqrt(rho0^2 + 2sT)); the discriminant telescopes to
    # rho1^2 at the far node, so it never goes negative beyond roundoff.
    xs, rhos = curve.xs, curve.rhos
    targets = np.asarray(probs) * mass
    idx = np.clip(np.searchsorted(cum, targets, side="left"), 1, cum.size - 1)
    widths = xs[idx] - xs[idx - 1]
    excess = targets - cum[idx - 1]
    slope = (rhos[idx] - rhos[idx - 1]) / widths
    disc = np.maximum(rhos[idx - 1] ** 2 + 2.0 * slope * excess, 0.0)
    denom = rhos[idx - 1] + np.sqrt(disc)
    offset = np.where(denom > 0.0, 2.0 * excess / np.where(denom > 0.0, denom, 1.0), 0.0)
    values = xs[idx - 1] + np.minimum(offset, widths)
    return QuantileTable(
        probs=probs,
        values=tuple(float(v) for v in values),
        atom_lower_bound=curve.atom_lower_bound,
        total_mass=curve.total_mass,
    )


def closed_form_moments(meq: RationalMasterEq) -> Moments:
    """First moment and variance of the law, read off the master equation's factors.

    With m = m1/z + m2/z^2 + ... as z -> infinity, z m = P(m) gives m1 = P(0),
    taken as phi_1(0), and m2 = m1 P'(0) = m1^2 sum_j k_j / (-r_j).  The factor
    m + 1 takes one of the root -1's count, so the variance is
    m1^2 ((k_{-1} - 1) + sum_{r_j != -1} k_j / (-r_j)); for a net, that sum
    is sum_ell Lambda_ell / c_ell and m1 = prod_ell c_ell sigma_w_ell^2.
    """
    m1 = eval_phi(meq, 1, 0)[0].real
    m1 = math.inf if math.isnan(m1) else m1  # an overflowed P(0) comes out as nan
    counts = dict(zip(meq.roots, meq.multiplicities))
    spread = sum((k / -r for r, k in counts.items() if r != -1.0), counts.get(-1.0, 0) - 1)
    return Moments(m1=m1, variance=m1 * m1 * spread)
