"""Density curves, quantiles and closed-form moments of limiting squared-singular-value laws.

The density at x is recovered from the decaying-branch solution m(x + iy) of the
master equation through rho = -Im((m+1)/z)/pi, evaluated at a small smoothing
offset y > 0.  A grid is solved in two passes: a sequential walk that jumps
64 points first, doubles a jump that certifies and halves one that does not,
then batched certificate tests and lockstep Newton solves, in blocks, for the
points jumped over (see _walk_roots).  Every function here reads the law from
the master equation's factors (a RationalMasterEq) alone, never from the
layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import solver
from .config import ConfigError
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
    "quantiles",
    "closed_form_moments",
]

_NEGATIVE_DENSITY_TOL = 1e-10

# The coarse pass of a grid first tries to jump _STRIDE points of the walk,
# doubles a jump that certifies and halves one that does not.  Jumps stay at
# most max(_STRIDE, (n - 1) // 8) points, so an n-point grid makes at least 8
# sequential solves, the sample perfbench's branch check draws from; a failed
# long jump costs one certificate test.
_STRIDE = 64

# The batched pass takes the grid in blocks of _BLOCK points, so that each of
# its complex arrays holds at most 64 KiB, below glibc's mmap threshold.
_BLOCK = 4096


@dataclass(eq=False, kw_only=True)
class DensityCurve:
    """Smoothed density on a grid, total_mass its trapezoid mass; treat the arrays as read-only."""

    xs: np.ndarray
    rhos: np.ndarray
    y: float
    total_mass: float = field(init=False)
    atom_lower_bound: float = 0.0
    stats: Optional[SolveStats] = None

    def __post_init__(self) -> None:
        self.xs = np.asarray(self.xs, dtype=float)
        self.rhos = np.asarray(self.rhos, dtype=float)
        # plain floats, so a numpy scalar never reaches an artifact's spelling
        self.y = float(self.y)
        self.atom_lower_bound = float(self.atom_lower_bound)
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
        # finite rows can still overflow their mass; the check below names it
        with np.errstate(over="ignore"):
            self.total_mass = float(_cell_masses(self.xs, self.rhos).sum())
        if not math.isfinite(self.total_mass):
            raise ValueError(f"total_mass must be finite, got {self.total_mass!r}")
        # y = 0 marks a curve built directly, not solved; a solved one has y > 0
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

    def __post_init__(self) -> None:
        # tuples of plain floats, from whatever sequence of numbers was passed
        object.__setattr__(self, "probs", tuple(map(float, self.probs)))
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        if not self.probs:
            raise ValueError("probs must be nonempty")
        if len(self.probs) != len(self.values):
            lengths = f"{len(self.probs)} and {len(self.values)}"
            raise ValueError(f"probs and values must have equal lengths, got {lengths}")
        for p in self.probs:
            if not 0.0 < p < 1.0:
                raise ValueError(f"probs must lie strictly inside (0, 1), got {p!r}")
        for v in self.values:
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"values must be finite and nonnegative, got {v!r}")
        if not 0.0 <= self.atom_lower_bound <= 1.0:
            raise ValueError(f"atom_lower_bound must lie in [0, 1], got {self.atom_lower_bound!r}")
        if not math.isfinite(self.total_mass):
            raise ValueError(f"total_mass must be finite, got {self.total_mass!r}")

    @property
    def log10_values(self) -> tuple:
        """log10 of each value, -inf for a zero quantile."""
        return tuple(math.log10(v) if v > 0 else -math.inf for v in self.values)


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
    auto_min, auto_max = x_min is None, x_max is None
    if auto_min:
        x_min = m1 * 1e-4
    if auto_max:
        x_max = m1 + 10.0 * math.sqrt(var)
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise ValueError(
            f"grid window [{x_min!r}, {x_max!r}] is not finite: the closed-form moments give "
            f"m1 = {m1!r} and variance = {var!r}; set grid.x_min and grid.x_max"
        )
    # a lone bound at or past the automatic other end is the configuration's fault
    if auto_max and not auto_min and x_min >= x_max:
        raise ConfigError(
            f"config: grid.x_min: {x_min!r} is not below the automatic upper end {x_max!r}; "
            "set grid.x_max as well"
        )
    if auto_min and not auto_max and x_max <= x_min:
        raise ConfigError(
            f"config: grid.x_max: {x_max!r} is not above the automatic lower end {x_min!r}; "
            "set grid.x_min as well"
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
    downward.  The walk jumps 64 points first, doubles a jump that certifies,
    up to an eighth of the grid, and halves one that does not; it solves each
    jump's end in sequence from the previous one.  The points jumped over are
    then certified and solved in blocks from those roots (see _walk_roots).
    The solver's tolerance and caps are the solver module's constants.
    """
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"y must be positive and finite, got {y!r}")
    if xs is None:
        xs = default_grid(meq)
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise ValueError(
            f"xs must be a 1-D grid of at least two points, got {xs.size} in shape {xs.shape}"
        )
    if not np.all(np.isfinite(xs) & (xs > 0)):
        raise ValueError(
            "grid points must be positive and finite (the atom at 0 is handled separately)"
        )
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing and nonnegative")
    stats = SolveStats()
    zs = np.empty(xs.size, dtype=complex)
    zs.real = xs[::-1]
    zs.imag = y
    # (m + 1)/z in place, in walk order (zs is exactly xs + iy reversed);
    # a division by -pi rounds as a division by pi, negated
    ms = _walk_roots(meq, zs, stats)
    ms += 1.0
    ms /= zs
    rhos = np.divide(ms.imag[::-1], -math.pi)
    bad = np.flatnonzero(rhos < -_NEGATIVE_DENSITY_TOL)
    if bad.size:
        x = float(xs[bad[0]])
        raise SolverError(f"negative density {float(rhos[bad[0]])!r} at x={x!r}", z=complex(x, y))
    rhos[rhos < 0.0] = 0.0

    return DensityCurve(
        xs=xs,
        rhos=rhos,
        y=y,
        atom_lower_bound=atom_lower_bound(meq),
        stats=stats,
    )


def _walk_roots(meq: RationalMasterEq, zs: np.ndarray, stats: SolveStats) -> np.ndarray:
    """Decaying-branch roots at the points zs, given in walk order.

    Coarse pass: from the root at its head, the walk tests its jump's end
    once.  If that step certifies, newton_lilypads takes it from that
    certificate (its descent tries the whole gap first, so the test is not
    repeated), the end becomes the next head, and the next jump is twice
    this one, up to max(_STRIDE, (n - 1) // 8) points; the first jump is
    _STRIDE.  A jump that does not certify is halved, down to single steps,
    which are walked from their neighbour without a test.  This is the
    descent's own rule, and the cap keeps at least 8 sequential solves per
    grid.  Batched pass: in blocks of _BLOCK grid points, every point jumped
    over is tested from its head root by basin_certificates, and the
    certified ones are solved by newton_lockstep; the arithmetic is per
    point, so the blocks change no root or counter.  The rest are walked
    afterwards, in order, from their neighbour.  Each point is thus one
    certified step from a root on the decaying branch, the step
    newton_lilypads would try first.
    """
    n = zs.size
    ms = np.empty(n, dtype=complex)
    sequential = np.zeros(n, dtype=bool)

    def walk(
        k: int, proxy: Optional[tuple], certificate: Optional[solver.BasinCertificate] = None
    ) -> complex:
        z = complex(zs[k])
        try:
            m = newton_lilypads(meq, z, proxy, stats, certificate)
        except SolverError as err:
            raise SolverError(
                f"density solve failed at x={z.real!r}: {err}",
                z=z,
                last_certified=err.last_certified,
            ) from err
        ms[k] = m
        sequential[k] = True
        return m

    cap = max(_STRIDE, (n - 1) // 8)
    head, jump = 0, _STRIDE
    z_head = complex(zs[0])
    m = walk(0, None)
    while head < n - 1:
        end = min(head + jump, n - 1)
        jump = end - head
        z_end = complex(zs[end])
        cert = None
        if jump > 1:
            # called through the solver module, so that a wrapper installed at
            # solver.is_in_basin sees the coarse tests too
            stats.certificate_tests += 1
            cert = solver.is_in_basin(meq, z_end, m)
            if cert is None:
                stats.rejected_tests += 1
                jump //= 2
                continue
        m = walk(end, (z_head, m), cert)
        head, z_head = end, z_end
        jump = min(2 * jump, cap)

    heads = np.flatnonzero(sequential)
    failed = []
    for start in range(0, n, _BLOCK):
        fine = start + np.flatnonzero(~sequential[start : start + _BLOCK])
        if fine.size == 0:
            continue
        # a point jumped over starts from its head, the nearest sequentially
        # solved point before it
        z, m0 = zs[fine], ms[heads[np.searchsorted(heads, fine) - 1]]
        certs = basin_certificates(meq, z, m0)
        ok = np.flatnonzero(certs.certified)
        stats.certificate_tests += fine.size
        stats.rejected_tests += fine.size - ok.size
        try:
            ms[fine[ok]] = newton_lockstep(
                meq, z[ok], m0[ok], certs.value[ok], certs.deriv[ok], stats
            )
        except SolverError as err:
            raise SolverError(f"density solve failed at x={err.z.real!r}: {err}", z=err.z) from err
        stats.basins += ok.size
        failed += fine[~certs.certified].tolist()
    for k in failed:
        walk(k, (complex(zs[k - 1]), complex(ms[k - 1])))
    return ms


def _cell_masses(xs: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """The trapezoid mass of each grid cell; they sum to the curve's total_mass."""
    return np.diff(xs) * (rhos[1:] + rhos[:-1]) / 2.0


def _cumulative_mass(curve: DensityCurve) -> np.ndarray:
    """The trapezoid CDF of the curve over its grid window, from 0.

    A window whose mass, the atom included, is below one half misses the
    bulk, and one with no mass at all has no CDF to normalize; both are
    refused.
    """
    mass = float(curve.total_mass + curve.atom_lower_bound)
    if mass < 0.5:
        raise ValueError(f"grid window misses the bulk: total_mass + atom = {mass!r} below 0.5")
    out = np.empty(curve.xs.size, dtype=float)
    out[0] = 0.0
    np.cumsum(_cell_masses(curve.xs, curve.rhos), out=out[1:])
    if not (out[-1] > 0.0):
        raise ValueError("curve carries no mass on its grid window")
    return out


def quantiles(curve: DensityCurve, probs: Sequence[float]) -> QuantileTable:
    """Invert the curve's trapezoid CDF, conditional on the absolutely continuous part.

    The returned values satisfy G(v) = p with G renormalized to [0, 1] over the
    grid window; the atom at zero is reported alongside, never folded in.
    """
    probs = tuple(float(p) for p in probs)
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
        values=values,
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
