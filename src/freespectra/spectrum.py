"""Density curves, quantiles and closed-form moments of limiting squared-singular-value laws.

branch_roots solves the master equation's decaying branch m(z) at any
points of the upper half-plane, in the caller's order: it walks the
distinct points by decreasing Re z in a sequential pass of certified jumps
and a batched pass over the points jumped over, by the rule that
_walk_roots states.  The density at x is rho = -Im((m+1)/z)/pi at
z = x + iy, a small smoothing offset y > 0 (density_grid); on the ray
z = x (1 + 1e-12 i) the closed-form primitive of (m + 1)/z dz in m gives
the law's exact CDF, atom included (cdf).
Every function here reads the law from the master equation's factors (a
RationalMasterEq) alone, never from the layers.
"""

from __future__ import annotations

import math
from cmath import isfinite as cisfinite
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
    "branch_roots",
    "cdf",
    "default_grid",
    "density_grid",
    "quantiles",
    "closed_form_moments",
]

_NEGATIVE_DENSITY_TOL = 1e-10

# The coarse pass's first jump, in points of the walk, and the least cap on
# its jumps (see _walk_roots); a failed long jump costs one certificate test.
_STRIDE = 64

# The batched pass takes the grid in blocks of _BLOCK points, so that each of
# its complex arrays holds at most 64 KiB, below glibc's mmap threshold.
_BLOCK = 4096

# cdf solves each positive point on the ray z = x (1 + i _RAY_EPS); far above
# the support that offset leaves 1 - F at about _RAY_EPS / pi
_RAY_EPS = 1e-12


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
        if not (math.isfinite(self.y) and self.y > 0):
            raise ValueError(f"y must be positive and finite, got {self.y!r}")
        if not 0.0 <= self.atom_lower_bound <= 1.0:
            raise ValueError(f"atom_lower_bound must lie in [0, 1], got {self.atom_lower_bound!r}")
        if self.xs[0] < 0 or np.any(np.diff(self.xs) <= 0):
            raise ValueError("xs must be strictly increasing and nonnegative")
        if np.any(self.rhos < 0):
            raise ValueError("rhos must be nonnegative (clamp before constructing)")
        if self.total_mass > 1.02:
            window = f"[{float(self.xs[0])!r}, {float(self.xs[-1])!r}]"
            raise ValueError(
                f"total_mass {self.total_mass} exceeds 1.02: the trapezoid mass over "
                f"{self.xs.size} grid points on {window} is more than a probability law "
                "holds; either the law is wrong or the grid is too coarse"
            )


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
) -> np.ndarray:
    """Log-spaced grid bracketing the bulk, 1e-4 m1 to m1 + 10 sigma of the moments.

    sigma = m1 sqrt(spread) is the variance's root taken without m1 m1, which
    leaves the normal floats at m1 < 1.5e-154 or m1 > 1.3e154; the window thus
    keeps its shape there, as the law only scales with m1.
    """
    if points < 2:
        raise ValueError("grid needs at least 2 points")
    m1, var = closed_form_moments(meq)
    auto_min, auto_max = x_min is None, x_max is None
    if auto_min:
        x_min = m1 * 1e-4
    if auto_max:
        x_max = m1 + 10.0 * m1 * math.sqrt(_spread(meq))
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
    return np.logspace(math.log10(x_min), math.log10(x_max), points)


def density_grid(meq: RationalMasterEq, xs: Sequence[float], y: float = 1e-6) -> DensityCurve:
    """Solve the master equation at z = x + iy over the grid xs and return the curve.

    xs is strictly increasing and positive; default_grid builds one.  The
    roots come from branch_roots, which walks the grid from its largest x
    down (see _walk_roots); the solver's tolerance and caps are the solver
    module's constants.
    """
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"y must be positive and finite, got {y!r}")
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
    zs.real = xs
    zs.imag = y
    # (m + 1)/z in place; a division by -pi rounds as a division by pi, negated
    ms = branch_roots(meq, zs, stats)
    ms += 1.0
    ms /= zs
    rhos = np.divide(ms.imag, -math.pi)
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


def branch_roots(
    meq: RationalMasterEq, zs: Sequence[complex], stats: Optional[SolveStats] = None
) -> np.ndarray:
    """Decaying-branch roots m(z) at the points zs, in their order and shape.

    The points may come in any order and may repeat; each must be finite with
    Im z > 0.  They are walked by decreasing Re z, and each distinct point is
    solved once (see _walk_roots), so points that share Re z must be one
    point.  The walk's counters are added to stats when it is given.  A
    strictly increasing input, a grid in x order, is walked reversed with
    no sort.  The points walked and the roots returned are contiguous
    arrays, never reversed views, since numpy's complex loops and arctan2
    round differently on a strided view.
    """
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    if flat.size == 0:
        return np.empty(zs.shape, dtype=complex)
    finite = np.isfinite(flat)
    if not finite.all():
        raise ValueError(f"branch_roots needs finite points, got {complex(flat[~finite][0])!r}")
    lower = flat.imag <= 0.0
    if lower.any():
        raise ValueError(f"branch_roots needs Im z > 0, got {complex(flat[lower][0])!r}")
    walk, index = _walk_order(flat)
    ms = _walk_roots(meq, walk, SolveStats() if stats is None else stats)
    if index is None:
        # walk is a reversed copy made for this call alone, so it takes the roots
        np.copyto(walk, ms[::-1])
        ms = walk
    else:
        ms = np.take(ms, index)
    return ms.reshape(zs.shape)


def _walk_order(zs: np.ndarray) -> tuple:
    """The distinct points of zs by decreasing Re z, and where each point of zs lies among them.

    The first is a contiguous array.  The second is None where zs holds two
    or more points strictly increasing in Re z, so that the first is its
    reversed copy, and otherwise each point's index into the first.  (One
    point reversed is zs itself, which np.ascontiguousarray would not copy.)
    """
    if zs.size > 1 and (np.diff(zs.real) > 0.0).all():
        return np.ascontiguousarray(zs[::-1]), None
    order = np.argsort(zs.real, kind="stable")[::-1]
    walk = np.take(zs, order)
    tied = walk.real[1:] == walk.real[:-1]
    clash = np.flatnonzero(tied & (walk.imag[1:] != walk.imag[:-1]))
    if clash.size:
        a, b = complex(walk[clash[0]]), complex(walk[clash[0] + 1])
        raise ValueError(f"branch_roots: points {a!r} and {b!r} share Re z but differ in Im z")
    # each sorted point's place among the distinct ones, scattered back
    rank = np.zeros(zs.size, dtype=np.intp)
    np.cumsum(~tied, out=rank[1:])
    index = np.empty(zs.size, dtype=np.intp)
    index[order] = rank
    return np.compress(np.concatenate(([True], ~tied)), walk), index


def _walk_roots(meq: RationalMasterEq, zs: np.ndarray, stats: SolveStats) -> np.ndarray:
    """Decaying-branch roots at the points zs, given distinct, in walk order.

    Coarse pass: the walk tests its jump's end once, from the branch tangent
    at the head, m_head + (z_end - z_head) dm/dz, with the slope at the head
    from _branch_slope (an Euler predictor; m_head where the slope is not
    finite).  If that step certifies, newton_lilypads solves there from that
    start and certificate, the end becomes the next head, and the next jump
    is twice this one, up to max(_STRIDE, (n - 1) // 8) points; the first
    jump is _STRIDE.  A jump that does not certify is halved, down to single
    steps, which are walked from their neighbour's root without a test.
    This is the descent's own rule, and the cap keeps at least 8 sequential
    solves per grid, the sample perfbench's branch check draws from.  The
    coarse pass thus solves both ends of every interval it jumped: point 0,
    point n - 1 and each head in between.
    Batched pass: every point jumped over starts from the cubic Hermite
    interpolant of m between the two solved points that bracket it, with
    the slopes dm/dz there that the coarse pass took from the factors, so
    no evaluation of phi is added.  In blocks of _BLOCK grid points, those starts are tested by
    basin_certificates, and the certified ones are solved by
    newton_lockstep; the arithmetic is per point, so the blocks change no
    root or counter.  The rest are walked afterwards, in order, from their
    neighbour.  Each point is thus either solved by Newton from a certified
    start between two roots on the decaying branch, or walked in certified
    steps from one.
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
                f"branch solve failed at x={z.real!r}: {err}",
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
    # dm/dz at each head, in walk order, for the predictor and the interpolant
    slopes = [_branch_slope(meq, z_head, m)]
    while head < n - 1:
        end = min(head + jump, n - 1)
        jump = end - head
        z_end = complex(zs[end])
        start, cert = m, None
        if jump > 1:
            start = m + (z_end - z_head) * slopes[-1]
            cert = solver._certify(meq, z_end, start, stats)
            if cert is None:
                jump //= 2
                continue
        m = walk(end, (z_head, start), cert)
        head, z_head = end, z_end
        slopes.append(_branch_slope(meq, z_head, m))
        jump = min(2 * jump, cap)

    # the cubic Hermite interpolant of m between consecutive sequential
    # solves, m_head + t (s_head + t (c + t d)) at t = (x - x_head)/w, where
    # s_head and s_next are w dm/dz at the interval's two ends
    heads = np.flatnonzero(sequential)
    x_heads, m_heads = zs.real[heads], ms[heads]
    widths = np.diff(x_heads)
    slopes = np.array(slopes)
    rises = np.diff(m_heads)
    s_head, s_next = slopes[:-1] * widths, slopes[1:] * widths
    c = 3.0 * rises - 2.0 * s_head - s_next
    d = s_head + s_next - 2.0 * rises
    failed = []
    for start in range(0, n, _BLOCK):
        fine = start + np.flatnonzero(~sequential[start : start + _BLOCK])
        if fine.size == 0:
            continue
        # a point jumped over starts from the interpolant between the two
        # sequentially solved points that bracket it (0 and n - 1 are two)
        j = np.searchsorted(heads, fine) - 1
        t = zs.real[fine]
        t -= x_heads[j]
        t /= widths[j]
        m0 = d[j]
        m0 *= t
        m0 += c[j]
        m0 *= t
        m0 += s_head[j]
        m0 *= t
        m0 += m_heads[j]
        z = zs[fine]
        certs = basin_certificates(meq, z, m0, stats)
        ok = np.flatnonzero(certs.certified)
        try:
            ms[fine[ok]] = newton_lockstep(
                meq, z[ok], m0[ok], certs.value[ok], certs.deriv[ok], stats
            )
        except SolverError as err:
            raise SolverError(f"branch solve failed at x={err.z.real!r}: {err}", z=err.z) from err
        failed += fine[~certs.certified].tolist()
    for k in failed:
        walk(k, (complex(zs[k - 1]), complex(ms[k - 1])))
    return ms


def _branch_slope(meq: RationalMasterEq, z: complex, m: complex) -> complex:
    """dm/dz along the branch through the root m at z, 0 where it is not finite.

    z = P(m)/m gives dz/dm = z (sum_j k_j / (m - r_j) - 1/m), which at a
    root equals z phi_z'(m) / m; no evaluation of phi is needed.  A slope
    that is not finite (a root at a branch point) is taken as 0, so a
    predicted start falls back to the head's root and the interpolant
    through it stays finite.  Python complex scalars, since a one-element
    array call costs about ten times as much.
    """
    try:
        rate = -1.0 / m
        for r, k in zip(meq.roots, meq.multiplicities):
            rate += k / (m - r)
        slope = 1.0 / (z * rate)
    except ZeroDivisionError:
        return 0j
    return slope if cisfinite(slope) else 0j


def cdf(
    meq: RationalMasterEq, xs: Sequence[float], stats: Optional[SolveStats] = None
) -> np.ndarray:
    """The law's exact CDF F(x) = P(X <= x), atom included, at the points xs, in their order.

    On the branch z = P(m)/m, so G = (m + 1)/z, whose density is
    rho = -Im G/pi, has G dz = (m + 1)(sum_j k_j/(m - r_j) - 1/m) dm, a
    rational function of m with simple poles.  As (m + 1)/(m - r_j) =
    1 + (1 + r_j)/(m - r_j), its primitive is
    Phi(m) = (d - 1) m + sum_j k_j (1 + r_j) log(m - r_j) - log m,
    d = sum_j k_j; the gain drops out, and so does the root -1's log.  As
    x -> infinity, m -> 0 and Im Phi -> 0, so
    F(x) = 1 - integral_x^inf rho = 1 - Im Phi(m(x + i0))/pi.
    m(x + i0) lies in the closed lower half-plane, and so does each m - r_j,
    as every root is real; each log is continued from m = 0 inside it, so
    every argument lies in [-pi, 0]: arctan2 where Im w < 0, otherwise -pi
    for Re w < 0 and 0.  (The principal branch gives +pi on the negative
    axis, which puts F above 1 where m - r_j is real and negative.)  F(0)
    is the atom, atom_lower_bound(meq).  The positive x are solved by
    branch_roots on the ray z = x (1 + i eps), eps = _RAY_EPS, which counts
    its walk into stats when given: no grid, window, y or quadrature
    enters.  The ray's offset leaves 1 - F at about eps/pi far above the
    support, where m ~ m1/z and -arg m ~ eps, and F about atom eps/pi below
    the atom just above 0.  A negative, NaN or infinite x raises a
    ValueError naming it, as does an x whose m lies within 4 eps |r_j| of a
    root r_j != -1, where arg(m - r_j) is rounding noise.
    """
    xs = np.asarray(xs, dtype=float)
    bad = ~(np.isfinite(xs) & (xs >= 0.0))
    if bad.any():
        raise ValueError(f"cdf needs finite x >= 0, got {float(xs[bad][0])!r}")
    out = np.full(xs.shape, atom_lower_bound(meq))
    positive = xs > 0.0
    ms = branch_roots(meq, xs[positive] * complex(1.0, _RAY_EPS), stats)
    im = (meq.degree - 1) * ms.imag - _lower_arg(ms)
    for r, k in zip(meq.roots, meq.multiplicities):
        lost = np.abs(ms - r) <= 4.0 * np.finfo(float).eps * abs(r)
        if r != -1.0 and lost.any():
            x = float(xs[positive][lost][0])
            raise ValueError(f"cdf cannot resolve x={x!r}: m rounds onto the root {r!r}")
        im += k * (1.0 + r) * _lower_arg(ms - r)
    out[positive] = 1.0 - im / math.pi
    return out


def _lower_arg(w: np.ndarray) -> np.ndarray:
    """The argument of each w of the closed lower half-plane, in [-pi, 0]."""
    return np.where(w.imag < 0.0, np.arctan2(w.imag, w.real), np.where(w.real < 0.0, -math.pi, 0.0))


def _cell_masses(xs: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """The trapezoid mass of each grid cell; they sum to the curve's total_mass.

    Computed in place, so a long grid holds two temporaries, not three.
    """
    masses = rhos[1:] + rhos[:-1]
    masses *= np.diff(xs)
    masses /= 2.0
    return masses


def quantiles(curve: DensityCurve, probs: Sequence[float]) -> QuantileTable:
    """Invert the curve's trapezoid CDF, conditional on the absolutely continuous part.

    The returned values satisfy G(v) = p with G renormalized to [0, 1] over the
    grid window; the atom at zero is reported alongside, never folded in.  A
    window whose mass, the atom included, is below one half misses the bulk,
    and one with no mass at all has no CDF to invert; both are refused.
    """
    probs = tuple(float(p) for p in probs)
    held = float(curve.total_mass + curve.atom_lower_bound)
    if held < 0.5:
        raise ValueError(f"grid window misses the bulk: total_mass + atom = {held!r} below 0.5")
    cum = np.concatenate(([0.0], np.cumsum(_cell_masses(curve.xs, curve.rhos))))
    mass = cum[-1]
    if not (mass > 0.0):
        raise ValueError("curve carries no mass on its grid window")
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
    return Moments(m1=m1, variance=m1 * m1 * _spread(meq))


def _spread(meq: RationalMasterEq) -> float:
    """The variance over m1^2, (k_{-1} - 1) + sum_{r_j != -1} k_j / (-r_j)."""
    counts = dict(zip(meq.roots, meq.multiplicities))
    return sum((k / -r for r, k in counts.items() if r != -1.0), counts.get(-1.0, 0) - 1)
