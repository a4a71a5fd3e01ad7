"""Certified Newton iteration and the lilypad continuation across spectral parameters.

A start is accepted only with a Kantorovich certificate (h = delta*kappa*lambda < 1/2),
which guarantees Newton converges to the unique root within t* of the start.  The
global strategy chains certified basins: from Im z = max(|Im z|, |Re z|) double
Im z upward until the cold start certifies, then walk back down to the requested
z, warm starting each solve from the previous solution.  Each step of the walk
tries at most twice the last accepted step and is halved until it certifies.
A straight walk at small |Im z| that crosses a support edge would halve its
step toward the branch point there, so the walk detours instead: at its first
rejected step while |Im z| is below the remaining gap, it climbs away from
the real axis to an apex over the midpoint and walks back from there, each leg
certified step by step (see _descend).  The certificate carries phi and phi' at the start it
certified, and Newton's first step reuses that evaluation.

For many points at once, basin_certificates runs the same Kantorovich test on
numpy arrays and newton_lockstep iterates every certified point together
under newton_raphson's stop rule, iteration cap and errors; a density grid uses
them for the points it can reach in one certified step from a solved point.

The stop rule's tolerance (_EPSILON), Newton's iteration cap, the cap on Im z
doublings and the descent's step floor, as a fraction of its first gap, are
module constants: they are part of the method, not settings of a run.
"""

from __future__ import annotations

import math
from cmath import isfinite as cisfinite
from dataclasses import dataclass
from math import isfinite, sqrt
from typing import NamedTuple, Optional

import numpy as np

from .transform_algebra import (
    RationalMasterEq,
    _modulus,
    eval_phi,
    eval_phi_array,
    second_derivative_bound,
    second_derivative_bound_array,
)

__all__ = [
    "BasinCertificate",
    "BasinCertificates",
    "SolveStats",
    "SolverError",
    "is_in_basin",
    "basin_certificates",
    "newton_raphson",
    "newton_lockstep",
    "newton_lilypads",
]

# Four machine epsilons: the noise-floor factor of phi's product-form evaluation.
_NOISE_SCALE = 4.0 * 2.0**-52

_EPSILON = 1e-12
_MAX_NEWTON_ITERS = 100
_MAX_DOUBLINGS = 60
_MIN_STEP_FRACTION = 2.0**-60


def _converged(value, deriv, m, degree: int):
    """Newton's stop rule, for scalars or elementwise for numpy arrays.

    Stop when |phi| < _EPSILON and the next step |phi/phi'| is at most
    _EPSILON * (1 + |m|): near a spectral edge |phi'| is tiny, so a small
    residual alone can leave m far from the root.  Or stop at phi's own
    floating-point floor: phi = P(m)/z - m with value + m = P(m)/z, and
    eval_phi forms P(m) = prod_j t_j^k_j, t_j = gain (m - r_j), of degree
    d = sum_j k_j by binary powering.  With u = eps/2, each t_j carries a
    relative error of at most 2u (one rounding for m - r_j, one for the gain)
    and each complex product at most sqrt 5 u.  A relative error that enters
    the partial product at bit b of the powering is raised to the power 2^b
    with it, so it reaches P multiplied by 2^b.  The multiplications by t_j
    then add sum_j k_j (2 + sqrt 5) u = d (2 + sqrt 5) u, as in the
    factor-by-factor product, and the squarings, one per bit below the top
    one, add at most (2^(B-1) - 1) sqrt 5 u < d sqrt 5 u, where
    2^(B-1) <= max_j k_j <= d.  That is at most 3.3 eps of the 4 eps allowed
    per unit of degree, and the product's first multiplication, by 1, is
    exact; the rest covers the division by z and the subtraction of m, so
    value rounds to 4 eps (d |P(m)/z| + |m|).  m itself is rounded too, which
    next to a root r_j of P moves the factor m - r_j by a relative
    u |m|/|m - r_j|, so phi by up to about 4 eps |phi'| |m|.

    The moduli are abs: Python's (hypot) for scalars, np.abs for arrays.
    np.abs of a complex array can be almost 2 ulp off hypot but costs a tenth
    of it; the stop rule is a tolerance test, not part of the certificate.
    """
    resid = abs(value)
    slope = abs(deriv)
    size = abs(m)
    return ((resid < _EPSILON) & (resid <= _EPSILON * slope * (1.0 + size))) | (
        resid < _NOISE_SCALE * (degree * abs(value + m) + size + slope * size)
    )


def _converged_array(
    value: np.ndarray, deriv: np.ndarray, m: np.ndarray, degree: int
) -> np.ndarray:
    """_converged on arrays, taking the floor clause's |value + m| only where it can pass.

    |value + m| <= |value| + |m|, and twice that also covers the rounding of
    the three moduli, so where resid is not below the floor with
    2 (|value| + |m|) in its place, it is not below the true floor either:
    every operation of the bound rounds monotonically.  Every verdict is
    _converged's, at the cost of one complex sum and modulus per candidate
    instead of one per point.
    """
    resid = np.abs(value)
    slope = np.abs(deriv)
    size = np.abs(m)
    done = (resid < _EPSILON) & (resid <= _EPSILON * slope * (1.0 + size))
    bound = resid + size
    bound *= 2.0 * degree
    bound += size
    bound += slope * size
    bound *= _NOISE_SCALE
    maybe = np.flatnonzero(resid < bound)
    if maybe.size:
        done[maybe] = _converged(value[maybe], deriv[maybe], m[maybe], degree)
    return done


class BasinCertificate(NamedTuple):
    """delta = |phi/phi'|, kappa = 1/|phi'|, lambda_bound >= sup |phi''|, h = delta*kappa*lambda.

    value and deriv are phi and phi' at the certified start, so Newton's first
    step reuses them instead of evaluating phi there again.
    """

    delta: float
    kappa: float
    lambda_bound: float
    h: float
    t_star: float
    value: complex
    deriv: complex


class BasinCertificates(NamedTuple):
    """basin_certificates' verdicts, one element per point.

    certified[i] is True exactly when is_in_basin would return a certificate;
    h is delta*kappa*lambda, NaN where phi' is zero or delta or kappa is not
    finite; value and deriv are phi and phi' at the starts.
    """

    certified: np.ndarray
    h: np.ndarray
    value: np.ndarray
    deriv: np.ndarray


@dataclass
class SolveStats:
    """Mutable counters accumulated across a solve or a whole grid.

    certificate_tests counts Kantorovich tests in the cold start, the descent
    and a grid's coarse and batched passes, rejected_tests the ones that did
    not certify, and lifts the descents that detoured over an apex instead of
    halving their step (see _descend).  restarts stays 0: no solve falls back
    to the all-roots oracle; the field keeps the density headers' keys.
    """

    newton_iterations: int = 0
    basins: int = 0
    doublings: int = 0
    restarts: int = 0
    certificate_tests: int = 0
    rejected_tests: int = 0
    lifts: int = 0


class SolverError(RuntimeError):
    """Solve failure; carries the objective z and the last certified (z, m) if any."""

    def __init__(self, message: str, z: Optional[complex] = None,
                 last_certified: Optional[tuple[complex, complex]] = None):
        super().__init__(message)
        self.z = z
        self.last_certified = last_certified


def _off_axis_error(z: complex) -> ValueError:
    return ValueError(f"z must have nonzero imaginary part, got {z}")


def is_in_basin(
    meq: RationalMasterEq,
    z: complex,
    m0: complex,
) -> Optional[BasinCertificate]:
    """Kantorovich test at m0; None means "not certified", never "divergent"."""
    if z.imag == 0.0:
        raise _off_axis_error(z)
    value, deriv = eval_phi(meq, z, m0)
    denom = abs(deriv)
    if denom == 0.0 or not isfinite(denom):
        return None
    delta = abs(value) / denom
    kappa = 1.0 / denom
    if not (isfinite(delta) and isfinite(kappa)):
        return None
    # The solution lies within t* < 2*delta of the start, so bounding phi''
    # on the radius-2*delta disc is sufficient and breaks the circularity.
    lam = second_derivative_bound(meq, z, m0, 2.0 * delta)
    h = delta * kappa * lam
    if not h < 0.5:  # also rejects NaN and inf
        return None
    t_star = 2.0 * delta / (1.0 + sqrt(1.0 - 2.0 * h)) if delta > 0 else 0.0
    return BasinCertificate(delta, kappa, lam, h, t_star, value, deriv)


def basin_certificates(
    meq: RationalMasterEq,
    z: np.ndarray,
    m0: np.ndarray,
) -> BasinCertificates:
    """is_in_basin elementwise over arrays of objectives z and starts m0.

    Every rejection of the scalar test is kept: phi' zero or not finite, delta
    or kappa not finite, and h not below 1/2.  Every modulus is hypot, as in
    Python's abs of a complex, so each verdict and h is the scalar one: |phi|,
    |phi'| and |z| per point, and the lambda bound's |m0 - r_j| once per run
    of equal consecutive starts (second_derivative_bound_array); a grid's
    batched points share their jump's head root as start.
    """
    z = np.asarray(z, dtype=complex)
    m0 = np.asarray(m0, dtype=complex)
    if np.any(z.imag == 0.0):
        raise _off_axis_error(complex(z[z.imag == 0.0][0]))
    value, deriv = eval_phi_array(meq, z, m0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        denom = _modulus(deriv)
        delta = _modulus(value) / denom
        kappa = 1.0 / denom
        usable = (denom != 0.0) & np.isfinite(denom) & np.isfinite(delta) & np.isfinite(kappa)
        lam = second_derivative_bound_array(meq, z, m0, 2.0 * delta)
        h = np.where(usable, delta * kappa * lam, np.nan)
    return BasinCertificates(usable & (h < 0.5), h, value, deriv)


def newton_raphson(
    meq: RationalMasterEq,
    z: complex,
    m0: complex,
    stats: Optional[SolveStats] = None,
    certificate: Optional[BasinCertificate] = None,
) -> complex:
    """Newton iteration on phi_z from m0; the residual test runs before each step,
    so an exact root is returned unchanged.

    A certificate from is_in_basin(meq, z, m0) supplies phi and phi' at m0, so
    the first step costs no evaluation; the iterates are the same either way.
    Stops by _converged: when |phi_z(m)| < _EPSILON and the next step
    |phi/phi'| is at most _EPSILON * (1 + |m|), or when the residual falls below
    its own floating-point evaluation floor (converged to working precision).
    """
    if z.imag == 0.0:
        raise _off_axis_error(z)
    if certificate is None:
        value, deriv = eval_phi(meq, z, m0)
    else:
        value, deriv = certificate.value, certificate.deriv
    degree = meq.degree
    m = m0
    for iteration in range(_MAX_NEWTON_ITERS + 1):
        if _converged(value, deriv, m, degree):
            if stats is not None:
                stats.newton_iterations += iteration
            return m
        if iteration == _MAX_NEWTON_ITERS:
            break
        if deriv == 0 or not cisfinite(deriv):
            raise SolverError(f"derivative underflow at m={m} (z={z})", z=z)
        m = m - value / deriv
        if not cisfinite(m):
            raise SolverError(f"iterate diverged to {m} (z={z})", z=z)
        value, deriv = eval_phi(meq, z, m)
    raise SolverError(
        f"no convergence within {_MAX_NEWTON_ITERS} iterations at z={z} "
        f"(residual {abs(value):.3e})",
        z=z,
    )


def newton_lockstep(
    meq: RationalMasterEq,
    z: np.ndarray,
    m0: np.ndarray,
    value: np.ndarray,
    deriv: np.ndarray,
    stats: Optional[SolveStats] = None,
) -> np.ndarray:
    """newton_raphson on every point at once, from starts that all certified.

    value and deriv are phi and phi' at m0 from basin_certificates(meq, z, m0),
    taken only where it certified; they make the first step.  Each point stops
    by newton_raphson's stop rule, with its moduli taken by np.abs
    (_converged_array), and leaves the batch; stats.newton_iterations gains
    each point's step count.  The first point, in array order, to hit one of
    newton_raphson's errors raises it, naming that point's z.
    """
    z = np.asarray(z, dtype=complex)
    m = np.broadcast_to(np.asarray(m0, dtype=complex), z.shape).copy()
    degree = meq.degree
    out = m.copy()
    live = np.arange(z.size)
    steps = 0
    for iteration in range(_MAX_NEWTON_ITERS + 1):
        done = _converged_array(value, deriv, m, degree)
        if done.any():
            finished = np.flatnonzero(done)
            out[live[finished]] = m[finished]
            steps += iteration * finished.size
            # gathers by index: one scan of done instead of one per array
            going = np.flatnonzero(~done)
            live, z, m, value, deriv = live[going], z[going], m[going], value[going], deriv[going]
        if live.size == 0:
            if stats is not None:
                stats.newton_iterations += steps
            return out
        if iteration == _MAX_NEWTON_ITERS:
            break
        # a complex array's all() is False exactly where an element is zero
        if not (deriv.all() and np.isfinite(deriv).all()):
            i = int(np.argmax((deriv == 0) | ~np.isfinite(deriv)))
            raise SolverError(
                f"derivative underflow at m={complex(m[i])} (z={complex(z[i])})", z=complex(z[i])
            )
        with np.errstate(over="ignore", invalid="ignore"):
            m = m - value / deriv
            finite = np.isfinite(m)
            if not finite.all():
                i = int(np.argmin(finite))
                raise SolverError(
                    f"iterate diverged to {complex(m[i])} (z={complex(z[i])})", z=complex(z[i])
                )
            value, deriv = eval_phi_array(meq, z, m)
    raise SolverError(
        f"no convergence within {_MAX_NEWTON_ITERS} iterations at z={complex(z[0])} "
        f"(residual {abs(complex(value[0])):.3e})",
        z=complex(z[0]),
    )


def newton_lilypads(
    meq: RationalMasterEq,
    z_objective: complex,
    proxy: Optional[tuple[complex, complex]] = None,
    stats: Optional[SolveStats] = None,
    certificate: Optional[BasinCertificate] = None,
) -> complex:
    """Solve phi_{z_objective}(m) = 0 on the decaying branch (m -> 0 as z -> infinity).

    Without a proxy, start at m=0 and Im z = max(|Im z|, |Re z|) (the sign of
    Im z kept) and double Im z until certified; when that start is z_objective
    itself (|Re z| <= |Im z|, no doubling), its solve is the answer.  With a
    proxy (z, m) from a neighboring solve, skip straight to the descent.  The
    descent tries at most twice its last accepted step toward z_objective and
    halves it until the current solution certifies at the shifted point, then
    advances and re-solves.  At its first rejected step while |Im z| is below
    the remaining gap, as where a step along Im z crosses a support edge, it
    detours once over an apex at height about gap/2 instead of halving, and
    stats.lifts counts it (see _descend).  Every Newton solve starts from a
    certificate and reuses its evaluation.  A caller that has already tested
    the proxy's root at z_objective, is_in_basin(meq, z_objective, m), and
    counted that test, passes the accepted certificate: the descent takes it
    for its first, whole-gap step instead of testing again.
    """
    if z_objective.imag == 0.0:
        raise _off_axis_error(z_objective)
    if not cisfinite(z_objective):
        # from a proxy, a NaN objective would halve the descent's step without end
        raise ValueError(f"z must be finite, got {z_objective}")
    if certificate is not None and proxy is None:
        raise ValueError("a certificate needs the proxy whose root it tested")
    if stats is None:
        stats = SolveStats()

    if proxy is None:
        # From a tiny Im z at large Re z the climb can outrun max_doublings
        # (1e-6 doubled 60 times is only 1.2e12); from |Re z| it takes a few.
        z = complex(
            z_objective.real,
            math.copysign(max(abs(z_objective.imag), abs(z_objective.real)), z_objective.imag),
        )
        m = 0j
        doublings = 0
        stats.certificate_tests += 1
        cert = is_in_basin(meq, z, m)
        while cert is None:
            stats.rejected_tests += 1
            if doublings >= _MAX_DOUBLINGS:
                raise SolverError(
                    f"no certified start after {doublings} doublings of Im z "
                    f"(reached z={z})",
                    z=z_objective,
                )
            z = complex(z.real, 2.0 * z.imag)
            doublings += 1
            stats.certificate_tests += 1
            cert = is_in_basin(meq, z, m)
        stats.doublings += doublings
        m = newton_raphson(meq, z, m, stats, cert)
        stats.basins += 1
        if z == z_objective:
            return m
    else:
        z, m = proxy

    return _descend(meq, z, m, z_objective, stats, certificate=certificate)


def _descend(
    meq: RationalMasterEq,
    z: complex,
    m: complex,
    z_objective: complex,
    stats: SolveStats,
    leg_end: Optional[complex] = None,
    certificate: Optional[BasinCertificate] = None,
) -> complex:
    """Walk the solved (z, m) to z_objective in certified steps and return m there.

    Each step tries at most twice the last accepted one, first the whole gap,
    and is halved until m certifies at its end; Newton then solves there from
    that certificate.  A step that reaches z_objective straight along Im z
    can cross a support edge, where the basins shrink toward the branch point
    with |Im z|.  So at the first rejected test while |Im z| is below the
    remaining gap, the descent lifts instead of halving: it walks a leg to the
    apex, the midpoint moved away from the real axis by gap/2 plus the larger
    |Im| of the two ends, and a second leg down to z_objective.  Both legs
    stay in the open half-plane of z, where the decaying branch is analytic,
    and each is this straight descent with leg_end set: it walks to leg_end,
    names z_objective in its errors and does not lift again, so a descent
    lifts at most once and every leg keeps its step floor.  A certificate
    already taken at the end from m stands in for the first, whole-gap test.
    """
    end = z_objective if leg_end is None else leg_end
    full_step = abs(end - z)
    floor = _MIN_STEP_FRACTION * full_step
    step = full_step
    while True:
        dz = end - z
        gap = abs(dz)
        if gap <= 2.0 * step:
            target = end
        else:
            dz *= 2.0 * step / gap
            target = z + dz
        if certificate is None:
            stats.certificate_tests += 1
            cert = is_in_basin(meq, target, m)
        else:
            cert, certificate = certificate, None
        if cert is None and leg_end is None and abs(z.imag) < gap:
            stats.rejected_tests += 1
            stats.lifts += 1
            height = 0.5 * gap + max(abs(z.imag), abs(z_objective.imag))
            apex = 0.5 * (z + z_objective) + complex(0.0, math.copysign(height, z.imag))
            m = _descend(meq, z, m, z_objective, stats, apex)
            return _descend(meq, apex, m, z_objective, stats, z_objective)
        while cert is None:
            stats.rejected_tests += 1
            dz *= 0.5
            target = z + dz
            if abs(dz) < floor:
                raise SolverError(
                    f"continuation stalled at z={z} (step below "
                    f"{_MIN_STEP_FRACTION:.3g} of the initial gap)",
                    z=z_objective,
                    last_certified=(z, m),
                )
            if target == z:
                raise SolverError(
                    f"continuation stalled at z={z} (step {abs(dz):.3g} rounds to zero)",
                    z=z_objective,
                    last_certified=(z, m),
                )
            stats.certificate_tests += 1
            cert = is_in_basin(meq, target, m)
        step = abs(dz)
        z = target
        m = newton_raphson(meq, z, m, stats, cert)
        stats.basins += 1
        if z == end:
            return m
