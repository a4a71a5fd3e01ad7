"""Certified Newton iteration and the lilypad descent schedule."""

import math

import numpy as np
import pytest

import freespectra.solver as solver_module
import freespectra.spectrum as spectrum_module
from freespectra import (
    BasinCertificate,
    LayerSpec,
    NetworkSpec,
    closed_form_moments,
    Nonlinearity,
    RationalMasterEq,
    SolverError,
    SolveStats,
    default_grid,
    density_grid,
    eval_phi,
    is_in_basin,
    master_from_spec,
    newton_lilypads,
    newton_raphson,
)
from freespectra.oracles import all_roots
from freespectra.solver import basin_certificates, newton_lockstep


def mp_meq():
    return master_from_spec(NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0),)))


def mp_root(z):
    """Physical branch of m^2 + (2-z)m + 1 = 0 picked by decaying density."""
    roots = np.roots([1.0, 2.0 - z, 1.0])
    dens = [-((m + 1) / z).imag for m in roots]
    return complex(roots[int(np.argmax(dens))])


def test_is_in_basin_mp1_example():
    cert = is_in_basin(mp_meq(), 10j, 0j)
    assert isinstance(cert, BasinCertificate)
    assert cert.delta == pytest.approx(0.09806, abs=1e-5)
    assert cert.kappa == pytest.approx(0.98058, abs=1e-5)
    assert cert.lambda_bound == pytest.approx(0.2, rel=1e-12)
    assert cert.h == pytest.approx(0.01923, abs=1e-5)
    assert cert.h == pytest.approx(cert.delta * cert.kappa * cert.lambda_bound, rel=1e-12)
    assert cert.t_star == pytest.approx(2 * cert.delta / (1 + math.sqrt(1 - 2 * cert.h)), rel=1e-12)
    assert 0 < cert.t_star < 2 * cert.delta
    assert (cert.value, cert.deriv) == eval_phi(mp_meq(), 10j, 0j)


def test_is_in_basin_near_edge_not_certified():
    assert is_in_basin(mp_meq(), 2 + 1e-12j, 0j) is None


def test_is_in_basin_double_root_not_certified():
    # phi'(m0) = 0 exactly at m0 = (z-2)/2 for the MP(1) equation
    z = 4j
    m0 = (z - 2) / 2
    assert eval_phi(mp_meq(), z, m0)[1] == 0
    assert is_in_basin(mp_meq(), z, m0) is None


def test_is_in_basin_rejects_real_z():
    with pytest.raises(ValueError):
        is_in_basin(mp_meq(), 2.0 + 0j, 0j)


def test_is_in_basin_not_certified_where_kappa_overflows(monkeypatch):
    # phi' = 1e-320 is nonzero and finite, but kappa = 1/|phi'| is inf
    monkeypatch.setattr(solver_module, "eval_phi", lambda meq, z, m: (0j, 1e-320 + 0j))
    assert is_in_basin(mp_meq(), 10j, 0j) is None


def test_newton_raphson_rejects_real_z():
    with pytest.raises(ValueError, match=r"^z must have nonzero imaginary part, got \(2\+0j\)$"):
        newton_raphson(mp_meq(), 2.0 + 0j, 0j)


def test_newton_mp1_from_origin():
    stats = SolveStats()
    m = newton_raphson(mp_meq(), 10j, 0j, stats=stats)
    assert abs(m - mp_root(10j)) < 1e-12
    assert abs(eval_phi(mp_meq(), 10j, m)[0]) < 1e-12
    assert stats.newton_iterations <= 8


def test_newton_exact_root_takes_zero_iterations():
    # (m+1)^2 = z*m holds exactly in floating point for this pair
    z = 0.5 + 0.5j
    m0 = -1 + 1j
    assert eval_phi(mp_meq(), z, m0)[0] == 0
    stats = SolveStats()
    m = newton_raphson(mp_meq(), z, m0, stats=stats)
    assert m == m0
    assert stats.newton_iterations == 0


def test_newton_golden_section_point():
    m = newton_raphson(mp_meq(), 2 + 1j, -0.5j)
    assert abs(m - 1j * (1 - math.sqrt(5)) / 2) < 1e-9


def test_newton_stop_near_edge_waits_for_a_small_step():
    # |phi'| is about 5e-6 here, so |phi| < epsilon alone stops Newton ~1e-8 off
    # the root; the step test must carry it on to working precision
    mpmath = pytest.importorskip("mpmath")
    z = 4 + 1e-10j
    with mpmath.workprec(200):
        b = 2 - mpmath.mpc(z.real, z.imag)
        disc = mpmath.sqrt(b * b - 4)
        roots = [(-b + disc) / 2, (-b - disc) / 2]
        for root in roots:
            for offset in (1e-3, 1e-3j, 1e-4):
                m = newton_raphson(mp_meq(), z, complex(root) + offset)
                assert min(abs(mpmath.mpc(m.real, m.imag) - r) for r in roots) <= 1e-9


def test_newton_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(solver_module, "_MAX_NEWTON_ITERS", 2)
    with pytest.raises(SolverError):
        newton_raphson(mp_meq(), 2 + 1j, 50 + 50j)


def handed_certificate(value, deriv):
    """A certificate carrying only phi and phi' at the start, for Newton's error paths."""
    return BasinCertificate(0.0, 0.0, 0.0, 0.0, 0.0, value, deriv)


def test_newton_raises_on_a_zero_derivative():
    with pytest.raises(SolverError, match="derivative underflow") as info:
        newton_raphson(mp_meq(), 2 + 1j, 0j, certificate=handed_certificate(1 + 0j, 0j))
    assert info.value.z == 2 + 1j


def test_newton_raises_when_an_iterate_overflows():
    # P(m) = m + 1 has degree 1, so phi = 1e308 is far above its rounding
    # floor and Newton steps to m = -inf
    meq = RationalMasterEq(gain=1.0, roots=(-1.0,), multiplicities=(1,))
    certificate = handed_certificate(1e308 + 0j, 1e-308 + 0j)
    with pytest.raises(SolverError, match="iterate diverged") as info:
        newton_raphson(meq, 2 + 1j, 0j, certificate=certificate)
    assert info.value.z == 2 + 1j


def test_newton_refuses_a_residual_whose_rounding_floor_overflows():
    # on Marchenko-Pastur (degree 2) the floor's d |P(m)/z| term is 2e308,
    # which overflows: an infinite floor accepted phi = 1e308 and returned
    # the start.  A floor that is not finite bounds nothing, so Newton steps
    # to m = -inf
    certificate = handed_certificate(1e308 + 0j, 1e-308 + 0j)
    with pytest.raises(SolverError, match="^iterate diverged to"):
        newton_raphson(mp_meq(), 2 + 1j, 0j, certificate=certificate)


def test_newton_lockstep_names_the_first_point_whose_iterate_diverges():
    # points 1 and 2 both step to m = -inf, from a residual whose rounding
    # floor overflows (which accepted them once); the error names point 1,
    # the first in array order
    z = np.array([10j, 2 + 1j, 3 + 1j])
    m0 = np.zeros(3, dtype=complex)
    value = np.array([1.0, 1e308, 1e308], dtype=complex)
    deriv = np.array([1.0, 1e-308, 1e-308], dtype=complex)
    with pytest.raises(SolverError, match=r"^iterate diverged to .* \(z=\(2\+1j\)\)$") as info:
        newton_lockstep(mp_meq(), z, m0, value, deriv)
    assert info.value.z == z[1]


def test_basin_certificates_name_the_first_real_z():
    z = np.array([1 + 1j, 2 + 0j, 3 + 0j])
    with pytest.raises(ValueError, match=r"^z must have nonzero imaginary part, got \(2\+0j\)$"):
        basin_certificates(mp_meq(), z, np.zeros(3, dtype=complex))


def test_basin_certificates_reject_a_start_whose_phi_overflows_without_a_warning():
    # one linear layer at sigma_w^2 = 1e300 has gain 1e150, so P = (gain (m + 1))^2
    # overflows at m = 1e10; phi was evaluated before numpy's warnings were
    # silenced, and the suite's filter turned the overflow into an error
    meq = master_from_spec(NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1e300),)))
    certs = basin_certificates(meq, np.array([1 + 1j]), np.array([1e10 + 0j]))
    assert not certs.certified[0]


def test_newton_lockstep_names_the_first_point_with_a_zero_derivative():
    # points 1 and 2 both fail; the error names point 1, the first in array order
    z = np.array([10j, 2 + 1j, 3 + 1j])
    m0 = np.zeros(3, dtype=complex)
    value = np.ones(3, dtype=complex)
    deriv = np.array([1 + 0j, 0j, complex(math.nan, 0.0)])
    with pytest.raises(SolverError, match="derivative underflow") as info:
        newton_lockstep(mp_meq(), z, m0, value, deriv)
    assert info.value.z == z[1]


def test_lilypads_cold_start():
    stats = SolveStats()
    m = newton_lilypads(mp_meq(), 2 + 1j, stats=stats)
    assert abs(m - 1j * (1 - math.sqrt(5)) / 2) < 1e-9
    assert stats.doublings >= 1 and stats.basins >= 1


def test_lilypads_cold_start_climbs_from_re_z():
    # Im z = 1e-6 doubled 60 times reaches only ~1.2e12, short of Re z here; the
    # climb starts at Im z = |Re z| instead
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.HARD_SINE, 1.5) for _ in range(64)))
    meq = master_from_spec(spec)
    z = 1.7e13 + 1e-6j
    stats = SolveStats()
    m = newton_lilypads(meq, z, stats=stats)
    value, deriv = eval_phi(meq, z, m)
    assert abs(value) <= 1e-12 * max(1.0, abs(deriv))
    assert stats.doublings <= 5
    assert -((m + 1) / z).imag >= 0


def test_lilypads_far_field_leading_order():
    m = newton_lilypads(mp_meq(), 1e6j)
    assert abs(m - (-1e-6j)) < 1e-11


def test_lilypads_warm_proxy_skips_doubling():
    meq = mp_meq()
    proxy_z = 2 + 0.1j
    proxy_m = newton_lilypads(meq, proxy_z)
    stats = SolveStats()
    m = newton_lilypads(meq, 2 + 1e-9j, proxy=(proxy_z, proxy_m), stats=stats)
    assert stats.doublings == 0
    assert abs(m - mp_root(2 + 1e-9j)) < 1e-9


def test_lilypads_rejects_real_axis():
    with pytest.raises(ValueError):
        newton_lilypads(mp_meq(), 2.0 + 0j)


def test_lilypads_rejects_a_non_finite_objective():
    # from a proxy, a NaN objective once kept the descent halving its step
    # without end, and an infinite one returned m = 0
    meq = mp_meq()
    proxy = (2 + 1j, newton_lilypads(meq, 2 + 1j))
    for z in (complex(math.nan, 1e-6), complex(math.inf, 1e-6)):
        with pytest.raises(ValueError, match="z must be finite"):
            newton_lilypads(meq, z, proxy=proxy)


def patch_is_in_basin(monkeypatch, refused=lambda z: False, limit=10_000):
    """Make the solver's Kantorovich test reject every z where refused(z) holds,
    and raise after limit tests, so that a loop fails instead of hanging."""
    original = solver_module.is_in_basin
    calls = {"n": 0}

    def patched(meq, z, m0):
        calls["n"] += 1
        if calls["n"] > limit:
            raise AssertionError(f"more than {limit} certificate tests")
        return None if refused(z) else original(meq, z, m0)

    monkeypatch.setattr(solver_module, "is_in_basin", patched)


@pytest.mark.parametrize(
    "z_proxy, m_proxy",
    [
        (complex(math.nan, 1.0), -0.5j),
        (complex(math.inf, 1.0), -0.5j),
        (2 + 1j, complex(math.nan, 0.0)),
        (2 + 1j, complex(0.0, math.inf)),
    ],
    ids=["nan-z", "inf-z", "nan-m", "inf-m"],
)
def test_lilypads_refuses_a_non_finite_proxy(monkeypatch, z_proxy, m_proxy):
    # a NaN or infinite proxy z kept the descent halving its step without
    # end; a NaN m failed every test and stalled as if the step rounded to zero
    patch_is_in_basin(monkeypatch)
    with pytest.raises(ValueError, match="proxy must be finite") as info:
        newton_lilypads(mp_meq(), 2 + 1e-3j, proxy=(z_proxy, m_proxy))
    assert repr(m_proxy) in str(info.value)


@pytest.mark.parametrize(
    "z_objective, z_proxy", [(2 + 1j, 2 + 0j), (2 + 1j, 2 - 1j), (2 - 1j, 2 + 1j)],
    ids=["real", "lower", "upper"],
)
def test_lilypads_refuses_a_proxy_across_the_real_axis(monkeypatch, z_objective, z_proxy):
    # from 2 + 1j, the descent to 2 - 1j returned -1.618i, a root on another
    # branch, where the decaying root is 0.618i
    m_proxy = newton_lilypads(mp_meq(), complex(z_proxy.real, z_proxy.imag or 1.0))
    patch_is_in_basin(monkeypatch)
    with pytest.raises(ValueError, match="half-plane") as info:
        newton_lilypads(mp_meq(), z_objective, proxy=(z_proxy, m_proxy))
    assert repr(z_proxy) in str(info.value)


def test_lilypads_lower_half_plane_schwarz():
    meq = mp_meq()
    for z in (2 + 1e-3j, 3.5 + 0.2j, 0.5 + 1j):
        upper = newton_lilypads(meq, z)
        lower = newton_lilypads(meq, z.conjugate())
        assert abs(lower - upper.conjugate()) < 1e-14


def test_lilypads_is_deterministic():
    meq = mp_meq()
    s1, s2 = SolveStats(), SolveStats()
    m1 = newton_lilypads(meq, 1.7 + 1e-8j, stats=s1)
    m2 = newton_lilypads(meq, 1.7 + 1e-8j, stats=s2)
    assert m1 == m2
    assert s1 == s2


def test_lilypads_stall_reports_last_certified(monkeypatch):
    # no test certifies below Im z = 1e-3, so the vertical descent toward the
    # spectral edge halves its step until it rounds to zero above that height
    patch_is_in_basin(monkeypatch, lambda z: z.imag < 1e-3)
    with pytest.raises(SolverError, match="rounds to zero") as info:
        newton_lilypads(mp_meq(), 3.9999 + 1e-13j)
    err = info.value
    assert err.last_certified is not None
    z_last, m_last = err.last_certified
    assert z_last.imag > 0
    assert abs(eval_phi(mp_meq(), z_last, m_last)[0]) < 1e-9


def test_descend_names_a_step_that_rounds_to_zero():
    # at m = z/2 - 1, phi' vanishes at the proxy z and is tiny nearby, so no
    # shifted target certifies; halving must stop once z + dz rounds to z
    z_proxy = 1e6 + 1j
    with pytest.raises(SolverError, match="rounds to zero") as info:
        newton_lilypads(mp_meq(), 1e6 + 0.5j, proxy=(z_proxy, z_proxy / 2 - 1))
    assert info.value.last_certified[0] == z_proxy


def test_tiny_y_hard_sine_net_completes():
    # this net once stopped Newton ~3e-7 off the root near an edge at y = 1e-9,
    # after which no certificate passed and the descent spun on z + dz == z
    spec = NetworkSpec(
        layers=tuple(LayerSpec(Nonlinearity.HARD_SINE, 1.5, width_ratio=2.0) for _ in range(3))
    )
    meq = master_from_spec(spec)
    curve = density_grid(meq, xs=default_grid(meq, points=400), y=1e-9)
    assert curve.stats.basins <= 600
    assert curve.stats.restarts == 0


@pytest.mark.parametrize("y", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("x_from, x_to", [(4.05, 3.95), (3.95, 4.05), (4.2, 3.8)])
def test_edge_crossing_costs_a_few_basins_at_any_y(x_from, x_to, y):
    # one grid step across the Marchenko-Pastur edge at x = 4: straight along
    # Im z = y the basins shrink toward the branch point and the step took
    # 18-47 basins; over the apex it takes a few whatever y is
    meq = mp_meq()
    z_from, z_to = complex(x_from, y), complex(x_to, y)
    m_from = mp_root(z_from)
    stats = SolveStats()
    m = newton_lilypads(meq, z_to, proxy=(z_from, m_from), stats=stats)
    assert stats.basins <= 6
    assert stats.lifts == 1
    assert abs(m - mp_root(z_to)) <= 1e-12
    mirrored = newton_lilypads(
        meq, z_to.conjugate(), proxy=(z_from.conjugate(), m_from.conjugate())
    )
    assert mirrored == m.conjugate()


def test_vertical_descent_does_not_lift():
    # the cold start's walk down at fixed x never has |Im z| below its gap
    stats = SolveStats()
    newton_lilypads(mp_meq(), 3.9999 + 1e-12j, stats=stats)
    assert stats.rejected_tests > stats.doublings
    assert stats.lifts == 0


def test_descent_leg_stall_names_the_objective(monkeypatch):
    # a leg that stalls reports the descent's objective, not its apex: no
    # test certifies above Im z = 1e-2, so the leg up to the apex at about
    # 0.2i stalls there
    patch_is_in_basin(monkeypatch, lambda z: z.imag > 1e-2)
    z_from, z_to = 4.2 + 1e-9j, 3.8 + 1e-9j
    with pytest.raises(SolverError, match="rounds to zero") as info:
        newton_lilypads(mp_meq(), z_to, proxy=(z_from, mp_root(z_from)))
    assert info.value.z == z_to
    z_last, m_last = info.value.last_certified
    assert z_last.imag > 0
    assert abs(eval_phi(mp_meq(), z_last, m_last)[0]) < 1e-9


def deep_meq(name):
    nonlinearity, gain, depth = {
        "linear4": (Nonlinearity.LINEAR, 1.0, 4),
        "linear16": (Nonlinearity.LINEAR, 1.0, 16),
        "relu16": (Nonlinearity.RELU, 2.0, 16),
        "relu64": (Nonlinearity.RELU, 2.0, 64),
    }[name]
    spec = NetworkSpec(layers=tuple(LayerSpec(nonlinearity, gain) for _ in range(depth)))
    return master_from_spec(spec)


@pytest.mark.parametrize("k", [16, 20, 40, 60, 100])
@pytest.mark.parametrize("name", ["linear16", "relu16", "relu64"])
def test_deep_ray_point_solves_from_a_cold_start_and_from_the_ray(name, k):
    # at z = x(1 + 1e-12 i), x = 1e-k m1, a cap of 60 doublings of Im z
    # once stopped the cold start, and a step floor of 2^-60 of the first gap
    # its descent; the cold start's vertical descent and a ray descent from
    # m1 (1 + 1e-12 i), which lifts over an apex, land on the same root
    meq = deep_meq(name)
    m1 = closed_form_moments(meq).m1
    z = 10.0**-k * m1 * (1 + 1e-12j)
    m = newton_lilypads(meq, z)
    z_from = m1 * (1 + 1e-12j)
    along = newton_lilypads(meq, z, proxy=(z_from, newton_lilypads(meq, z_from)))
    assert abs(along - m) <= 1e-14 * (1 + abs(m))
    assert -((m + 1) / z).imag >= 0


def test_deep_ray_descent_stops_where_its_step_rounds_to_zero():
    # linear x4 at 1e-100 m1: the multiplicity-5 root -1 shrinks the basins
    # faster than |z|, so the descent stops near Im z = 7e-71, loudly
    meq = deep_meq("linear4")
    z = 1e-100 * closed_form_moments(meq).m1 * (1 + 1e-12j)
    with pytest.raises(SolverError, match="rounds to zero") as info:
        newton_lilypads(meq, z)
    assert info.value.z == z
    z_last, m_last = info.value.last_certified
    assert z_last.real == z.real and z.imag < z_last.imag < 1e-60
    # m_last is Newton's answer at z_last: phi is at its rounding floor there
    value, deriv = eval_phi(meq, z_last, m_last)
    assert solver_module._converged(value, deriv, m_last, meq.degree)


def test_cold_start_that_never_certifies_stops_where_im_z_overflows():
    # with gain 1e300 no start m = 0 certifies at any height: the climb from
    # Im z = 1 stops at 2^1023, the last power of two below overflow
    meq = RationalMasterEq(gain=1e300, roots=(-1.0,), multiplicities=(3,))
    stats = SolveStats()
    with pytest.raises(SolverError, match="no certified start after 1023 doublings") as info:
        newton_lilypads(meq, 1 + 1j, stats=stats)
    assert info.value.z == 1 + 1j and info.value.last_certified is None
    assert (stats.certificate_tests, stats.rejected_tests) == (1024, 1024)


@pytest.mark.parametrize(
    "layers, y, window",
    [
        # a walk straight along Im z = y stalled on both with "step ...
        # rounds to zero" at an upper edge, at x = 169.29 and x = 1.68e6
        (((Nonlinearity.LINEAR, 1.0, 1.0),) * 64, 1e-12, (1e-4, 1.001 * 65**65 / 64**64, 400)),
        (((Nonlinearity.HARD_SINE, 1.5, 2.0),) * 16, 1e-9, None),
    ],
    ids=["linear-x64-y1e-12", "hard_sine-x16-ratio2-y1e-9"],
)
def test_tiny_y_grid_crosses_its_upper_edge(layers, y, window):
    spec = NetworkSpec(layers=tuple(LayerSpec(nl, gain, width_ratio=r) for nl, gain, r in layers))
    meq = master_from_spec(spec)
    if window is None:
        xs = default_grid(meq)
    else:
        lo, hi, points = window
        xs = default_grid(meq, points=points, x_min=lo * closed_form_moments(meq).m1, x_max=hi)
    stats = SolveStats()
    zs = xs[::-1] + 1j * y
    ms = spectrum_module._walk_roots(meq, zs, stats)
    assert stats.lifts >= 1
    for z, m in zip(zs.tolist(), ms.tolist()):
        assert min(abs(m - r) for r in all_roots(meq, z).roots) <= 1e-9
    assert np.all(-((ms + 1.0) / zs).imag / math.pi >= -1e-10)


def test_lifted_grid_stays_within_the_stop_rule_of_the_exact_roots():
    # linear at ratio 0.5 and y = 1e-9 lifts at its edges; every grid m stays
    # within Newton's 1e-12 (1 + |m|) of a root of P(m) - z m taken in 200 bits
    mpmath = pytest.importorskip("mpmath")
    spec = NetworkSpec(layers=(LayerSpec(Nonlinearity.LINEAR, 1.0, width_ratio=0.5),))
    meq = master_from_spec(spec)
    stats = SolveStats()
    zs = default_grid(meq, points=400)[::-1] + 1e-9j
    ms = spectrum_module._walk_roots(meq, zs, stats)
    assert stats.lifts >= 1
    with mpmath.workprec(200):
        gain = mpmath.mpf(meq.gain)
        coeffs = [mpmath.mpc(1)]  # P(m) multiplied out, highest degree first
        for r, k in zip(meq.roots, meq.multiplicities):
            for _ in range(k):
                coeffs = [gain * a - gain * r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
        for z, m in zip(zs.tolist(), ms.tolist()):
            shifted = list(coeffs)
            shifted[-2] -= mpmath.mpc(z.real, z.imag)
            roots = mpmath.polyroots(shifted, maxsteps=200, extraprec=200)
            off = min(abs(mpmath.mpc(m.real, m.imag) - root) for root in roots)
            assert off <= 1e-12 * (1 + abs(m))


@pytest.mark.parametrize(
    "nonlinearity, gain, depth, y",
    [(Nonlinearity.RELU, 2.0, 4, 1e-6), (Nonlinearity.LINEAR, 1.0, 16, 1e-6)],
)
def test_grid_basin_count(nonlinearity, gain, depth, y):
    # the centred bound keeps basins wide as depth grows: about one per point
    spec = NetworkSpec(layers=tuple(LayerSpec(nonlinearity, gain) for _ in range(depth)))
    meq = master_from_spec(spec)
    curve = density_grid(meq, xs=default_grid(meq, points=400), y=y)
    assert curve.stats.basins <= 500
    assert curve.stats.restarts == 0


def test_lilypads_survives_large_coefficients():
    # Horner noise exceeds epsilon here; the noise-floor stop must kick in
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.LINEAR, 4.0) for _ in range(5)))
    meq = master_from_spec(spec)
    z = 0.1 + 1e-6j
    m = newton_lilypads(meq, z)
    assert min(abs(m - r) for r in all_roots(meq, z).roots) < 1e-9
    assert -((m + 1) / z).imag >= -1e-10


def test_certificate_counters_match_is_in_basin_calls(monkeypatch):
    # the counters must tally every Kantorovich test of the cold start (with
    # doublings), of the descent (with halvings), of the grid's coarse pass and
    # of its batched pass, and every rejection
    seen = {"calls": 0, "rejected": 0, "batched": 0}
    original = solver_module.is_in_basin
    original_batch = spectrum_module.basin_certificates

    def counting(*args, **kwargs):
        cert = original(*args, **kwargs)
        seen["calls"] += 1
        seen["rejected"] += cert is None
        return cert

    def counting_batch(*args, **kwargs):
        certs = original_batch(*args, **kwargs)
        seen["calls"] += certs.certified.size
        seen["batched"] += certs.certified.size
        seen["rejected"] += int(np.count_nonzero(~certs.certified))
        return certs

    monkeypatch.setattr("freespectra.solver.is_in_basin", counting)
    monkeypatch.setattr("freespectra.spectrum.basin_certificates", counting_batch)
    stats = SolveStats()
    newton_lilypads(mp_meq(), 2 + 1j, stats=stats)
    assert stats.doublings >= 1
    spec = NetworkSpec(
        layers=tuple(LayerSpec(Nonlinearity.HARD_SINE, 1.5, width_ratio=2.0) for _ in range(3))
    )
    meq = master_from_spec(spec)
    curve = density_grid(meq, xs=default_grid(meq, points=400), y=1e-9)
    stats.certificate_tests += curve.stats.certificate_tests
    stats.rejected_tests += curve.stats.rejected_tests
    assert stats.rejected_tests > stats.doublings
    assert seen["batched"] > 0
    assert stats.certificate_tests == seen["calls"]
    assert stats.rejected_tests == seen["rejected"]


def test_grid_tests_no_start_twice(monkeypatch):
    # an accepted coarse jump hands its certificate to the solve, whose
    # descent would otherwise test the same (z, m0) again as its first step
    seen = []
    original = solver_module.is_in_basin

    def recording(meq, z, m0):
        seen.append((z, m0))
        return original(meq, z, m0)

    monkeypatch.setattr("freespectra.solver.is_in_basin", recording)
    spec = NetworkSpec(layers=tuple(LayerSpec(Nonlinearity.RELU, 2.0) for _ in range(4)))
    meq = master_from_spec(spec)
    curve = density_grid(meq, xs=default_grid(meq, points=400), y=1e-6)
    assert curve.stats.basins > 400 // 64
    assert len(set(seen)) == len(seen)


def test_lilypads_from_a_handed_certificate_skips_its_test():
    meq = mp_meq()
    z_from, z_to = 2 + 1e-6j, 2.5 + 1e-6j
    proxy = (z_from, newton_lilypads(meq, z_from))
    cert = is_in_basin(meq, z_to, proxy[1])
    assert cert is not None
    tested, handed = SolveStats(), SolveStats()
    m = newton_lilypads(meq, z_to, proxy, tested)
    assert newton_lilypads(meq, z_to, proxy, handed, cert) == m
    assert handed.certificate_tests == tested.certificate_tests - 1
    assert handed.newton_iterations == tested.newton_iterations
    # the handed certificate makes one Newton solve and no test
    assert (handed.basins, handed.certificate_tests) == (1, 0)
    with pytest.raises(ValueError, match="needs the proxy"):
        newton_lilypads(meq, z_to, certificate=cert)


@pytest.mark.parametrize(
    "nonlinearity, gain, depth, y",
    [(Nonlinearity.RELU, 1.9780206096911102, 1, 1e-3), (Nonlinearity.HARD_TANH, 1.5, 64, 1e7)],
)
def test_every_newton_solve_starts_from_a_certificate(monkeypatch, nonlinearity, gain, depth, y):
    # on the ReLU grid one descent step lands within rounding of its
    # objective; on the hard_tanh grid (x up to 3.3e6) every x <= y, so the
    # cold start already sits at the objective and its solve is the answer
    uncertified = {"calls": 0}
    original = solver_module.newton_raphson

    def counting(meq, z, m0, stats=None, certificate=None):
        uncertified["calls"] += certificate is None
        return original(meq, z, m0, stats, certificate)

    monkeypatch.setattr("freespectra.solver.newton_raphson", counting)
    spec = NetworkSpec(layers=tuple(LayerSpec(nonlinearity, gain) for _ in range(depth)))
    meq = master_from_spec(spec)
    xs = default_grid(meq, points=400)
    curve = density_grid(meq, xs=xs, y=y)
    assert uncertified["calls"] == 0
    if nonlinearity is Nonlinearity.HARD_TANH:
        assert np.all(xs <= y)
        assert curve.stats.basins == xs.size


@pytest.mark.parametrize(
    "nonlinearity, gain, ratio, depth, y, evals, tests, iterations, basins, others",
    [
        pytest.param(
            Nonlinearity.RELU, 2.0, 1.0, 4, 1e-6, 1551, 429, 1122, 406, (23, 1, 0), id="relu4"
        ),
        pytest.param(
            Nonlinearity.HARD_SINE, 1.5, 2.0, 3, 1e-9, 1234, 459, 775, 420, (39, 3, 0),
            id="hard_sine3_ratio2",
        ),
        pytest.param(
            Nonlinearity.LINEAR, 1.0, 1.0, 16, 1e-6, 1567, 421, 1146, 405, (16, 0, 0),
            id="linear16",
        ),
    ],
)
def test_grid_evaluates_phi_once_per_test_and_step(
    monkeypatch, nonlinearity, gain, ratio, depth, y, evals, tests, iterations, basins, others
):
    # Newton's first step reuses the certificate's evaluation, so phi is
    # evaluated at one point per certificate test and per Newton iteration,
    # whether on a scalar or on an array of the batched pass
    seen = {"evals": 0}
    original = solver_module.eval_phi

    def counting(meq, z, m):
        seen["evals"] += np.size(m)
        return original(meq, z, m)

    monkeypatch.setattr("freespectra.solver.eval_phi", counting)
    spec = NetworkSpec(
        layers=tuple(LayerSpec(nonlinearity, gain, width_ratio=ratio) for _ in range(depth))
    )
    meq = master_from_spec(spec)
    curve = density_grid(meq, xs=default_grid(meq, points=400), y=y)
    stats = curve.stats
    assert seen["evals"] == stats.certificate_tests + stats.newton_iterations
    assert (seen["evals"], stats.certificate_tests, stats.newton_iterations, stats.basins) == (
        evals,
        tests,
        iterations,
        basins,
    )
    # others is (rejected_tests, lifts, doublings); every accepted test leads
    # to exactly one Newton solve
    assert (stats.rejected_tests, stats.lifts, stats.doublings) == others
    assert stats.basins == stats.certificate_tests - stats.rejected_tests


def test_newton_from_certificate_matches_fresh_evaluation():
    # the certificate's phi and phi' are those of the start, so Newton takes
    # the same iterates and stops at the same m either way
    rng = np.random.default_rng(31)
    nls = list(Nonlinearity)
    checked = 0
    for _ in range(120):
        spec = NetworkSpec(
            layers=tuple(
                LayerSpec(
                    nonlinearity=nls[rng.integers(0, len(nls))],
                    sigma_w_sq=float(rng.uniform(0.5, 2.5)),
                    width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
                )
                for _ in range(int(rng.integers(1, 17)))
            )
        )
        meq = master_from_spec(spec)
        m1 = closed_form_moments(meq).m1
        z = complex(rng.uniform(0.01, 3.0) * m1, 10 ** rng.uniform(-9, -1) * m1)
        z_near = z * (1.0 + 10 ** rng.uniform(-4, -1))
        m0 = newton_lilypads(meq, z_near)
        cert = is_in_basin(meq, z, m0)
        if cert is None:
            continue
        fresh, reused = SolveStats(), SolveStats()
        m_fresh = newton_raphson(meq, z, m0, stats=fresh)
        m_reused = newton_raphson(meq, z, m0, stats=reused, certificate=cert)
        assert (m_reused.real, m_reused.imag) == (m_fresh.real, m_fresh.imag)
        assert reused.newton_iterations == fresh.newton_iterations
        checked += 1
    assert checked >= 100


def test_batched_step_matches_the_scalar_step():
    # each batched point is the step newton_lilypads tries first from a proxy
    # (z_c, m_c): the certificate decisions agree away from h = 1/2, and the
    # certified points land on the same root
    rng = np.random.default_rng(61)
    nls = list(Nonlinearity)
    certified = rejected = 0
    for _ in range(60):
        spec = NetworkSpec(
            layers=tuple(
                LayerSpec(
                    nonlinearity=nls[rng.integers(0, len(nls))],
                    sigma_w_sq=float(rng.uniform(0.5, 2.5)),
                    width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
                )
                for _ in range(int(rng.integers(1, 17)))
            )
        )
        meq = master_from_spec(spec)
        m1 = closed_form_moments(meq).m1
        y = 10 ** rng.uniform(-9, -3) * m1
        z_c = complex(rng.uniform(0.01, 3.0) * m1, y)
        m_c = newton_lilypads(meq, z_c)
        z = z_c.real * 10 ** rng.uniform(-1.0, 1.0, 40) + 1j * y
        certs = basin_certificates(meq, z, m_c)
        ok = certs.certified
        stats = SolveStats()
        ms = newton_lockstep(meq, z[ok], m_c, certs.value[ok], certs.deriv[ok], stats=stats)
        batched = dict(zip(np.flatnonzero(ok).tolist(), ms.tolist()))
        for i, z_i in enumerate(z.tolist()):
            cert = is_in_basin(meq, z_i, m_c)
            if abs(certs.h[i] - 0.5) > 1e-12:
                assert (cert is not None) == bool(ok[i]), (spec, z_i, certs.h[i])
            if cert is None or not ok[i]:
                rejected += 1
                continue
            certified += 1
            assert certs.h[i] == pytest.approx(cert.h, rel=1e-9)
            m = newton_lilypads(meq, z_i, proxy=(z_c, m_c))
            assert abs(batched[i] - m) <= 1e-12 * (1.0 + abs(m)), (spec, z_i)
    assert certified > 500 and rejected > 100


def test_newton_lockstep_raises_newton_raphsons_errors(monkeypatch):
    # a start that needs several steps, allowed one, raises the scalar path's
    # error naming the first such point; exact roots take zero steps
    meq = mp_meq()
    z = np.array([10j, 2 + 1j, 0.5 + 0.5j])
    m0 = np.array([0j, -0.5j, -1 + 1j])
    counted = SolveStats()
    certs = basin_certificates(meq, z, m0, counted)
    assert certs.certified.all()
    certified = int(np.count_nonzero(certs.certified))
    assert (counted.certificate_tests, counted.rejected_tests) == (z.size, z.size - certified)
    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "_MAX_NEWTON_ITERS", 1)
        with pytest.raises(SolverError, match="no convergence within 1 iterations") as info:
            newton_lockstep(meq, z, m0, certs.value, certs.deriv)
        assert info.value.z == 10j
        with pytest.raises(SolverError, match="no convergence within 1 iterations"):
            newton_raphson(meq, 10j, 0j)
    batched, scalar = SolveStats(), SolveStats()
    ms = newton_lockstep(meq, z, m0, certs.value, certs.deriv, stats=batched)
    for z_i, m0_i, m_i in zip(z.tolist(), m0.tolist(), ms.tolist()):
        assert abs(m_i - newton_raphson(meq, z_i, m0_i, stats=scalar)) <= 1e-14
    assert ms[2] == m0[2]
    assert batched.newton_iterations == scalar.newton_iterations
    assert batched.basins == z.size


def test_lockstep_stop_rule_matches_newton_raphson_on_grid_batches(monkeypatch):
    # the batched stop rule takes its moduli with np.abs, the scalar one with
    # hypot; on every batched point of fixed-seed random grids both stop after
    # the same number of steps at the same root
    batches = []
    original = spectrum_module.newton_lockstep

    def recording(meq, z, m0, value, deriv, stats=None):
        batches.append((meq, z, m0, value, deriv))
        return original(meq, z, m0, value, deriv, stats)

    monkeypatch.setattr("freespectra.spectrum.newton_lockstep", recording)
    rng = np.random.default_rng(2024)
    nls = list(Nonlinearity)
    for _ in range(8):
        spec = NetworkSpec(
            layers=tuple(
                LayerSpec(
                    nonlinearity=nls[rng.integers(0, len(nls))],
                    sigma_w_sq=float(rng.uniform(0.5, 2.5)),
                    width_ratio=float(rng.choice([0.5, 1.0, 2.0])),
                )
                for _ in range(int(rng.integers(1, 17)))
            )
        )
        meq = master_from_spec(spec)
        density_grid(meq, xs=default_grid(meq, points=400), y=float(10 ** rng.uniform(-9, -3)))
    points = 0
    for meq, z, m0, value, deriv in batches:
        batched = SolveStats()
        ms = newton_lockstep(meq, z, m0, value, deriv, stats=batched)
        scalar_total = 0
        for i in range(z.size):
            z_i, m0_i = complex(z[i]), complex(m0[i])
            cert = is_in_basin(meq, z_i, m0_i)
            assert cert is not None
            scalar, alone = SolveStats(), SolveStats()
            m = newton_raphson(meq, z_i, m0_i, stats=scalar, certificate=cert)
            newton_lockstep(meq, z[i : i + 1], m0[i : i + 1], value[i : i + 1],
                            deriv[i : i + 1], stats=alone)
            assert alone.newton_iterations == scalar.newton_iterations, (z_i, m0_i)
            assert abs(complex(ms[i]) - m) <= 1e-14 * abs(m), (z_i, m0_i)
            scalar_total += scalar.newton_iterations
        assert batched.newton_iterations == scalar_total
        points += z.size
    assert points >= 2000
