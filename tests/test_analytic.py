"""Closed-form equal-mix states and the local barrier-edge profiles."""

import math
import os
import threading
import warnings

import numpy as np
import pytest
from scipy import special as sp

from diraclinear import analytic
from diraclinear import (
    ConsistencyError,
    LocalProfileCoefficients,
    bessel_i0,
    bessel_k0,
    equal_mix_energy,
    equal_mix_solution,
    equal_mix_wavefunction,
    scalar_asymptote,
    vector_profile_continuum_edge,
    vector_profile_turning_point,
    x_of_r,
)

M, LAM = 1.0, 0.2
E1 = equal_mix_energy(M, LAM, 1)


def test_ground_state_energy_quarkonium_scale():
    # lambda = 0.2 GeV^2, m = 1 GeV gives E = 1.5828 GeV
    assert abs(E1 - 1.5828) < 5e-4


def test_energy_eigencondition_residual():
    for i in (1, 2, 3):
        e = equal_mix_energy(M, LAM, i)
        beta = abs(__import__("diraclinear").airy_ai_zero(i))
        lhs = (e * e - M * M) / (LAM * (M + e)) ** (2.0 / 3.0)
        assert abs(lhs - beta) < 1e-9


def test_second_level_against_bracketing_oracle():
    # independent bisection on the eigencondition with the known second zero
    beta2 = 4.08795

    def f(e):
        return (e * e - M * M) - beta2 * (LAM * (M + e)) ** (2.0 / 3.0)

    lo, hi = 1.0, 5.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert equal_mix_energy(M, LAM, 2) == pytest.approx(0.5 * (lo + hi), abs=1e-5)


def test_energy_weak_slope_limit():
    e = equal_mix_energy(1.0, 1e-8, 1)
    assert 0 < e - 1.0 < 1e-4


@pytest.mark.parametrize("m, lam", [(math.inf, LAM), (M, math.inf), (math.nan, LAM), (M, math.nan)])
def test_energy_rejects_non_finite_parameters(m, lam):
    with pytest.raises(ValueError):
        equal_mix_energy(m, lam, 1)


def test_energies_increase_with_zero_index():
    es = [equal_mix_energy(M, LAM, i) for i in range(1, 7)]
    assert all(b > a for a, b in zip(es, es[1:]))


def test_solution_record_fields():
    sol = equal_mix_solution(M, LAM, 1)
    assert sol.E == E1
    assert sol.q2 == pytest.approx(M * M - E1 * E1)
    assert sol.q2 < 0
    assert sol.scale == pytest.approx((LAM * (M + E1)) ** (1.0 / 3.0))
    assert sol.zero_index == 1


def test_wavefunction_ground_state_shape():
    r = np.linspace(0.0, 12.0, 4801)
    sol = equal_mix_wavefunction(M, LAM, E1, r)
    assert sol.node_count == 0
    # exactly one interior maximum
    up = np.diff(sol.u)
    drops = np.nonzero((up[:-1] > 0) & (up[1:] < 0))[0]
    assert len(drops) == 1
    # u(0) and v(0) vanish
    peak = np.max(np.abs(sol.u))
    assert abs(sol.u[0]) <= 1e-6 * peak
    assert sol.v[0] == 0.0
    # normalized on the grid
    assert np.trapezoid(sol.u**2 + sol.v**2, r) == pytest.approx(1.0, rel=1e-12)


def test_wavefunction_oscillates_inside_decays_outside():
    e3 = equal_mix_energy(M, LAM, 3)
    r = np.linspace(0.0, 14.0, 5601)
    sol = equal_mix_wavefunction(M, LAM, e3, r)
    r1 = (e3 - M) / LAM
    assert sol.node_count == 2
    crossings = r[1:-1][np.sign(sol.u[1:-1]) * np.sign(sol.u[2:]) < 0]
    assert np.all(crossings < r1)
    tail = sol.u[r > r1]
    assert np.all(np.diff(tail) <= 0)


def test_wavefunction_rejects_non_eigenvalue():
    r = np.linspace(0.0, 12.0, 1201)
    with pytest.raises(ConsistencyError):
        equal_mix_wavefunction(M, LAM, 1.7, r)


def test_wavefunction_second_order_ode_residual():
    r = np.linspace(0.05, 10.0, 9001)
    sol = equal_mix_wavefunction(M, LAM, E1, r)
    h = r[1] - r[0]
    upp = (sol.u[2:] - 2 * sol.u[1:-1] + sol.u[:-2]) / h**2
    rm, um = r[1:-1], sol.u[1:-1]
    residual = upp - (M + E1) * (M - E1 + LAM * rm) * um
    assert np.max(np.abs(residual)) <= 1e-5 * np.max(np.abs(sol.u))


def test_wavefunction_first_order_system_residuals():
    r = np.linspace(0.05, 10.0, 9001)
    sol = equal_mix_wavefunction(M, LAM, E1, r)
    h = r[1] - r[0]
    up = (sol.u[2:] - sol.u[:-2]) / (2 * h)
    vp = (sol.v[2:] - sol.v[:-2]) / (2 * h)
    rm, um, vm = r[1:-1], sol.u[1:-1], sol.v[1:-1]
    res1 = up - um / rm - (M + E1) * vm
    res2 = vp + vm / rm + (E1 - M - LAM * rm) * um
    scale = max(np.max(np.abs(sol.u)), np.max(np.abs(sol.v)))
    assert np.max(np.abs(res1)) <= 1e-5 * scale
    assert np.max(np.abs(res2)) <= 1e-5 * scale


def test_wavefunction_origin_check_reads_the_airy_pass_on_a_grid_from_0(monkeypatch):
    # where r[0] = 0 the Airy pass's first point is the origin's argument;
    # any other grid evaluates Ai there on its own
    calls = []
    real = analytic.airy_ai
    monkeypatch.setattr(analytic, "airy_ai", lambda x: calls.append(x) or real(x))
    equal_mix_wavefunction(M, LAM, E1, np.linspace(0.0, 12.0, 1201))
    with pytest.raises(ConsistencyError):
        equal_mix_wavefunction(M, LAM, 1.7, np.linspace(0.0, 12.0, 1201))
    assert calls == []
    equal_mix_wavefunction(M, LAM, E1, np.linspace(0.05, 12.0, 1201))
    assert len(calls) == 1


@pytest.mark.parametrize("m, lam", [(1.0, 0.2), (0.1, 3.0), (5.0, 0.05)])
def test_airy_pass_at_r_0_has_the_bits_of_airy_ai_at_the_origin(m, lam):
    # levels 1-60 put the origin's argument on both sides of the Taylor
    # nodes' edge at -12 (a_60 is about -42)
    from diraclinear.specfun import _airy

    r = np.linspace(0.0, 10.0, 101)
    for level in range(1, 61):
        e = equal_mix_energy(m, lam, level)
        scale, shift = (lam * (m + e)) ** (1.0 / 3.0), (m - e) / lam
        (u,) = _airy(scale * (r + shift), "test", (False,))
        assert u[0] == analytic.airy_ai(scale * shift)


def test_eigencondition_airy_value_at_origin():
    from diraclinear import airy_ai

    for i in (1, 2, 4):
        sol = equal_mix_solution(M, LAM, i)
        xi0 = sol.scale * sol.q2 / (LAM * (M + sol.E))
        assert abs(airy_ai(xi0)) <= 1e-8


def test_airy_argument_sign_flips_at_turning_point():
    sol = equal_mix_solution(M, LAM, 1)
    r1 = (sol.E - M) / LAM
    shift = sol.q2 / (LAM * (M + sol.E))
    for r in (0.5 * r1, 0.99 * r1):
        assert sol.scale * (r + shift) < 0
    for r in (1.01 * r1, 3.0 * r1):
        assert sol.scale * (r + shift) > 0


def test_scalar_asymptote_values():
    assert scalar_asymptote(0.2, 1.0, 0.0) == 1.0
    assert scalar_asymptote(0.2, 1.0, 3.0) == pytest.approx(math.exp(-0.9), rel=1e-15)
    assert scalar_asymptote(0.2, 1.0, 3.0) == pytest.approx(0.40657, abs=1e-5)


def test_scalar_asymptote_log_derivative():
    h = 1e-6
    for r in (0.7, 2.5, 6.0):
        num = (math.log(scalar_asymptote(0.2, 2.0, r + h))
               - math.log(scalar_asymptote(0.2, 2.0, r - h))) / (2 * h)
        assert num == pytest.approx(-0.2 * r, rel=1e-7)


def test_x_of_r_anchors():
    e, m, lam = 1.5828, 1.0, 0.2
    r1, r2 = (e - m) / lam, (e + m) / lam
    assert x_of_r(m, e, lam, r2) == pytest.approx(0.0, abs=1e-12)
    assert x_of_r(m, e, lam, r1) == pytest.approx(2.0 * m, rel=1e-12)
    assert x_of_r(m, e, lam, 0.0) == e + m


def test_continuum_edge_profile():
    e, m, amp = 1.5828, 1.0, 1.3
    assert vector_profile_continuum_edge(e, m, amp, 0.0) == pytest.approx(amp)
    # continuity across the edge
    assert vector_profile_continuum_edge(e, m, amp, -1e-12) == pytest.approx(amp, rel=1e-6)
    # first oscillation zero on the free side at x = -(E+m)(2.404826/2)^2
    x_zero = -(e + m) * (2.404826 / 2.0) ** 2
    assert x_zero == pytest.approx(-3.734, abs=1e-3)
    assert abs(vector_profile_continuum_edge(e, m, amp, x_zero)) < 1e-5 * amp
    assert (vector_profile_continuum_edge(e, m, amp, 1.3 * x_zero)
            * vector_profile_continuum_edge(e, m, amp, 0.7 * x_zero)) < 0
    # barrier side is monotone increasing
    xs = np.linspace(0.0, 2.0, 101)
    assert np.all(np.diff(vector_profile_continuum_edge(e, m, amp, xs)) > 0)


def test_turning_point_profile():
    e, m = 1.5828, 1.0
    xs = np.linspace(0.5, 2.5, 41)
    grow = vector_profile_turning_point(e, m, LocalProfileCoefficients(B=2.0, C=0.0), xs)
    assert np.all(np.diff(grow) > 0)
    decay = vector_profile_turning_point(e, m, LocalProfileCoefficients(B=0.0, C=1.0), xs)
    assert np.all(np.diff(decay) < 0)
    # at x = 2m the I0 argument is 2*sqrt(2m/(E-m))
    arg = 2.0 * math.sqrt(2.0 / (e - m))
    assert arg == pytest.approx(3.70497, abs=1e-4)
    val = vector_profile_turning_point(e, m, LocalProfileCoefficients(B=2.0, C=0.5), 2.0)
    assert val == pytest.approx(2.0 * bessel_i0(arg) + 0.5 * bessel_k0(arg), rel=1e-14)


def test_turning_point_profile_domain():
    with pytest.raises(ValueError):
        vector_profile_turning_point(1.5828, 1.0, LocalProfileCoefficients(), 0.0)
    with pytest.raises(ValueError):
        vector_profile_turning_point(1.5828, 1.0, LocalProfileCoefficients(), -1.0)
    with pytest.raises(ValueError):
        vector_profile_turning_point(0.9, 1.0, LocalProfileCoefficients(), 1.0)


def test_profile_coefficients_validation():
    with pytest.raises(ValueError):
        LocalProfileCoefficients(A=0.0, B=0.0, C=0.0)
    with pytest.raises(ValueError):
        LocalProfileCoefficients(A=math.nan)


# ---------------------------------------------------------------------------
# Bad scalars are refused by name, before any special function or thread


def _forbid_special_functions(monkeypatch):
    """Fail the test if an Airy or Bessel evaluation or a thread starts."""
    def ran(*args, **kwargs):
        raise AssertionError("a special function or a thread ran before the refusal")

    for name in ("_airy", "_bessel_i0_k0", "_bessel_j0_i0", "airy_ai", "bessel_j0",
                 "bessel_i0"):
        monkeypatch.setattr(analytic, name, ran)
    monkeypatch.setattr(threading.Thread, "start", ran)


@pytest.mark.parametrize("E, m, A, match", [
    (-2.0, 1.0, 1.0, r"E \+ m > 0"),
    (-1.0, 1.0, 1.0, r"E \+ m > 0"),
    (1.6, math.inf, 1.0, "finite m"),
    (math.nan, 1.0, 1.0, "finite E"),
    (1.6, 1.0, math.nan, "finite A"),
    (1.6, 1.0, -math.inf, "finite A"),
])
def test_continuum_edge_refuses_bad_scalars(monkeypatch, E, m, A, match):
    _forbid_special_functions(monkeypatch)
    with pytest.raises(ValueError, match=match):
        vector_profile_continuum_edge(E, m, A, [-1.0, -0.5, 0.5])


@pytest.mark.parametrize("E, m, match", [
    (math.inf, 1.0, "finite E"),
    (math.nan, 1.0, "finite E"),
    (1.6, -math.inf, "finite m"),
    (0.9, 1.0, "E > m"),
])
def test_turning_point_refuses_bad_scalars(monkeypatch, E, m, match):
    _forbid_special_functions(monkeypatch)
    with pytest.raises(ValueError, match=match):
        vector_profile_turning_point(E, m, LocalProfileCoefficients(), [0.5, 1.0])


@pytest.mark.parametrize("profile, args, match", [
    (vector_profile_continuum_edge, (1.6, 1.0, 1.0, [math.nan]),
     r"^continuum-edge profile requires finite x/\(E \+ m\)$"),
    # x/(E + m) overflows to inf
    (vector_profile_continuum_edge, (1e-300, 1e-300, 1.0, [1e10]),
     r"^continuum-edge profile requires finite x/\(E \+ m\)$"),
    # x/(E - m) underflows to 0
    (vector_profile_turning_point, (3.0, 1.0, LocalProfileCoefficients(), [5e-324, 1.0]),
     r"^turning-point profile requires x/\(E - m\) > 0"),
    (vector_profile_turning_point, (3.0, 1.0, LocalProfileCoefficients(), [1.0, math.nan]),
     r"^turning-point profile requires finite x/\(E - m\)$"),
    (vector_profile_turning_point, (1.0 + 1e-15, 1.0, LocalProfileCoefficients(), [1e300]),
     r"^turning-point profile requires finite x/\(E - m\)$"),
])
def test_profiles_refuse_bad_x_by_name_without_a_warning(profile, args, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            profile(*args)


@pytest.mark.parametrize("m, lam, E, match", [
    (-1.0, LAM, E1, "mass m"),
    (0.0, LAM, E1, "mass m"),
    (M, -0.2, E1, "slope lam"),
    (M, 0.0, E1, "slope lam"),
    (M, math.inf, E1, "slope lam"),
    (M, LAM, math.inf, "finite E"),
    (M, LAM, math.nan, "finite E"),
])
def test_wavefunction_refuses_bad_scalars(monkeypatch, m, lam, E, match):
    _forbid_special_functions(monkeypatch)
    with pytest.raises(ValueError, match=match):
        equal_mix_wavefunction(m, lam, E, np.linspace(0.0, 12.0, 1201))


# ---------------------------------------------------------------------------
# The profiles keep the bits of serial scipy calls


def _masked_edge(E, m, A, x):
    """The continuum-edge profile from serial scipy calls on masked
    arguments, each branch clipped to its sign: the bit-for-bit reference."""
    scaled = x / (E + m)
    free = x < 0
    out = np.empty_like(scaled)
    out[free] = sp.j0(np.abs(2.0 * np.sqrt(np.abs(np.minimum(scaled[free], 0.0)))))
    out[~free] = sp.i0(np.abs(2.0 * np.sqrt(np.maximum(scaled[~free], 0.0))))
    return A * out


def _serial_turning_point(E, m, B, C, x):
    arg = 2.0 * np.sqrt(x / (E - m))
    return B * sp.i0(np.abs(arg)) + C * sp.k0(arg)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_profiles_have_the_bits_of_serial_scipy_calls(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    rng = np.random.default_rng(34)
    e, m = 1.6, 1.0
    x = rng.permutation(np.concatenate((np.linspace(-6.0, 6.0, 49_996),
                                        (-0.0, 0.0, 1e-300, -1e-300))))
    got = vector_profile_continuum_edge(e, m, 1.3, x)
    assert got.tobytes() == _masked_edge(e, m, 1.3, x).tobytes()
    xt = rng.permutation(np.concatenate((np.linspace(1e-3, 6.0, 49_999), (1e-300,))))
    got = vector_profile_turning_point(e, m, LocalProfileCoefficients(B=1.0, C=0.5), xt)
    assert got.tobytes() == _serial_turning_point(e, m, 1.0, 0.5, xt).tobytes()
    for point in (-0.0, 0.0, 1e-300, -1e-300, -2.5, 2.5):
        got = vector_profile_continuum_edge(e, m, 1.3, point)
        assert type(got) is float
        assert got == float(_masked_edge(e, m, 1.3, np.array([point]))[0])
    got = vector_profile_turning_point(e, m, LocalProfileCoefficients(B=1.0, C=0.5), 1e-300)
    assert type(got) is float
    assert got == float(_serial_turning_point(e, m, 1.0, 0.5, np.array([1e-300]))[0])


@pytest.mark.parametrize("call, match", [
    (lambda: scalar_asymptote(1.0, 0.2, [math.nan]), "^scalar_asymptote requires finite r$"),
    (lambda: scalar_asymptote(1.0, 0.2, [-1.0]), "^scalar_asymptote requires r >= 0$"),
    (lambda: scalar_asymptote(math.inf, 0.2, 1.0), "^scalar_asymptote requires finite slope lam"),
    (lambda: x_of_r(1.0, 1.5, 0.2, [math.nan, -1.0]), "^x_of_r requires finite r$"),
    (lambda: x_of_r(1.0, 1.5, 0.2, [1.0, -1.0]), "^x_of_r requires r >= 0$"),
    (lambda: x_of_r(1.0, math.nan, 0.2, 1.0), "^x_of_r requires finite E"),
], ids=["asymptote-nan", "asymptote-negative", "asymptote-lam", "x-nan", "x-negative", "x-E"])
def test_radius_functions_refuse_bad_inputs_by_name(call, match):
    # scalar_asymptote gave [nan] and x_of_r [nan, 2.7]
    with pytest.raises(ValueError, match=match):
        call()


def test_scalar_asymptote_far_out_is_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scalar_asymptote(1.0, 0.2, [1e300]).tolist() == [0.0]
        assert scalar_asymptote(1.0, 0.2, 1e300) == 0.0


def test_equal_mix_scale_of_a_huge_slope_is_finite():
    sol = equal_mix_solution(1.0, 1e300, 1)
    # [lambda (m + E)]^(1/3) overflowed to inf in the product
    assert sol.scale == pytest.approx(1e100 * (1.0 + sol.E) ** (1.0 / 3.0))


@pytest.mark.parametrize("index", [0, 1.0, True, -3])
def test_equal_mix_energy_refuses_a_bad_zero_index_by_name(index):
    with pytest.raises(ValueError, match="^equal_mix_energy: zero_index must be an integer >= 1"):
        equal_mix_energy(1.0, 0.2, index)
