"""RK4 shooting solver: integration, eigenvalue search, quasi-bound estimate."""

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from diraclinear import (
    BracketError,
    ConsistencyError,
    PotentialMix,
    RadialGrid,
    ScanError,
    equal_mix_energy,
    equal_mix_wavefunction,
    estimate_quasibound_energy,
    find_bound_state,
    integrate_radial,
    shooting,
    suggest_bracket,
)
from diraclinear import _kernels
from diraclinear._kernels import rk4_path
from diraclinear.cli import main

M = 1.0
LAM = 0.2
E1 = equal_mix_energy(M, LAM, 1)
EQUAL = PotentialMix(LAM, 0.5)
VECTOR = PotentialMix(LAM, 0.0)
SCALAR = PotentialMix(LAM, 1.0)
GRID = RadialGrid(r_min=25e-6, r_max=25.0, n=20000)


def test_integrate_matches_airy_form():
    grid = RadialGrid(r_min=12e-6, r_max=12.0, n=6000)
    sol = integrate_radial(M, EQUAL, -1, E1, grid)
    ana = equal_mix_wavefunction(M, LAM, E1, sol.r)
    ipk = int(np.argmax(np.abs(ana.u)))
    scale = sol.u[ipk] / ana.u[ipk]
    dev = np.max(np.abs(sol.u - scale * ana.u)) / np.max(np.abs(scale * ana.u))
    assert dev < 1e-4


def test_integrate_pure_vector_oscillates_past_continuum_edge():
    grid = RadialGrid(r_min=30e-6, r_max=30.0, n=24000)
    sol = integrate_radial(M, VECTOR, -1, 1.5828, grid)
    r2 = (1.5828 + M) / LAM
    tail = np.sign(sol.u[sol.r > r2])
    tail = tail[tail != 0]
    assert np.count_nonzero(tail[1:] * tail[:-1] < 0) >= 3


def test_launch_powers_by_channel():
    # near the origin the leading component scales like r^|k|
    grid = RadialGrid(r_min=0.01, r_max=5.0, n=10000)
    for k, component, power in ((-1, "u", 1), (-2, "u", 2), (1, "v", 1), (2, "v", 2)):
        sol = integrate_radial(M, EQUAL, k, 1.5, grid)
        lead = getattr(sol, component)
        i = 400  # r grows 20x from r_min
        ratio = lead[i] / lead[0]
        assert ratio == pytest.approx((sol.r[i] / sol.r[0]) ** power, rel=0.05)


def test_integrate_validates_inputs():
    with pytest.raises(ValueError):
        integrate_radial(M, EQUAL, 0, 1.5, GRID)
    with pytest.raises(ValueError):
        integrate_radial(M, EQUAL, -1, float("nan"), GRID)


def test_launch_underflow_raises():
    # r_min^|k| underflows to 0 for |k| >~ 70: every shot would be all zeros
    grid = RadialGrid(r_min=25e-6, r_max=25.0, n=500)
    for k in (-75, 75):
        with pytest.raises(ValueError, match="underflows"):
            integrate_radial(M, VECTOR, k, 1.5, grid)
    # the estimator's own grids start where r_min^|k| is a normal double
    with pytest.raises(ScanError, match="no Dirichlet sign change"):
        estimate_quasibound_energy(M, VECTOR, -75, grid)


def test_estimator_grids_launch_above_the_underflow(monkeypatch):
    # at k = 57 an r_min of 1e-6 r_mid puts r_min^|k| below the least
    # double on some scan energies' grids: the estimator's grids start at
    # 2^(-1000/|k|) or above, so the WKB-started scan and the cold one shoot
    # only launches that do not underflow, and agree
    mix = PotentialMix(31.45, 0.041)
    warm = estimate_quasibound_energy(58.40, mix, 57, RadialGrid(25e-6, 25.0, 440))
    monkeypatch.setattr(shooting, "_scan_index", lambda *args: None)
    cold = estimate_quasibound_energy(58.40, mix, 57, RadialGrid(25e-6, 25.0, 440))
    assert warm == cold == pytest.approx(113.028497715, abs=1e-8)
    # at k = -1000 and lambda = 1e3 the floor, 1/2, would lie past r_mid:
    # r_min stops at r_mid/2, and the launch that underflows there is refused
    with pytest.raises(ValueError, match="underflows to zero"):
        estimate_quasibound_energy(1.0, PotentialMix(1e3, 0.1), -1000, GRID)


@pytest.mark.parametrize("steps, nodes", [
    (0, 0), (-5, 0), (2.5, 0), (True, 0), ("64", 0), (64.0, 0),
    (64, -1), (64, 1.5), (64, None), (64, False),
])
def test_suggest_bracket_rejects_bad_steps_and_nodes(monkeypatch, steps, nodes):
    # refused before any shot: steps = 0 would divide by zero, a negative
    # steps would never end the scan's top loop, and fractional steps or
    # nodes would scan energies or counts that no state has
    monkeypatch.setattr(shooting, "integrate_radial", None)
    with pytest.raises(ValueError, match="must be an integer"):
        suggest_bracket(M, EQUAL, -1, GRID, nodes=nodes, steps=steps)


def test_suggest_bracket_takes_numpy_integers():
    got = suggest_bracket(M, EQUAL, -1, GRID, nodes=np.int64(1), steps=np.int32(64))
    assert got == suggest_bracket(M, EQUAL, -1, GRID, nodes=1, steps=64)
    assert all(type(e) is float for e in got)


def test_integrate_reports_divergence_as_data():
    # stiff slope: the growing tail overflows well before r_max
    mix = PotentialMix(4.0, 1.0)
    sol = integrate_radial(M, mix, -1, 2.0, GRID)
    assert sol.diverged
    assert sol.divergence_sign in (-1, 1)
    assert len(sol.u) == GRID.n + 1
    assert np.isnan(sol.u[-1])
    assert np.isfinite(sol.node_count)


def _reference_rk4(m, lam, s, k, E, r0, h, n, u0, v0):
    """Plain per-step RK4 with the kernel's documented stop/sign contract."""
    def rhs(r, uu, vv):
        p = E + m - (1.0 - 2.0 * s) * lam * r
        q = E - m - lam * r
        return -(k / r) * uu + p * vv, (k / r) * vv - q * uu

    u = np.full(n + 1, np.nan)
    v = np.full(n + 1, np.nan)
    u[0], v[0] = u0, v0
    uu, vv = u0, v0
    for i in range(n):
        r = r0 + h * i
        a = rhs(r, uu, vv)
        b = rhs(r + h / 2, uu + h / 2 * a[0], vv + h / 2 * a[1])
        c = rhs(r + h / 2, uu + h / 2 * b[0], vv + h / 2 * b[1])
        d = rhs(r + h, uu + h * c[0], vv + h * c[1])
        un = uu + h / 6 * (a[0] + 2 * b[0] + 2 * c[0] + d[0])
        vn = vv + h / 6 * (a[1] + 2 * b[1] + 2 * c[1] + d[1])
        if not (abs(un) <= 1e250 and abs(vn) <= 1e250):
            last = un if np.isfinite(un) and un != 0.0 else uu
            return u, v, i, float(np.sign(last))
        uu, vv = un, vn
        u[i + 1], v[i + 1] = un, vn
    return u, v, n, 0.0


def _rk4_steps(m, lam, s, k, E, r, h, u, v):
    """One RK4 step of the radial system from every (r_i, u_i, v_i) at
    once: the reference for T_i y_i, the step matrices applied."""
    def rhs(r, uu, vv):
        p = E + m - (1.0 - 2.0 * s) * lam * r
        q = E - m - lam * r
        return -(k / r) * uu + p * vv, (k / r) * vv - q * uu

    a = rhs(r, u, v)
    b = rhs(r + h / 2, u + h / 2 * a[0], v + h / 2 * a[1])
    c = rhs(r + h / 2, u + h / 2 * b[0], v + h / 2 * b[1])
    d = rhs(r + h, u + h * c[0], v + h * c[1])
    return (u + h / 6 * (a[0] + 2 * b[0] + 2 * c[0] + d[0]),
            v + h / 6 * (a[1] + 2 * b[1] + 2 * c[1] + d[1]))


@pytest.mark.parametrize("args, diverges", [
    # outward bound-state shot at the equal-mix ground state
    ((M, LAM, 0.5, -1, E1, 8e-6, (8.0 - 8e-6) / 1000, 1000, 8e-6, -1e-11), False),
    # stiff pure-scalar shot whose growing tail passes the overflow cap
    ((M, 4.5, 1.0, -1, 6.0, 25e-6, (25.0 - 25e-6) / 2000, 2000, 25e-6, -1e-10), True),
    # the same shot cut where only its last entry has passed the cap
    ((M, 4.5, 1.0, -1, 6.0, 25e-6, (25.0 - 25e-6) / 2000, 1282, 25e-6, -1e-10), True),
    # inward tail rebuild: negative step from a tiny seed
    ((M, LAM, 0.5, -1, E1, 12.0, -0.008, 1000, 1e-30, -1e-30), False),
], ids=["outward-bound", "outward-overflow", "overflow-at-the-end", "inward"])
def test_rk4_path_matches_per_step_reference(args, diverges):
    ur, vr, stop_r, sign_r = _reference_rk4(*args)
    n = args[7]
    # the first shot on a grid builds its step matrices directly; the second
    # adds the rest of the grid's stack, and the third evaluates the stack
    for _ in range(3):
        u, v, stop, sign = rk4_path(*args)
        assert len(u) == len(v) == n + 1
        assert (stop < n) == diverges
        assert stop == stop_r and sign == sign_r
        assert sign in ((-1.0, 1.0) if diverges else (0.0,))
        np.testing.assert_array_equal(np.isnan(u), np.isnan(ur))
        np.testing.assert_array_equal(np.isnan(v), np.isnan(vr))
        assert np.all(np.isnan(u[stop + 1:])) and np.all(np.isfinite(u[:stop + 1]))
        # relative to the size the solution has reached so far, which keeps
        # zero crossings and growing tails from hiding or inflating a deviation
        fin = slice(0, stop + 1)
        scale = np.maximum.accumulate(np.hypot(ur[fin], vr[fin]))
        assert np.max(np.abs(u[fin] - ur[fin]) / scale) <= 1e-12
        assert np.max(np.abs(v[fin] - vr[fin]) / scale) <= 1e-12


def test_find_bound_state_equal_mix():
    sol = find_bound_state(M, EQUAL, -1, (1.1, 2.5), GRID)
    assert abs(sol.E - 1.5828) < 2e-3
    assert sol.node_count == 0
    assert abs(sol.u[-1]) <= 1e-3 * np.max(np.abs(sol.u))
    assert np.trapezoid(sol.u**2 + sol.v**2, sol.r) == pytest.approx(1.0, rel=1e-10)


def test_find_bound_state_matches_analytic_wavefunction():
    # the ground and first excited levels, tails spliced at r1
    for nodes, bracket in ((0, (1.1, 2.5)), (1, (1.1, 2.2))):
        sol = find_bound_state(M, EQUAL, -1, bracket, GRID, nodes=nodes)
        ana = equal_mix_wavefunction(M, LAM, equal_mix_energy(M, LAM, nodes + 1), sol.r)
        peak = np.max(np.abs(ana.u))
        assert np.max(np.abs(sol.u - ana.u)) / peak < 1e-7
        assert np.max(np.abs(sol.v - ana.v)) / peak < 1e-7


def test_find_bound_state_pure_scalar():
    bracket = suggest_bracket(M, SCALAR, -1, GRID)
    sol = find_bound_state(M, SCALAR, -1, bracket, GRID)
    assert M < sol.E < M + 3.0
    assert sol.node_count == 0
    # the raw shot at the converged energy satisfies the second-order
    # pure-scalar equation under finite differencing
    raw = integrate_radial(M, SCALAR, -1, sol.E, GRID)
    r, u, h, e = raw.r, raw.u, GRID.h, raw.E
    upp = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
    up = (u[2:] - u[:-2]) / (2 * h)
    rm, um = r[1:-1], u[1:-1]
    res = ((e + M + LAM * rm) * upp - LAM * up + LAM * um / rm
           + (e + M + LAM * rm) ** 2 * (e - M - LAM * rm) * um)
    win = (rm > 0.05) & (rm < 12.0)
    peak = np.max(np.abs(u[np.isfinite(u)]))
    assert np.max(np.abs(res[win])) <= 1e-4 * peak


def test_find_bound_state_scalar_tail_is_gaussian():
    # log-derivative of the tail approaches -lambda*r once E >> m; with
    # lam = 4.5 the next-order m/(lambda r) correction sits inside 5%
    lam = 4.5
    mix = PotentialMix(lam, 1.0)
    sol = find_bound_state(M, mix, -1, suggest_bracket(M, mix, -1, GRID), GRID)
    r1 = (sol.E - M) / lam
    seg = (sol.r >= 2 * r1) & (sol.r <= 3 * r1)
    r, u = sol.r[seg], sol.u[seg]
    dln = np.gradient(np.log(u), r)
    assert np.max(np.abs(dln / (-lam * r) - 1.0)) < 0.05


def test_scalar_tail_gaussian_at_reference_slope():
    # at lam = 0.2 the m/(lambda*r) correction is still sizable inside the
    # grid, but the slope is Gaussian-dominated: it tracks -lambda*r within
    # a bounded factor and doubles when r doubles
    sol = find_bound_state(M, SCALAR, -1, suggest_bracket(M, SCALAR, -1, GRID), GRID)

    def mean_slope(a, b):
        seg = (sol.r >= a) & (sol.r <= b)
        return np.mean(np.gradient(np.log(sol.u[seg]), sol.r[seg]))

    ratio_4 = mean_slope(3.9, 4.1) / (-LAM * 4.0)
    ratio_8 = mean_slope(7.9, 8.1) / (-LAM * 8.0)
    assert 1.0 < ratio_8 < ratio_4 + 0.1 < 1.45
    assert mean_slope(7.9, 8.1) / mean_slope(3.9, 4.1) == pytest.approx(2.0, rel=0.15)


def test_find_bound_state_rejects_quasibound_mix():
    with pytest.raises(ValueError, match="estimate_quasibound_energy"):
        find_bound_state(M, VECTOR, -1, (1.1, 2.5), GRID)


def test_find_bound_state_bracket_without_eigenvalue():
    for bracket, nodes, counts in (
        ((1.05, 1.2), None, "0..0"),  # below the ground level
        ((1.1, 1.6), 1, "0..1"),  # holds the ground level, not the 1-node one
    ):
        with pytest.raises(BracketError, match=f"spans node counts {counts}, which does not"):
            find_bound_state(M, EQUAL, -1, bracket, GRID, nodes=nodes)
        assert "_stack" not in GRID.__dict__  # a refusal frees the stack too


@pytest.mark.parametrize("bracket", [(1.6, 1.1), (1.1, 1.1), (0.0, 1.6), (-1.0, 1.6)])
def test_find_bound_state_rejects_bad_brackets(monkeypatch, bracket):
    monkeypatch.setattr(shooting, "integrate_radial", None)  # refused before any shot
    with pytest.raises(ValueError, match="0 < lo < hi"):
        find_bound_state(M, EQUAL, -1, bracket, GRID)


def test_bisection_stops_at_adjacent_doubles(monkeypatch):
    # near E = 1e8 adjacent doubles lie 1.5e-8 apart, more than the 1e-8
    # tolerance, so only the adjacent-doubles break ends the bisection;
    # the grid runs 12 Airy lengths past r1
    m, mix = 1e8, PotentialMix(1.0, 0.5)
    e = equal_mix_energy(m, 1.0, 1)
    r_max = (e - m) + 12.0 * (m + e) ** (-1.0 / 3.0)
    grid = RadialGrid(1e-6 * r_max, r_max, 2000)
    shots = []

    def counted(*args):
        shots.append(args[3])
        assert len(shots) < 100, "the bisection does not end"
        return integrate_radial(*args)

    monkeypatch.setattr(shooting, "integrate_radial", counted)
    sol = find_bound_state(m, mix, -1, (m + 2e-3, m + 6e-3), grid)
    assert sol.node_count == 0
    assert abs(sol.E - e) <= math.ulp(e)


def test_find_bound_state_multi_level_bracket_targets_nodes():
    e2 = equal_mix_energy(M, LAM, 2)
    wide = (1.1, 2.2)  # holds both the ground and first excited level
    ground = find_bound_state(M, EQUAL, -1, wide, GRID)
    assert abs(ground.E - E1) < 2e-3
    excited = find_bound_state(M, EQUAL, -1, wide, GRID, nodes=1)
    assert abs(excited.E - e2) < 2e-3
    assert excited.node_count == 1


def test_fourth_order_convergence():
    # halving the step cuts the deviation from the Airy form by >= 12
    def max_dev(n):
        grid = RadialGrid(r_min=8e-6, r_max=8.0, n=n)
        sol = integrate_radial(M, EQUAL, -1, E1, grid)
        ana = equal_mix_wavefunction(M, LAM, E1, sol.r)
        mask = sol.r > 0.5
        scale = (np.dot(sol.u[mask], ana.u[mask])
                 / np.dot(ana.u[mask], ana.u[mask]))
        return np.max(np.abs(sol.u[mask] - scale * ana.u[mask]))

    assert max_dev(200) / max_dev(400) >= 12.0
    assert max_dev(400) / max_dev(800) >= 12.0


def test_bound_tail_never_oscillates():
    # the last case is the grid of `profile --zero-index 2 --rmax 12
    # --n 4000`, where the raw shot's regrown tail adds a node
    cases = [(s, 0, GRID) for s in (0.5, 0.75, 1.0)]
    cases.append((0.5, 1, RadialGrid(r_min=12e-6, r_max=12.0, n=4000)))
    for s, nodes, grid in cases:
        mix = PotentialMix(LAM, s)
        bracket = suggest_bracket(M, mix, -1, grid, nodes=nodes)
        sol = find_bound_state(M, mix, -1, bracket, grid, nodes=nodes)
        assert sol.node_count == nodes
        r1 = (sol.E - M) / LAM
        tail = np.sign(sol.u[sol.r > r1 + 1.0 / np.sqrt(LAM)])
        tail = tail[tail != 0]
        assert np.count_nonzero(tail[1:] * tail[:-1] < 0) == 0


def test_tail_shot_overflow_is_consistency_error(monkeypatch):
    # an inward tail path that overflows must not leave a raw shot: launched
    # at 1e280 times its size, it passes the 1e250 cap within a few steps
    real = shooting.rk4_inward

    def overflowing_inward(ab, n, un, vn):
        u, v, stop, sign = real(ab, n, 1e280 * un, 1e280 * vn)
        assert stop < n
        return u, v, stop, sign

    monkeypatch.setattr(shooting, "rk4_inward", overflowing_inward)
    grid = RadialGrid(r_min=20e-6, r_max=20.0, n=2000)
    with pytest.raises(ConsistencyError, match="inward"):
        find_bound_state(M, EQUAL, -1, (1.1, 2.5), grid)
    assert "_stack" not in grid.__dict__
    assert main(["solve", "--n", "2000", "--rmax", "20"]) == 1


def test_outward_overflow_before_r1_is_consistency_error():
    grid = RadialGrid(r_min=20e-6, r_max=20.0, n=2000)
    raw = integrate_radial(M, EQUAL, -1, E1, grid)
    r1 = (E1 - M) / LAM
    raw.u[raw.r >= r1 - 1.0] = np.nan
    with pytest.raises(ConsistencyError, match="outward"):
        shooting._splice_tail(raw, M, EQUAL, -1)


def test_grid_ending_before_r1_keeps_the_shot():
    # no forbidden region on the grid: nothing to splice
    grid = RadialGrid(r_min=2e-6, r_max=2.0, n=2000)
    sol = find_bound_state(M, EQUAL, -1, (1.1, 3.0), grid)
    assert (sol.E - M) / LAM > grid.r_max
    assert sol.E == 2.015989647246897
    # no tail took the stack's step matrices, and still it is freed
    assert "_stack" not in grid.__dict__
    # the solve's shots went through a stack centred at the bracket's lower
    # end: with the same stack the raw shot is the solve's to the bit
    shooting._prime_grid(M, EQUAL, -1, 1.1, grid)
    raw = integrate_radial(M, EQUAL, -1, sol.E, grid)
    np.testing.assert_allclose(sol.u * raw.u[-1] / sol.u[-1], raw.u, rtol=1e-14, atol=0)
    # the level is the box's that ends at r_max, not at r_max - h
    ends = [integrate_radial(M, EQUAL, -1, sol.E + d, grid).u[-1] for d in (-1e-8, 1e-8)]
    assert ends[0] * ends[1] < 0


def test_turning_point_in_the_last_step_keeps_the_shot():
    # r1 falls between the last two grid points, so the splice point is
    # the grid's end and no tail lies past it to shoot inward
    last_step = 0
    for r_max in np.linspace(3.30, 3.33, 31):
        grid = RadialGrid(r_min=1e-6 * r_max, r_max=r_max, n=100)
        sol = find_bound_state(M, EQUAL, -1, suggest_bracket(M, EQUAL, -1, grid), grid)
        assert sol.node_count == 0
        assert "_stack" not in grid.__dict__
        assert abs(np.trapezoid(sol.u ** 2 + sol.v ** 2, sol.r) - 1.0) <= 1e-12
        if np.searchsorted(sol.r, (sol.E - M) / LAM) == grid.n:
            last_step += 1
            # the scan primes the grid again, at its first probe, as it did
            # for the solve: the raw shot is the solve's to the bit
            suggest_bracket(M, EQUAL, -1, grid)
            raw = integrate_radial(M, EQUAL, -1, sol.E, grid)
            np.testing.assert_allclose(sol.u * raw.u[-1] / sol.u[-1], raw.u, rtol=1e-14, atol=0)
    assert last_step > 0


def test_mixed_potential_oscillates_past_lifted_continuum():
    mix = PotentialMix(LAM, 0.25)
    e = 1.5828
    r3 = (e + M) / ((1 - 2 * mix.s) * LAM)
    grid = RadialGrid(r_min=42e-6, r_max=42.0, n=30000)
    sol = integrate_radial(M, mix, -1, e, grid)
    tail = np.sign(sol.u[sol.r > r3])
    tail = tail[tail != 0]
    assert np.count_nonzero(tail[1:] * tail[:-1] < 0) >= 1


def test_eigenvalue_invariant_under_larger_domain():
    e_25 = find_bound_state(M, EQUAL, -1, (1.1, 2.5), GRID).E
    wide = RadialGrid(r_min=25e-6, r_max=50.0, n=40000)
    e_50 = find_bound_state(M, EQUAL, -1, (1.1, 2.5), wide).E
    assert abs(e_25 - e_50) < 1e-6


def test_eigenvalue_matches_analytic_on_reference_grid():
    sol = find_bound_state(M, EQUAL, -1, (1.1, 2.5), GRID)
    assert abs(sol.E - E1) / E1 < 2e-3


def test_quasibound_estimate_continuity_at_half():
    near = PotentialMix(LAM, 0.5 - 1e-6)
    est = estimate_quasibound_energy(M, near, -1, GRID)
    assert abs(est - E1) < 0.01


@pytest.mark.parametrize("scale", [0.49, 1.51, math.nan])
def test_estimator_rejects_midpoint_scale_off_the_barrier(monkeypatch, scale):
    monkeypatch.setattr(shooting, "_dirichlet_u", None)  # refused before any shot
    with pytest.raises(ValueError, match=r"outside \[0.5, 1.5\]"):
        estimate_quasibound_energy(M, VECTOR, -1, GRID, scale)


def test_quasibound_estimate_pure_vector_range():
    # the level must sit above m but below the barrier-top scale m + lam*r2
    est = estimate_quasibound_energy(M, VECTOR, -1, GRID)
    assert M < est < 3.583


def test_quasibound_truncation_sensitivity_is_small():
    lo = estimate_quasibound_energy(M, VECTOR, -1, GRID, midpoint_scale=0.9)
    hi = estimate_quasibound_energy(M, VECTOR, -1, GRID, midpoint_scale=1.1)
    assert abs(hi - lo) < 5e-3


QB_GRID = RadialGrid(r_min=25e-6, r_max=25.0, n=500)


def _fresh(grid):
    """A grid equal to `grid` that holds no stack and no scan hint."""
    return RadialGrid(grid.r_min, grid.r_max, grid.n)


def _record_shots(monkeypatch):
    """Route the estimator's shots, shooting._dirichlet_u, through a
    recorder of (E, grid, steps), one entry per call.  Only the fixed
    grid's calls give a step count, and there a counted energy is shot
    once and kept, so a call is a shot or a read of a kept one."""
    shots = []
    real = shooting._dirichlet_u

    def recording(m, mix, k, e, grid, count=False, steps=None):
        shots.append((e, grid, steps))
        return real(m, mix, k, e, grid, count, steps)

    monkeypatch.setattr(shooting, "_dirichlet_u", recording)
    return shots


def _fixed(hint):
    """The fixed grid that the hint's last estimate converged on: the
    central grid, whose stack runs on past its n steps."""
    return hint.__dict__["_fixed"][1]


@pytest.mark.parametrize("grid", [QB_GRID, GRID], ids=["n500", "n20000"])
def test_quasibound_estimate_is_root_at_its_dirichlet_radius(monkeypatch, grid):
    # the scan's sign change here does not hold at the fixed radius; the
    # estimate must still be a root there, not the scan's upper point
    m, mix = 0.5786714052533269, PotentialMix(0.6465073497432428, 0.0)
    shots = _record_shots(monkeypatch)
    e = estimate_quasibound_energy(m, mix, -1, grid)
    # the central estimate converges on the fixed grid's first n steps,
    # which integrate_radial shoots through the same held stack
    fixed = _fixed(grid)
    assert shots[-1][1] is fixed and shots[-1][2] == fixed.n == grid.n
    e_lo = estimate_quasibound_energy(m, mix, -1, grid, midpoint_scale=0.9)
    e_hi = estimate_quasibound_energy(m, mix, -1, grid, midpoint_scale=1.1)
    assert min(e_lo, e_hi) - 1e-6 <= e <= max(e_lo, e_hi) + 1e-6
    assert e == pytest.approx(2.1678757, abs=1e-6)

    def u_end(energy):
        return integrate_radial(m, mix, -1, energy, fixed).u[-1]

    lo, hi = e - 0.02, e + 0.02
    f_lo = u_end(lo)
    assert f_lo * u_end(hi) < 0
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        f_mid = u_end(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    assert abs(e - 0.5 * (lo + hi)) <= 1e-9


def test_quasibound_central_estimate_inside_truncation_spread():
    rng = np.random.default_rng(1)
    draws = zip(rng.uniform(0.5, 1.0, 150), rng.uniform(0.5, 1.0, 150),
                rng.uniform(0.0, 0.45, 150))
    outside = []
    for m, lam, s in draws:
        mix = PotentialMix(lam, s)
        e, e_lo, e_hi = (estimate_quasibound_energy(m, mix, -1, QB_GRID, midpoint_scale=c)
                         for c in (1.0, 0.9, 1.1))
        if not min(e_lo, e_hi) - 1e-6 <= e <= max(e_lo, e_hi) + 1e-6:
            outside.append((m, lam, s, e, e_lo, e_hi))
    assert outside == []


def test_quasibound_refinement_shot_budget(monkeypatch):
    # plain bisection of a one-step scan bracket down to 1e-11*m needs
    # about 35 shots; Brent's method on u(r_mid) needs far fewer
    shots = _record_shots(monkeypatch)
    hint = _fresh(GRID)
    estimate_quasibound_energy(M, VECTOR, -1, hint)
    # the scan's radius moves with the energy; every refinement shot is on
    # the one fixed grid, given the central step count n
    scan = max(i for i, (_, _, steps) in enumerate(shots) if steps is None) + 1
    assert all(grid is _fixed(hint) and steps == GRID.n for _, grid, steps in shots[scan:])
    assert len(shots) - scan <= 15


@pytest.mark.parametrize("n", [500, 1000, 4000, 20000])
def test_scans_bisect_within_their_shot_budget(monkeypatch, n):
    ends = []
    real = shooting.rk4_path

    def recording(m, lam, s, k, E, r0, h, steps, u0, v0, _primed=None):
        ends.append(r0 + h * steps)
        return real(m, lam, s, k, E, r0, h, steps, u0, v0, _primed=_primed)

    monkeypatch.setattr(shooting, "rk4_path", recording)
    grid = RadialGrid(25e-6, 25.0, n)
    # from the WKB level's index: 2 shots when it is the transition's index
    # or the one below, 4 when it is one above
    suggest_bracket(M, EQUAL, -1, grid)
    assert len(ends) <= 4
    # with no start the scans bisect
    monkeypatch.setattr(shooting, "_scan_index", lambda *args: None)
    ends.clear()
    suggest_bracket(M, EQUAL, -1, grid)
    assert len(ends) <= math.ceil(math.log2(64 + 1)) + 2
    ends.clear()
    # a cold scan, on a grid hint that no scan has left an index on, bisects
    estimate_quasibound_energy(M, VECTOR, -1, grid)
    # the scan's radius moves with the energy; every shot after it ends at
    # the one fixed Dirichlet radius of the last shot
    assert ends.index(ends[-1]) <= math.ceil(math.log2(97)) + 2
    # the spread estimates start at the central estimate's index and shoot
    # only the two scan energies across the transition
    for scale in (0.9, 1.1):
        ends.clear()
        estimate_quasibound_energy(M, VECTOR, -1, grid, midpoint_scale=scale)
        assert ends.index(ends[-1]) <= 2


def _record_builds(monkeypatch):
    """Route the kernel's stack builds, _kernels._stack, through a recorder
    of (E_c, h, higher), one entry per build: row p = 0 alone, or all five
    rows when `higher` is set."""
    builds = []
    real = _kernels._stack

    def recording(m, lam, s, k, Ec, r0, h, n, higher, out, first=0):
        builds.append((Ec, h, higher))
        return real(m, lam, s, k, Ec, r0, h, n, higher, out, first)

    monkeypatch.setattr(_kernels, "_stack", recording)
    return builds


@pytest.mark.parametrize("grid", [QB_GRID, GRID], ids=["n500", "n20000"])
def test_each_estimate_builds_one_stack_per_grid(monkeypatch, grid):
    # a row p = 0 per scan shot, each on a grid of its own; at the fixed
    # radius one five-row stack over round(1.1 n) steps, built in one pass
    # before its first shot, which the three scales of a problem share
    builds = _record_builds(monkeypatch)
    shots = _record_shots(monkeypatch)
    for m, mix in ((M, VECTOR), (0.8, PotentialMix(0.6, 0.25)), (1.2, PotentialMix(0.4, 0.45))):
        hint = _fresh(grid)
        for scale in (1.0, 0.9, 1.1):
            builds.clear()
            shots.clear()
            estimate_quasibound_energy(m, mix, -1, hint, midpoint_scale=scale)
            fixed = _fixed(hint)
            scan = sum(steps is None for _, _, steps in shots)
            assert len(shots) > scan + 2
            assert all(g is fixed and steps == round(scale * grid.n)
                       for _, g, steps in shots[scan:])
            kinds = [b[2] for b in builds]  # higher
            assert kinds == ([False] * scan + [True] if scale == 1.0 else [])
            assert scale != 1.0 or builds[-1][1] == fixed.h
        held = shooting._held(m, mix, -1, fixed)
        assert held[1].shape == (5, 8 * (round(1.1 * grid.n) + 1))


@pytest.mark.parametrize("grid", [QB_GRID, GRID], ids=["n500", "n20000"])
def test_spread_estimates_replay_the_central_scan(monkeypatch, grid):
    # the central estimate leaves its scan's shots and its fixed grid on
    # the hint, and no midpoint_scale changes them: the 0.9 and 1.1
    # estimates replay the scan and share the grid's stack, so they build
    # nothing and call only the fixed grid, at their own step count; an
    # energy that the central estimate's scan shot there is not shot again
    builds = _record_builds(monkeypatch)
    shots = _record_shots(monkeypatch)
    paths = []
    real = shooting.rk4_path

    def recording(m, lam, s, k, E, r0, h, n, u0, v0, _primed=None):
        paths.append(E)
        return real(m, lam, s, k, E, r0, h, n, u0, v0, _primed=_primed)

    monkeypatch.setattr(shooting, "rk4_path", recording)
    for m, mix in ((M, VECTOR), (0.8, PotentialMix(0.6, 0.25)), (1.2, PotentialMix(0.4, 0.45))):
        hint = _fresh(grid)
        shots.clear()
        estimate_quasibound_energy(m, mix, -1, hint)
        fixed = _fixed(hint)
        scanned = {e for e, g, steps in shots if steps is not None}
        for scale in (0.9, 1.1):
            builds.clear()
            shots.clear()
            paths.clear()
            estimate_quasibound_energy(m, mix, -1, hint, midpoint_scale=scale)
            assert builds == []
            assert _fixed(hint) is fixed
            assert all(g is fixed and steps == round(scale * grid.n) for _, g, steps in shots)
            assert not scanned & set(paths)


def test_a_bound_solve_builds_its_grids_stack_once(monkeypatch):
    grid = RadialGrid(r_min=12e-6, r_max=12.0, n=4000)
    builds = _record_builds(monkeypatch)
    energies = []
    real = shooting.rk4_path

    def recording(m, lam, s, k, E, r0, h, n, u0, v0, _primed=None):
        energies.append(E)
        return real(m, lam, s, k, E, r0, h, n, u0, v0, _primed=_primed)

    monkeypatch.setattr(shooting, "rk4_path", recording)
    bracket = suggest_bracket(M, EQUAL, -1, grid)
    sol = find_bound_state(M, EQUAL, -1, bracket, grid)
    # one five-row pass, centred at the first probe's energy; the inward
    # tail takes its step matrices from it and builds no row of its own
    assert builds == [(energies[0], grid.h, True)]
    # and then frees it: find_bound_state primes the grid again, at lo
    assert "_stack" not in grid.__dict__
    builds.clear()
    again = find_bound_state(M, EQUAL, -1, bracket, grid)
    assert builds == [(bracket[0], grid.h, True)]
    assert "_stack" not in grid.__dict__
    assert again.E == sol.E


def test_two_primed_grids_shot_alternately_build_each_stack_once(monkeypatch):
    # each grid keeps its own stack: shooting two primed grids in turn
    # rebuilds neither, and every path is the one each grid gives alone
    problems = [(M, EQUAL, -1, RadialGrid(12e-6, 12.0, 4000)),
                (0.8, PotentialMix(0.6, 0.75), 1, RadialGrid(10e-6, 10.0, 3000))]
    energies = (1.3, 1.5, 1.4, 1.45)

    def shots(m, mix, k, grid):
        shooting._prime_grid(m, mix, k, energies[0], grid)
        return [shooting._shoot(m, mix, k, e, grid) for e in energies]

    apart = [shots(m, mix, k, _fresh(grid)) for m, mix, k, grid in problems]
    builds = _record_builds(monkeypatch)
    for m, mix, k, grid in problems:
        shooting._prime_grid(m, mix, k, energies[0], grid)
    for j, e in enumerate(energies):
        for (m, mix, k, grid), ref in zip(problems, apart):
            shooting._prime_grid(m, mix, k, e, grid)  # a no-op: the grid holds its stack
            for a, b in zip(shooting._shoot(m, mix, k, e, grid), ref[j]):
                np.testing.assert_array_equal(a, b)
    assert builds == [(energies[0], grid.h, True) for _, _, _, grid in problems]


def test_a_solve_leaves_no_stack_alive(monkeypatch):
    # with the collector off, reference cycles, such as the one brentq
    # makes around the estimator's residual, keep what they hold alive.
    # A bound solve still frees its stack when it returns; a grid hint
    # keeps the estimator's fixed grid and its stack between calls, but
    # never more than one, and dropping the hint frees it at once
    stacks = []
    real = shooting._prime

    def recording(*args):
        primed = real(*args)
        stacks.append(weakref.ref(primed[1]))
        return primed

    def alive():
        return sum(ref() is not None for ref in stacks)

    monkeypatch.setattr(shooting, "_prime", recording)
    grid = RadialGrid(12e-6, 12.0, 4000)
    gc.collect()
    gc.disable()
    try:
        find_bound_state(M, EQUAL, -1, suggest_bracket(M, EQUAL, -1, grid), grid)
        assert len(stacks) == 1 and alive() == 0
        hint = _fresh(QB_GRID)
        problems = [(M, VECTOR), (0.8, PotentialMix(0.6, 0.25)), (M, VECTOR)]
        for m, mix in problems:
            for scale in (1.0, 0.9, 1.1, 1.3):  # 1.3 needs a longer stack
                estimate_quasibound_energy(m, mix, -1, hint, scale)
                assert alive() == 1
        assert len(stacks) == 1 + 2 * len(problems)
        # a refusal before the fixed grid leaves the hint's stack as it is
        with pytest.raises(ScanError):
            estimate_quasibound_energy(1.0, PotentialMix(1e300, 0.0), -1, hint)
        assert alive() == 1
        del hint
        assert alive() == 0
    finally:
        gc.enable()


def test_shots_on_one_grid_share_its_read_only_radii():
    grid = RadialGrid(r_min=12e-6, r_max=12.0, n=1000)
    a = integrate_radial(M, EQUAL, -1, 1.5, grid)
    b = integrate_radial(M, EQUAL, -1, 1.6, grid)
    assert a.r is b.r is grid.radii()
    with pytest.raises(ValueError, match="read-only"):
        a.r[0] = 0.0
    sol = find_bound_state(M, EQUAL, -1, (1.5, 1.7), grid)
    assert sol.r is a.r


def test_scan_ending_on_a_node_at_energy_0_converges_at_r_mid(monkeypatch):
    # energy 0 counts no sign change and ends exactly on a node at its own
    # Dirichlet point, and every scan energy above it counts one: the scan
    # closes at index 1, but a node at the scan's radius is no root at
    # r_mid, and the estimate is the root of u(r_mid) on the fixed grid
    e0 = M + 10.0 * math.sqrt(LAM) / 192
    real = shooting._dirichlet_u

    def node_at_e0(m, mix, k, e, grid, count=False, steps=None):
        f, changes = real(m, mix, k, e, grid, count, steps)
        if not count or steps is not None:  # the fixed grid's, given its step count
            return f, changes
        return (0.0, 0) if e == e0 else (f, 1)

    monkeypatch.setattr(shooting, "_dirichlet_u", node_at_e0)
    shots = _record_shots(monkeypatch)
    hint = _fresh(QB_GRID)
    e = estimate_quasibound_energy(M, VECTOR, -1, hint)
    # the central estimate converges on the fixed grid's n steps
    fixed = _fixed(hint)
    assert shots[-1][1] is fixed and shots[-1][2] == fixed.n
    assert e > e0
    u = [integrate_radial(M, VECTOR, -1, x, fixed).u[-1] for x in (e - 1e-9, e + 1e-9)]
    assert u[0] * u[1] < 0


@pytest.mark.parametrize("scale", [1.0, 0.9, 1.1])
def test_wrong_scan_hints_never_change_an_estimate(monkeypatch, scale):
    m, mix = 0.7358847923680774, PotentialMix(0.7062867500442369, 0.3)
    hint = _fresh(QB_GRID)
    guess = shooting._scan_index
    monkeypatch.setattr(shooting, "_scan_index", lambda *args: None)
    cold = repr(estimate_quasibound_energy(m, mix, -1, hint, scale))  # a bisection
    tag, i = hint.__dict__["_scan"]
    hints = [i + off for off in range(-3, 4)] + [0, 97]
    for start in hints:
        hint.__dict__["_scan"] = (tag, start)
        assert repr(estimate_quasibound_energy(m, mix, -1, hint, scale)) == cold, start
    # a scan with no hint for its problem starts at the WKB start, here wild
    for start in hints:
        monkeypatch.setattr(shooting, "_scan_index", lambda *args, start=start: start)
        assert repr(estimate_quasibound_energy(m, mix, -1, _fresh(hint), scale)) == cold, start
    monkeypatch.setattr(shooting, "_scan_index", guess)
    assert repr(estimate_quasibound_energy(m, mix, -1, _fresh(hint), scale)) == cold
    # another problem's tag and index, left on the grid by the call before
    estimate_quasibound_energy(1.2, VECTOR, -1, hint, scale)
    assert hint.__dict__["_scan"][0] != tag
    assert repr(estimate_quasibound_energy(m, mix, -1, hint, scale)) == cold


def test_threads_estimating_different_problems_match_serial():
    problems = [(1.0, PotentialMix(0.2, 0.0), -1), (0.8, PotentialMix(0.6, 0.25), 1),
                (1.2, PotentialMix(0.4, 0.45), -2), (0.6, PotentialMix(0.9, 0.1), 2)]
    scales = (1.0, 0.9, 1.1)
    serial, indices = {}, {}
    for p in problems:
        hint = _fresh(QB_GRID)
        serial[p] = []
        for c in scales:
            serial[p].append(estimate_quasibound_energy(*p, hint, midpoint_scale=c))
            tag, i = hint.__dict__["_scan"]
            indices.setdefault(tag, set()).add(i)
    shared, twin = _fresh(QB_GRID), _fresh(QB_GRID)
    got, errors = {}, []

    def worker(p, hint, name):
        try:
            got[name] = [estimate_quasibound_energy(*p, hint, midpoint_scale=c)
                         for _ in range(3) for c in scales]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    # one thread per problem on one shared hint, and two more threads on
    # one problem sharing a hint of their own, and so its fixed grid, its
    # stack and its kept shots
    jobs = [(p, shared, p) for p in problems] + [(problems[1], twin, i) for i in range(2)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=job) for job in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(got) == len(jobs)
    # a fixed grid replaced on a hint stays whole for the call that holds
    # it, and a hint changes only which energies are shot, so the threads
    # get the serial answers exactly
    for p, _, name in jobs:
        assert got[name] == 3 * serial[p]
    # the hint left on the shared grid pairs one problem with its index
    tag, i = shared.__dict__["_scan"]
    assert i in indices[tag]


def test_quasibound_without_fixed_radius_sign_change_raises(monkeypatch):
    # the scan sees a sign change, but u(r_mid) keeps one sign over every
    # scan energy: the rescan at r_mid finds no root, so no energy may be
    # returned
    real = shooting._dirichlet_u

    fixed = []

    def one_sign_at_r_mid(m, mix, k, e, grid, count=False, steps=None):
        # only the fixed grid's shots are given a step count; there every
        # shot is positive and counts no sign change
        if steps is not None:
            fixed.append(e)
            return 1.0, (0 if count else None)
        return real(m, mix, k, e, grid, count)

    monkeypatch.setattr(shooting, "_dirichlet_u", one_sign_at_r_mid)
    with pytest.raises(ScanError, match="no Dirichlet sign change at r_mid"):
        estimate_quasibound_energy(M, VECTOR, -1, _fresh(QB_GRID))
    assert fixed  # the refusal came from the fixed grid's scan


def test_quasibound_overflow_near_root_raises(monkeypatch):
    # an overflowed shot carries only a sign, which Brent cannot interpolate
    e_true = estimate_quasibound_energy(M, VECTOR, -1, QB_GRID)
    real = shooting._dirichlet_u

    refinement = []

    def overflowing_near_root(m, mix, k, e, grid, count=False, steps=None):
        # an overflowed shot ends as +-inf, the sign of u where it overflowed
        f, changes = real(m, mix, k, e, grid, count, steps)
        if steps is not None and not count:  # a shot of Brent's method
            refinement.append(e)
        return (np.inf if abs(e - e_true) < 1e-3 else f), changes

    monkeypatch.setattr(shooting, "_dirichlet_u", overflowing_near_root)
    with pytest.raises(ScanError, match="overflows"):
        estimate_quasibound_energy(M, VECTOR, -1, _fresh(QB_GRID))
    assert refinement  # the refusal came from Brent's method on the fixed grid


def test_quasibound_scan_below_the_resolution_near_m_raises(monkeypatch):
    # m + width / 192 rounds to m: no scan energy lies above m
    shots = _record_shots(monkeypatch)
    with pytest.raises(ScanError, match="below the resolution of energies near m"):
        estimate_quasibound_energy(1e16, VECTOR, -1, QB_GRID)
    assert shots == []


def test_quasibound_rejects_bound_mix():
    with pytest.raises(ValueError, match="find_bound_state"):
        estimate_quasibound_energy(M, EQUAL, -1, GRID)


@pytest.mark.parametrize("m, lam, n", [
    (1.0, 1e12, 500), (1e300, 0.2, 20000), (1.0, 1e300, 100), (1e-300, 1e12, 500),
    (1e12, 0.2, 100),
], ids=["adjacent-doubles", "huge-mass", "huge-slope", "analytic-bracket", "huge-mass-n100"])
def test_unresolved_grids_get_no_wkb_start(monkeypatch, m, lam, n):
    # test_extreme_settings_end's equal-mix settings, and solve --m 1e12
    # --n 100: the grid step exceeds a quarter of the Airy length at the
    # level, or the scan step does not move an energy near m, so the node
    # count need not be monotone; suggest_bracket refuses such grids
    # before its scan starts anywhere, and shoots nothing
    starts = []
    real = shooting._scan_index

    def recording(*args):
        starts.append(args)
        return real(*args)

    monkeypatch.setattr(shooting, "_scan_index", recording)
    monkeypatch.setattr(shooting, "integrate_radial", None)
    with pytest.raises(ScanError):
        suggest_bracket(m, PotentialMix(lam, 0.5), -1, RadialGrid(1e-6 * 25.0, 25.0, n))
    assert starts == []


@pytest.mark.parametrize("m, lam, s", [
    (math.nan, 0.2, 0.5), (math.inf, 0.2, 0.5), (1.0, math.nan, 0.5), (1.0, math.inf, 0.5),
    (1.0, 0.2, math.nan), (0.0, 0.2, 0.5), (-1.0, 0.2, 0.5),
])
def test_wkb_level_without_a_finite_level_is_none(m, lam, s):
    assert shooting._wkb_level(m, lam, s, -1, 0) is None


def test_scan_error_when_no_transition():
    with pytest.raises(ScanError):
        suggest_bracket(M, EQUAL, -1, GRID, nodes=40)


def test_node_scan_past_its_window_stops_at_r_max(monkeypatch):
    shot = []
    real = shooting.integrate_radial

    def recording(m, mix, k, E, grid):
        shot.append(E)
        return real(m, mix, k, E, grid)

    monkeypatch.setattr(shooting, "integrate_radial", recording)
    # levels 28 and 40 lie above the window top 1 + 10*sqrt(0.2) = 5.47; on
    # GRID only energies up to r1 = 25, E = 6, may be shot
    lo, hi = suggest_bracket(M, EQUAL, -1, GRID, nodes=27)
    assert 1.0 + 10.0 * math.sqrt(LAM) < lo < equal_mix_energy(M, LAM, 28) < hi
    shot.clear()
    with pytest.raises(ScanError, match=r"needs r_max >= 25\.155"):
        suggest_bracket(M, EQUAL, -1, GRID, nodes=39)
    assert max(shot) <= M + LAM * GRID.r_max
    # r1 at the window top is 22.4: a 20-long grid goes no further, and
    # the message is the window's
    shot.clear()
    short = RadialGrid(20e-6, 20.0, 4000)
    with pytest.raises(ScanError, match=r"in \(m, m \+ 10\*sqrt\(lambda\)\)"):
        suggest_bracket(M, EQUAL, -1, short, nodes=39)
    assert max(shot) == 1.0 + 10.0 * math.sqrt(LAM)


# ---------------------------------------------------------------------------
# A mass outside m > 0, finite, is refused by name before any shot

BAD_MASSES = [-1.0, 0.0, math.inf, math.nan]


def _no_shots(monkeypatch):
    monkeypatch.setattr(shooting, "rk4_path", None)
    monkeypatch.setattr(shooting, "integrate_radial", None)


@pytest.mark.parametrize("m", BAD_MASSES)
def test_find_bound_state_refuses_a_bad_mass(monkeypatch, m):
    # m = -1 gave E = 1.0586 and m = nan a BracketError
    _no_shots(monkeypatch)
    with pytest.raises(ValueError, match=r"^find_bound_state requires .*mass m"):
        find_bound_state(m, EQUAL, -1, (1.0, 2.0), RadialGrid(1e-6, 25, 1000))


@pytest.mark.parametrize("m", BAD_MASSES)
def test_suggest_bracket_refuses_a_bad_mass(monkeypatch, m):
    # m = 0 gave (0.8385, 0.9084) and m = inf a ScanError "near m = inf"
    _no_shots(monkeypatch)
    with pytest.raises(ValueError, match=r"^suggest_bracket requires .*mass m"):
        suggest_bracket(m, EQUAL, -1, RadialGrid(1e-6, 25, 1000))


@pytest.mark.parametrize("m", BAD_MASSES)
def test_estimate_quasibound_energy_refuses_a_bad_mass(monkeypatch, m):
    _no_shots(monkeypatch)
    monkeypatch.setattr(shooting, "_dirichlet_u", None)
    with pytest.raises(ValueError, match=r"^estimate_quasibound_energy requires .*mass m"):
        estimate_quasibound_energy(m, VECTOR, -1, RadialGrid(1e-6, 25, 1000))


@pytest.mark.parametrize("m", BAD_MASSES)
def test_integrate_radial_refuses_a_bad_mass(monkeypatch, m):
    # m = nan gave an all-NaN "diverged" shot
    monkeypatch.setattr(shooting, "rk4_path", None)
    with pytest.raises(ValueError, match=r"^integrate_radial requires .*mass m"):
        integrate_radial(m, EQUAL, -1, E1, RadialGrid(1e-6, 25, 1000))


@pytest.mark.parametrize("E", [math.inf, -math.inf, math.nan])
def test_integrate_radial_refuses_a_non_finite_energy(monkeypatch, E):
    monkeypatch.setattr(shooting, "rk4_path", None)
    with pytest.raises(ValueError, match=r"^integrate_radial requires finite E"):
        integrate_radial(M, EQUAL, -1, E, RadialGrid(1e-6, 25, 1000))


@pytest.mark.parametrize("nodes", [-1, 0.5, True])
def test_find_bound_state_refuses_a_bad_node_count(monkeypatch, nodes):
    _no_shots(monkeypatch)
    with pytest.raises(ValueError, match="nodes must be an integer >= 0"):
        find_bound_state(M, EQUAL, -1, (1.0, 2.0), RadialGrid(1e-6, 25, 1000), nodes)
