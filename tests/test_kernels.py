"""RK4 kernel: the centred band-layout stack that _prime builds in one
pass and a caller passes to each shot as (E_c, stack), shots given no
pair, which build their own row p = 0, and the solvers' grid-held stack,
which only the grid and problem it was primed for read."""

import math
import sys
import threading

import numpy as np
import pytest
from test_shooting import _reference_rk4, _rk4_steps

from diraclinear import PotentialMix, RadialGrid, _kernels, shooting
from diraclinear._kernels import (
    _CHUNK,
    _prime,
    _row0,
    _transfer_matrices,
    rk4_inward,
    rk4_path,
)

# grid keys (m, lam, s, k, r0, h, n); no n is a multiple of _CHUNK, so every
# case ends in a partial chunk
GRIDS = [
    (1.0, 0.2, 0.5, -1, 25e-6, (25.0 - 25e-6) / 5000, 5000),
    (0.9, 0.7, 0.75, 1, 9.0, -8.0 / 2049, 2049),
    (0.6, 0.5, 1.0, -2, 1e-5, 12.0 / (3 * _CHUNK + 7), 3 * _CHUNK + 7),
    (1.3, 0.9, 0.6, 3, 1e-5, 6.0 / 777, 777),
]
IDS = ["outward", "inward", "three-chunks", "k3"]
ENERGIES = (0.85, 1.7, 3.0, 6.0)


def _mul(a, b):
    """Product a @ b of two stacks of 2x2 matrices given as entry tuples."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _plus_identity(scale, a):
    """I + scale * a for a stack of 2x2 matrices."""
    a00, a01, a10, a11 = a
    return (1.0 + scale * a00, scale * a01, scale * a10, 1.0 + scale * a11)


def _direct(grid, E):
    """The step matrices T_i = I + h/6 (K1 + 2 K2 + 2 K3 + K4) at energy E,
    built directly, with the stage matrices K from the coefficient matrix
    at r_i, r_i + h/2 and r_i + h, as an array [i, row, col]: a reference
    independent of the kernel's centred stack."""
    m, lam, s, k, r0, h, n = grid
    r = r0 + h * np.arange(n, dtype=float)
    cs = (1.0 - 2.0 * s) * lam
    h2 = 0.5 * h

    def coeffs(x):
        # dy/dr = [[-k/x, P(x)], [-Q(x), k/x]] y
        a = k / x
        return (-a, (E + m) - cs * x, lam * x - (E - m), a)

    k1 = coeffs(r)
    am = coeffs(r + h2)
    k2 = _mul(am, _plus_identity(h2, k1))
    k3 = _mul(am, _plus_identity(h2, k2))
    k4 = _mul(coeffs(r + h), _plus_identity(h, k3))
    t = _plus_identity(h / 6.0, tuple(
        w1 + 2.0 * w2 + 2.0 * w3 + w4 for w1, w2, w3, w4 in zip(k1, k2, k3, k4)))
    return np.stack(t, axis=-1).reshape(n, 2, 2)


def _steps(ab, n):
    """The step matrices T[i, row, col] held in a band buffer, after checking
    the unit diagonal and the zeros in every slot no step matrix fills."""
    b = np.asarray(ab).reshape(n + 1, 2, 4)
    np.testing.assert_array_equal(b[:, :, 0], 1.0)
    np.testing.assert_array_equal(b[:, 0, 1], 0.0)
    np.testing.assert_array_equal(b[:, 1, 3], 0.0)
    np.testing.assert_array_equal(b[-1, :, 1:], 0.0)
    # -T_i[:, 0] sits at b[i, 0, 2:4] and -T_i[:, 1] at b[i, 1, 1:3]
    return -np.stack([b[:-1, 0, 2:4], b[:-1, 1, 1:3]], axis=-1)


def _normwise(t, ref):
    """Largest deviation of a step matrix relative to that step's size."""
    return np.max(np.max(np.abs(t - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2)))


def _band(grid, E, primed=None):
    m, lam, s, k, r0, h, n = grid
    return _transfer_matrices(m, lam, s, k, E, r0, h, n, primed)


def _shot(grid, E, primed=None):
    m, lam, s, k, r0, h, n = grid
    return rk4_path(m, lam, s, k, E, r0, h, n, 1e-6, -1e-12, _primed=primed)


def _primed(grid, Ec):
    """The grid's (E_c, stack) pair, its full stack centred at Ec."""
    m, lam, s, k, r0, h, n = grid
    return _prime(m, lam, s, k, Ec, r0, h, n)


def _assert_same_shot(got, ref):
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_row_p0_matches_direct_build(grid):
    m, lam, s, k, r0, h, n = grid
    for E in ENERGIES:
        assert _normwise(_steps(_row0(m, lam, s, k, E, r0, h, n), n), _direct(grid, E)) <= 1e-15


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_cached_step_matrices_match_direct_build(grid):
    primed = _primed(grid, 1.2)
    for E in ENERGIES:
        assert _normwise(_steps(_band(grid, E, primed), grid[-1]), _direct(grid, E)) <= 1e-15
    Ec, stack = primed
    assert Ec == 1.2
    assert not stack.flags.writeable
    # five band buffers of n + 1 steps, 320 bytes per step
    n = grid[-1]
    assert stack.shape == (5, 8 * (n + 1))
    assert stack.nbytes == 320 * (n + 1)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_first_call_on_a_grid_is_the_direct_build(grid):
    # a call given no (E_c, stack) pair builds row p = 0 at its own energy
    m, lam, s, k, r0, h, n = grid
    t = _band(grid, 1.5)
    np.testing.assert_array_equal(t, _row0(m, lam, s, k, 1.5, r0, h, n))
    assert _normwise(_steps(t, n), _direct(grid, 1.5)) <= 1e-15
    assert t.shape == (1, 8 * (n + 1))


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_unprimed_grid_shot_twice_builds_its_row_at_each_energy(grid):
    # each shot given no pair is the path through its own row p = 0, built
    # at its own energy
    m, lam, s, k, r0, h, n = grid
    for E in (1.3, 2.1):
        got = _shot(grid, E)
        with np.errstate(all="ignore"):
            ref = _kernels._path(_row0(m, lam, s, k, E, r0, h, n), n, 1e-6, -1e-12)
        _assert_same_shot(got, ref)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_shot_at_the_centre_from_the_full_stack_is_the_first_shot(grid):
    first = _shot(grid, 1.3)  # unprimed: its own row p = 0
    primed = _primed(grid, 1.3)
    _shot(grid, 2.1, primed)  # evaluates rows p = 1..4
    assert len(primed[1]) == 5
    _assert_same_shot(_shot(grid, 1.3, primed), first)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_primed_grid_shoots_as_an_unprimed_one(grid, monkeypatch):
    # at its centre: the primed stack's row p = 0 is the unprimed shot's row
    m, lam, s, k, r0, h, n = grid
    first = _shot(grid, 1.3)
    primed = _primed(grid, 1.3)
    Ec, stack = primed
    assert Ec == 1.3
    assert stack.shape == (5, 8 * (n + 1))
    row = _row0(m, lam, s, k, 1.3, r0, h, n)[0]
    np.testing.assert_array_equal(stack[0], row)
    assert not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 2] = 0.0

    # the primed grid's shots build nothing; the first, at the centre,
    # reads row p = 0 as it is: the direct build
    monkeypatch.setattr(_kernels, "_stack", None)
    band = _band(grid, 1.3, primed)
    np.testing.assert_array_equal(band, row)
    assert not band.flags.writeable
    _assert_same_shot(_shot(grid, 1.3, primed), first)
    _shot(grid, 2.1, primed)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_a_step_range_is_its_slice_of_the_whole_band(grid):
    # steps a <= i < b, built at E, from the stack, at its centre and past
    # |h| |E - E_c| = 1, are the same bits as those steps of the grid's band
    m, lam, s, k, r0, h, n = grid
    a, b = n // 3, n - 5
    primed = _primed(grid, 1.2)
    far = 1.2 + 2.0 / abs(h)
    cases = [(E, None) for E in ENERGIES] + [(E, primed) for E in (1.2, 1.7, 3.0, far)]
    for E, pair in cases:
        whole = np.asarray(_band(grid, E, pair)).reshape(-1, 8)
        part = np.asarray(_transfer_matrices(m, lam, s, k, E, r0, h, b, pair, first=a))
        part = part.reshape(-1, 8)
        assert part.shape == (b - a + 1, 8)
        np.testing.assert_array_equal(part[:-1], whole[a:b])
        np.testing.assert_array_equal(part[-1, ::4], 1.0)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_the_inward_path_runs_the_recurrence_back(grid):
    # from y_b, rk4_inward returns y_i = T_i^-1 y_{i+1} down to y_a: each of
    # its steps, run forward by the per-step reference, lands on the next
    m, lam, s, k, r0, h, n = grid
    a, b = n // 3, n - 5
    primed = _primed(grid, 1.2)
    for E, pair in ((1.7, None), (1.2, primed), (3.0, primed)):
        band = _transfer_matrices(m, lam, s, k, E, r0, h, b, pair, first=a)
        u, v, stop, sign = rk4_inward(band, b - a, 1e-6, -1e-12)
        assert (stop, sign) == (b - a, 0.0)
        u, v = u[::-1], v[::-1]
        un, vn = _rk4_steps(m, lam, s, k, E, r0 + h * np.arange(a, b, dtype=float), h,
                            u[:-1], v[:-1])
        assert np.max(np.hypot(u[1:] - un, v[1:] - vn) / np.hypot(u[1:], v[1:])) <= 1e-13


def _solver_grid(grid):
    """(m, mix, k, RadialGrid) for an outward grid key (m, lam, s, k, r0, h, n)."""
    m, lam, s, k, r0, h, n = grid
    return m, PotentialMix(lam, s), k, RadialGrid(r0, r0 + h * n, n)


def test_priming_the_cached_grid_moves_no_centre(monkeypatch):
    m, mix, k, grid = _solver_grid(GRIDS[3])
    shooting._prime_grid(m, mix, k, 1.4, grid)
    held = grid.__dict__["_stack"]
    monkeypatch.setattr(_kernels, "_stack", None)
    shooting._prime_grid(m, mix, k, 2.0, grid)
    assert grid.__dict__["_stack"] is held
    assert shooting._held(m, mix, k, grid)[0] == 1.4


def test_a_shot_at_the_centre_builds_nothing_more(monkeypatch):
    grid = GRIDS[3]
    primed = _primed(grid, 1.4)
    first = _shot(grid, 1.4, primed)
    monkeypatch.setattr(_kernels, "_stack", None)
    # the same energy again on the primed grid: row p = 0 is the band
    _assert_same_shot(_shot(grid, 1.4, primed), first)


def test_cached_shots_on_a_long_grid_follow_the_per_step_reference():
    # 5000 steps accumulate each step's rounding: 5e-15 to 1.2e-14 here, as
    # at the direct build, but 1.1e-13 to 1.4e-13 when row p = 0 went into
    # the sum first and the diagonal entries near 1 were rounded four times
    grid = GRIDS[0]
    m, lam, s, k, r0, h, n = grid
    primed = _primed(grid, 1.1)
    for E in (1.3, 1.8, 2.4):
        ref = _reference_rk4(m, lam, s, k, E, r0, h, n, 1e-6, -1e-12)
        assert _deviation(_shot(grid, E, primed), ref) <= 5e-14


def test_alternating_grids_never_share_coefficients():
    # the solvers keep each stack on its grid, tagged with its problem: a
    # grid primed for one problem and shot for another, or another grid,
    # never reads it
    a = GRIDS[0]
    # each differs from a in one entry of the key; the first four share
    # a's RadialGrid, the last three need one of their own
    variants = [a[:i] + (value,) + a[i + 1:] for i, value in
                enumerate((1.1, 0.25, 0.6, 1, 30e-6, 1.01 * a[5], 4999))]
    grids = {a: _solver_grid(a)}
    for b in variants:
        m, mix, k, grid = _solver_grid(b)
        grids[b] = (m, mix, k, grid if b[4:] != a[4:] else grids[a][3])
        for grid_seq in ([a, a, a, b, b, b, a, a, a], [a, b, a, b, a, a, b, b, b, a]):
            for i, key in enumerate(grid_seq):
                E = 1.2 + 0.1 * i
                m, mix, k, grid = grids[key]
                shooting._prime_grid(m, mix, k, E, grid)
                primed = shooting._held(m, mix, k, grid)
                t = _steps(_transfer_matrices(m, mix.lam, mix.s, k, E, grid.r_min, grid.h,
                                              grid.n, primed), grid.n)
                ref = _direct((m, mix.lam, mix.s, k, grid.r_min, grid.h, grid.n), E)
                assert t.shape == ref.shape
                assert _normwise(t, ref) <= 1e-15
                # the other grid's matrices are far off, so reusing them would show
                om, omix, ok, og = grids[b if key is a else a]
                ref_other = _direct((om, omix.lam, omix.s, ok, og.r_min, og.h, og.n), E)
                if ref_other.shape == ref.shape:
                    assert _normwise(ref_other, ref) > 1e-9


@pytest.mark.parametrize("E", [1e30, 1e80, -1e200, np.inf], ids=["1e30", "1e80", "-1e200", "inf"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_far_off_energy_keeps_the_path_contract(E):
    grid = GRIDS[3]
    m, lam, s, k, r0, h, n = grid
    primed = _primed(grid, 1.5)
    band = _band(grid, E, primed)
    # the band's unit diagonal and structural zeros survive: with
    # (E - E_c)^4 past the double range the shot builds its own row at E
    _steps(band, n)
    d = E - 1.5
    if not math.isfinite(d * d * d * d):
        np.testing.assert_array_equal(band, _row0(m, lam, s, k, E, r0, h, n))
    u, v, stop, sign = _shot(grid, E, primed)
    assert stop < n and sign in (-1.0, 0.0, 1.0)
    for x in (u, v):
        assert np.all(np.isfinite(x[:stop + 1])) and np.all(np.isnan(x[stop + 1:]))


def test_a_grid_shot_again_reuses_its_coefficients():
    a = GRIDS[3]
    primed = _primed(a, 1.2)
    _shot(a, 1.2, primed)
    u = _shot(a, 1.7, primed)[0]
    Ec, stack = primed
    assert Ec == 1.2 and stack.shape[0] == 5

    # the next shot on the grid evaluates the stored stack
    d = 1.7 - 1.2
    d2 = d * d
    np.testing.assert_array_equal(_band(a, 1.7, primed),
                                  np.array([d, d2, d2 * d, d2 * d2]) @ stack[1:] + stack[0])
    np.testing.assert_array_equal(_shot(a, 1.7, primed)[0], u)

    # a grid equal to the primed one, but not it, holds no stack
    m, mix, k, grid = _solver_grid(a)
    shooting._prime_grid(m, mix, k, 1.2, grid)
    twin = RadialGrid(grid.r_min, grid.r_max, grid.n)
    assert twin == grid and shooting._held(m, mix, k, twin) is None


def _deviation(got, ref):
    """Largest deviation of a shot from a reference shot, relative to the
    size the reference has reached so far; raises on a differing stop,
    sign or NaN pattern."""
    u, v, stop, sign = got
    ur, vr, stop_r, sign_r = ref
    assert (stop, sign) == (stop_r, sign_r)
    np.testing.assert_array_equal(np.isnan(u), np.isnan(ur))
    fin = slice(0, stop + 1)
    scale = np.maximum.accumulate(np.hypot(ur[fin], vr[fin]))
    return max(np.max(np.abs(u[fin] - ur[fin]) / scale),
               np.max(np.abs(v[fin] - vr[fin]) / scale))


def _threads_match_serial(jobs, prime=False):
    """Runs each job, a grid and its energies, in its own thread with a tiny
    switch interval, and asserts that each of its shots is the same shot
    made serially beforehand, bit for bit.  With `prime` each job, in its
    thread and serially, first primes its grid's whole stack at its first
    energy and shoots through that pair."""
    def shots(job):
        g, energies = job
        primed = _primed(g, energies[0]) if prime else None
        return [_shot(g, E, primed) for E in energies]

    serial = [shots(job) for job in jobs]
    got, errors = [None] * len(jobs), []

    def worker(i):
        try:
            got[i] = shots(jobs[i])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for mine, ref in zip(got, serial):
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            _assert_same_shot(a, b)


def test_threads_shooting_different_grids_match_serial():
    grids = [(1.0, 0.2, 0.5, -1, 1e-5, 10.0 / 1000, 1000),
             (0.8, 0.6, 0.75, 1, 1e-5, 6.0 / 1001, 1001),
             (1.2, 0.4, 1.0, -2, 2e-5, 8.0 / 999, 999),
             (0.9, 0.3, 0.6, 2, 12.0, -8.0 / 1003, 1003)]
    energies = np.linspace(1.1, 2.4, 12)
    _threads_match_serial([(g, energies) for g in grids])
    _threads_match_serial([(g, energies) for g in grids], prime=True)


def test_threads_shooting_one_grid_match_serial():
    # three threads shoot one unprimed grid at once: each shot builds its
    # own row p = 0; a three-chunk build is long enough for another thread
    # to shoot while it runs
    grid = GRIDS[2]
    energies = np.linspace(1.1, 2.4, 12)
    for _ in range(5):
        jobs = [(grid, energies), (grid, energies[::-1]), (grid, np.roll(energies, 6))]
        _threads_match_serial(jobs)


def test_threads_priming_one_grid_match_serial():
    # as above, but each thread first builds the grid's whole stack,
    # centred at its own first energy, while the others shoot
    grid = GRIDS[2]
    energies = np.linspace(1.1, 2.4, 12)
    for _ in range(5):
        jobs = [(grid, energies), (grid, energies[::-1]), (grid, np.roll(energies, 6))]
        _threads_match_serial(jobs, prime=True)
