"""RK4 kernel: the one-grid cache of the centred band-layout stack, and a
grid primed with its whole stack in one pass."""

import math
import sys
import threading

import numpy as np
import pytest
from test_shooting import _reference_rk4

from diraclinear import _kernels
from diraclinear._kernels import _CHUNK, _prime, _row0, _transfer_matrices, rk4_path

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


def _band(grid, E):
    m, lam, s, k, r0, h, n = grid
    return _transfer_matrices(m, lam, s, k, E, r0, h, n)


def _shot(grid, E):
    m, lam, s, k, r0, h, n = grid
    return rk4_path(m, lam, s, k, E, r0, h, n, 1e-6, -1e-12)


def _warm(grid, Ec):
    """Leaves the grid's full stack, centred at Ec, in the cache."""
    _kernels.warm_up()  # shoots another grid first
    _band(grid, Ec)
    _band(grid, Ec)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_row_p0_matches_direct_build(grid):
    m, lam, s, k, r0, h, n = grid
    for E in ENERGIES:
        assert _normwise(_steps(_row0(m, lam, s, k, E, r0, h, n), n), _direct(grid, E)) <= 1e-15


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_cached_step_matrices_match_direct_build(grid):
    _warm(grid, 1.2)
    for E in ENERGIES:
        assert _normwise(_steps(_band(grid, E), grid[-1]), _direct(grid, E)) <= 1e-15
    key, Ec, stack = _kernels._last_grid
    assert key == grid and Ec == 1.2
    assert not stack.flags.writeable
    # five band buffers of n + 1 steps, 320 bytes per step
    n = grid[-1]
    assert stack.shape == (5, 8 * (n + 1))
    assert stack.nbytes == 320 * (n + 1)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_first_call_on_a_grid_is_the_direct_build(grid):
    other = GRIDS[(GRIDS.index(grid) + 1) % len(GRIDS)]
    _warm(other, 1.5)
    m, lam, s, k, r0, h, n = grid
    t = _band(grid, 1.5)
    np.testing.assert_array_equal(t, _row0(m, lam, s, k, 1.5, r0, h, n))
    assert _normwise(_steps(t, n), _direct(grid, 1.5)) <= 1e-15
    key, Ec, stack = _kernels._last_grid
    assert (key, Ec) == (grid, 1.5) and stack is t
    assert stack.shape == (1, 8 * (n + 1)) and not stack.flags.writeable


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_shot_at_the_centre_from_the_full_stack_is_the_first_shot(grid):
    _kernels.warm_up()  # the cache holds another grid
    first = _shot(grid, 1.3)
    _shot(grid, 2.1)  # adds rows p = 1..4
    assert len(_kernels._last_grid[2]) == 5
    for got, ref in zip(_shot(grid, 1.3), first):
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_primed_grid_shoots_as_an_unprimed_one(grid, monkeypatch):
    m, lam, s, k, r0, h, n = grid
    _kernels.warm_up()  # the cache holds another grid
    first, second = _shot(grid, 1.3), _shot(grid, 2.1)  # builds row p = 0, then the rest
    unprimed = _kernels._last_grid[2]
    _kernels.warm_up()
    _prime(m, lam, s, k, 1.3, r0, h, n)
    key, Ec, stack = _kernels._last_grid
    assert (key, Ec) == (grid, 1.3)
    np.testing.assert_array_equal(stack, unprimed)
    assert not stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 2] = 0.0

    # the primed grid's shots build nothing; the first, at the centre,
    # reads row p = 0 as it is: the direct build
    row = _row0(m, lam, s, k, 1.3, r0, h, n)[0]
    monkeypatch.setattr(_kernels, "_stack", None)
    band = _band(grid, 1.3)
    np.testing.assert_array_equal(band, row)
    assert not band.flags.writeable
    for got, ref in zip(_shot(grid, 1.3), first):
        np.testing.assert_array_equal(got, ref)
    # the next shot is the unprimed grid's second shot
    for got, ref in zip(_shot(grid, 2.1), second):
        np.testing.assert_array_equal(got, ref)
    assert _kernels._last_grid[2] is stack


def test_priming_the_cached_grid_moves_no_centre(monkeypatch):
    grid = GRIDS[3]
    m, lam, s, k, r0, h, n = grid
    _kernels.warm_up()
    _shot(grid, 1.4)  # the lazy path: row p = 0, centred at 1.4
    cached = _kernels._last_grid
    monkeypatch.setattr(_kernels, "_stack", None)
    _prime(m, lam, s, k, 2.0, r0, h, n)
    assert _kernels._last_grid is cached


def test_a_shot_at_the_centre_builds_nothing_more(monkeypatch):
    grid = GRIDS[3]
    _kernels.warm_up()
    first = _shot(grid, 1.4)
    row = _kernels._last_grid[2]
    monkeypatch.setattr(_kernels, "_stack", None)
    # the same energy again on an unprimed grid: row p = 0 is the band
    for got, ref in zip(_shot(grid, 1.4), first):
        np.testing.assert_array_equal(got, ref)
    assert _kernels._last_grid[2] is row


def test_cached_shots_on_a_long_grid_follow_the_per_step_reference():
    # 5000 steps accumulate each step's rounding: 5e-15 to 1.2e-14 here, as
    # at the direct build, but 1.1e-13 to 1.4e-13 when row p = 0 went into
    # the sum first and the diagonal entries near 1 were rounded four times
    grid = GRIDS[0]
    m, lam, s, k, r0, h, n = grid
    _warm(grid, 1.1)
    for E in (1.3, 1.8, 2.4):
        ref = _reference_rk4(m, lam, s, k, E, r0, h, n, 1e-6, -1e-12)
        assert _deviation(_shot(grid, E), ref) <= 5e-14


def test_alternating_grids_never_share_coefficients():
    a = GRIDS[0]
    # each differs from a in one entry of the key
    variants = [a[:i] + (value,) + a[i + 1:] for i, value in
                enumerate((1.1, 0.25, 0.6, 1, 30e-6, 1.01 * a[5], 4999))]
    for b in variants:
        for grid_seq in ([a, a, a, b, b, b, a, a, a], [a, b, a, b, a, a, b, b, b, a]):
            for i, grid in enumerate(grid_seq):
                E = 1.2 + 0.1 * i
                t = _steps(_band(grid, E), grid[-1])
                ref = _direct(grid, E)
                assert t.shape == ref.shape
                assert _normwise(t, ref) <= 1e-15
                # the other grid's matrices are far off, so reusing them would show
                ref_other = _direct(b if grid is a else a, E)
                if ref_other.shape == ref.shape:
                    assert _normwise(ref_other, ref) > 1e-9


@pytest.mark.parametrize("E", [1e30, 1e80, -1e200, np.inf], ids=["1e30", "1e80", "-1e200", "inf"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_far_off_energy_keeps_the_path_contract(E):
    grid = GRIDS[3]
    m, lam, s, k, r0, h, n = grid
    _warm(grid, 1.5)
    band = _band(grid, E)
    # the band's unit diagonal and structural zeros survive: with
    # (E - E_c)^4 past the double range the shot builds its own row at E
    _steps(band, n)
    d = E - 1.5
    if not math.isfinite(d * d * d * d):
        np.testing.assert_array_equal(band, _row0(m, lam, s, k, E, r0, h, n))
    u, v, stop, sign = _shot(grid, E)
    assert stop < n and sign in (-1.0, 0.0, 1.0)
    for x in (u, v):
        assert np.all(np.isfinite(x[:stop + 1])) and np.all(np.isnan(x[stop + 1:]))
    # the cached stack is kept for the next shot on the grid
    assert _kernels._last_grid[:2] == (grid, 1.5)


def test_a_grid_shot_again_reuses_its_coefficients():
    a = GRIDS[3]
    _warm(GRIDS[0], 1.5)  # the cache holds another grid
    _shot(a, 1.2)
    u = _shot(a, 1.7)[0]  # the second shot in a row adds rows p = 1..4
    key, Ec, stack = _kernels._last_grid
    assert (key, Ec) == (a, 1.2) and stack.shape[0] == 5

    # the next shot on the grid evaluates the stored stack
    d = 1.7 - 1.2
    d2 = d * d
    np.testing.assert_array_equal(_band(a, 1.7),
                                  np.array([d, d2, d2 * d, d2 * d2]) @ stack[1:] + stack[0])
    assert _kernels._last_grid[2] is stack
    np.testing.assert_array_equal(_shot(a, 1.7)[0], u)

    # a different grid never does
    m, lam, s, k, r0, h, n = a
    b = a[:5] + (1.01 * h,) + a[6:]
    np.testing.assert_array_equal(_band(b, 1.7), _row0(m, lam, s, k, 1.7, r0, b[5], n))
    assert _kernels._last_grid[:2] == (b, 1.7)


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
    switch interval, and returns the largest deviation of its shots from
    the same shots made serially beforehand.  With `prime` each thread
    first primes its grid's whole stack at its first energy."""
    serial = [[_shot(g, E) for E in energies] for g, energies in jobs]
    _kernels.warm_up()  # leaves another grid cached: the threads build every stack
    worst, errors = [], []

    def worker(job, refs):
        g, energies = job
        try:
            if prime:
                m, lam, s, k, r0, h, n = g
                _prime(m, lam, s, k, energies[0], r0, h, n)
            worst.append(max(_deviation(_shot(g, E), ref) for E, ref in zip(energies, refs)))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=job) for job in zip(jobs, serial)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(worst) == len(jobs)
    return max(worst)


def test_threads_shooting_different_grids_match_serial():
    grids = [(1.0, 0.2, 0.5, -1, 1e-5, 10.0 / 1000, 1000),
             (0.8, 0.6, 0.75, 1, 1e-5, 6.0 / 1001, 1001),
             (1.2, 0.4, 1.0, -2, 2e-5, 8.0 / 999, 999),
             (0.9, 0.3, 0.6, 2, 12.0, -8.0 / 1003, 1003)]
    energies = np.linspace(1.1, 2.4, 12)
    assert _threads_match_serial([(g, energies) for g in grids]) <= 1e-12


def test_threads_shooting_one_grid_match_serial():
    # three threads race to build and publish the grid's row p = 0 and
    # its rows p = 1..4, each centred at the energy its own first shot had;
    # a three-chunk build is long enough for another thread to shoot
    # while it runs, so a stack published before it is filled would show
    grid = GRIDS[2]
    energies = np.linspace(1.1, 2.4, 12)
    for _ in range(5):
        jobs = [(grid, energies), (grid, energies[::-1]), (grid, np.roll(energies, 6))]
        assert _threads_match_serial(jobs) <= 1e-12


def test_threads_priming_one_grid_match_serial():
    # as above, but each thread first installs the grid's whole stack,
    # centred at its own first energy, while the others shoot
    grid = GRIDS[2]
    energies = np.linspace(1.1, 2.4, 12)
    for _ in range(5):
        jobs = [(grid, energies), (grid, energies[::-1]), (grid, np.roll(energies, 6))]
        assert _threads_match_serial(jobs, prime=True) <= 1e-12
