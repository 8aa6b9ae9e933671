"""RK4 kernel: the one-grid cache of the step matrices' coefficients in E,
and batches of shots (rk4_paths)."""

import sys
import threading

import numpy as np
import pytest

from diraclinear import (
    PotentialMix,
    RadialGrid,
    _kernels,
    estimate_quasibound_energy,
    shooting,
    suggest_bracket,
)
from diraclinear._kernels import _CHUNK, _step_matrices, _transfer_matrices, rk4_path
from diraclinear._kernels import _BATCH_STEPS, _horner, batch_rows, rk4_paths

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


def _normwise(t, ref):
    """Largest deviation of a step matrix relative to that step's size."""
    return np.max(np.max(np.abs(t - ref), axis=(1, 2)) / np.max(np.abs(ref), axis=(1, 2)))


def _shot(grid, E):
    m, lam, s, k, r0, h, n = grid
    return rk4_path(m, lam, s, k, E, r0, h, n, 1e-6, -1e-12)


def _warm(grid, E):
    """T(E) from the grid's cached coefficients: after two calls in a row on
    a grid, the cache holds that grid's coefficients."""
    m, lam, s, k, r0, h, n = grid
    for _ in range(3):
        t = _transfer_matrices(m, lam, s, k, E, r0, h, n)
    return t


def _direct(grid, E):
    m, lam, s, k, r0, h, n = grid
    return _step_matrices(m, lam, s, k, E, r0, h, n)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_cached_step_matrices_match_direct_build(grid):
    for E in ENERGIES:
        assert _normwise(_warm(grid, E), _direct(grid, E)) <= 1e-15
    key, coef = _kernels._last_grid
    assert key == grid
    assert not coef.flags.writeable
    # five coefficient matrices per step, in step order
    n = grid[-1]
    assert coef.shape == (5, 2, 2, n)
    assert coef.nbytes == 160 * n


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_first_call_on_a_grid_is_the_direct_build(grid):
    other = GRIDS[(GRIDS.index(grid) + 1) % len(GRIDS)]
    _warm(other, 1.5)
    m, lam, s, k, r0, h, n = grid
    t = _transfer_matrices(m, lam, s, k, 1.5, r0, h, n)
    np.testing.assert_array_equal(t, _direct(grid, 1.5))
    assert _kernels._last_grid == (grid, None)


def test_alternating_grids_never_share_coefficients():
    a = GRIDS[0]
    # each differs from a in one entry of the key
    variants = [a[:i] + (value,) + a[i + 1:] for i, value in
                enumerate((1.1, 0.25, 0.6, 1, 30e-6, 1.01 * a[5], 4999))]
    for b in variants:
        for grid_seq in ([a, a, a, b, b, b, a, a, a], [a, b, a, b, a, a, b, b, b, a]):
            for i, grid in enumerate(grid_seq):
                E = 1.2 + 0.1 * i
                m, lam, s, k, r0, h, n = grid
                t = _transfer_matrices(m, lam, s, k, E, r0, h, n)
                ref = _direct(grid, E)
                assert t.shape == ref.shape
                assert _normwise(t, ref) <= 1e-15
                # the other grid's matrices are far off, so reusing them would show
                ref_other = _direct(b if grid is a else a, E)
                if ref_other.shape == ref.shape:
                    assert _normwise(ref_other, ref) > 1e-9


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


def test_threads_shooting_different_grids_match_serial():
    grids = [(1.0, 0.2, 0.5, -1, 1e-5, 10.0 / 1000, 1000),
             (0.8, 0.6, 0.75, 1, 1e-5, 6.0 / 1001, 1001),
             (1.2, 0.4, 1.0, -2, 2e-5, 8.0 / 999, 999),
             (0.9, 0.3, 0.6, 2, 12.0, -8.0 / 1003, 1003)]
    energies = np.linspace(1.1, 2.4, 12)
    serial = {g: [_shot(g, E) for E in energies] for g in grids}
    worst, errors = {}, []

    def worker(g):
        try:
            worst[g] = max(_deviation(_shot(g, E), ref)
                           for E, ref in zip(energies, serial[g]))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(g,)) for g in grids]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(worst) == len(grids)
    assert max(worst.values()) <= 1e-12


# ---------------------------------------------------------------- batches
# one batch on distinct grids, all with n = 1001 steps: rows (E, r0, h, u0,
# v0) for the stiff pure-scalar (m, lam, s, k) below.  The first two overflow, with opposite
# signs; the last two run inward.
STIFF = (1.0, 4.5, 1.0, -1)
N_ROWS = 1001
ROWS = [(2.0, 25e-6, (25.0 - 25e-6) / N_ROWS, 1e-6, -1e-12),
        (6.0, 25e-6, (25.0 - 25e-6) / N_ROWS, 1e-6, -1e-12),
        (3.0, 25e-6, (2.0 - 25e-6) / N_ROWS, 1e-6, -1e-12),
        (6.0, 1e-5, (1.5 - 1e-5) / N_ROWS, 2e-6, 3e-9),
        (2.5, 3.0, -2.5 / N_ROWS, 1e-30, -1e-30),
        (4.0, 2.5, -2.2 / N_ROWS, 1e-20, 1e-20)]


def _first_call(m, lam, s, k, E, r0, h, n, u0, v0):
    """rk4_path on a direct build: the first call on a grid builds its step
    matrices directly."""
    _kernels._last_grid = (None, None)
    return rk4_path(m, lam, s, k, E, r0, h, n, u0, v0)


def _batch(grid, energies):
    """rk4_paths at each energy on one grid, launched as _shot launches."""
    m, lam, s, k, r0, h, n = grid
    rows = len(energies)
    return rk4_paths(m, lam, s, k, energies, [r0] * rows, [h] * rows, n,
                     [1e-6] * rows, [-1e-12] * rows)


def test_batch_on_distinct_grids_matches_direct_single_shots():
    m, lam, s, k = STIFF
    E, r0, h, u0, v0 = (np.array(c) for c in zip(*ROWS))
    # the cache holds one row's coefficients; a batch that used them would
    # differ from the direct build in the last bits
    for _ in range(3):
        rk4_path(m, lam, s, k, E[2], r0[2], h[2], N_ROWS, u0[2], v0[2])
    assert _kernels._last_grid[1] is not None

    u, v, stop, sign = rk4_paths(m, lam, s, k, E, r0, h, N_ROWS, u0, v0)
    assert u.shape == v.shape == (len(ROWS), N_ROWS + 1)
    assert _kernels._last_grid == (None, None)
    for q, row in enumerate(ROWS):
        ur, vr, stop_r, sign_r = _first_call(m, lam, s, k, *row[:3], N_ROWS, *row[3:])
        assert (stop[q], sign[q]) == (stop_r, sign_r)
        # equal bit for bit, NaN where the reference is NaN
        np.testing.assert_array_equal(u[q], ur)
        np.testing.assert_array_equal(v[q], vr)
        assert np.all(np.isfinite(u[q, :stop[q] + 1])) and np.all(np.isnan(u[q, stop[q] + 1:]))
    assert list(stop < N_ROWS) == [True, True, False, False, False, False]
    assert sorted(sign[:2]) == [-1.0, 1.0] and not sign[2:].any()


# here the four lowest energies overflow just before the end, the rest do not
STIFF_GRID = STIFF + (25e-6, (16.0 - 25e-6) / N_ROWS, N_ROWS)


@pytest.mark.parametrize("grid", [GRIDS[0], GRIDS[1], STIFF_GRID],
                         ids=["outward-one-shot-passes", "inward-two-passes", "overflowing"])
def test_batch_on_one_grid_matches_sequential_cached_shots(grid):
    energies = np.linspace(0.9, 6.0, 9)
    _warm(grid, 1.5)
    sequential = [_shot(grid, E) for E in energies]
    u, v, stop, sign = _batch(grid, energies)
    for q, ref in enumerate(sequential):
        assert _deviation((u[q], v[q], stop[q], sign[q]), ref) <= 1e-15
    if grid is STIFF_GRID:
        assert (stop < grid[-1]).any() and (stop == grid[-1]).any()


def test_one_grid_batch_leaves_its_coefficients_for_the_next_single_shot():
    a = GRIDS[3]
    _warm(GRIDS[0], 1.5)  # the cache holds another grid
    u = _batch(a, [1.2, 1.7, 2.9])[0]
    key, coef = _kernels._last_grid
    assert key == a and coef is not None

    # the next single shot on the grid reuses the stored coefficients
    m, lam, s, k, r0, h, n = a
    np.testing.assert_array_equal(_transfer_matrices(m, lam, s, k, 1.7, r0, h, n),
                                  _horner(coef, 1.7))
    assert _kernels._last_grid[1] is coef
    np.testing.assert_array_equal(_shot(a, 1.7)[0], u[1])

    # a different grid never does, whether shot alone or in a batch with a
    b = a[:5] + (1.01 * a[5],) + a[6:]
    np.testing.assert_array_equal(_transfer_matrices(m, lam, s, k, 1.7, r0, b[5], n),
                                  _direct(b, 1.7))
    assert _kernels._last_grid == (b, None)
    _batch(a, [1.2, 1.7])
    ua = rk4_paths(m, lam, s, k, [1.7, 1.7], [r0, r0], [h, b[5]], n, [1e-6] * 2, [-1e-12] * 2)[0]
    assert _kernels._last_grid == (None, None)
    np.testing.assert_array_equal(ua[0], _first_call(m, lam, s, k, 1.7, r0, h, n, 1e-6, -1e-12)[0])

    # one shot is rk4_path, with its one-grid cache
    u1 = rk4_paths(m, lam, s, k, [1.7], [r0], [b[5]], n, [1e-6], [-1e-12])[0]
    assert _kernels._last_grid == (b, None)
    np.testing.assert_array_equal(u1[0], _first_call(m, lam, s, k, 1.7, r0, b[5], n, 1e-6, -1e-12)[0])


def test_batch_sizes_respect_the_step_cap(monkeypatch):
    for n in (100, 500, 1000, 4000, 4097, 8192, 16384, 16385, 20000, 10 ** 6):
        assert batch_rows(n) >= 1
        assert batch_rows(n) == 1 or batch_rows(n) * n <= _BATCH_STEPS
    # a pass of two or three long shots would be slower than single shots
    assert [batch_rows(n) for n in (2049, 4096, 4097, 8192, 20000)] == [7, 4, 1, 1, 1]

    # the scans never pass more, and at n = 20000 they shoot one energy at a time
    calls = []
    real = shooting.rk4_paths

    def recording(m, lam, s, k, E, r0, h, n, u0, v0):
        calls.append((len(E), n))
        return real(m, lam, s, k, E, r0, h, n, u0, v0)

    monkeypatch.setattr(shooting, "rk4_paths", recording)
    for n in (500, 1000, 4000, 20000):
        grid = RadialGrid(25e-6, 25.0, n)
        suggest_bracket(1.0, PotentialMix(0.2, 0.5), -1, grid)
        estimate_quasibound_energy(1.0, PotentialMix(0.2, 0.0), -1, grid)
    assert {n for _, n in calls} == {500, 1000, 4000, 20000}
    assert all(rows * n <= _BATCH_STEPS for rows, n in calls if n < 20000)
    assert any(rows > 1 for rows, _ in calls)
    assert all(rows == 1 for rows, n in calls if n == 20000)
