"""RK4 kernel: the one-grid cache of the step matrices' coefficients in E."""

import sys
import threading

import numpy as np
import pytest

from diraclinear import _kernels
from diraclinear._kernels import _CHUNK, _horner, _step_matrices, _transfer_matrices, rk4_path

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


def test_a_grid_shot_again_reuses_its_coefficients():
    a = GRIDS[3]
    _warm(GRIDS[0], 1.5)  # the cache holds another grid
    _shot(a, 1.2)
    u = _shot(a, 1.7)[0]  # the second shot in a row stores the coefficients
    key, coef = _kernels._last_grid
    assert key == a and coef is not None

    # the next shot on the grid reuses the stored coefficients
    m, lam, s, k, r0, h, n = a
    np.testing.assert_array_equal(_transfer_matrices(m, lam, s, k, 1.7, r0, h, n),
                                  _horner(coef, 1.7))
    assert _kernels._last_grid[1] is coef
    np.testing.assert_array_equal(_shot(a, 1.7)[0], u)

    # a different grid never does
    b = a[:5] + (1.01 * a[5],) + a[6:]
    np.testing.assert_array_equal(_transfer_matrices(m, lam, s, k, 1.7, r0, b[5], n),
                                  _direct(b, 1.7))
    assert _kernels._last_grid == (b, None)
