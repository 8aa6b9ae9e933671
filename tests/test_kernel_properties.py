"""RK4 kernel property: rk4_path, on a grid's first shot and on its cached
stack centred at that shot's energy, follows a plain per-step RK4 loop over
seeded draws of the whole parameter domain, outward and inward,
overflowing shots included, and on coarse steps far from the centre, where
a shot past |h| |E - E_c| = 1 builds its own step matrices; and the
one-pass build of a grid's whole stack equals its rows built apart."""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from test_shooting import _reference_rk4

from diraclinear import _kernels
from diraclinear._kernels import _prime, _row0, _stack, rk4_path, warm_up

SCALES = st.floats(0.5, 2.0)


def _deviation(got, ref):
    """Largest deviation of a shot from the reference, relative to the size
    the reference has reached so far; raises on a differing stop, sign or
    NaN pattern."""
    u, v, stop, sign = got
    ur, vr, stop_r, sign_r = ref
    assert (stop, sign) == (stop_r, sign_r)
    np.testing.assert_array_equal(np.isnan(u), np.isnan(ur))
    np.testing.assert_array_equal(np.isnan(v), np.isnan(vr))
    fin = slice(0, stop + 1)
    scale = np.maximum.accumulate(np.hypot(ur[fin], vr[fin]))
    return max(np.max(np.abs(u[fin] - ur[fin]) / scale),
               np.max(np.abs(v[fin] - vr[fin]) / scale))


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 1.0), k=st.sampled_from((-2, -1, 1, 2)),
       level=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       n=st.sampled_from((7, 100, 1000)), inward=st.booleans(),
       step=st.floats(0.002, 0.05), start=st.floats(1e-3, 1.0))
# a long outward shot between levels, whose growing tail passes the cap
@example(m=1.0, lam=1.0, s=1.0, k=-1, level=0.37, n=1000, inward=False, step=0.05, start=1e-3)
def test_paths_follow_the_per_step_reference(m, lam, s, k, level, n, inward, step, start):
    # steps up to 0.05 cover the solvers' grids (0.01 to 0.05 at the
    # benchmark's sizes); the stack is a power basis in E - E_c, so what
    # counts is |h| |E - E_c|, which the coarse-step property below covers
    r0, h = (start + n * step, -step) if inward else (start, step)
    energies = [m + 10.0 * math.sqrt(lam) * x for x in (level, 0.5 * level, 0.5 + 0.5 * level)]
    launch = (1e-6, -1e-12)
    refs = [_reference_rk4(m, lam, s, k, e, r0, h, n, *launch) for e in energies]

    # the first call on a grid builds its row p = 0 at its own energy, the
    # centre E_c; the shots after it evaluate the grid's stack in E - E_c
    warm_up()  # leaves another grid in the cache
    assert _deviation(rk4_path(m, lam, s, k, energies[0], r0, h, n, *launch), refs[0]) <= 1e-12
    for e, ref in zip(energies, refs):
        assert _deviation(rk4_path(m, lam, s, k, e, r0, h, n, *launch), ref) <= 1e-12


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 1.0), k=st.sampled_from((-2, -1, 1, 2)),
       energy=st.floats(0.0, 10.0), reach=st.floats(-12.0, 12.0),
       n=st.sampled_from((7, 30)), inward=st.booleans(),
       step=st.floats(0.05, 1.3), start=st.floats(1e-3, 1.0))
# coarse steps at |h| E ~ 10, 8.75 from the centre, where a Horner sum in E
# itself lost digits
@example(m=1.0, lam=1.0, s=0.0, k=-2, energy=9.75, reach=11.25, n=7, inward=False,
         step=9.0 / 7.0, start=1.0)
# reaches 5 and 8, where the stack's power basis in E - E_c read 2.3e-12 and
# 1.4e-12 before shots past reach 1 built their own step matrices
@example(m=1.78125, lam=1.1015625, s=0.875, k=1, energy=4.71875, reach=5.0, n=30,
         inward=False, step=0.375, start=0.25)
@example(m=0.5, lam=1.25, s=0.375, k=-2, energy=0.0, reach=8.0, n=7, inward=False,
         step=1.25, start=1.0)
def test_coarse_steps_far_from_the_centre_follow_the_per_step_reference(
        m, lam, s, k, energy, reach, n, inward, step, start):
    # reach = |h| (E - E_c), up to 12 either side of the grid's centre
    r0, h = (start + n * step, -step) if inward else (start, step)
    centre = energy - reach / step
    launch = (1e-6, -1e-12)
    warm_up()  # leaves another grid in the cache
    for e in (centre, energy):  # the first builds row p = 0, the second the rest
        ref = _reference_rk4(m, lam, s, k, e, r0, h, n, *launch)
        assert _deviation(rk4_path(m, lam, s, k, e, r0, h, n, *launch), ref) <= 1e-12


def test_shots_within_unit_reach_take_the_cached_stack(monkeypatch):
    # a grid's first shot builds row p = 0 at its energy, the centre; a shot
    # at |h| |E - E_c| = 0.9 evaluates the stack, one at 1.1 builds its own
    m, lam, s, k, r0, h, n = 1.0, 1.0, 0.7, -1, 0.25, 0.5, 30
    warm_up()  # leaves another grid in the cache
    built = []
    real = _kernels._row0

    def recording(m, lam, s, k, E, *grid):
        built.append(E)
        return real(m, lam, s, k, E, *grid)

    monkeypatch.setattr(_kernels, "_row0", recording)
    centre = 2.0
    for e in (centre, centre + 0.9 / h, centre - 0.9 / h, centre + 1.1 / h):
        ref = _reference_rk4(m, lam, s, k, e, r0, h, n, 1e-6, -1e-12)
        assert _deviation(rk4_path(m, lam, s, k, e, r0, h, n, 1e-6, -1e-12), ref) <= 1e-12
    assert built == [centre, centre + 1.1 / h]
    assert len(_kernels._last_grid[2]) == 5  # rows p = 0..4, centred at the first shot


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 1.0), k=st.sampled_from((-2, -1, 1, 2)),
       centre=st.floats(0.0, 10.0), n=st.sampled_from((7, 100, 2048, 2049, 5000)),
       inward=st.booleans(), step=st.floats(0.002, 0.05), start=st.floats(1e-3, 1.0))
def test_one_pass_stack_equals_its_rows_built_apart(m, lam, s, k, centre, n, inward, step,
                                                      start):
    # 2048 and 2049 steps end a chunk exactly and one step past it
    r0, h = (start + n * step, -step) if inward else (start, step)
    # priming the cached grid is a no-op, and a draw may repeat the last
    # draw's grid at another centre: cache another grid first
    warm_up()
    _prime(m, lam, s, k, centre, r0, h, n)
    key, Ec, stack = _kernels._last_grid
    assert (key, Ec) == ((m, lam, s, k, r0, h, n), centre)
    higher = np.zeros((4, n + 1, 8))
    _stack(m, lam, s, k, centre, r0, h, n, False, True, higher)
    np.testing.assert_array_equal(stack[0], _row0(m, lam, s, k, centre, r0, h, n)[0])
    np.testing.assert_array_equal(stack[1:], higher.reshape(4, -1))
