"""RK4 kernel property: rk4_path, on a grid's first shot and on its cached
stack centred at that shot's energy, follows a plain per-step RK4 loop over
seeded draws of the whole parameter domain, outward and inward,
overflowing shots included, and on coarse steps far from the centre."""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from test_shooting import _reference_rk4

from diraclinear._kernels import rk4_path, warm_up

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
