"""RK4 kernel property: rk4_path, on an unprimed grid's shot and on a
grid's stack primed at that shot's energy, follows a plain per-step RK4
loop over seeded draws of the whole parameter domain, outward and inward,
overflowing shots included, and on coarse steps far from the centre, where
a shot past |h| |E - E_c| = 1 builds its own step matrices; the one-pass
build's row p = 0 equals that row built apart; a shot over the first j
steps of a longer stack, or the first j steps of a shot over all of it,
is the shot over a j-step stack to the bit; and on synthetic bands
whose paths grow past the sum-of-squares test's 1.34e154 and the 1e250
cap, rk4_path stops where the exact max/min rule does."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg.lapack import dtbtrs
from test_shooting import _reference_rk4

from diraclinear import _kernels
from diraclinear._kernels import _prime, _row0, rk4_path

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

    # an unprimed shot builds its row p = 0 at its own energy; given the
    # grid's stack primed there, at the centre E_c, its shots evaluate the
    # stack in E - E_c
    assert _deviation(rk4_path(m, lam, s, k, energies[0], r0, h, n, *launch), refs[0]) <= 1e-12
    primed = _prime(m, lam, s, k, energies[0], r0, h, n)
    for e, ref in zip(energies, refs):
        assert _deviation(rk4_path(m, lam, s, k, e, r0, h, n, *launch, _primed=primed),
                          ref) <= 1e-12


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
    # the first is unprimed; then the grid is primed at the centre
    for e, primed in ((centre, None), (energy, _prime(m, lam, s, k, centre, r0, h, n))):
        ref = _reference_rk4(m, lam, s, k, e, r0, h, n, *launch)
        assert _deviation(rk4_path(m, lam, s, k, e, r0, h, n, *launch, _primed=primed),
                          ref) <= 1e-12


def test_shots_within_unit_reach_take_the_cached_stack(monkeypatch):
    # on a grid primed at the centre, a shot at |h| |E - E_c| = 0.9
    # evaluates the stack, one at 1.1 builds its own row p = 0
    m, lam, s, k, r0, h, n = 1.0, 1.0, 0.7, -1, 0.25, 0.5, 30
    centre = 2.0
    primed = _prime(m, lam, s, k, centre, r0, h, n)
    built = []
    real = _kernels._row0

    def recording(m, lam, s, k, E, *grid):
        built.append(E)
        return real(m, lam, s, k, E, *grid)

    monkeypatch.setattr(_kernels, "_row0", recording)
    for e in (centre, centre + 0.9 / h, centre - 0.9 / h, centre + 1.1 / h):
        ref = _reference_rk4(m, lam, s, k, e, r0, h, n, 1e-6, -1e-12)
        assert _deviation(rk4_path(m, lam, s, k, e, r0, h, n, 1e-6, -1e-12, _primed=primed),
                          ref) <= 1e-12
    assert built == [centre + 1.1 / h]


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 1.0), k=st.sampled_from((-2, -1, 1, 2)),
       centre=st.floats(0.0, 10.0),
       n=st.sampled_from((7, 100, _kernels._CHUNK, _kernels._CHUNK + 1, 5000)),
       inward=st.booleans(), step=st.floats(0.002, 0.05), start=st.floats(1e-3, 1.0))
def test_one_pass_stack_equals_its_rows_built_apart(m, lam, s, k, centre, n, inward, step,
                                                      start):
    # _CHUNK and _CHUNK + 1 steps end a chunk exactly and one step past it
    r0, h = (start + n * step, -step) if inward else (start, step)
    Ec, stack = _prime(m, lam, s, k, centre, r0, h, n)
    assert Ec == centre
    assert stack.shape == (5, 8 * (n + 1))
    # row p = 0 is the same bits whether or not rows p = 1..4 share its pass
    np.testing.assert_array_equal(stack[0], _row0(m, lam, s, k, centre, r0, h, n)[0])


def _bits(a):
    """a's bits, every NaN as one pattern."""
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 1.0), k=st.sampled_from((-2, -1, 1, 2)),
       level=st.floats(0.0, 1.0), n=st.integers(100, 2000), scale=st.floats(0.5, 1.5),
       step=st.floats(0.002, 0.05))
# paths that overflow before the j-step radius, and between it and L
@example(m=1.0, lam=1.0, s=1.0, k=-1, level=0.37, n=2000, scale=1.5, step=0.05)
@example(m=1.0, lam=1.0, s=1.0, k=-1, level=0.37, n=2000, scale=0.5, step=0.025)
def test_prefix_shots_of_a_longer_stack_equal_shots_of_its_own(m, lam, s, k, level, n, scale,
                                                              step):
    # the quasi-bound estimator's fixed grid: a stack of
    # L = max(round(1.1 n), j) steps, shot for j = round(scale n) steps,
    # and shot for all L steps, whose first j steps it reads
    j = round(scale * n)
    long = max(round(1.1 * n), j)
    r0, launch = 1e-5, (1e-6, -1e-12)
    centre = m + 10.0 * math.sqrt(lam) * level
    stacks = [_prime(m, lam, s, k, centre, r0, step, steps) for steps in (j, long)]
    # at the centre, within unit reach, and past it, where a shot builds
    # its own row p = 0 over as many steps as it takes
    for e in (centre, centre + 0.01, centre - 0.3 / step, centre + 1.5 / step):
        u, v, stop, sign = rk4_path(m, lam, s, k, e, r0, step, j, *launch, _primed=stacks[0])
        prefix = rk4_path(m, lam, s, k, e, r0, step, j, *launch, _primed=stacks[1])
        np.testing.assert_array_equal(_bits(prefix[0]), _bits(u))
        np.testing.assert_array_equal(_bits(prefix[1]), _bits(v))
        assert prefix[2:] == (stop, sign)
        whole = rk4_path(m, lam, s, k, e, r0, step, long, *launch, _primed=stacks[1])
        np.testing.assert_array_equal(_bits(whole[0][:j + 1]), _bits(u))
        np.testing.assert_array_equal(_bits(whole[1][:j + 1]), _bits(v))
        assert (min(whole[2], j), whole[3] if whole[2] < j else 0.0) == (stop, sign)


_GROWTH = st.tuples(st.floats(-50.0, 330.0), st.sampled_from((1.0, -1.0)))
_LAUNCH = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@given(n=st.integers(1, 300), gu=_GROWTH, gv=_GROWTH, u0=_LAUNCH, v0=_LAUNCH)
# u passes 1.34e154, where x.x overflows, but stays below the cap
@example(n=50, gu=(200.0, 1.0), gv=(0.0, 1.0), u0=1.0, v0=1.0)
# v crosses the cap while u stays small, and u changes sign every step
@example(n=40, gu=(0.0, -1.0), gv=(300.0, 1.0), u0=-2.0, v0=1.0)
def test_synthetic_band_paths_stop_where_the_max_min_rule_does(n, gu, gv, u0, v0):
    # every step matrix is diag(gu, gv), |g| = 10^(decades / n): the path
    # grows by up to 330 decades, past 1.34e154, the cap and the largest
    # double, as a growing tail does
    (du, su), (dv, sv) = gu, gv
    ab = np.zeros((n + 1, 8))
    ab[:, 0] = ab[:, 4] = 1.0
    ab[:n, 2] = -su * 10.0 ** (du / n)  # -T00
    ab[:n, 6] = -sv * 10.0 ** (dv / n)  # -T11
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_transfer_matrices", lambda *args: ab.reshape(-1))
        u, v, stop, sign = rk4_path(1.0, 1.0, 0.5, -1, 1.5, 0.1, 0.01, n, u0, v0)

    # the exact rule on the same solve: the first entry past the cap, or
    # not finite, ends the path; its u's sign, or the last finite u's
    x = np.zeros(2 * n + 2)
    x[:2] = u0, v0
    with np.errstate(all="ignore"):
        x = dtbtrs(ab.reshape(-1, 4).T, x, uplo="L", diag="U")[0].reshape(-1, 2)
    cap = _kernels._OVERFLOW_CAP
    bad = [i for i in range(1, n + 1) if not (abs(x[i, 0]) <= cap and abs(x[i, 1]) <= cap)]
    if not bad:
        assert (stop, sign) == (n, 0.0)
        np.testing.assert_array_equal(np.stack([u, v], axis=1), x)
        return
    i = bad[0]
    un, uu = x[i, 0], x[i - 1, 0]
    want = np.sign(un) if np.isfinite(un) and un != 0.0 else np.sign(uu)
    assert (stop, sign) == (i - 1, want)
    np.testing.assert_array_equal(np.stack([u, v], axis=1)[:i], x[:i])
    assert np.isnan(u[i:]).all() and np.isnan(v[i:]).all()
