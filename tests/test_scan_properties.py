"""Scan equivalence: the bisected scans give what per-shot scans give.

suggest_bracket and estimate_quasibound_energy bisect their scan energies
on a sign-change count.  These properties pin both, bit for bit, to
references written here that shoot one integrate_radial per energy and
walk the scan up to its first transition, as the scans did before they
were bisected, the estimator's reference also widening a bracket with no
sign change at r_mid step by step where the estimator scans at r_mid; and
they pin the scans started at the WKB level's index
(_scan_index), or at any wild index, and the estimator's scan started
from the last scan's index, to the scans started cold, the estimator's
also on grids too coarse for the Airy length, where the node scan
refuses to run; and they check that the estimator's scan on a count
raised by a constant, where a level lies below its first energy, is
refused for a scan step that does not resolve the levels, that no
energy is shot twice on the estimator's fixed grid, and that an estimate
on a grid hint that other scales and problems used before is the one a
fresh hint gives, its r_mid exactly midpoint_scale times the central one.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq

from diraclinear import (
    PotentialMix,
    RadialGrid,
    ScanError,
    equal_mix_energy,
    estimate_quasibound_energy,
    integrate_radial,
    shooting,
    suggest_bracket,
)
from diraclinear.model import turning_points

SCALES = st.floats(0.5, 2.0)
CHANNELS = st.sampled_from((-1, 1, -2))
STEPS = st.sampled_from((100, 500, 1000))


def _outcome(fn, *args, **kwargs):
    """fn's result, or the ScanError it raised as (type name, message)."""
    try:
        return fn(*args, **kwargs)
    except ScanError as exc:
        return ("ScanError", str(exc))


def _per_shot_estimate(m, mix, k, grid_hint, midpoint_scale):
    """estimate_quasibound_energy with one integrate_radial per shot: every
    one of the 97 scan energies shot to its own unscaled Dirichlet point,
    the walk to the first sign change, then r_mid, the bracket midpoint's
    Dirichlet point times midpoint_scale, the fixed-radius widening and
    Brent on a grid primed at the bracket's lower end, as the estimator
    primes it.  The estimator scans again at r_mid where this widens a
    bracket with no sign change there one scan step at a time, so the two
    searches are checked against each other."""
    def dirichlet_radius(e):
        tp = turning_points(m, e, mix)
        cap = tp.r1 + 10.0 / (mix.lam * (m + e)) ** (1.0 / 3.0)
        return min(0.5 * (tp.r1 + tp.r3), cap)

    def grid_at(r_mid):
        return RadialGrid(r_min=min(grid_hint.r_min, 1e-6 * r_mid), r_max=r_mid, n=grid_hint.n)

    def endpoint_u(e, grid):
        sol = integrate_radial(m, mix, k, e, grid)
        if sol.diverged:
            return math.inf * sol.divergence_sign
        return float(sol.u[-1])

    width = 10.0 * math.sqrt(mix.lam)
    steps = 96
    energies = [m + width / (2.0 * steps)] + [m + width * i / steps for i in range(1, steps + 1)]
    values = [endpoint_u(e, grid_at(dirichlet_radius(e))) for e in energies]
    bracket = None
    for i in range(1, len(energies)):
        if values[i - 1] == 0.0:
            return energies[i - 1]
        if values[i - 1] * values[i] < 0:
            bracket = (energies[i - 1], energies[i])
            break
    if bracket is None:
        raise ScanError(
            f"no Dirichlet sign change in the scan window "
            f"({m}, {m + width}); no quasi-bound level found")

    lo, hi = bracket
    r_mid = midpoint_scale * dirichlet_radius(0.5 * (lo + hi))
    fixed = grid_at(r_mid)
    shooting._prime_grid(m, mix, k, lo, fixed)
    f_lo, f_hi = endpoint_u(lo, fixed), endpoint_u(hi, fixed)
    step = width / steps
    while f_lo * f_hi > 0:
        down = abs(f_lo) <= abs(f_hi)
        e = lo - step if down else hi + step
        if not m < e <= m + width:
            raise ScanError(
                f"no Dirichlet sign change at r_mid = {r_mid} within the scan "
                f"window ({m}, {m + width}) around ({bracket[0]}, {bracket[1]})")
        f = endpoint_u(e, fixed)
        if down:
            if f * f_lo <= 0:
                hi, f_hi = lo, f_lo
            lo, f_lo = e, f
        else:
            if f * f_hi <= 0:
                lo, f_lo = hi, f_hi
            hi, f_hi = e, f

    ends = {lo: f_lo, hi: f_hi}

    def residual(e):
        f = ends[e] if e in ends else endpoint_u(e, fixed)
        if not math.isfinite(f):
            raise ScanError(
                f"the shot at E = {e} overflows before the Dirichlet point "
                f"r_mid = {r_mid}; no finite residual to converge on")
        return f

    return brentq(residual, lo, hi, xtol=1e-11 * m)


def _per_shot_bracket(m, mix, k, grid, nodes, steps=64):
    """suggest_bracket with one integrate_radial per scan energy, after
    the same refusal of a grid too coarse for the Airy length."""
    level = shooting._wkb_level(m, mix.lam, mix.s, k, nodes)
    if level is not None:
        shooting._require_resolved(m, mix, nodes, level, grid)
    width = 10.0 * math.sqrt(mix.lam)
    energies = [m + width / (4.0 * steps)] + (m + width * np.arange(1, steps + 1) / steps).tolist()
    counts = [integrate_radial(m, mix, k, e, grid).node_count for e in energies]
    for i in range(1, len(energies)):
        if counts[i - 1] <= nodes < counts[i]:
            return energies[i - 1], energies[i]
    raise ScanError(
        f"no {nodes}-node eigenvalue transition in (m, m + 10*sqrt(lambda)) "
        f"= ({m}, {m + width})")


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 0.49), k=CHANNELS, n=STEPS,
       midpoint_scale=st.sampled_from((0.9, 1.0, 1.1)))
# benchmark requests whose scan bracket shows no sign change at r_mid, so
# that the estimator's scan there moves the bracket one step up: they give
# 2.03505423515708, 2.2485303366344356 and 2.5537253047510746
@example(m=0.5596871756808461, lam=0.5544641921036341, s=0.0, k=-1, n=500,
         midpoint_scale=0.9)
@example(m=0.5046881560672422, lam=0.6942935143169602, s=0.0, k=-1, n=500,
         midpoint_scale=0.9)
@example(m=0.5765176655160362, lam=0.8953068293743749, s=0.0, k=-1, n=500,
         midpoint_scale=0.9)
def test_quasibound_estimate_equals_per_shot_scan(m, lam, s, k, n, midpoint_scale):
    mix = PotentialMix(lam, s)
    hint = RadialGrid(25e-6, 25.0, n)
    batched = _outcome(estimate_quasibound_energy, m, mix, k, hint, midpoint_scale)
    reference = _outcome(_per_shot_estimate, m, mix, k, hint, midpoint_scale)
    assert type(batched) is type(reference)
    assert batched == reference  # float equality: the same bits


@given(m=SCALES, lam=SCALES, s=st.floats(0.5, 1.0), k=CHANNELS, n=STEPS,
       nodes=st.sampled_from((0, 1, 2, 12)), steps=st.sampled_from((16, 64, 256)))
def test_suggest_bracket_equals_per_shot_node_scan(m, lam, s, k, n, nodes, steps):
    mix = PotentialMix(lam, s)
    rmax = 10.0 / math.sqrt(lam)
    grid = RadialGrid(1e-6 * rmax, rmax, n)
    batched = _outcome(suggest_bracket, m, mix, k, grid, nodes, steps)
    reference = _outcome(_per_shot_bracket, m, mix, k, grid, nodes, steps)
    assert batched == reference


def test_node_entering_through_the_dirichlet_point_counts():
    # scan energy 18 crosses zero in its last step, so only a count that
    # takes in u(r_mid) sees it; one of the interior nodes alone brackets
    # the next crossing and converges to 2.3095157601692935
    m, mix = 0.7358847923680774, PotentialMix(0.7062867500442369, 0.0)
    hint = RadialGrid(25e-6, 25.0, 500)
    e = estimate_quasibound_energy(m, mix, -1, hint)
    assert e == _per_shot_estimate(m, mix, -1, hint, 1.0)
    assert e == pytest.approx(2.3137887272401096, abs=1e-9)


@given(lo=st.integers(-1, 40), size=st.integers(1, 60), turn=st.integers(1, 61),
       start=st.one_of(st.none(), st.integers(-3, 105)))
def test_first_above_with_any_start_equals_bisection(lo, size, turn, start):
    hi = lo + size
    probed = []

    def above(i):
        assert lo < i < hi
        probed.append(i)
        return i >= lo + turn

    plain = shooting._first_above(lambda i: i >= lo + turn, lo, hi)
    assert shooting._first_above(above, lo, hi, start) == plain
    if start is not None and lo < start - 1 and start == plain < hi:
        assert probed == [start, start - 1]


def _starting_at(start, fn, *args):
    """fn's outcome with every scan's WKB start replaced by `start`
    (None: a cold bisection)."""
    real = shooting._scan_index
    shooting._scan_index = lambda *_: start
    try:
        return _outcome(fn, *args)
    finally:
        shooting._scan_index = real


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 0.49), k=CHANNELS, n=STEPS)
def test_warm_scan_estimates_equal_cold_ones(m, lam, s, k, n):
    mix = PotentialMix(lam, s)
    scales = (1.0, 0.9, 1.1)
    cold, guessed = [], []
    for c in scales:
        # each on a fresh grid hint, which holds no scan index
        cold.append(_starting_at(None, estimate_quasibound_energy, m, mix, k,
                                 RadialGrid(25e-6, 25.0, n), c))
        guessed.append(_outcome(estimate_quasibound_energy, m, mix, k,
                                RadialGrid(25e-6, 25.0, n), c))
    hint = RadialGrid(25e-6, 25.0, n)
    warm = [_outcome(estimate_quasibound_energy, m, mix, k, hint, c) for c in scales]
    assert guessed == cold  # float equality: the same bits
    assert warm == cold


@given(m=st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x),
       lam=st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x), s=st.floats(0.0, 0.49),
       k=st.integers(-60, 60).filter(bool), n=st.integers(100, 500),
       midpoint_scale=st.sampled_from((0.9, 1.0, 1.1)))
def test_the_wkb_start_never_changes_an_estimate(m, lam, s, k, n, midpoint_scale):
    # the estimator starts at the WKB level's index on every grid, also on
    # one whose step exceeds a quarter of the Airy length there, which the
    # node scan refuses: a start changes only which energies are shot, so
    # the estimate is the cold bisection's, unless the cold search fails
    # at an energy that the start never shoots
    mix = PotentialMix(lam, s)
    try:
        cold = _starting_at(None, estimate_quasibound_energy, m, mix, k,
                            RadialGrid(25e-6, 25.0, n), midpoint_scale)
    except ValueError:  # a launch that underflows, say
        return
    hint = RadialGrid(25e-6, 25.0, n)  # holds no scan index: the WKB start
    assert _outcome(estimate_quasibound_energy, m, mix, k, hint, midpoint_scale) == cold


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 0.49), k=CHANNELS, n=STEPS,
       other=st.tuples(SCALES, SCALES, st.floats(0.0, 0.49), CHANNELS),
       order=st.lists(st.tuples(st.sampled_from((0, 1)), st.sampled_from((1.0, 0.9, 1.1))),
                      min_size=1, max_size=6))
def test_estimates_on_a_shared_hint_equal_fresh_ones(m, lam, s, k, n, other, order):
    # a hint keeps the scan index and shots of the last problem estimated
    # on it: whatever scales and problems ran on it before, each estimate
    # is the one a fresh hint gives, and the fixed grid of scale c ends at
    # c times the central estimate's r_mid
    problems = [(m, PotentialMix(lam, s), k),
                (other[0], PotentialMix(other[1], other[2]), other[3])]
    real = shooting._prime_grid
    primed = []

    def recording(m, mix, k, e, grid):  # the estimator primes only its fixed grid
        primed.append(grid.r_max)
        return real(m, mix, k, e, grid)

    shooting._prime_grid = recording
    try:
        fresh, r_mid = {}, {}
        for p, problem in enumerate(problems):
            for c in (1.0, 0.9, 1.1):
                primed.clear()
                fresh[p, c] = _outcome(estimate_quasibound_energy, *problem,
                                       RadialGrid(25e-6, 25.0, n), c)
                r_mid[p, c] = primed[-1] if primed else None
        hint = RadialGrid(25e-6, 25.0, n)
        shared = [_outcome(estimate_quasibound_energy, *problems[p], hint, c) for p, c in order]
    finally:
        shooting._prime_grid = real
    assert shared == [fresh[p, c] for p, c in order]  # float equality: the same bits
    for p in range(len(problems)):
        central = r_mid[p, 1.0]
        for c in (0.9, 1.1):
            assert r_mid[p, c] == (None if central is None else c * central)


@given(m=SCALES, lam=SCALES, s=st.floats(0.5, 1.0), k=st.sampled_from((-2, -1, 1)),
       nodes=st.integers(0, 3), n=st.sampled_from((1000, 4000)))
def test_guessed_node_scans_equal_cold_ones(m, lam, s, k, nodes, n):
    # the benchmark's grids: 10/sqrt(lambda) long, which resolves every
    # Airy length in the window, so every draw gets a WKB start
    mix = PotentialMix(lam, s)
    rmax = 10.0 / math.sqrt(lam)
    grid = RadialGrid(1e-6 * rmax, rmax, n)
    level = shooting._wkb_level(m, lam, s, k, nodes)
    shooting._require_resolved(m, mix, nodes, level, grid)
    guess = shooting._scan_index(level, m, 10.0 * math.sqrt(lam) / 64)
    assert guess is not None
    cold = _starting_at(None, suggest_bracket, m, mix, k, grid, nodes)
    assert _outcome(suggest_bracket, m, mix, k, grid, nodes) == cold
    for wild in (0, 64, guess - 3, guess + 3):
        assert _starting_at(wild, suggest_bracket, m, mix, k, grid, nodes) == cold, wild


@given(m=SCALES, lam=SCALES, nodes=st.integers(0, 40))
def test_wkb_start_is_within_one_step_of_the_airy_level(m, lam, nodes):
    # the node scan's energies are m + j*step; its transition is the first
    # one above the level
    step = 10.0 * math.sqrt(lam) / 64
    first_above = math.floor((equal_mix_energy(m, lam, nodes + 1) - m) / step) + 1
    start = shooting._scan_index(shooting._wkb_level(m, lam, 0.5, -1, nodes), m, step)
    assert abs(start - first_above) <= 1


@given(m=SCALES, lam=SCALES, nodes=st.integers(0, 40), decay=st.floats(2.0, 6.0),
       n=st.sampled_from((2000, 4000)))
def test_node_scan_brackets_the_airy_level(m, lam, nodes, decay, n):
    # the scan goes past its window as far as the grid holds r1: the level
    # is bracketed whenever the grid ends `decay` Airy lengths past its r1
    # (closer in, the box's own level lies above the Airy one), and no
    # energy whose r1 lies past r_max is shot
    e = equal_mix_energy(m, lam, nodes + 1)
    rmax = (e - m) / lam + decay * (lam * (m + e)) ** (-1.0 / 3.0)
    grid = RadialGrid(1e-6 * rmax, rmax, n)
    shot = []

    def recording(m, mix, k, E, grid):
        shot.append(E)
        return integrate_radial(m, mix, k, E, grid)

    shooting.integrate_radial = recording
    try:
        lo, hi = suggest_bracket(m, PotentialMix(lam, 0.5), -1, grid, nodes)
    finally:
        shooting.integrate_radial = integrate_radial
    assert lo < e < hi
    assert all(E <= m + 10.0 * math.sqrt(lam) or (E - m) / lam <= rmax for E in shot)


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 0.49), k=CHANNELS, n=STEPS,
       c=st.integers(1, 4))
def test_raised_sign_change_counts_are_refused(m, lam, s, k, n, c):
    # every scan count raised by c: energy 0 counts c sign changes, so a
    # level lies below the first scan energy, and every estimate is
    # refused, naming the scan step
    mix = PotentialMix(lam, s)
    scales = (1.0, 0.9, 1.1)
    real = shooting._dirichlet_u

    def raised(m, mix, k, e, grid, count=False):
        f, changes = real(m, mix, k, e, grid, count)
        return f, (changes + c if count else changes)

    hint = RadialGrid(25e-6, 25.0, n)
    shooting._dirichlet_u = raised
    try:
        got = [_outcome(estimate_quasibound_energy, m, mix, k, hint, x) for x in scales]
    finally:
        shooting._dirichlet_u = real
    step = 10.0 * math.sqrt(lam) / 96
    refusal = ("ScanError", f"the scan step {step} does not resolve the levels: a "
               f"Dirichlet level lies below the first scan energy {m + step / 2.0}")
    assert got == [refusal] * len(scales)


@given(m=SCALES, lam=SCALES, s=st.floats(0.0, 0.49), k=CHANNELS, n=STEPS,
       midpoint_scale=st.sampled_from((0.9, 1.0, 1.1)), warm=st.booleans())
# the seed-7 benchmark requests whose scan bracket shows no sign change at
# r_mid: the scan there starts at that bracket's ends
@example(m=0.5596871756808461, lam=0.5544641921036341, s=0.0, k=-1, n=500,
         midpoint_scale=0.9, warm=False)
@example(m=0.5046881560672422, lam=0.6942935143169602, s=0.0, k=-1, n=500,
         midpoint_scale=0.9, warm=False)
@example(m=0.5765176655160362, lam=0.8953068293743749, s=0.0, k=-1, n=500,
         midpoint_scale=0.9, warm=False)
def test_energy_0_is_shot_only_when_the_scan_closes_next_to_it(m, lam, s, k, n,
                                                              midpoint_scale, warm):
    mix = PotentialMix(lam, s)
    hint = RadialGrid(25e-6, 25.0, n)
    e0 = m + 10.0 * math.sqrt(lam) / 192
    if warm:  # leaves its scan index on the hint
        _outcome(estimate_quasibound_energy, m, mix, k, hint, 1.0)
    scanned, fixed = [], []
    real = shooting._dirichlet_u

    def recording(m, mix, k, e, grid, count=False):
        # the fixed grid at r_mid is the one primed with a stack
        (fixed if "_stack" in grid.__dict__ else scanned).append(e)
        return real(m, mix, k, e, grid, count)

    shooting._dirichlet_u = recording
    try:
        _outcome(estimate_quasibound_energy, m, mix, k, hint, midpoint_scale)
    finally:
        shooting._dirichlet_u = real
    i = hint.__dict__["_scan"][1]
    assert len(scanned) == len(set(scanned))  # each scan energy is shot once
    assert len(fixed) == len(set(fixed))  # and each energy at r_mid
    # a search that closes at index 0 or 1 has shot energy 0; one that
    # shot it closed within two steps of it
    assert i > 1 or e0 in scanned
    assert e0 not in scanned or i <= 2
