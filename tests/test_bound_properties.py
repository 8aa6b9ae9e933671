"""Bound eigenstate properties over seeded draws of the whole s >= 1/2
domain: the requested node count, unit norm, a tail that decays past
the turning point r1 without changing sign, the scaling law
E(c*m, c^2*lambda) = c*E(m, lambda) on the shooting path; and at
s = 1/2, that every level suggest_bracket's resolution guard lets
through is the Airy level, and that the n its refusal names is let
through.

suggest_bracket refuses a grid whose step exceeds a quarter of the Airy
length at the WKB level, naming the n that resolves it; the draws below
solve on that grid then."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diraclinear import (
    PotentialMix,
    RadialGrid,
    ScanError,
    equal_mix_energy,
    find_bound_state,
    shooting,
    suggest_bracket,
)

SCALES = st.floats(0.5, 2.0)


def _resolved_grid(m, mix, k, nodes, rmax, n):
    """The n-step grid over [1e-6 rmax, rmax], or, when suggest_bracket
    refuses it as too coarse for the Airy length at the level, the grid of
    as many steps as the refusal names, which it must let through."""
    grid = RadialGrid(1e-6 * rmax, rmax, n)
    level = shooting._wkb_level(m, mix.lam, mix.s, k, nodes)
    try:
        shooting._require_resolved(m, mix, nodes, level, grid)
    except ScanError as exc:
        fix = int(re.search(r"--n (\d+)\)", str(exc)).group(1))
        assert fix > n
        grid = RadialGrid(1e-6 * rmax, rmax, fix)
        shooting._require_resolved(m, mix, nodes, level, grid)
        with pytest.raises(ScanError):
            shooting._require_resolved(m, mix, nodes, level,
                                       RadialGrid(1e-6 * rmax, rmax, fix - 1))
    return grid


@given(m=SCALES, lam=SCALES, s=st.floats(0.5, 1.0), k=st.sampled_from((-1, 1, -2)),
       nodes=st.sampled_from((0, 1)), reach=st.floats(4.0, 30.0),
       n=st.sampled_from((100, 300, 1000)))
def test_bound_eigenstate_has_its_nodes_and_a_clean_tail(m, lam, s, k, nodes, reach, n):
    mix = PotentialMix(lam, s)
    grid = _resolved_grid(m, mix, k, nodes, reach / math.sqrt(lam), n)
    sol = find_bound_state(m, mix, k, suggest_bracket(m, mix, k, grid, nodes=nodes), grid,
                           nodes=nodes)
    assert sol.node_count == nodes
    assert abs(np.trapezoid(sol.u ** 2 + sol.v ** 2, sol.r) - 1.0) <= 1e-10
    r1 = (sol.E - m) / lam
    tail = np.sign(sol.u[sol.r > r1 + 1.0 / math.sqrt(lam)])
    tail = tail[tail != 0]
    assert np.count_nonzero(tail[1:] * tail[:-1] < 0) == 0


@given(m=SCALES, lam=SCALES, c=SCALES, s=st.floats(0.5, 1.0),
       k=st.sampled_from((-1, 1, -2)), nodes=st.sampled_from((0, 1)),
       reach=st.floats(4.0, 30.0), n=st.sampled_from((1000, 4000)))
def test_bound_energy_obeys_the_scaling_law(m, lam, c, s, k, nodes, reach, n):
    # r -> r/c maps the radial equation at (m, lambda) onto the one at
    # (c*m, c^2*lambda) with every energy times c, step for step on a grid
    # scaled by 1/c; each solve stops within 1e-8 of its transition
    def solve(m, lam, grid):
        mix = PotentialMix(lam, s)
        return find_bound_state(m, mix, k, suggest_bracket(m, mix, k, grid, nodes=nodes),
                                grid, nodes=nodes).E

    rmax = reach / math.sqrt(lam)
    base = solve(m, lam, RadialGrid(1e-6 * rmax, rmax, n))
    scaled = solve(c * m, c * c * lam, RadialGrid(1e-6 * rmax / c, rmax / c, n))
    assert abs(scaled - c * base) <= (1.0 + c) * 1e-8


@given(m=st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x),
       lam=st.floats(-2.0, 4.0).map(lambda x: 10.0 ** x), nodes=st.sampled_from((0, 1, 2)),
       reach=st.floats(6.0, 20.0), per_airy=st.floats(0.0, 6.0).map(lambda x: 2.0 ** x))
def test_levels_the_resolution_guard_lets_through_are_airy_levels(m, lam, nodes, reach,
                                                                  per_airy):
    # grids of 1 to 64 steps per Airy length l = (lambda (m + E))^(-1/3),
    # ending `reach` of them past r1; a refused grid is solved again with
    # the n its refusal names.  Every level let through is the Airy level
    # to 1e-6 of E, plus RK4's fourth-order error 0.1 (h/l)^4 of the
    # binding E - m (at most 0.07 (h/l)^4 seen on 300 draws), which is 4e-4
    # at the guard's h = l/4 and 1e-6 below about h = l/18
    mix = PotentialMix(lam, 0.5)
    e = equal_mix_energy(m, lam, nodes + 1)
    airy = (lam * (m + e)) ** (-1.0 / 3.0)
    rmax = (e - m) / lam + reach * airy
    grid = _resolved_grid(m, mix, -1, nodes, rmax, max(100, math.ceil(rmax * per_airy / airy)))
    got = find_bound_state(m, mix, -1, suggest_bracket(m, mix, -1, grid, nodes=nodes), grid,
                           nodes=nodes).E
    assert abs(got - e) <= 1e-6 * e + 0.1 * (grid.h / airy) ** 4 * (e - m)
