"""Bound eigenstate properties over seeded draws of the whole s >= 1/2
domain: the requested node count, unit norm, a tail that decays past
the turning point r1 without changing sign, the scaling law
E(c*m, c^2*lambda) = c*E(m, lambda) on the shooting path, and the same
E, u and v bits whether or not the solve primes its grid's stack."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diraclinear import (
    PotentialMix,
    RadialGrid,
    _kernels,
    find_bound_state,
    shooting,
    suggest_bracket,
)

SCALES = st.floats(0.5, 2.0)


@given(m=SCALES, lam=SCALES, s=st.floats(0.5, 1.0), k=st.sampled_from((-1, 1, -2)),
       nodes=st.sampled_from((0, 1)), reach=st.floats(4.0, 30.0),
       n=st.sampled_from((100, 300, 1000)))
def test_bound_eigenstate_has_its_nodes_and_a_clean_tail(m, lam, s, k, nodes, reach, n):
    mix = PotentialMix(lam, s)
    rmax = reach / math.sqrt(lam)
    grid = RadialGrid(1e-6 * rmax, rmax, n)
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


@given(m=SCALES, lam=SCALES, s=st.floats(0.5, 1.0), k=st.sampled_from((-1, 1, -2)),
       nodes=st.sampled_from((0, 1)), reach=st.floats(4.0, 30.0), n=st.integers(100, 4000))
def test_primed_solves_are_the_lazy_solves_bit_for_bit(m, lam, s, k, nodes, reach, n):
    # suggest_bracket primes its grid's whole stack at its first probe and
    # find_bound_state at its bracket's lower end; without priming, the
    # grid's first shot builds row p = 0 and its second the other rows,
    # centred at the same energy, so every shot has the same bits
    mix = PotentialMix(lam, s)
    rmax = reach / math.sqrt(lam)
    grid = RadialGrid(1e-6 * rmax, rmax, n)

    def solves():
        _kernels._last_grid = (None, None, None)
        bracket = suggest_bracket(m, mix, k, grid, nodes=nodes)
        full = find_bound_state(m, mix, k, bracket, grid, nodes=nodes)
        _kernels._last_grid = (None, None, None)
        alone = find_bound_state(m, mix, k, bracket, grid, nodes=nodes)
        return [(sol.E, sol.u.tobytes(), sol.v.tobytes()) for sol in (full, alone)]

    primed = solves()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shooting, "_prime", lambda *args: None)
        lazy = solves()
    assert primed == lazy
