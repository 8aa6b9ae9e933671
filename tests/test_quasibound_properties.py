"""Quasi-bound (s < 1/2) invariants as properties over masses and slopes.

The barrier integral gamma grows with the scalar fraction s at fixed
(m, lambda, E): the lifted continuum edge r3 = (E + m)/((1 - 2s) lambda)
moves out, and the second integral runs over a longer range of a positive
integrand.  The quasi-bound level is continuous at s -> 1/2 from below:
it approaches the equal-mix Airy level from above, with a gap linear in
eps = 1/2 - s.  Both run the paths that import scipy on first use: quad
for gamma, brentq for the level.
"""

from hypothesis import given
from hypothesis import strategies as st

from diraclinear import (
    PotentialMix,
    RadialGrid,
    equal_mix_energy,
    estimate_quasibound_energy,
    gamma_mixed,
)

SCALES = st.floats(0.5, 2.0)
MIN_SPACING = 1e-3
S_TOP = 0.499


@given(m=SCALES, lam=SCALES, above=st.floats(0.01, 4.0),
       s_lo=st.floats(0.0, S_TOP - MIN_SPACING), t=st.floats(0.0, 1.0))
def test_gamma_is_non_decreasing_in_s(m, lam, above, s_lo, t):
    # s pairs at least MIN_SPACING apart: the quadrature's 1e-11 relative
    # tolerance is far below the change in gamma over that spacing
    s_hi = s_lo + MIN_SPACING + t * (S_TOP - MIN_SPACING - s_lo)
    E = m + above
    lo = gamma_mixed(m, PotentialMix(lam, s_lo), E).gamma
    hi = gamma_mixed(m, PotentialMix(lam, s_hi), E).gamma
    assert lo <= hi


@given(m=st.floats(0.5, 1.0), lam=st.floats(0.5, 1.0))
def test_quasibound_level_is_continuous_at_equal_mix(m, lam):
    # at the corners of the (m, lambda) square the gaps read 1.8-5.0e-4 at
    # eps = 1e-3, ten times those at 1e-4, and 1.8-5.1e-7 at 1e-6
    airy = equal_mix_energy(m, lam, 1)
    grid = RadialGrid(1e-6, 20.0, 500)

    def gap(eps):
        return estimate_quasibound_energy(m, PotentialMix(lam, 0.5 - eps), -1, grid) - airy

    coarse, fine, limit = gap(1e-3), gap(1e-4), gap(1e-6)
    assert coarse > 0 and fine > 0 and limit > 0
    assert 8.0 <= coarse / fine <= 12.0
    assert limit < 1e-5
