"""Fourth-order grid convergence of one RK4 shot, over seeded draws of the
s >= 1/2 domain.

integrate_radial at a fixed energy on grids of n = 800, 1600 and 3200
steps over the same [r_min, r_max], with r_max = 0.8 r1 + 1, so each shot
ends inside the classically allowed region or at most 1 past r1, before a
growing admixture can hide the shape.  Energies lie 1 to 4 above m:
closer to m the shot barely turns over [r_min, r_max], the fine-grid
difference falls to rounding (1e-15 at s = 1/2, lambda = 2), and its
ratio is noise.

The paths are compared at the coarse grid's radii, which all three grids
share, after normalizing each to unit Euclidean norm there.  Normalized
paths, not raw ones: the first step, from r_min = 1e-6 r_max, is far
outside RK4's stability region for the k/r term, and sets the path's
overall scale (for k = -2 the raw scale doubles with each refinement).
For the same reason the comparison starts at r_max / 10: within the first
few coarse steps the shape converges at lower order (difference ratios of
11 for |k| = 1 and 7.8 for k = -2 at the first coarse step), and by
r_max / 10 its error is RK4's own, shrinking 16-fold with each halving of
the step.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from diraclinear import PotentialMix, RadialGrid, integrate_radial

SCALES = st.floats(0.5, 2.0)
COARSE = 800


@given(m=SCALES, lam=SCALES, s=st.floats(0.5, 1.0), k=st.sampled_from((-1, 1, -2)),
       above=st.floats(1.0, 4.0))
def test_normalized_shot_converges_at_fourth_order(m, lam, s, k, above):
    E = m + above
    r_max = 0.8 * above / lam + 1.0
    shapes = []
    for refine in (1, 2, 4):
        sol = integrate_radial(m, PotentialMix(lam, s), k, E,
                               RadialGrid(1e-6 * r_max, r_max, refine * COARSE))
        shared = slice(None, None, refine)
        r, y = sol.r[shared], np.stack([sol.u[shared], sol.v[shared]])
        y = y[:, r >= 0.1 * r_max]
        shapes.append(y / np.linalg.norm(y))
    coarse = np.max(np.abs(shapes[0] - shapes[1]))
    fine = np.max(np.abs(shapes[1] - shapes[2]))
    assert 12.0 <= coarse / fine <= 20.0
