"""Equal-mix invariants as properties over masses, slopes and levels.

The Airy eigenvalues obey the scaling law E(c*m, c^2*lambda) = c*E(m,
lambda), and the closed-form wavefunction of level i has i - 1 nodes and
unit norm.  The wavefunction grid runs from r = 0, where the Airy argument
is the i-th zero (below -7 for i = 5, the negative asymptotic branch),
through the series range to 12 decay lengths past r1 (the positive
asymptotic branch).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclinear.analytic import equal_mix_energy, equal_mix_wavefunction

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None)
SCALES = st.floats(0.5, 2.0)
LEVELS = st.integers(1, 5)


@PROPERTY
@given(m=SCALES, lam=SCALES, c=SCALES, zero_index=LEVELS)
def test_equal_mix_energy_scaling_law(m, lam, c, zero_index):
    scaled = equal_mix_energy(c * m, c * c * lam, zero_index)
    base = c * equal_mix_energy(m, lam, zero_index)
    assert abs(scaled - base) <= 1e-11 * base


@PROPERTY
@given(m=SCALES, lam=SCALES, zero_index=LEVELS)
def test_equal_mix_wavefunction_nodes_and_norm(m, lam, zero_index):
    E = equal_mix_energy(m, lam, zero_index)
    decay = (lam * (m + E)) ** (-1.0 / 3.0)
    r = np.linspace(0.0, (E - m) / lam + 12.0 * decay, 10_000)
    sol = equal_mix_wavefunction(m, lam, E, r)
    assert sol.node_count == zero_index - 1
    norm = np.trapezoid(sol.u ** 2 + sol.v ** 2, r)
    assert abs(norm - 1.0) <= 1e-12
