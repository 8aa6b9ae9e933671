"""Equal-mix invariants as properties over masses, slopes and levels.

The Airy eigenvalues match a 50-digit mpmath root of the eigencondition to
an ulp or so and obey the scaling law E(c*m, c^2*lambda) = c*E(m, lambda),
and the closed-form wavefunction of level i has i - 1 nodes and unit norm.
The wavefunction grid runs from r = 0, where the Airy argument is the
i-th zero (below -7 for i = 5, the negative asymptotic branch),
through the series range to 12 decay lengths past r1 (the positive
asymptotic branch).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diraclinear.analytic import equal_mix_energy, equal_mix_wavefunction
from diraclinear.specfun import airy_ai_zero

SCALES = st.floats(0.5, 2.0)
LEVELS = st.integers(1, 5)
DECADES = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)


def _mpmath_binding(m, lam, zero_index):
    """E - m at 50 digits: the root x > 0 of the eigencondition written as
    x*(2m + x) = |beta_i| * [lambda*(2m + x)]^(2/3), with the same double
    beta_i the library uses, found by mpmath's bracketed Illinois solver
    between x = 0 and twice the weaker of the two bounds c/(2m)^(1/3) and
    c^(3/4) on the root (c = |beta_i| lambda^(2/3)).  Skips the test where
    mpmath is missing."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        m, lam = mpmath.mpf(m), mpmath.mpf(lam)
        beta = mpmath.mpf(abs(airy_ai_zero(zero_index)))
        c = beta * lam ** (mpmath.mpf(2) / 3)

        def g(x):
            return x * (2 * m + x) - beta * (lam * (2 * m + x)) ** (mpmath.mpf(2) / 3)

        top = 2 * min(c / (2 * m) ** (mpmath.mpf(1) / 3), c ** (mpmath.mpf(3) / 4))
        return mpmath.findroot(g, (mpmath.mpf(0), top), solver="illinois",
                               tol=mpmath.mpf(10) ** -90)


@given(m=DECADES, lam=DECADES, zero_index=st.integers(1, 50))
def test_equal_mix_energy_matches_mpmath_root(m, lam, zero_index):
    ref = float(m + _mpmath_binding(m, lam, zero_index))
    assert abs(equal_mix_energy(m, lam, zero_index) - ref) <= 1e-15 * ref


def test_equal_mix_binding_keeps_its_digits_at_a_weak_slope():
    # E - m = 8.6e-6 here; the binding energy comes out of E = m + c/w
    # without a subtraction, so only the rounding of E itself is left
    ref = float(_mpmath_binding(1.0, 1e-8, 1))
    assert abs((equal_mix_energy(1.0, 1e-8, 1) - 1.0) - ref) <= 1e-10 * ref


@given(m=SCALES, lam=SCALES, c=SCALES, zero_index=LEVELS)
def test_equal_mix_energy_scaling_law(m, lam, c, zero_index):
    scaled = equal_mix_energy(c * m, c * c * lam, zero_index)
    base = c * equal_mix_energy(m, lam, zero_index)
    assert abs(scaled - base) <= 1e-11 * base


@given(m=SCALES, lam=SCALES, zero_index=LEVELS)
def test_equal_mix_wavefunction_nodes_and_norm(m, lam, zero_index):
    E = equal_mix_energy(m, lam, zero_index)
    decay = (lam * (m + E)) ** (-1.0 / 3.0)
    r = np.linspace(0.0, (E - m) / lam + 12.0 * decay, 10_000)
    sol = equal_mix_wavefunction(m, lam, E, r)
    assert sol.node_count == zero_index - 1
    norm = np.trapezoid(sol.u ** 2 + sol.v ** 2, r)
    assert abs(norm - 1.0) <= 1e-12
