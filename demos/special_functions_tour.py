#! /usr/bin/env python3
"""The special functions the solver is built on, and how far to trust them.

Ai and Ai' are evaluated inside the package: on |x| <= 12 from float64
Taylor polynomials about stored nodes 1/8 apart, whose tables are built
once at import from scipy.special.airy at the nodes and the Airy equation,
and beyond from asymptotic expansions; scipy.special.airy serves below as
an independent yardstick.  The Bessel functions J0/I0/K0 and the
Ai zeros come from scipy.special, behind wrappers that check the domain.
"""

import numpy as np
from scipy import special as sp

import diraclinear as dl

# =============================================================================
# Airy Ai: the equal-mix eigenfunctions.  Its negative zeros quantize the
# spectrum, the first one at -2.33811.

print("Airy zeros:", [round(dl.airy_ai_zero(i), 5) for i in range(1, 6)])
assert abs(dl.airy_ai_zero(1) + 2.33811) < 1e-4

x = np.linspace(-10.0, 10.0, 2001)
err = np.max(np.abs(dl.airy_ai(x) - sp.airy(x)[0]))
print(f"Ai worst absolute error on [-10, 10]: {err:.2e}")
assert err < 1e-10

# Ai solves u'' = x u; check the residual with plain finite differences.
h = 1e-4
g = np.linspace(-5.0, 5.0, 201)
resid = np.abs((dl.airy_ai(g + h) - 2 * dl.airy_ai(g) + dl.airy_ai(g - h)) / h**2
               - g * dl.airy_ai(g))
print(f"ODE residual (central differences): {resid.max():.2e}")
assert resid.max() < 1e-7

# scipy's Ai is more accurate pointwise, but its rounding is not smooth
# enough for this check; that is why Ai stays in-house.
def sp_ai(t):
    return sp.airy(t)[0]


sp_resid = np.abs((sp_ai(g + h) - 2 * sp_ai(g) + sp_ai(g - h)) / h**2 - g * sp_ai(g))
print(f"scipy.special.airy on the same check: {sp_resid.max():.2e}")

# =============================================================================
# Bessel J0/I0/K0: the local profiles at the barrier edges.  J0 and I0 meet
# at the continuum edge with J0(0) = I0(0) = 1; K0 blows up at zero and is
# only defined for positive arguments.

assert dl.bessel_j0(0.0) == 1.0 and dl.bessel_i0(0.0) == 1.0
print(f"first J0 zero sits near 2.404826: |J0| = {abs(dl.bessel_j0(2.404826)):.1e}")

xs = np.array([0.5, 3.7, 16.0])
assert np.array_equal(dl.bessel_j0(-xs), dl.bessel_j0(xs))
assert np.array_equal(dl.bessel_i0(-xs), dl.bessel_i0(xs))
print("J0 and I0 are exactly even")

try:
    dl.bessel_k0(0.0)
except ValueError as exc:
    print(f"K0(0) correctly rejected: {exc}")

# =============================================================================
# Ai switches from its node tables to an asymptotic expansion at
# |x| = AIRY_SWITCH; the two branches agree there to well below 1e-9.  The
# nodes cover |x| = AIRY_SWITCH itself, so airy_ai there is the node value.

from diraclinear import specfun

for x_sw, asym in ((specfun.AIRY_SWITCH, specfun._airy_asym_pos),
                   (-specfun.AIRY_SWITCH, specfun._airy_asym_neg)):
    at = np.array([x_sw])
    gap = abs(specfun.airy_ai(x_sw) - asym(at)[0])
    print(f"Ai branch agreement at x = {x_sw:+}: {gap:.1e}")
    assert gap < 1e-9

print("OK: special functions verified.")
