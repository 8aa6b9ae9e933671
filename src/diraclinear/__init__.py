"""Radial Dirac equation with an attractive linear confining potential.

Closed-form Airy eigenstates for the equal vector/scalar mix, a shooting
solver for arbitrary mix fractions, and Gamow-style tunneling-lifetime
estimates for the quasi-bound states that appear when the vector fraction
exceeds one half.
"""

import types as _types

from .analytic import (
    EqualMixSolution,
    LocalProfileCoefficients,
    equal_mix_energy,
    equal_mix_solution,
    equal_mix_wavefunction,
    scalar_asymptote,
    vector_profile_continuum_edge,
    vector_profile_turning_point,
    x_of_r,
)
from .errors import BracketError, ConsistencyError, ScanError
from .model import (
    BindingClass,
    Particle,
    PotentialMix,
    QuantumNumbers,
    RadialGrid,
    RadialSolution,
    TurningPoints,
    classify_binding,
    count_nodes,
    potentials,
    turning_points,
)
from .shooting import (
    estimate_quasibound_energy,
    find_bound_state,
    integrate_radial,
    suggest_bracket,
)
from .specfun import (
    airy_ai,
    airy_ai_prime,
    airy_ai_zero,
    bessel_i0,
    bessel_j0,
    bessel_k0,
)
from .tunneling import (
    TunnelingReport,
    gamma_barrier_quadrature,
    gamma_mixed,
    gamma_pure_vector,
    lifetime_ratio,
    momentum_modulus,
    sauter_transmission,
)

__version__ = "0.1.0"

# every public name imported above, the submodules aside
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
