"""The public API: diraclinear.__all__, which the package derives from its
imports, is pinned here as a literal list, so that a name added to or
dropped from the imports shows as a failing test."""

import diraclinear

PUBLIC = [
    "BindingClass",
    "BracketError",
    "ConsistencyError",
    "EqualMixSolution",
    "LocalProfileCoefficients",
    "Particle",
    "PotentialMix",
    "QuantumNumbers",
    "RadialGrid",
    "RadialSolution",
    "ScanError",
    "TunnelingReport",
    "TurningPoints",
    "airy_ai",
    "airy_ai_prime",
    "airy_ai_zero",
    "bessel_i0",
    "bessel_j0",
    "bessel_k0",
    "classify_binding",
    "count_nodes",
    "equal_mix_energy",
    "equal_mix_solution",
    "equal_mix_wavefunction",
    "estimate_quasibound_energy",
    "find_bound_state",
    "gamma_barrier_quadrature",
    "gamma_mixed",
    "gamma_pure_vector",
    "integrate_radial",
    "lifetime_ratio",
    "momentum_modulus",
    "potentials",
    "sauter_transmission",
    "scalar_asymptote",
    "suggest_bracket",
    "turning_points",
    "vector_profile_continuum_edge",
    "vector_profile_turning_point",
    "x_of_r",
]


def test_all_is_the_pinned_public_api():
    assert len(PUBLIC) == 40
    assert diraclinear.__all__ == PUBLIC
    namespace = {}
    exec("from diraclinear import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
