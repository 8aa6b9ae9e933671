"""The input contract of the public API.

Every callable in diraclinear.__all__ is called with each of its numeric
parameters in turn set to a hostile value (NaN, +-inf, 0, -1, the least
subnormal, 1e-300, 1e300) and to a normal one, the others normal, with
warnings as errors.  A value outside the parameter's domain (not finite,
or not above 0 where the rule is positive) must raise a ValueError whose
message names the parameter.  Any other value must give a finite answer,
an inf where the function documents one, or a typed error from
diraclinear.errors; integrate_radial's NaN tail past an overflow, with
diverged set, is documented output.  The grids have at most 200 steps.
"""

import dataclasses
import enum
import math
import re
import warnings

import numpy as np
import pytest

import diraclinear as dl
from diraclinear.errors import ScanError

HOSTILE = (math.nan, math.inf, -math.inf, 0, -1, 5e-324, 1e-300, 1e300)


def FINITE(v):
    return math.isfinite(v)


def POSITIVE(v):
    return math.isfinite(v) and v > 0


def NONNEGATIVE(v):
    return math.isfinite(v) and v >= 0


def ANY(v):
    return True


def integer(least):
    def rule(v):
        return type(v) is int and v >= least
    return rule


def NONZERO_INT(v):
    return type(v) is int and v != 0


EQUAL = dl.PotentialMix(1.0, 0.5)
QUASI = dl.PotentialMix(1.0, 0.25)
E1 = dl.equal_mix_energy(1.0, 1.0)
R = np.linspace(0.0, 8.0, 81)
COEFFS = dl.LocalProfileCoefficients(B=1.0, C=0.5)


def _grid():
    # solvers keep state on a grid: each call gets its own
    return dl.RadialGrid(1e-5, 8.0, 200)


M, LAM = (1.0, POSITIVE), (1.0, POSITIVE)

# name -> (call, {parameter: (normal value, domain)}); call takes the
# parameters by name and supplies every other argument
CASES = {
    "Particle": (dl.Particle, dict(m=M)),
    "PotentialMix": (dl.PotentialMix, dict(lam=LAM, s=(0.5, FINITE))),
    "QuantumNumbers": (dl.QuantumNumbers, dict(k=(-1, NONZERO_INT))),
    "RadialGrid": (dl.RadialGrid, dict(r_min=(1e-5, POSITIVE), r_max=(8.0, POSITIVE),
                                       n=(200, integer(100)))),
    "TurningPoints": (dl.TurningPoints, dict(r1=(1.0, POSITIVE), r2=(2.0, POSITIVE),
                                             r3=(3.0, POSITIVE))),
    "LocalProfileCoefficients": (dl.LocalProfileCoefficients,
                                 dict(A=(1.0, FINITE), B=(1.0, FINITE), C=(0.5, FINITE))),
    "count_nodes": (lambda u: dl.count_nodes(np.array([1.0, -1.0, u, -1.0, 1.0])),
                    dict(u=(1.0, ANY))),
    "potentials": (lambda r: dl.potentials(EQUAL, [1.0, r]), dict(r=(2.0, NONNEGATIVE))),
    "turning_points": (lambda m, E: dl.turning_points(m, E, QUASI),
                       dict(m=M, E=(2.0, FINITE))),
    "equal_mix_energy": (dl.equal_mix_energy, dict(m=M, lam=LAM, zero_index=(2, integer(1)))),
    "equal_mix_solution": (dl.equal_mix_solution,
                           dict(m=M, lam=LAM, zero_index=(2, integer(1)))),
    "equal_mix_wavefunction": (
        lambda m, lam, E, grid: dl.equal_mix_wavefunction(m, lam, E, np.append(R, grid)),
        dict(m=M, lam=LAM, E=(E1, FINITE), grid=(9.0, NONNEGATIVE))),
    "scalar_asymptote": (lambda lam, A, r: dl.scalar_asymptote(lam, A, [0.5, r]),
                         dict(lam=LAM, A=(0.2, FINITE), r=(1.0, NONNEGATIVE))),
    "x_of_r": (lambda m, E, lam, r: dl.x_of_r(m, E, lam, [0.5, r]),
               dict(m=M, E=(1.5, FINITE), lam=LAM, r=(1.0, NONNEGATIVE))),
    "vector_profile_continuum_edge": (
        lambda E, m, A, x: dl.vector_profile_continuum_edge(E, m, A, [-1.0, 0.5, x]),
        dict(E=(1.6, FINITE), m=M, A=(1.0, FINITE), x=(0.25, FINITE))),
    "vector_profile_turning_point": (
        lambda E, m, x: dl.vector_profile_turning_point(E, m, COEFFS, [0.5, x]),
        dict(E=(1.6, FINITE), m=M, x=(1.0, FINITE))),
    "airy_ai": (dl.airy_ai, dict(x=(0.5, FINITE))),
    "airy_ai_prime": (dl.airy_ai_prime, dict(x=(0.5, FINITE))),
    "airy_ai_zero": (dl.airy_ai_zero, dict(index=(2, integer(1)))),
    "bessel_j0": (dl.bessel_j0, dict(x=(0.5, FINITE))),
    "bessel_i0": (dl.bessel_i0, dict(x=(0.5, FINITE))),
    "bessel_k0": (dl.bessel_k0, dict(x=(0.5, POSITIVE))),
    "integrate_radial": (lambda m, k, E: dl.integrate_radial(m, EQUAL, k, E, _grid()),
                         dict(m=M, k=(-1, NONZERO_INT), E=(E1, FINITE))),
    "find_bound_state": (
        lambda m, k, lo, hi, nodes: dl.find_bound_state(m, EQUAL, k, (lo, hi), _grid(), nodes),
        dict(m=M, k=(-1, NONZERO_INT), lo=(2.0, POSITIVE), hi=(3.0, POSITIVE),
             nodes=(0, integer(0)))),
    "suggest_bracket": (
        lambda m, k, nodes, steps: dl.suggest_bracket(m, EQUAL, k, _grid(), nodes, steps),
        dict(m=M, k=(-1, NONZERO_INT), nodes=(0, integer(0)), steps=(16, integer(1)))),
    "estimate_quasibound_energy": (
        lambda m, k, midpoint_scale: dl.estimate_quasibound_energy(m, QUASI, k, _grid(),
                                                                   midpoint_scale),
        dict(m=M, k=(-1, NONZERO_INT), midpoint_scale=(1.0, FINITE))),
    "momentum_modulus": (dl.momentum_modulus, dict(m=M, E=(1.5, FINITE), V=(1.0, FINITE))),
    "gamma_pure_vector": (dl.gamma_pure_vector, dict(m=M, lam=LAM)),
    "gamma_barrier_quadrature": (dl.gamma_barrier_quadrature,
                                 dict(m=M, lam=LAM, E=(2.0, FINITE))),
    "gamma_mixed": (lambda m, E: dl.gamma_mixed(m, QUASI, E), dict(m=M, E=(2.0, FINITE))),
    "lifetime_ratio": (dl.lifetime_ratio, dict(gamma=(2.0, NONNEGATIVE))),
    "sauter_transmission": (dl.sauter_transmission, dict(m=M, v=(0.2, POSITIVE))),
}

# public callables that take no number of their own: error types, the
# enum, result records, and classify_binding, which takes a PotentialMix
NO_NUMBERS = {"BindingClass", "BracketError", "ConsistencyError", "ScanError",
              "EqualMixSolution", "RadialSolution", "TunnelingReport", "classify_binding"}

# the functions whose docstrings or the README say they return inf where
# the true value passes DBL_MAX
MAY_BE_INF = {"bessel_i0", "vector_profile_continuum_edge", "vector_profile_turning_point",
              "equal_mix_solution",
              "gamma_pure_vector", "gamma_barrier_quadrature", "gamma_mixed",
              "lifetime_ratio"}


def _numbers(result):
    """Every number in a result: a scalar, an array's entries, and those of
    a record's fields or a tuple's items.  A diverged shot's u and v count
    only up to their first NaN, which must start an all-NaN tail."""
    if isinstance(result, dl.RadialSolution) and result.diverged:
        for tail in (result.u, result.v):
            stop = int(np.argmax(~np.isfinite(tail)))
            assert np.isnan(tail[stop:]).all()
        stop = min(int(np.argmax(~np.isfinite(t))) for t in (result.u, result.v))
        result = dataclasses.replace(result, u=result.u[:stop], v=result.v[:stop])
    if dataclasses.is_dataclass(result):
        for field in dataclasses.fields(result):
            yield from _numbers(getattr(result, field.name))
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _numbers(item)
    elif isinstance(result, np.ndarray):
        yield from result.ravel().tolist()
    elif isinstance(result, (bool, enum.Enum, type(None))):
        return
    else:
        yield float(result)


def _outcome(name, call, kwargs):
    """The call's failure to keep the contract, as text, or None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call(**kwargs)
        except (ValueError, ScanError) as exc:
            return None, exc
        except Exception as exc:  # a warning or an untyped error
            return f"{name}({kwargs}) raised {exc!r}", None
    bad = [v for v in _numbers(result) if not math.isfinite(v)]
    if bad and (name not in MAY_BE_INF or any(math.isnan(v) for v in bad)):
        return f"{name}({kwargs}) returned {bad[:3]}", None
    return None, None


def test_every_public_callable_is_covered():
    callables = {name for name in dl.__all__ if callable(getattr(dl, name))}
    assert callables == set(CASES) | NO_NUMBERS


@pytest.mark.parametrize("name", sorted(CASES))
def test_hostile_inputs_are_refused_by_name_or_answered(name):
    call, params = CASES[name]
    normal = {param: value for param, (value, _) in params.items()}
    failures = []
    for param, (value, domain) in params.items():
        for hostile in (value, *HOSTILE):
            kwargs = {**normal, param: hostile}
            failure, exc = _outcome(name, call, kwargs)
            if failure is not None:
                failures.append(failure)
            elif hostile is value and exc is not None:
                failures.append(f"{name}({kwargs}), all normal, raised {exc!r}")
            elif not domain(hostile):
                named = exc is not None and type(exc) is ValueError and re.search(
                    rf"(?<!\w){re.escape(param)}(?!\w)", str(exc))
                if not named:
                    failures.append(f"{name}({kwargs}) gave {exc!r}, not a refusal naming {param}")
    assert not failures, "\n".join(failures)
