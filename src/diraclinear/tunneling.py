"""Gamow-style barrier-penetration estimates for quasi-bound states.

For a predominantly vector linear potential (s < 1/2) the positive-energy
state can tunnel into the lifted negative-energy continuum.  The lifetime
relative to the attempt time tau0 is tau/tau0 = exp(2*gamma), with the
barrier integral built from the relativistic momentum modulus

    gamma = int_{r1}^{r2} sqrt(m^2 - (E - lambda r)^2) dr
          + int_{r2}^{r3} sqrt((E - lambda r)^2 - m^2) dr.

The first integral is elementary (pi m^2 / (2 lambda), independent of E);
the second vanishes for a pure vector potential (r3 = r2) and is evaluated
by adaptive quadrature otherwise.  The integrand of the full-slope form is
used for every mix, which quantifies the barrier the lifted continuum
presents rather than re-deriving a mixed-potential momentum.

Note tau0 itself is never computed: it is a time characteristic of the
system scale (about 1e-24 s for a fermi-sized allowed region), and only
the ratio tau/tau0 is meaningful at this level of approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import finite, nonnegative, positive, require
from .model import PotentialMix, turning_points

_QUAD_KW = dict(epsabs=0.0, epsrel=1e-11, limit=200)


@dataclass(frozen=True)
class TunnelingReport:
    """Barrier integral gamma, lifetime ratio exp(2*gamma) (math.inf once
    2*gamma overflows; gamma keeps the log-scale information), the radii
    that delimited the integrals, and the inputs that produced them."""

    gamma: float
    tau_ratio: float
    r1: float
    r2: float
    r3: float
    s: float
    E: float


def momentum_modulus(m: float, E: float, V: float) -> float:
    """Relativistic momentum modulus sqrt(m^2 - (E - V)^2) inside the barrier.

    Raises ValueError in the classically allowed region m^2 < (E - V)^2;
    beyond the continuum edge the roles of the terms swap and the caller
    should use the continued form (E - V)^2 - m^2 instead.
    """
    positive("momentum_modulus", m=m)
    finite("momentum_modulus", E=E, V=V)
    d = abs(E - V)
    if d > m:
        raise ValueError(
            f"m^2 < (E-V)^2 at V={V}: point is classically allowed, "
            "not inside the barrier")
    return math.sqrt(m - d) * math.sqrt(m + d)  # no square to overflow


def gamma_pure_vector(m: float, lam: float) -> float:
    """Closed form of the pure-vector barrier integral: pi m^2 / (2 lambda).

    Independent of the state energy; the turning points shift with E but
    the integral between them does not.
    """
    positive("gamma_pure_vector", m=m, lam=lam)
    return math.pi * m * m / (2.0 * lam)


def gamma_barrier_quadrature(m: float, lam: float, E: float | None = None) -> float:
    """The same barrier integral evaluated by adaptive quadrature.

    Integrates sqrt(m^2 - (E - lambda r)^2) over [r1, r2] directly; the
    integrand vanishes like a square root at both radii, so each half is
    transformed with r = r_turn -+ t^2, which makes it smooth before the
    Gauss-Kronrod subdivision sees it.  Cross-checks gamma_pure_vector
    (and is E-independent like it).
    """
    positive("gamma_barrier_quadrature", m=m, lam=lam)
    if E is None:
        E = 2.0 * m
    require("gamma_barrier_quadrature", m < E < math.inf, "finite E > m")
    r1 = (E - m) / lam
    r2 = (E + m) / lam
    finite("gamma_barrier_quadrature", **{"r2 = (E + m)/lambda": r2})
    # m - (E - lam r) = lam (r - r1) and m + (E - lam r) = lam (r2 - r),
    # so the integrand is lam * sqrt((r - r1)(r2 - r)), symmetric about the
    # barrier center; substituting r = r1 + t^2 on the left half (and the
    # mirror image on the right) leaves a smooth integrand
    d = r2 - r1

    from scipy.integrate import quad

    def half(t):
        return 2.0 * t * t * lam * math.sqrt(d - t * t)

    val, _ = quad(half, 0.0, math.sqrt(0.5 * d), **_QUAD_KW)
    return 2.0 * val


def gamma_mixed(m: float, mix: PotentialMix, E: float) -> TunnelingReport:
    """Barrier integral for scalar fraction 0 <= s < 1/2 at energy E > m.

    gamma = pi m^2/(2 lambda) + Q, where Q integrates
    sqrt((lambda r - E)^2 - m^2) from r2 to the lifted-continuum edge r3
    by adaptive quadrature; Q = 0 exactly for a pure vector potential
    (r3 = r2) and grows with s, diverging as s -> 1/2.
    """
    require("gamma_mixed", mix.s < 0.5, "s < 0.5: past it the barrier never ends")
    tp = turning_points(m, E, mix)
    lam = mix.lam
    first = gamma_pure_vector(m, lam)
    if mix.s == 0.0:
        q = 0.0
    else:
        # integrand lam * sqrt((r - r2)(r - r1)) vanishes like a square
        # root at r2 only; absorb it with r = r2 + t^2
        d = tp.r2 - tp.r1

        from scipy.integrate import quad

        def integrand(t):
            return 2.0 * t * t * lam * math.sqrt(t * t + d)

        q, _ = quad(integrand, 0.0, math.sqrt(tp.r3 - tp.r2), **_QUAD_KW)
    gamma = first + q
    # a gamma past DBL_MAX saturates the ratio, which lifetime_ratio would refuse
    tau = math.inf if gamma == math.inf else lifetime_ratio(gamma)
    return TunnelingReport(gamma=gamma, tau_ratio=tau,
                           r1=tp.r1, r2=tp.r2, r3=tp.r3, s=mix.s, E=E)


def lifetime_ratio(gamma: float) -> float:
    """Lifetime relative to the attempt time: tau/tau0 = exp(2*gamma).

    Saturates to math.inf when 2*gamma exceeds the floating-point range;
    gamma itself is the retained log-scale value in that case.
    """
    nonnegative("lifetime_ratio", gamma=gamma)
    try:
        return math.exp(2.0 * gamma)
    except OverflowError:
        return math.inf


def sauter_transmission(m: float, v: float) -> float:
    """Transmission probability exp(-pi m^2 / v) through a linear ramp of
    slope v joining two flat regions (the one-dimensional Klein-step
    analogue; quoted validity 2m/L < v < m^2 for ramp length L, not
    enforced here since L is not a parameter of this model).

    For v = lambda this is exactly exp(-2 * gamma_pure_vector).
    """
    positive("sauter_transmission", m=m, v=v)
    return math.exp(-math.pi * m * m / v)
