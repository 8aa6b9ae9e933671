"""Closed-form results for the linear-potential Dirac problem.

For the equal vector/scalar mix the upper reduced component obeys Airy's
equation after a linear change of variable, so the whole S-wave spectrum
follows from the negative zeros of Ai: the eigencondition is

    (E^2 - m^2) = |beta_i| * [lambda*(m+E)]^(2/3)

with beta_i the i-th zero, a quartic in (E+m)^(1/3) that Newton's method
solves to an ulp or so.  This module also provides the pure-scalar
Gaussian asymptote and the local Bessel-function profiles of the
pure-vector quasi-bound state near the continuum edge and the classical
turning point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, finite, integer, nonnegative, positive, require
from .model import RadialSolution, count_nodes
from .specfun import _airy, _bessel_i0_k0, _bessel_j0_i0, airy_ai, airy_ai_zero
# Not called here, but importable from this module, where a span tracer looks
# up every callee by name.
from .specfun import airy_ai_prime, bessel_i0, bessel_j0, bessel_k0  # noqa: F401


@dataclass(frozen=True)
class EqualMixSolution:
    """Equal-mix eigenstate parameters: energy, the Airy argument scale
    [lambda*(m+E)]^(1/3), q2 = (m - E)(m + E) (< 0 for binding), and which
    Airy zero quantized the state."""

    E: float
    scale: float
    q2: float
    zero_index: int


@dataclass(frozen=True)
class LocalProfileCoefficients:
    """Amplitudes of the local barrier-edge profiles: A for the
    continuum-edge J0/I0 form, B and C for the I0/K0 mix at the classical
    turning point.  The coefficients are inputs; the underlying model fixes
    only the shape, not the normalization."""

    A: float = 1.0
    B: float = 1.0
    C: float = 0.0

    def __post_init__(self):
        finite("LocalProfileCoefficients", A=self.A, B=self.B, C=self.C)
        require("LocalProfileCoefficients", any((self.A, self.B, self.C)), "A, B and C not all 0")


def equal_mix_energy(m: float, lam: float, zero_index: int = 1) -> float:
    """Eigenenergy of the equal-mix (V = S = lambda*r/2) S-state.

    In w = (E + m)^(1/3), with c = |beta_i| lambda^(2/3), the eigencondition
    (E^2 - m^2) = |beta_i| [lambda*(m+E)]^(2/3) is f(w) = w^4 - 2mw - c = 0,
    convex and increasing for w > 0.  Newton's method from
    w0 = (2m)^(1/3) + c^(1/4), where f >= 0 as w0^3 >= 2m + c^(3/4), falls
    monotonically onto the one positive root and stops when a step no
    longer lowers w; E = m + c/w then needs no subtraction.  zero_index = 1
    is the ground state.  Raises ValueError unless m and lambda are
    positive and finite.
    """
    positive("equal_mix_energy", m=m, lam=lam)
    integer("equal_mix_energy", "zero_index", zero_index, 1)
    c = abs(airy_ai_zero(zero_index)) * lam ** (2.0 / 3.0)
    w = (2.0 * m) ** (1.0 / 3.0) + c ** 0.25
    while True:
        w3 = w * w * w  # f/f' divided through by w^3: w^4 is never formed
        nxt = w - (w - (2.0 * m * w + c) / w3) / (4.0 - 2.0 * m / w3)
        if not nxt < w:
            return m + c / w
        w = nxt


def equal_mix_solution(m: float, lam: float, zero_index: int = 1) -> EqualMixSolution:
    """equal_mix_energy packaged with the Airy argument scale and q^2,
    as (m - E)(m + E), which unlike m^2 - E^2 keeps its digits."""
    e = equal_mix_energy(m, lam, zero_index)
    return EqualMixSolution(
        E=e,
        scale=lam ** (1.0 / 3.0) * (m + e) ** (1.0 / 3.0),  # no product to overflow
        q2=(m - e) * (m + e),
        zero_index=zero_index,
    )


def equal_mix_wavefunction(m: float, lam: float, E: float, grid) -> RadialSolution:
    """Closed-form equal-mix wavefunction u = c1*Ai(xi(r)) on a caller grid.

    xi(r) = [lambda*(m+E)]^(1/3) * (r - (E-m)/lambda), the shift
    q^2/(lambda*(m+E)) with m + E cancelled, and the lower component
    follows from v = (u' - u/r)/(E+m) with the analytic Airy derivative;
    v(0) is set to its limit 0.  The result is normalized
    to trapezoid(u^2 + v^2) = 1 on the grid and raises ConsistencyError
    when E is not an eigenvalue (Ai at the origin's argument fails to
    vanish).  Ai and Ai' come from one pass over the grid, which also gives
    Ai at the origin when the grid starts there.  Raises
    ValueError, before any Airy evaluation, unless m and lambda are
    positive and finite and E is finite and above m.
    """
    positive("equal_mix_wavefunction", m=m, lam=lam)
    require("equal_mix_wavefunction", m < E < np.inf, "finite E > m")
    r = np.asarray(grid, dtype=float)
    nonnegative("equal_mix_wavefunction", grid=r)
    require("equal_mix_wavefunction", r.ndim == 1 and r.size >= 2 and np.all(np.diff(r) > 0),
            "a strictly increasing grid of two radii or more")

    scale = (lam * (m + E)) ** (1.0 / 3.0)
    shift = (m - E) / lam
    with np.errstate(over="ignore", invalid="ignore"):  # refused by _airy, by name
        xi = scale * (r + shift)

    u, v = _airy(xi, "equal_mix_wavefunction", (False, True), "xi")  # Ai, Ai'
    peak = float(np.max(np.abs(u)))
    # Ai(scale * shift); where r[0] = 0, xi[0] is that argument, bit for bit
    origin = abs(float(u[0] if r[0] == 0.0 else airy_ai(scale * shift)))
    if origin > 1e-4 * peak:
        raise ConsistencyError(
            f"E={E} is not an equal-mix eigenvalue: |Ai| at the origin is "
            f"{origin:.3e} against a peak of {peak:.3e}"
        )

    # v = (u' - u/r)/(E+m) with u' = scale * Ai'(xi), computed in the Ai'
    # array.  An increasing grid holds r = 0 only at r[0], where u ~ r and
    # u' - u/r -> 0.
    v *= scale
    start = int(r[0] == 0.0)
    v[:start] = 0.0
    v[start:] -= u[start:] / r[start:]
    v[start:] /= E + m

    norm = np.sqrt(np.trapezoid(u * u + v * v, r))
    u /= norm
    v /= norm
    return RadialSolution(r=r, u=u, v=v, E=E, node_count=count_nodes(u))


def scalar_asymptote(lam: float, A: float, r):
    """Pure-scalar large-r envelope A*exp(-lambda r^2 / 2)."""
    arr = np.asarray(r, dtype=float)
    positive("scalar_asymptote", lam=lam)
    finite("scalar_asymptote", A=A)
    nonnegative("scalar_asymptote", r=arr)
    with np.errstate(over="ignore"):  # lambda r^2 past DBL_MAX: the envelope is 0
        # lambda first: -0.5 * lambda would round a least subnormal to -0
        out = A * np.exp(lam * arr * arr * -0.5)
    return float(out) if arr.ndim == 0 else out


def x_of_r(m: float, E: float, lam: float, r):
    """Barrier coordinate x = E + m - lambda*r: x = 0 at r2 and x = 2m at r1."""
    positive("x_of_r", m=m, lam=lam)
    finite("x_of_r", E=E)
    arr = np.asarray(r, dtype=float)
    nonnegative("x_of_r", r=arr)
    out = E + m - lam * arr
    return float(out) if arr.ndim == 0 else out


def vector_profile_continuum_edge(E: float, m: float, A: float, x):
    """Local wavefunction near the continuum edge r2 (x = 0) of the
    pure-vector barrier: oscillatory A*J0(2*sqrt(-x/(E+m))) on the free
    side x < 0, monotone A*I0(2*sqrt(x/(E+m))) inside the barrier; the two
    branches join continuously with value A at x = 0.  E and A must be
    finite, m > 0 finite, E + m > 0, and x/(E + m) finite."""
    finite("continuum-edge profile", E=E, A=A)
    positive("continuum-edge profile", m=m)
    require("continuum-edge profile", E + m > 0, "E + m > 0")
    arr = np.asarray(x, dtype=float)
    flat = arr.reshape(-1)
    # 2 sqrt|x/(E+m)| at every point; the sign of x picks J0 or I0, each
    # evaluated in place on its gathered arguments.  An overflow is refused
    # with the rest of the non-finite arguments, by name, without a warning.
    with np.errstate(over="ignore"):
        out = np.divide(flat, E + m)
    np.abs(out, out=out)
    np.sqrt(out, out=out)
    out *= 2.0
    finite("continuum-edge profile", **{"x/(E + m)": out})
    free = flat < 0
    barrier = ~free
    j0, i0 = out[free], out[barrier]
    _bessel_j0_i0(j0, i0)
    out[free] = j0
    out[barrier] = i0
    out *= A
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def vector_profile_turning_point(E: float, m: float,
                                 coeffs: LocalProfileCoefficients, x):
    """Local wavefunction near the classical turning point r1 (x = 2m):
    B*I0(2*sqrt(x/(E-m))) + C*K0(2*sqrt(x/(E-m))), valid for a quasi-bound
    state with finite E > m where x/(E-m) is finite and positive.  I0 and
    K0 run on the same threads, one fan-out per call."""
    positive("turning-point profile", m=m)
    require("turning-point profile", m < E < np.inf, "finite E > m")
    arr = np.asarray(x, dtype=float)
    require("turning-point profile", not np.any(arr <= 0), "x > 0 (K0 diverges at 0)")
    with np.errstate(over="ignore"):  # refused below, by name
        arg = np.divide(arr.reshape(-1), E - m)
    np.sqrt(arg, out=arg)
    arg *= 2.0
    # out is arg, now holding I0
    out, k0 = _bessel_i0_k0(arg, "turning-point profile", "x/(E - m)")
    out *= coeffs.B
    k0 *= coeffs.C
    out += k0
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
