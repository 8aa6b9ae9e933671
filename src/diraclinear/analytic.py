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

from .errors import ConsistencyError
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
        vals = (self.A, self.B, self.C)
        if not all(np.isfinite(vals)):
            raise ValueError("profile coefficients must be finite")
        if self.A == 0.0 and self.B == 0.0 and self.C == 0.0:
            raise ValueError("profile coefficients must not all vanish")


def _require_mass_and_slope(m, lam):
    if not (0.0 < m < np.inf):
        raise ValueError(f"mass m must be positive and finite, got {m!r}")
    if not (0.0 < lam < np.inf):
        raise ValueError(f"slope lam must be positive and finite, got {lam!r}")


def _require_finite(what, **params):
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{what} requires a finite {name}, got {value!r}")


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
    _require_mass_and_slope(m, lam)
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
        scale=(lam * (m + e)) ** (1.0 / 3.0),
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
    _require_mass_and_slope(m, lam)
    r = np.asarray(grid, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("grid must be a 1-d array of at least two radii")
    if np.any(np.diff(r) <= 0) or r[0] < 0:
        raise ValueError("grid must be sorted, strictly increasing, and nonnegative")
    _require_finite("equal_mix_wavefunction", E=E)
    if not (E > m):
        raise ValueError("equal-mix bound states require E > m")

    scale = (lam * (m + E)) ** (1.0 / 3.0)
    shift = (m - E) / lam
    xi = scale * (r + shift)

    u, v = _airy(xi, "equal_mix_wavefunction", (False, True))  # Ai, Ai'
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
    if np.any(arr < 0):
        raise ValueError("radius must be nonnegative")
    out = A * np.exp(-0.5 * lam * arr * arr)
    return float(out) if arr.ndim == 0 else out


def x_of_r(m: float, E: float, lam: float, r):
    """Barrier coordinate x = E + m - lambda*r: x = 0 at r2 and x = 2m at r1."""
    arr = np.asarray(r, dtype=float)
    out = E + m - lam * arr
    return float(out) if arr.ndim == 0 else out


def vector_profile_continuum_edge(E: float, m: float, A: float, x):
    """Local wavefunction near the continuum edge r2 (x = 0) of the
    pure-vector barrier: oscillatory A*J0(2*sqrt(-x/(E+m))) on the free
    side x < 0, monotone A*I0(2*sqrt(x/(E+m))) inside the barrier; the two
    branches join continuously with value A at x = 0.  E, m and A must be
    finite, E + m > 0, and x/(E + m) finite."""
    _require_finite("continuum-edge profile", E=E, m=m, A=A)
    if not (E + m > 0):
        raise ValueError("continuum-edge profile requires E + m > 0")
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
    free = flat < 0
    barrier = ~free
    j0, i0 = out[free], out[barrier]
    _bessel_j0_i0(j0, i0, "continuum-edge profile", "x/(E + m)")
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
    _require_finite("turning-point profile", E=E, m=m)
    if not (E > m):
        raise ValueError("turning-point profile requires E > m")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("turning-point profile requires x > 0 (K0 diverges at 0)")
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
