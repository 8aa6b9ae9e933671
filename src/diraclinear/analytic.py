"""Closed-form results for the linear-potential Dirac problem.

For the equal vector/scalar mix the upper reduced component obeys Airy's
equation after a linear change of variable, so the whole S-wave spectrum
follows from the negative zeros of Ai: the eigencondition is

    (E^2 - m^2) = |beta_i| * [lambda*(m+E)]^(2/3)

with beta_i the i-th zero.  This module also provides the pure-scalar
Gaussian asymptote and the local Bessel-function profiles of the
pure-vector quasi-bound state near the continuum edge and the classical
turning point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, ScanError
from .model import RadialSolution, count_nodes
from .specfun import airy_ai, airy_ai_prime, airy_ai_zero, bessel_i0, bessel_j0, bessel_k0


@dataclass(frozen=True)
class EqualMixSolution:
    """Equal-mix eigenstate parameters: energy, the Airy argument scale
    [lambda*(m+E)]^(1/3), q2 = m^2 - E^2 (< 0 for binding), and which
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


def equal_mix_energy(m: float, lam: float, zero_index: int = 1) -> float:
    """Eigenenergy of the equal-mix (V = S = lambda*r/2) S-state.

    Solves (E^2 - m^2) = |beta_i| [lambda*(m+E)]^(2/3) for the unique root
    E > m by bisection to 1e-12 relative; zero_index = 1 is the ground
    state and higher indices give the radial excitations.  Raises ScanError
    when doubling the bracket's top 60 times does not pass the root.
    """
    if not (m > 0):
        raise ValueError("mass must be positive")
    if not (lam > 0):
        raise ValueError("slope must be positive")
    beta = abs(airy_ai_zero(zero_index))

    def shifted(e):
        return (e * e - m * m) - beta * (lam * (m + e)) ** (2.0 / 3.0)

    lo = m
    hi = m + 20.0 * lam ** 0.5 + 10.0 * lam / m
    for _ in range(60):  # ceiling is generous; expand if a huge zero_index needs it
        if shifted(hi) > 0:
            break
        hi *= 2.0
    else:
        raise ScanError(f"failed to bracket the equal-mix eigenvalue at m = {m}, "
                        f"lambda = {lam}")
    while (hi - lo) > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if shifted(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def equal_mix_solution(m: float, lam: float, zero_index: int = 1) -> EqualMixSolution:
    """equal_mix_energy packaged with the Airy argument scale and q^2."""
    e = equal_mix_energy(m, lam, zero_index)
    return EqualMixSolution(
        E=e,
        scale=(lam * (m + e)) ** (1.0 / 3.0),
        q2=m * m - e * e,
        zero_index=zero_index,
    )


def equal_mix_wavefunction(m: float, lam: float, E: float, grid) -> RadialSolution:
    """Closed-form equal-mix wavefunction u = c1*Ai(xi(r)) on a caller grid.

    xi(r) = [lambda*(m+E)]^(1/3) * (r + (m^2-E^2)/(lambda*(m+E))), and the
    lower component follows from v = (u' - u/r)/(E+m) with the analytic
    Airy derivative; v(0) is set to its limit 0.  The result is normalized
    to trapezoid(u^2 + v^2) = 1 on the grid and raises ConsistencyError
    when E is not an eigenvalue (Ai at the origin's argument fails to
    vanish).
    """
    r = np.asarray(grid, dtype=float)
    if r.ndim != 1 or r.size < 2:
        raise ValueError("grid must be a 1-d array of at least two radii")
    if np.any(r < 0) or np.any(np.diff(r) <= 0):
        raise ValueError("grid must be sorted, strictly increasing, and nonnegative")
    if not (E > m):
        raise ValueError("equal-mix bound states require E > m")

    scale = (lam * (m + E)) ** (1.0 / 3.0)
    q2 = m * m - E * E
    shift = q2 / (lam * (m + E))
    xi = scale * (r + shift)

    u = airy_ai(xi)
    peak = float(np.max(np.abs(u)))
    origin = abs(float(airy_ai(scale * shift)))
    if origin > 1e-4 * peak:
        raise ConsistencyError(
            f"E={E} is not an equal-mix eigenvalue: |Ai| at the origin is "
            f"{origin:.3e} against a peak of {peak:.3e}"
        )

    du = scale * airy_ai_prime(xi)
    v = np.empty_like(u)
    nonzero = r > 0
    v[nonzero] = (du[nonzero] - u[nonzero] / r[nonzero]) / (E + m)
    v[~nonzero] = 0.0  # u ~ r at the origin, so u' - u/r -> 0 there

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
    branches join continuously with value A at x = 0."""
    arr = np.asarray(x, dtype=float)
    scaled = arr / (E + m)
    free = arr < 0
    out = np.empty_like(scaled)
    out[free] = bessel_j0(2.0 * np.sqrt(np.abs(np.minimum(scaled[free], 0.0))))
    out[~free] = bessel_i0(2.0 * np.sqrt(np.maximum(scaled[~free], 0.0)))
    out = A * out
    return float(out) if arr.ndim == 0 else out


def vector_profile_turning_point(E: float, m: float,
                                 coeffs: LocalProfileCoefficients, x):
    """Local wavefunction near the classical turning point r1 (x = 2m):
    B*I0(2*sqrt(x/(E-m))) + C*K0(2*sqrt(x/(E-m))), valid for x > 0 and a
    quasi-bound state with E > m."""
    if not (E > m):
        raise ValueError("turning-point profile requires E > m")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("turning-point profile requires x > 0 (K0 diverges at 0)")
    arg = 2.0 * np.sqrt(arr / (E - m))
    out = coeffs.B * bessel_i0(arg) + coeffs.C * bessel_k0(arg)
    return float(out) if arr.ndim == 0 else out
