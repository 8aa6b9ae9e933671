"""Domain types for the one-body linear-potential Dirac problem.

Natural units (hbar = c = 1) throughout: masses and energies in GeV, the
linear slope lambda in GeV^2.  The potential is split into a Lorentz
vector part V(r) = (1-s)*lambda*r and a Lorentz scalar part
S(r) = s*lambda*r, with scalar fraction 0 <= s <= 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import integer, nonnegative, positive, require


class BindingClass(enum.Enum):
    """Whether a state is truly bound or can decay by Klein tunneling."""

    STRICTLY_BOUND = "StrictlyBound"
    QUASI_BOUND = "QuasiBound"


@dataclass(frozen=True)
class Particle:
    """A fermion of mass m > 0 (GeV)."""

    m: float

    def __post_init__(self):
        positive("Particle", m=self.m)


@dataclass(frozen=True)
class PotentialMix:
    """Linear potential of slope lam > 0 (GeV^2) with scalar fraction s in [0, 1]."""

    lam: float
    s: float

    def __post_init__(self):
        positive("PotentialMix", lam=self.lam)
        require("PotentialMix", 0.0 <= self.s <= 1.0, "scalar fraction s in [0, 1]")


@dataclass(frozen=True)
class QuantumNumbers:
    """Dirac quantum number k != 0; k = -1 is the ground channel (j=1/2, l=0)."""

    k: int

    def __post_init__(self):
        integer("QuantumNumbers", "k", self.k)
        require("QuantumNumbers", self.k != 0, "k != 0")

    @property
    def j(self) -> float:
        return abs(self.k) - 0.5

    @property
    def l(self) -> int:
        return self.k if self.k > 0 else -self.k - 1


@dataclass(frozen=True)
class TurningPoints:
    """Radii bounding the allowed/forbidden/lifted-continuum regions.

    r1 is the classical turning point; r2 and r3 (present only for s < 1/2)
    mark where the lifted negative-energy continuum reaches the state energy:
    r2 for the full slope, r3 for the net continuum shift (1-2s)*lambda*r.
    """

    r1: float
    r2: float | None = None
    r3: float | None = None

    def __post_init__(self):
        positive("TurningPoints", r1=self.r1)
        require("TurningPoints", (self.r2 is None) == (self.r3 is None), "r2 and r3 together")
        if self.r2 is not None:
            require("TurningPoints", self.r1 < self.r2 <= self.r3 < np.inf, "r1 < r2 <= r3 < inf")


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid of n steps on [r_min, r_max].  Like radii(),
    the solvers keep the state their calls share in its instance dict
    (see shooting)."""

    r_min: float
    r_max: float
    n: int

    def __post_init__(self):
        positive("RadialGrid", r_min=self.r_min)
        require("RadialGrid", self.r_min < self.r_max < np.inf, "finite r_max > r_min")
        integer("RadialGrid", "n", self.n, 100)

    @property
    def h(self) -> float:
        return (self.r_max - self.r_min) / self.n

    def __getstate__(self):
        # radii() and the solvers' state are caches, which copies and pickles drop
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def radii(self) -> np.ndarray:
        """r_min + h*i for i = 0..n with the last entry r_max: what
        np.linspace(r_min, r_max, n + 1) computes, without its overhead.

        Computed on the first call and kept: every call returns the same
        read-only array, which every RadialSolution on the grid shares."""
        r = self.__dict__.get("_radii")
        if r is None:
            r = np.arange(self.n + 1, dtype=float)
            r *= self.h
            r += self.r_min
            r[-1] = self.r_max
            r.flags.writeable = False
            # the dataclass is frozen: a cache, not a field, so it is set
            # past __setattr__ and takes no part in ==, hash or repr
            self.__dict__["_radii"] = r
        return r


@dataclass
class RadialSolution:
    """Reduced radial wavefunctions u = r*f, v = r*g on a grid, with energy.

    node_count is the number of strict sign changes of u.  A shot counts
    them through the grid's last point (count_nodes with `end` set), so a
    node that has just come in through r_max counts and a raw shot's level
    is that of the box ending at r_max; equal_mix_wavefunction counts them
    away from both endpoints.  A diverged flag marks outward integrations
    whose growing tail overflowed before reaching r_max (tail entries are
    NaN beyond the divergence point); divergence_sign records the sign of
    u there, which no solver reads: they bisect on node_count.  r is the
    grid's radii(), one read-only array shared by every solution on the
    grid: copy it before changing it.
    """

    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    E: float
    node_count: int
    diverged: bool = False
    divergence_sign: int = 0
    grid: RadialGrid | None = field(default=None, repr=False)


# the signs' scale in count_nodes: 2^-60 |u| summed over any array that
# fits in memory stays finite, and the squares 2^-120 sum exactly
_SIGN_SCALE = 2.0 ** -60
_SIGN_SCALE2 = _SIGN_SCALE * _SIGN_SCALE


def count_nodes(u: np.ndarray, end: bool = False) -> int:
    """Strict sign changes of u over its interior (endpoints excluded, or
    with `end` set only the first), skipping zero and non-finite entries.

    The common case, a shot with no zero and no non-finite entry, takes
    three dot products over the signs s, scaled by 2^-60, and no other
    temporary: s.s counts the entries of sign +-1 (a zero adds 0, a NaN
    makes it NaN), s.u is finite only when every entry is (the scale
    keeps it from overflowing, so it warns of nothing), and the sum of
    s_i s_(i+1), one less than the entries minus twice the changes, gives
    the count.  Any other array keeps only its nonzero finite entries and
    compares neighbouring signs."""
    interior = u[1:] if end else u[1:-1]
    s = np.sign(interior)
    s *= _SIGN_SCALE
    size = s.size
    if size > 1 and np.dot(s, s) == size * _SIGN_SCALE2 and math.isfinite(np.dot(s, interior)):
        return (size - 1 - int(np.dot(s[1:], s[:-1]) / _SIGN_SCALE2)) // 2
    s = s[(s != 0) & np.isfinite(interior)]
    return int(np.count_nonzero(s[1:] != s[:-1]))


def potentials(mix: PotentialMix, r):
    """Vector and scalar parts (V, S) of the linear potential at radius r >= 0.

    V + S = lambda*r exactly for any scalar fraction.
    """
    arr = np.asarray(r, dtype=float)
    nonnegative("potentials", r=arr)
    v = (1.0 - mix.s) * mix.lam * arr
    s = mix.s * mix.lam * arr
    if arr.ndim == 0:
        return float(v), float(s)
    return v, s


def turning_points(m: float, E: float, mix: PotentialMix) -> TurningPoints:
    """Region geometry for a positive-energy state of mass m and energy E > m.

    r1 = (E-m)/lambda always; r2 = (E+m)/lambda and
    r3 = (E+m)/((1-2s)*lambda) exist only while the net continuum shift
    rises (s < 1/2).  For s >= 1/2 the negative-energy continuum is never
    lifted to E and r2, r3 are absent.  Raises ValueError, naming m and E,
    when E is so far above m that r1 and r2 round to the same value.
    """
    positive("turning_points", m=m)
    require("turning_points", m < E < math.inf, "finite E > m")
    r1 = (E - m) / mix.lam
    if mix.s >= 0.5:
        return TurningPoints(r1=r1)
    r2 = (E + m) / mix.lam
    if not r1 < r2:
        raise ValueError(
            f"E = {E} is too far above m = {m} to separate the turning points: "
            f"r1 = (E - m)/lambda and r2 = (E + m)/lambda both round to {r1}")
    r3 = (E + m) / ((1.0 - 2.0 * mix.s) * mix.lam)
    return TurningPoints(r1=r1, r2=r2, r3=r3)


def classify_binding(mix: PotentialMix) -> BindingClass:
    """StrictlyBound for scalar fraction s >= 1/2, else QuasiBound."""
    if mix.s >= 0.5:
        return BindingClass.STRICTLY_BOUND
    return BindingClass.QUASI_BOUND
