"""Shooting-method solver for the coupled radial Dirac system.

Outward RK4 integration from a series launch at small radius; bound-state
eigenvalues for scalar fraction s >= 1/2 by bisection on the behavior of
the outward tail (node-count targeted, so brackets holding several levels
still converge to the requested one); and a truncated-domain Dirichlet
estimator for the quasi-bound levels that exist below s = 1/2, converged
by Brent's method on the Dirichlet residual.

Every shot is one rk4_path call.  The two energy scans, suggest_bracket's
node scan and the estimator's Dirichlet scan, search their fixed energy
grids of 65 (by default) and 97 energies on a count of sign changes,
which does not fall as E rises (it counts the turns of the Pruefer
angle), and return the bracket a walk up the grid to its first
transition would.  Each starts at a guess of the transition's index (see
_first_above): the Dirichlet scan at the index of the last scan of the
same problem and grid hint, so the 0.9 and 1.1 spread estimates of a
level confirm the central estimate's index in two shots; every other
scan at the index of the WKB level (_wkb_level, pure arithmetic, no
shot), which on the benchmark's requests is the transition's index or
one off, so the search takes 2 shots, or 4 when the guess is one step
high, in place of a cold bisection's 7 or 8.  The count is monotone only on a grid that resolves the Airy
length, so a grid whose step exceeds a quarter of it at the guessed
level gets no guess, and its scan bisects cold.  Any start gives the
same bracket as the cold bisection: a guess changes only which energies
are shot.  The node scan goes on past the top of its window, in steps
of the same spacing, while the energies' turning points r1 lie on the
grid.  The estimator reads only u at the Dirichlet point, and for scan
shots its sign changes, so its shots build no RadialSolution.  Its scan
looks for the first count above 0 and shoots its first energy only when
the search closes next to it.  A grid shot at several energies has the
kernel build its whole coefficient stack in one pass before its first
shot (see _kernels): suggest_bracket's grid, at its first probe, which
find_bound_state then finds cached, and the estimator's grid at its
fixed Dirichlet point.

The raw outward shot of a bound state always ends in an exponentially
growing admixture seeded by roundoff.  find_bound_state therefore keeps
it only up to the first grid point at or past the turning point r1, and
splices on there one inward rk4_path shot launched on the decaying
direction, scaled by a least-squares fit of (u, v) at that point.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import _prime, rk4_path
from .errors import BracketError, ConsistencyError, ScanError
from .model import (
    PotentialMix,
    QuantumNumbers,
    RadialGrid,
    RadialSolution,
    count_nodes,
    turning_points,
)


def _launch(m, mix, k, E, r_min):
    """Launch values (u0, v0) at r_min for a shot at energy E, from the
    series behavior at the regular singular point: the leading component
    goes like r^|k| and the other follows from the leading-order relation.
    Raises ValueError on a non-finite E, when r_min^(|k| + 1) overflows,
    and when r_min^|k| underflows so that both values vanish and the shot
    would be identically zero."""
    if not np.isfinite(E):
        raise ValueError("E must be finite")
    kk = abs(k)
    p0 = E + m - (1.0 - 2.0 * mix.s) * mix.lam * r_min
    q0 = E - m - mix.lam * r_min
    try:
        higher = r_min ** (kk + 1)  # overflows first: r_min^|k| is smaller
    except OverflowError:
        raise ValueError(f"r_min^(|k| + 1) = {r_min}^{kk + 1} overflows") from None
    if k < 0:
        u0 = r_min ** kk
        v0 = -q0 * higher / (2 * kk + 1)
    else:
        v0 = r_min ** kk
        u0 = p0 * higher / (2 * kk + 1)
    if u0 == 0.0 and v0 == 0.0:
        raise ValueError(
            f"r_min^|k| = {r_min}^{abs(k)} underflows to zero, so both "
            f"launch values vanish and the shot would be identically zero")
    return u0, v0


def integrate_radial(m: float, mix: PotentialMix, k: int, E: float,
                     grid: RadialGrid) -> RadialSolution:
    """Single outward RK4 shot at energy E on the given uniform grid.

    Returns the raw (unnormalized) solution.  A growing tail that leaves
    the representable range is not an error: the solution is marked
    diverged, entries past the overflow point are NaN, and divergence_sign
    records the sign of u there for use by eigenvalue bisections.  Raises
    ValueError when r_min^|k| underflows, so that both launch values are 0.
    """
    QuantumNumbers(k)
    u0, v0 = _launch(m, mix, k, E, grid.r_min)
    u, v, stop, sign = rk4_path(m, mix.lam, mix.s, int(k), E,
                                grid.r_min, grid.h, grid.n, u0, v0)
    return RadialSolution(
        r=grid.radii(), u=u, v=v, E=E, node_count=count_nodes(u),
        diverged=stop < grid.n, divergence_sign=int(sign), grid=grid,
    )


def _splice_tail(sol: RadialSolution, m, mix, k):
    """The bound-state shot with everything past its splice point, the
    first grid point at or past the turning point r1 = (E - m)/lambda,
    replaced by an inward shot on the decaying direction.

    Past r1 the outward shot's roundoff-seeded growing admixture swamps
    the decaying tail; inward, that tail is the growing direction, hence
    stable.  The inward shot starts where the integral of
    kappa = sqrt(-P*Q) from the splice point reaches 500, or at r_max if
    that comes first, launched along (u, v) ~ (P, -kappa); beyond its start
    the true tail is below 1e-217 of the splice value and is set to zero.
    A least-squares fit of (u, v) at the splice point scales it onto the
    outward shot.

    When r1 lies beyond r_max the grid has no forbidden region, and when
    the splice point is the grid's last point nothing lies past it; either
    way the shot is returned as it is.  Raises ConsistencyError when the
    outward shot overflows before the splice point or the inward one before
    reaching it.
    """
    r, u, v, E = sol.r, sol.u.copy(), sol.v.copy(), sol.E
    n = len(r) - 1
    r1 = (E - m) / mix.lam
    i1 = int(np.searchsorted(r, r1))
    if i1 > n:
        return sol
    if not (np.isfinite(u[i1]) and np.isfinite(v[i1])):
        raise ConsistencyError(
            f"the outward shot at E = {E} overflows before the turning point "
            f"r1 = {r1}, so there is no state to splice a tail onto")
    if i1 == n:
        return sol

    rr = r[i1:]
    p = E + m - (1.0 - 2.0 * mix.s) * mix.lam * rr
    kap = np.sqrt(np.maximum(-p * (E - m - mix.lam * rr), 0.0))
    efolds = np.cumsum(0.5 * (kap[1:] + kap[:-1]) * np.diff(rr))
    steps = min(int(np.searchsorted(efolds, 500.0)) + 1, n - i1)
    size = 1e-30 / math.hypot(p[steps], kap[steps])
    ub, vb, stop, _ = rk4_path(m, mix.lam, mix.s, int(k), E, rr[steps], -sol.grid.h,
                               steps, size * p[steps], -size * kap[steps])
    if stop < steps:
        raise ConsistencyError(
            f"the inward tail shot at E = {E} overflows before the turning "
            f"point r1 = {r1}")

    # least squares over (u, v) at the splice point, scaled by |(u, v)|
    # first: the inward values reach ~1e190 and their squares overflow
    a = math.hypot(ub[-1], vb[-1])
    c = (u[i1] * (ub[-1] / a) + v[i1] * (vb[-1] / a)) / a
    iend = i1 + steps
    u[i1:iend + 1] = c * ub[::-1]
    v[i1:iend + 1] = c * vb[::-1]
    u[iend + 1:] = 0.0
    v[iend + 1:] = 0.0
    return RadialSolution(r=r, u=u, v=v, E=E, node_count=count_nodes(u), grid=sol.grid)


def _normalized(sol: RadialSolution) -> RadialSolution:
    norm = math.sqrt(np.trapezoid(sol.u ** 2 + sol.v ** 2, sol.r))
    flip = -1.0 if sol.u[np.argmax(np.abs(sol.u))] < 0 else 1.0
    sol.u *= flip / norm
    sol.v *= flip / norm
    return sol


def find_bound_state(m: float, mix: PotentialMix, k: int, bracket,
                     grid: RadialGrid, nodes: int | None = None) -> RadialSolution:
    """Bound-state eigensolution for s >= 1/2 by bisection on the outward tail.

    The bracket must contain the target eigenvalue; when it holds several,
    `nodes` (interior node count, ground state = 0) picks one, defaulting
    to the lowest eigenvalue above the left endpoint.  Bisection runs to
    |dE| <= 1e-8, or until the ends are adjacent doubles.  The returned
    solution keeps the outward shot up to the turning point
    r1 = (E - m)/lambda and past it an inward shot spliced on in place of
    the spurious growing tail (see _splice_tail); it is
    normalized to trapezoid(u^2 + v^2) = 1 and oriented with a positive
    main lobe.  When r1 lies beyond r_max, or in the grid's last step, no
    tail lies past the splice point, and the outward shot, at the box's
    level, is returned as it is, normalized.  A state whose node count is
    not `nodes` (a raw shot's node on a grid point, its sign picked by
    rounding) gives way to the state at the bracket's lower end, 1e-8
    below.  Every shot is on the one grid: a grid that is not the
    kernel's cached one (find_bound_state called without suggest_bracket)
    has its whole coefficient stack built in one pass, centred at the
    bracket's lower end, before the first shot (see _kernels).  The
    solution's r is the grid's shared, read-only radii().  Raises
    ConsistencyError when the outward shot overflows before r1 or the
    inward one before reaching it.
    """
    if mix.s < 0.5:
        raise ValueError(
            "s < 0.5 gives only quasi-bound states; use estimate_quasibound_energy")
    QuantumNumbers(k)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")

    # the first shot is at lo; a no-op on the grid suggest_bracket shot
    _prime(m, mix.lam, mix.s, int(k), lo, grid.r_min, grid.h, grid.n)
    n_lo = integrate_radial(m, mix, k, lo, grid).node_count
    n_hi = integrate_radial(m, mix, k, hi, grid).node_count
    if n_lo == n_hi:
        raise BracketError(
            f"no eigenvalue in bracket ({lo}, {hi}): tail shape is identical "
            f"at both endpoints (node count {n_lo})")
    if nodes is None:
        nodes = n_lo
    if not (n_lo <= nodes < n_hi):
        raise BracketError(
            f"bracket ({lo}, {hi}) spans node counts {n_lo}..{n_hi}, which "
            f"does not straddle a {nodes}-node eigenvalue")

    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent doubles: the bracket cannot shrink
            break
        if integrate_radial(m, mix, k, mid, grid).node_count > nodes:
            hi = mid
        else:
            lo = mid
    sol = _splice_tail(integrate_radial(m, mix, k, 0.5 * (lo + hi), grid), m, mix, k)
    if sol.node_count != nodes:
        sol = _splice_tail(integrate_radial(m, mix, k, lo, grid), m, mix, k)
    return _normalized(sol)


def _first_above(above, lo, hi, start=None):
    """The least index i in (lo, hi) with above(i), or hi when there is
    none.  above(lo) must be false, and above may turn true only once as
    i rises, as a node count passing a fixed level does; lo and hi
    themselves are never probed.

    Without a start this is plain bisection.  A start inside (lo, hi) is
    a guess at the answer: start and start - 1 are probed first, and when
    the turn lies between them start is returned after those two probes.
    Otherwise the search gallops away from start in steps of 1, 2, 4, ...
    until it passes the turn and bisects the last step, an exponential
    search (Bentley and Yao, 1976).  above is monotone, so a guess, good
    or bad, changes only which indices are probed, never the result."""
    if start is not None and lo < start < hi:
        step = 1
        if above(start):
            hi = start
            while hi - step > lo and above(hi - step):
                hi, step = hi - step, 2 * step
            lo = max(lo, hi - step)
        else:
            lo = start
            while lo + step < hi and not above(lo + step):
                lo, step = lo + step, 2 * step
            hi = min(hi, lo + step)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            hi = mid
        else:
            lo = mid
    return hi


# an 8-point Gauss-Legendre rule on [0, 1], as (x^2, w x^2) for its nodes x
# and weights w
_GL8 = tuple((x * x, w * x * x) for x, w in (
    (0.019855071751231912, 0.05061426814518853),
    (0.10166676129318664, 0.11119051722668721),
    (0.2372337950418355, 0.15685332293894344),
    (0.4082826787521751, 0.18134189168918083),
    (0.5917173212478248, 0.18134189168918083),
    (0.7627662049581645, 0.15685332293894344),
    (0.8983332387068134, 0.11119051722668721),
    (0.9801449282487681, 0.05061426814518853)))


def _wkb_level(m, lam, s, k, nodes):
    """The WKB level E of the `nodes`-node state, or None when the
    arithmetic fails or E is not finite: the root of

        integral_0^r1 sqrt(P Q) dr = (nodes + l/2 + 3/4) pi,

    P Q = (E + m - (1-2s) lambda r)(E - m - lambda r), the standard
    quantisation for a linear potential, with l the orbital angular
    momentum of k.  At s = 1/2, k = -1 its levels are the Airy levels with
    each zero of Ai in its leading asymptotic form.  With a = E - m and
    lambda r = a - a x^2 the integral is 2 a^(3/2) G(a) / lambda, where
    G(a) = int_0^1 x^2 sqrt(2m + 2s a + (1-2s) a x^2) dx takes an 8-point
    Gauss-Legendre rule.  F(a) = a^(3/2) G(a) meets F* = lambda (nodes +
    l/2 + 3/4) pi / 2 by the fixed-point iteration a <- a (F*/F(a))^(1/p),
    p = d ln F / d ln a (between 3/2 and 2), which is Newton's method in
    ln a and takes about 4 steps (the plain a <- (F*/G(a))^(2/3) took
    about 21).  It starts at the lesser root of F* = a^(3/2) G(0) and
    F* = a^2 G1, G1 = int_0^1 x^2 sqrt(2s + (1-2s) x^2) dx, which lies at
    or above the level, since G(a) >= G(0) and G(a) >= sqrt(a) G1.  Pure
    math: no shot, no scipy."""
    c0, c1 = 2.0 * s, 1.0 - 2.0 * s
    try:
        target = 0.5 * math.pi * (nodes + 0.5 * QuantumNumbers(k).l + 0.75) * lam
        a = min((3.0 * target / math.sqrt(2.0 * m)) ** (2.0 / 3.0),
                math.sqrt(target / sum(wx2 * math.sqrt(c0 + c1 * x2) for x2, wx2 in _GL8)))
        for _ in range(30):
            g = dg = 0.0
            for x2, wx2 in _GL8:
                c = c0 + c1 * x2
                root = math.sqrt(2.0 * m + c * a)
                g += wx2 * root
                dg += wx2 * c / root
            slope = 1.5 + 0.5 * a * dg / g
            a, last = a * (target / (a * math.sqrt(a) * g)) ** (1.0 / slope), a
            if abs(a - last) <= 1e-12 * a:
                break
        e = m + a
    except (ArithmeticError, ValueError):
        return None
    return e if math.isfinite(e) else None


def _wkb_start(m, mix, k, nodes, step, grid_step):
    """Where a scan of the energies m + j*step, j >= 1, starts: the index
    of the first one above _wkb_level's level.  None, for a cold
    bisection, when there is no level, or when grid_step(E), the step of
    the grid a shot at the level's energy E runs on, exceeds a quarter of
    the Airy length (lambda (m + E))^(-1/3): on such grids the node count
    need not be monotone in E, and a start could change the bracket (at
    m = 1e12 on a 100-step grid an unguarded start turned the scan's
    ScanError into a level 500 times the Airy binding).  An index outside
    the scan is no start either (see _first_above)."""
    e = _wkb_level(m, mix.lam, mix.s, k, nodes)
    if e is None:
        return None
    try:
        if not abs(grid_step(e)) <= 0.25 * (mix.lam * (m + e)) ** (-1.0 / 3.0):
            return None
        return math.floor((e - m) / step) + 1
    except (ArithmeticError, ValueError):
        return None


def _dirichlet_u(m, mix, k, e, grid, count=False):
    """(u, changes) for the outward shot at energy e: u at the outer end of
    the grid, or +-inf, the sign of u where the shot overflowed, if it
    overflows first (nan if that sign is 0); and, when `count` is set, the
    strict sign changes of u over u[1:], so a node that has just come in
    through the outer end counts too, else None.

    This is every shot of the quasi-bound estimator: one rk4_path call
    with integrate_radial's arguments, building no RadialSolution."""
    u0, v0 = _launch(m, mix, k, e, grid.r_min)
    u, _, stop, sign = rk4_path(m, mix.lam, mix.s, int(k), e, grid.r_min, grid.h, grid.n,
                                u0, v0)
    end = float(u[-1]) if stop == grid.n else math.inf * float(sign)
    return end, count_nodes(u, end=True) if count else None


def suggest_bracket(m: float, mix: PotentialMix, k: int, grid: RadialGrid,
                    nodes: int = 0, steps: int = 64):
    """Scan (m, m + 10*sqrt(lambda)) for a bracket around the eigenvalue
    whose interior node count is `nodes`.

    The bracket is the pair of adjacent scan energies across which the
    node count first exceeds `nodes`, found by searching the scan on the
    node count, which does not fall as E rises.  The search starts at the
    first scan energy above the WKB level of the `nodes`-node state (see
    _wkb_start) and confirms it in 2 shots when the guess is right, and
    in 4 when it is one step high; a grid too coarse for the guess, whose
    step exceeds a quarter of the Airy length there, is bisected cold.
    Either way the bracket is the cold bisection's, and the end energies
    are shot only when the search closes next to them.  When the count is still
    at or below `nodes` at the top of the window, the scan goes on upward
    in steps of the same spacing, through energies whose turning point
    r1 = (E - m)/lambda lies within r_max, galloping from the top and
    bisecting the last step (see _first_above).  All shots are on the one
    grid, so they share its cached coefficients (see _kernels): the first
    probe builds the grid's whole stack in one pass, centred at its own
    energy, unless the grid is cached already, and leaves the grid cached
    for find_bound_state.

    Raises ScanError when there is no such transition; its message names
    the r_max that the next scan energy needs when the scan went past the
    window.  Also raises ScanError when the scan step is too small to move
    an energy near m, as for a huge m, and when more than 2^52 scan
    energies lie past the window."""
    QuantumNumbers(k)
    width = 10.0 * math.sqrt(mix.lam)
    if m + width / steps == m:
        raise ScanError(f"the scan step {width / steps} is below the resolution "
                        f"of energies near m = {m}")

    def energy(j):
        return m + width / (4.0 * steps) if j == 0 else m + width * j / steps

    def r1(j):
        return (energy(j) - m) / mix.lam

    def above(j):
        e = energy(j)
        # the first probe primes the grid; every later one finds it cached
        _prime(m, mix.lam, mix.s, int(k), e, grid.r_min, grid.h, grid.n)
        return integrate_radial(m, mix, k, e, grid).node_count > nodes

    top = steps  # the last scan energy that may be shot
    i = _first_above(above, -1, top + 1,
                     _wkb_start(m, mix, k, nodes, width / steps, lambda e: grid.h))
    if i > top:
        # past the window: up to the last energy whose r1 lies on the grid
        estimate = grid.r_max * mix.lam * steps / width
        if not estimate < 2.0 ** 52:  # past 2^52 the index no longer steps the energy
            raise ScanError(
                f"no {nodes}-node eigenvalue transition in (m, m + 10*sqrt(lambda)) "
                f"= ({m}, {m + width}), and r_max = {grid.r_max} puts more than "
                f"2^52 scan energies past it")
        top = max(steps, int(estimate))
        while r1(top + 1) <= grid.r_max:
            top += 1
        while top > steps and r1(top) > grid.r_max:
            top -= 1
        i = _first_above(above, steps, top + 1, start=steps + 1)
    if 0 < i <= top:
        return energy(i - 1), energy(i)
    if top > steps:
        raise ScanError(
            f"no {nodes}-node eigenvalue transition in (m, E) = ({m}, {energy(top)}), "
            f"the scan energies whose turning point lies within r_max = {grid.r_max}; "
            f"the next one, {energy(top + 1)}, needs r_max >= {r1(top + 1)}")
    raise ScanError(
        f"no {nodes}-node eigenvalue transition in (m, m + 10*sqrt(lambda)) "
        f"= ({m}, {m + width})")


# (key, i) of the most recent Dirichlet scan: key = (m, lam, s, k, r_min, n)
# of its problem and grid hint, and i the scan index it returned.  Replaced
# by one assignment and read once into a local, so a thread never pairs one
# problem's key with another problem's index.
_last_scan = (None, None)


def estimate_quasibound_energy(m: float, mix: PotentialMix, k: int,
                               grid_hint: RadialGrid,
                               midpoint_scale: float = 1.0) -> float:
    """Quasi-bound level estimate for s < 1/2 from a truncated domain.

    The outward solution is integrated to a Dirichlet point in the
    classically forbidden region -- the midpoint between r1 and the lifted
    continuum edge, capped at a dozen decay lengths past r1 so the scheme
    stays meaningful as s -> 1/2 where the geometric midpoint runs away --
    and a root of u(r_mid) = 0 above m is found in three stages:

    1. a 96-point scan of (m, m + 10*sqrt(lambda)), each energy shot to its
       own Dirichlet point, brackets the lowest sign change of u(r_mid):
       the pair of adjacent scan energies across which the shot's sign
       changes, counted over u[1:], first exceed those of the first scan
       energy.  The count does not fall as E rises, so the scan is
       searched on it and returns the bracket a walk up the scan to the
       first sign change of u(r_mid) returns, whatever index it starts
       from (see _first_above).  When the previous scan had the same m,
       lambda, s, k and grid_hint r_min and n (its midpoint_scale may
       differ), the search starts at that scan's index; else at the index
       of the WKB level (see _wkb_start), unless the grid the level's
       energy is shot on has a step over a quarter of the Airy length
       there, when it bisects cold in 7 or 8 shots.  When the start
       holds, the scan takes 2 shots, the two energies across the start.
       The search looks for the first count above 0: a probe above
       energy 0 that counts 0 shows that energy 0 counts 0 as well,
       since the count does not fall, and the search's closing lower end
       is such a probe unless the bracket's lower end is energy 0 itself.
       Only then is energy 0 shot: when u(r_mid) is exactly 0 there it
       is the root, and when it counts c > 0 sign changes the scan is
       searched again for the first count above c;
    2. r_mid is fixed at the Dirichlet point of the bracket's midpoint; if
       u(r_mid) has one sign at both ends, the bracket is widened one scan
       step at a time toward the end with the smaller |u| until it does
       change sign;
    3. Brent's method converges on u(r_mid) to 1e-11*m, one rk4_path shot
       per evaluation.

    Stages 2 and 3 shoot one grid, ending at r_mid, first at the
    bracket's lower end and then near it, so its whole coefficient stack
    is built in one pass, centred there, before the first of them.

    Every shot goes through _dirichlet_u, which returns u(r_mid), and
    for scan shots the sign-change count.
    Raises ScanError when the scan step is too small to move an energy
    near m, as for a huge m, when even the first scan energy E is so far
    above m, as for a huge lambda, that E - m and E + m round to the same
    value, when the scan finds no sign change, when the
    widening leaves the scan window without one, or when a shot in the
    bracket overflows before r_mid (it then has no finite residual).

    This is an estimate; re-solving with midpoint_scale 0.9 and 1.1 gives
    its truncation-sensitivity spread.  n and r_min are taken from
    grid_hint; the outer radius is the Dirichlet point itself.
    """
    global _last_scan
    from scipy.optimize import brentq

    if mix.s >= 0.5:
        raise ValueError("s >= 0.5 is strictly bound; use find_bound_state")
    QuantumNumbers(k)
    if not (0.5 <= midpoint_scale <= 1.5):
        raise ValueError("midpoint_scale outside [0.5, 1.5] leaves the barrier")

    def dirichlet_radius(e):
        tp = turning_points(m, e, mix)
        cap = tp.r1 + 10.0 / (mix.lam * (m + e)) ** (1.0 / 3.0)
        return midpoint_scale * min(0.5 * (tp.r1 + tp.r3), cap)

    def grid_at(r_mid):
        r_min = min(grid_hint.r_min, 1e-6 * r_mid)
        return RadialGrid(r_min=r_min, r_max=r_mid, n=grid_hint.n)

    def energy(i):
        return m + width / (2.0 * steps) if i == 0 else m + width * i / steps

    def scan_u(i):
        """u and sign changes of the shot at scan energy i, each energy
        to its own Dirichlet point; each energy is shot once, and kept in
        `scan`."""
        if i not in scan:
            e = energy(i)
            scan[i] = _dirichlet_u(m, mix, k, e, grid_at(dirichlet_radius(e)), count=True)
        return scan[i]

    def wkb_start(nodes):
        return _wkb_start(m, mix, k, nodes, width / steps,
                          lambda e: grid_at(dirichlet_radius(e)).h)

    width = 10.0 * math.sqrt(mix.lam)
    steps = 96
    e0 = energy(0)
    if e0 == m:
        raise ScanError(f"the scan step {width / steps} is below the resolution "
                        f"of energies near m = {m}")
    if e0 - m == e0 + m:
        raise ScanError(
            f"lambda = {mix.lam} puts every scan energy E in (m, m + 10*sqrt(lambda)) "
            f"= ({m}, {m + width}) so far above m that E - m and E + m round to "
            f"the same value; there are no turning points to scan")
    scan = {}
    # the spread estimates share the central estimate's key, and almost
    # always its index: start there; else at the WKB level
    key = (m, mix.lam, mix.s, k, grid_hint.r_min, grid_hint.n)
    last_key, start = _last_scan
    if last_key != key:
        start = wkb_start(0)
    i = _first_above(lambda i: scan_u(i)[1] > 0, 0, steps + 1, start)
    # the closing lower end, a probe that counted 0, shows that energy 0
    # counts 0 too, unless it is energy 0 itself (see stage 1 above)
    if i == 1:
        f0, changes0 = scan_u(0)
        if f0 == 0.0:
            return energy(0)
        if changes0 > 0:
            i = _first_above(lambda i: scan_u(i)[1] > changes0, 0, steps + 1,
                             wkb_start(changes0))
    _last_scan = (key, i)
    if i == steps + 1:
        raise ScanError(
            f"no Dirichlet sign change in the scan window "
            f"({m}, {m + width}); no quasi-bound level found")
    if scan[i - 1][0] == 0.0:
        # the shot below the crossing ends on a node: a root on the scan grid
        return energy(i - 1)
    bracket = (energy(i - 1), energy(i))

    # converge at one fixed radius; the scan's radius moved with the
    # energy, so its sign change need not hold at r_mid
    lo, hi = bracket
    r_mid = dirichlet_radius(0.5 * (lo + hi))
    fixed = grid_at(r_mid)

    def endpoint_u(e):
        return _dirichlet_u(m, mix, k, e, fixed)[0]

    # every shot from here on is on the fixed grid, near lo: its whole
    # stack, centred at lo, is built in one pass
    _prime(m, mix.lam, mix.s, int(k), lo, fixed.r_min, fixed.h, fixed.n)
    f_lo, f_hi = endpoint_u(lo), endpoint_u(hi)
    step = width / steps
    while f_lo * f_hi > 0:
        down = abs(f_lo) <= abs(f_hi)
        e = lo - step if down else hi + step
        if not m < e <= m + width:
            raise ScanError(
                f"no Dirichlet sign change at r_mid = {r_mid} within the scan "
                f"window ({m}, {m + width}) around ({bracket[0]}, {bracket[1]})")
        f = endpoint_u(e)
        # on a sign change keep only the step across which it happens
        if down:
            if f * f_lo <= 0:
                hi, f_hi = lo, f_lo
            lo, f_lo = e, f
        else:
            if f * f_hi <= 0:
                lo, f_lo = hi, f_hi
            hi, f_hi = e, f

    # the ends are already shot; an overflowed shot is only a sign, which
    # Brent's interpolation cannot use
    ends = {lo: f_lo, hi: f_hi}

    def residual(e):
        f = ends[e] if e in ends else endpoint_u(e)
        if not math.isfinite(f):
            raise ScanError(
                f"the shot at E = {e} overflows before the Dirichlet point "
                f"r_mid = {r_mid}; no finite residual to converge on")
        return f

    return brentq(residual, lo, hi, xtol=1e-11 * m)
