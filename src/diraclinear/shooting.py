"""Shooting-method solver for the coupled radial Dirac system.

Outward RK4 integration from a series launch at small radius; bound-state
eigenvalues for scalar fraction s >= 1/2 by bisection on the behavior of
the outward tail (node-count targeted, so brackets holding several levels
still converge to the requested one); and a truncated-domain Dirichlet
estimator for the quasi-bound levels that exist below s = 1/2, converged
by Brent's method on the Dirichlet residual.

Every shot is one rk4_path call.  Both solvers start from an energy
scan, suggest_bracket's node scan and the estimator's Dirichlet scan, and
_scan is the one routine that runs both: their energies, the start of
their one search, and their refusals are described there.  The
estimator runs it twice, the second time on its fixed grid, so every
bracket it converges in comes from _scan.  The node count rises with E
only on a grid that resolves the Airy length, so suggest_bracket refuses
a coarser grid before any shot (_require_resolved); the Dirichlet scan
has no such guard.  The estimator reads only u at the Dirichlet point, and
for scan shots its sign changes, so its shots build no RadialSolution.

No module holds solver state: a grid keeps its coefficient stack (see
_prime_grid), and a grid hint the last index and the shots of its last
Dirichlet scan, which no midpoint_scale changes, so that the spread
estimates replay the central estimate's scan, and the fixed grid that
the three estimates share, with its stack and its scan shots.
_splice_tail frees a bound state's stack once it has taken the tail's
step matrices from it; the fixed grid's stack lives as long as the hint
holds it, and a hint holds at most one.

The raw outward shot of a bound state always ends in an exponentially
growing admixture seeded by roundoff.  find_bound_state therefore keeps
it only up to the first grid point at or past the turning point r1, and
splices on there one inward path launched on the decaying direction,
the outward recurrence run backwards through the same step matrices
(rk4_inward), scaled by a least-squares fit of (u, v) at that point.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._kernels import _prime, _transfer_matrices, rk4_inward, rk4_path
from .errors import BracketError, ConsistencyError, ScanError, finite, integer, positive, require
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
    Raises ValueError when r_min^(|k| + 1) overflows, and when r_min^|k|
    underflows so that both values vanish and the shot would be
    identically zero."""
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


def _held(m, mix, k, grid):
    """The (E_c, stack) pair grid holds for the problem, or None."""
    held = grid.__dict__.get("_stack")
    return held[1] if held is not None and held[0] == (m, mix.lam, mix.s, int(k)) else None


def _prime_grid(m, mix, k, E, grid, steps=None):
    """Keeps on grid, as radii() keeps its array, the problem's whole
    stack centred at E (see _kernels), over its first `steps` steps, all
    n when None, tagged with (m, lambda, s, k); a no-op when grid holds
    that problem's stack, so that no centre moves.  Another problem's
    stack is freed before the new one is built."""
    if _held(m, mix, k, grid) is None:
        _drop_stack(grid)
        tag = (m, mix.lam, mix.s, int(k))
        grid.__dict__["_stack"] = tag, _prime(*tag, E, grid.r_min, grid.h,
                                              grid.n if steps is None else steps)


def _drop_stack(grid):
    """Frees the stack grid holds, if any."""
    grid.__dict__.pop("_stack", None)


def _shoot(m, mix, k, E, grid, steps=None):
    """rk4_path's result for the outward shot at E over the first `steps`
    steps of grid, all n when None, through the stack grid holds for this
    problem, if any: a stack longer than the shot is read as its prefix."""
    u0, v0 = _launch(m, mix, k, E, grid.r_min)
    return rk4_path(m, mix.lam, mix.s, int(k), E, grid.r_min, grid.h,
                    grid.n if steps is None else steps, u0, v0, _primed=_held(m, mix, k, grid))


def integrate_radial(m: float, mix: PotentialMix, k: int, E: float,
                     grid: RadialGrid) -> RadialSolution:
    """Single outward RK4 shot at energy E on the given uniform grid.

    Returns the raw (unnormalized) solution.  A growing tail that leaves
    the representable range is not an error: the solution is marked
    diverged, entries past the overflow point are NaN, and divergence_sign
    records the sign of u there; the solvers go by the node count.  Raises
    ValueError, before the shot, unless m is finite and > 0 and E is
    finite, and when r_min^|k| underflows, so that both launch values
    are 0.
    """
    # a plain nonzero int k, a finite m > 0 and a finite E need no rule
    if not (type(k) is int and k != 0 and 0.0 < m < math.inf and math.isfinite(E)):
        QuantumNumbers(k)
        positive("integrate_radial", m=m)
        finite("integrate_radial", E=E)
    u, v, stop, sign = _shoot(m, mix, k, E, grid)
    return RadialSolution(
        r=grid.radii(), u=u, v=v, E=E, node_count=count_nodes(u, end=True),
        diverged=stop < grid.n, divergence_sign=int(sign), grid=grid,
    )


def _tail_start(r, i1, E, m, mix):
    """(steps, u, v): where the inward tail starts, `steps` grid steps past
    the splice point i1, and its launch (u, v) there (see _splice_tail).
    Its temporaries, over the whole tail, are freed on return, before the
    tail's step matrices are built beside the grid's stack."""
    rr = r[i1:]
    p = E + m - (1.0 - 2.0 * mix.s) * mix.lam * rr
    kap = np.sqrt(np.maximum(-p * (E - m - mix.lam * rr), 0.0))
    efolds = np.cumsum(0.5 * (kap[1:] + kap[:-1]) * np.diff(rr))
    steps = min(int(np.searchsorted(efolds, 500.0)) + 1, len(rr) - 1)
    size = 1e-30 / math.hypot(p[steps], kap[steps])
    return steps, size * p[steps], -size * kap[steps]


def _splice_tail(sol: RadialSolution, m, mix, k):
    """The bound-state shot with everything past its splice point, the
    first grid point at or past the turning point r1 = (E - m)/lambda,
    replaced by an inward path on the decaying direction.

    Past r1 the outward shot's roundoff-seeded growing admixture swamps
    the decaying tail; inward, that tail is the growing direction, hence
    stable.  The inward path starts where the integral of
    kappa = sqrt(-P*Q) from the splice point reaches 500, or at r_max if
    that comes first, launched along (u, v) ~ (P, -kappa); beyond its start
    the true tail is below 1e-217 of the splice value and is set to zero.
    It runs the outward recurrence backwards, y_i = T_i^-1 y_{i+1}, through
    the step matrices T_i(E) of the tail's steps, taken from the stack the
    grid holds for the problem (built at E when it holds none), so the
    spliced state satisfies y_{i+1} = T_i y_i on both sides of the splice
    point.  The grid's stack is freed once those matrices are taken: the
    solve needs it no more.  A least-squares fit of (u, v) at the splice
    point scales the path onto the outward shot.

    When r1 lies beyond r_max the grid has no forbidden region, and when
    the splice point is the grid's last point nothing lies past it; either
    way the shot is returned as it is.  Raises ConsistencyError when the
    outward shot overflows before the splice point or the inward path
    before reaching it.
    """
    r, E, grid = sol.r, sol.E, sol.grid
    n = len(r) - 1
    r1 = (E - m) / mix.lam
    i1 = int(np.searchsorted(r, r1))
    if i1 > n:
        return sol
    if not (np.isfinite(sol.u[i1]) and np.isfinite(sol.v[i1])):
        raise ConsistencyError(
            f"the outward shot at E = {E} overflows before the turning point "
            f"r1 = {r1}, so there is no state to splice a tail onto")
    if i1 == n:
        return sol

    steps, u_end, v_end = _tail_start(r, i1, E, m, mix)
    iend = i1 + steps
    with np.errstate(all="ignore"):  # as in rk4_path: overflow is checked on the path
        ab = _transfer_matrices(m, mix.lam, mix.s, int(k), E, grid.r_min, grid.h, iend,
                                _held(m, mix, k, grid), first=i1)
    _drop_stack(grid)  # the solve needs it no more
    ub, vb, stop, _ = rk4_inward(ab, steps, u_end, v_end)
    if stop < steps:
        raise ConsistencyError(
            f"the inward tail path at E = {E} overflows before the turning "
            f"point r1 = {r1}")

    # least squares over (u, v) at the splice point, scaled by |(u, v)|
    # first: the inward values reach ~1e190 and their squares overflow
    a = math.hypot(ub[-1], vb[-1])
    c = (sol.u[i1] * (ub[-1] / a) + sol.v[i1] * (vb[-1] / a)) / a
    u, v = sol.u.copy(), sol.v.copy()
    u[i1:iend + 1] = c * ub[::-1]
    v[i1:iend + 1] = c * vb[::-1]
    u[iend + 1:] = 0.0
    v[iend + 1:] = 0.0
    return RadialSolution(r=r, u=u, v=v, E=E, node_count=count_nodes(u, end=True), grid=grid)


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
    r1 = (E - m)/lambda and past it an inward path spliced on in place of
    the spurious growing tail (see _splice_tail); it is
    normalized to trapezoid(u^2 + v^2) = 1 and oriented with a positive
    main lobe.  When r1 lies beyond r_max, or in the grid's last step, no
    tail lies past the splice point, and the outward shot, at the box's
    level, is returned as it is, normalized.  A state whose node count is
    not `nodes` (a raw shot's node on a grid point, its sign picked by
    rounding) gives way to the state at the bracket's lower end, 1e-8
    below.  Every shot is on the one grid, primed at the bracket's lower
    end unless it holds this problem's stack (see _prime_grid); the inward
    tail takes its step matrices from that stack and frees it, and the grid
    holds no stack when this returns or raises.  The solution's r is
    the grid's shared, read-only radii().  Raises ValueError, before any
    shot, unless m is finite and > 0, s >= 1/2, 0 < lo < hi < inf and
    nodes, when given, is an integer >= 0; raises ConsistencyError when
    the outward shot overflows before r1 or the inward path before
    reaching it.
    """
    positive("find_bound_state", m=m)
    require("find_bound_state", mix.s >= 0.5, "s >= 0.5; use estimate_quasibound_energy below")
    QuantumNumbers(k)
    lo, hi = float(bracket[0]), float(bracket[1])
    require("find_bound_state", 0.0 < lo < hi < math.inf, "a bracket with 0 < lo < hi < inf")
    if nodes is not None:
        integer("find_bound_state", "nodes", nodes, 0)

    # the first shot is at lo; a no-op on the grid suggest_bracket shot
    _prime_grid(m, mix, k, lo, grid)
    try:
        n_lo = integrate_radial(m, mix, k, lo, grid).node_count
        n_hi = integrate_radial(m, mix, k, hi, grid).node_count
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
    finally:  # the raw shot and a raise leave it; the tail frees it sooner
        _drop_stack(grid)


def _first_above(above, lo, hi, start=None):
    """The least index i in (lo, hi) with above(i), or hi when there is
    none, when above(lo) is false and above turns true only once as i
    rises, as a node count passing a fixed level does; lo and hi
    themselves are never probed.  Where above turns more than once, the
    result is one of its turns, which the start picks (see _scan).

    Without a start this is plain bisection.  A start inside (lo, hi) is
    a guess at the answer: start and start - 1 are probed first, and when
    the turn lies between them start is returned after those two probes.
    Otherwise the search gallops away from start in steps of 1, 2, 4, ...
    until it passes the turn and bisects the last step, an exponential
    search (Bentley and Yao, 1976).  On a monotone above a guess, good or
    bad, changes only which indices are probed, never the result."""
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
# and weights w, from numpy's rule on [-1, 1] by t -> (t + 1)/2; in Python
# floats, so that _wkb_level raises on an inf input where numpy would warn
_GL8 = tuple((x * x, w * x * x) for x, w in (
    ((t + 1.0) / 2.0, v / 2.0) for t, v in zip(*(a.tolist() for a in leggauss(8)))))


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


def _scan_index(level, m, step):
    """Where a scan of the energies m + j*step, j >= 1, starts its search:
    the index of the first one above `level`, or None, for a cold
    bisection, when there is no level or the index is not a finite
    number.  An index outside the scan is no start either (see
    _first_above)."""
    if level is None:
        return None
    try:
        return math.floor((level - m) / step) + 1
    except (ArithmeticError, ValueError):
        return None


def _require_resolved(m, mix, nodes, e, grid):
    """Raises ScanError, naming the n that resolves it, when the step of
    grid exceeds a quarter of the Airy length (lambda (m + E))^(-1/3) at
    e, the WKB level of the `nodes`-node state: there the node count need
    not rise with E, and a scan can return the level of a state that the
    grid cannot hold (at lambda = 1e12 on a 500-step grid, 5e4 times the
    Airy level).  Two cube roots, so that no product overflows."""
    quarter = 0.25 * mix.lam ** (-1.0 / 3.0) * (m + e) ** (-1.0 / 3.0)
    if grid.h <= quarter:
        return
    span = grid.r_max - grid.r_min
    if span < 2.0 ** 52 * quarter:
        n = math.ceil(span / quarter)
        while not span / n <= quarter:  # as RadialGrid.h rounds it
            n += 1
        fix = f"a grid of {n} steps (--n {n}) resolves it"
    else:
        fix = "no grid of fewer than 2^52 steps resolves it"
    raise ScanError(
        f"the grid step {grid.h} exceeds a quarter of the Airy length "
        f"(lambda (m + E))^(-1/3) = {4.0 * quarter} at the WKB level E = {e} of "
        f"the {nodes}-node state, so the node count need not rise with E; {fix}")


def _dirichlet_u(m, mix, k, e, grid, count=False, steps=None):
    """(u, changes) for the outward shot at energy e over the first
    `steps` steps of grid, all n when None: u at the last of them, or
    +-inf, the sign of u where the shot overflowed, if it overflows first
    (nan if that sign is 0); and, when `count` is set, the strict sign
    changes of u over u[1:steps + 1], so a node that has just come in
    through the Dirichlet point counts too, else None.

    This is every shot of the quasi-bound estimator, at any step count:
    one rk4_path call with integrate_radial's arguments, building no
    RadialSolution.  The estimator's fixed grid keeps its scan shots
    (see estimate_quasibound_energy): there a counted energy is shot once,
    over the grid's whole stack, and kept, and every count of it, at any
    step count, reads that shot's prefix, the bits of a shot of that many
    steps (see _kernels)."""
    if steps is None:
        steps = grid.n
    # (steps of its stack, shots): the fixed grid's scan shots
    held = grid.__dict__.get("_kept") if count else None
    shot = None if held is None else held[1].get(e)
    if shot is None:
        shot = _shoot(m, mix, k, e, grid, steps if held is None else held[0])
        if held is not None:
            held[1][e] = shot
    u, _, stop, sign = shot
    end = float(u[steps]) if stop >= steps else math.inf * float(sign)
    return end, count_nodes(u[:steps + 1], end=True) if count else None


def _scan(m, width, steps, offset, above, last, what, level=None, start=None):
    """The search of an energy scan, as both solvers run it: (i, top, energy).

    The scan energies are energy(j) = m + width*j/steps for j >= 1, with
    width the window 10*sqrt(lambda), and energy(0) = m + offset*width/steps:
    suggest_bracket puts its first energy a quarter of a step above m, the
    estimator half a step.  above(E), the caller's probe at energy E, says
    whether a count of sign changes exceeds a fixed level.  On the node
    scan and the estimator's first scan, at per-energy radii, that count
    does not fall as E rises (it counts the turns of the Pruefer angle).
    The estimator's second scan, at one fixed r_mid, has no such
    guarantee: there the count fell somewhere in 262 of 450 random draws.
    That scan relies on its start, the first scan's index, instead: from
    it the search returned the first rise after the last fall in all 185
    such draws checked, where a start of 1 can return index 0 and a
    refusal.
    last(energy), the caller's, refuses the scan before any shot or returns
    the last index, top, that the scan may shoot.

    i is the least index in 0..top whose probe is above, or top + 1 when
    none is, the bracket (energy(i - 1), energy(i)) that a walk up the
    energies to their first transition would return, found by one search
    (_first_above).  The search starts at `start`, else at the index of the
    first energy above `level` (_scan_index), such as a WKB level, which on
    the benchmark's requests is the transition's index or one off: the
    search then takes 2 shots, or 4 when the guess is one step high, in
    place of a cold bisection's 7 or 8.  On a monotone count any start
    gives the same i: a guess changes only which energies are shot.

    Raises ScanError, before any shot, when energy 0 rounds to m, as for a
    huge m; and when i = 0: then `what`, the level looked for, lies below
    the first energy, so the scan step does not resolve the levels and the
    bracket need not hold the level asked for."""
    step = width / steps

    def energy(j):
        # offset is 1/4 or 1/2, so offset*step is width/(steps/offset) to the bit
        return m + offset * step if j == 0 else m + width * j / steps

    if energy(0) == m:
        raise ScanError(f"the scan step {step} is below the resolution "
                        f"of energies near m = {m}")
    top = last(energy)
    if start is None:
        start = _scan_index(level, m, step)
    i = _first_above(lambda j: above(energy(j)), -1, top + 1, start)
    if i == 0:
        raise ScanError(f"the scan step {step} does not resolve the levels: "
                        f"{what} lies below the first scan energy {energy(0)}")
    return i, top, energy


def suggest_bracket(m: float, mix: PotentialMix, k: int, grid: RadialGrid,
                    nodes: int = 0, steps: int = 64):
    """Scan (m, m + 10*sqrt(lambda)) in `steps` steps for a bracket around
    the eigenvalue whose interior node count is `nodes`: the pair of
    adjacent scan energies across which the node count first exceeds
    `nodes` (see _scan).  Past the window the scan goes on upward in steps
    of the same spacing through the energies whose turning point
    r1 = (E - m)/lambda lies within r_max.  Its search starts at the WKB
    level of the `nodes`-node state (_wkb_level).  The node count rises
    with E only on a grid that resolves the Airy length, so a grid whose
    step exceeds a quarter of it at that level is refused before any shot
    (see _require_resolved).  All shots are on the one grid, so they share
    its coefficient stack (see _prime_grid): the first probe builds it in
    one pass, centred at its own energy, unless the grid holds this
    problem's stack already, and the grid keeps it for find_bound_state.

    Raises ValueError unless m > 0 is finite and steps >= 1 and
    nodes >= 0 are integers.
    Raises ScanError when there is no such transition; its message names
    the r_max that the next scan energy needs when the scan went past the
    window.  Also raises ScanError when the grid does not resolve the Airy
    length at the level (its message names the n that does), when more
    than 2^52 scan energies lie past the window, and as _scan does."""
    positive("suggest_bracket", m=m)
    QuantumNumbers(k)
    integer("suggest_bracket", "steps", steps, 1)
    integer("suggest_bracket", "nodes", nodes, 0)
    steps, nodes = int(steps), int(nodes)
    width = 10.0 * math.sqrt(mix.lam)
    level = _wkb_level(m, mix.lam, mix.s, k, nodes)

    def r1(e):
        return (e - m) / mix.lam

    def above(e):
        # the first probe primes the grid; every later one finds its stack
        _prime_grid(m, mix, k, e, grid)
        return integrate_radial(m, mix, k, e, grid).node_count > nodes

    def last(energy):
        if level is not None:
            _require_resolved(m, mix, nodes, level, grid)
        # the last scan energy that may be shot: the last whose r1 lies on the grid
        estimate = grid.r_max * mix.lam * steps / width
        if not estimate < 2.0 ** 52:  # past 2^52 the index no longer steps the energy
            raise ScanError(
                f"r_max = {grid.r_max} puts more than 2^52 scan energies past "
                f"(m, m + 10*sqrt(lambda)) = ({m}, {m + width})")
        top = max(steps, int(estimate))
        while r1(energy(top + 1)) <= grid.r_max:
            top += 1
        while top > steps and r1(energy(top)) > grid.r_max:
            top -= 1
        return top

    i, top, energy = _scan(m, width, steps, 0.25, above, last, f"the {nodes}-node level",
                           level=level)
    if i <= top:
        return energy(i - 1), energy(i)
    if top > steps:
        raise ScanError(
            f"no {nodes}-node eigenvalue transition in (m, E) = ({m}, {energy(top)}), "
            f"the scan energies whose turning point lies within r_max = {grid.r_max}; "
            f"the next one, {energy(top + 1)}, needs r_max >= {r1(energy(top + 1))}")
    raise ScanError(
        f"no {nodes}-node eigenvalue transition in (m, m + 10*sqrt(lambda)) "
        f"= ({m}, {m + width})")


def estimate_quasibound_energy(m: float, mix: PotentialMix, k: int,
                               grid_hint: RadialGrid,
                               midpoint_scale: float = 1.0) -> float:
    """Quasi-bound level estimate for s < 1/2 from a truncated domain.

    The outward solution is integrated to a Dirichlet point in the
    classically forbidden region -- the midpoint between r1 and the lifted
    continuum edge, capped at a dozen decay lengths past r1 so the scheme
    stays meaningful as s -> 1/2 where the geometric midpoint runs away --
    and a root of u(r_mid) = 0 above m is found in three stages:

    1. a 97-point scan of (m, m + 10*sqrt(lambda)) (see _scan), each
       energy shot to its own Dirichlet point, brackets the lowest sign
       change of u there: the pair of adjacent scan energies across which
       the count of the shot's sign changes over u[1:] first exceeds 0.
       No midpoint_scale changes this stage, so grid_hint keeps its index
       and its shots (energy -> (u, sign changes)), tagged with m, lambda,
       s and k.  A later scan of the same problem on that hint starts at
       that index and reads the kept shots, so the 0.9 and 1.1 estimates
       after the central one shoot nothing here; a scan of another
       problem starts at the WKB level of the ground state (_wkb_level);
    2. the fixed grid is the central one: n steps (n from grid_hint) from
       r_min to the Dirichlet point of the bracket's midpoint, run on at
       the same step h to L = max(round(1.1*n), round(midpoint_scale*n))
       steps.  Scale c converges at step j = round(c*n), r_mid = r_min +
       j*h, so the central estimate's grid is the n-step one.  The scan is
       run again there: the same energies, each now shot to L once and
       read at step j, and the same search, started at stage 1's index.
       Where stage 1's bracket holds at r_mid, that search reads its two
       ends, hi and then lo, and nothing else;
    3. Brent's method converges on u(r_mid) to 1e-11*m, one j-step shot
       per evaluation, reading the two ends from stage 2's shots.

    Every estimate is thus a root of u(r_mid) on the fixed grid, bracketed
    by adjacent scan energies, and no energy is shot twice on that grid.
    Each scan's bracket is refused when it finds no sign change, and when
    its upper end counts more than one sign change, so that it may hold
    more than one level.

    Stages 2 and 3 shoot the fixed grid at and between scan energies near
    stage 1's bracket, so its whole coefficient stack, over L steps, is
    built in one pass, centred at that bracket's lower end, before the
    first of them.  grid_hint keeps the fixed grid, its stack and its
    stage-2 shots, tagged with m, lambda, s, k and that lower end, in
    place of the last problem's, so the three scales of one problem prime
    it once and shoot each scan energy at most once; a scale that needs
    more than L steps rebuilds it.  A j-step shot reads a prefix of the
    stack, the bits of a j-step stack, so every estimate is the one that
    a fresh hint gives, whatever ran on the hint before.

    Every shot goes through _dirichlet_u, which returns u(r_mid), and
    for scan shots the sign-change count.
    Raises ValueError, before any shot, unless m is finite and > 0,
    s < 1/2 and midpoint_scale lies in [0.5, 1.5].
    Raises ScanError when even the first scan energy E is so far above m,
    as for a huge lambda, that E - m and E + m round to the same value,
    when either scan's bracket is refused (as above), when a shot in the
    bracket overflows before r_mid (it then has no finite residual), and
    as _scan does.

    This is an estimate; re-solving with midpoint_scale 0.9 and 1.1 gives
    its truncation-sensitivity spread.  The three estimates share r_min
    and h, so the RK4 error common to them drops out and the spread
    measures the truncation alone, at the grid point nearest 0.9 and 1.1
    times the central r_mid.  r_min is grid_hint's unless it lies above
    1e-6 times the central r_mid, or below 2^(-1000/|k|), where r_min^|k|
    would near the least normal double and the outcome would depend on
    which energies are shot (a floor that binds only at large |k|, and
    that is capped at r_mid/2); the outer radius is the Dirichlet point
    itself.
    """
    from scipy.optimize import brentq

    positive("estimate_quasibound_energy", m=m)
    require("estimate_quasibound_energy", mix.s < 0.5, "s < 0.5; use find_bound_state above")
    QuantumNumbers(k)
    require("estimate_quasibound_energy", 0.5 <= midpoint_scale <= 1.5,
            "midpoint_scale in [0.5, 1.5]: one outside [0.5, 1.5] leaves the barrier")

    def dirichlet_radius(e):
        tp = turning_points(m, e, mix)
        cap = tp.r1 + 10.0 / (mix.lam * (m + e)) ** (1.0 / 3.0)
        return min(0.5 * (tp.r1 + tp.r3), cap)

    def grid_at(r_mid):
        r_min = max(min(grid_hint.r_min, 1e-6 * r_mid), 2.0 ** (-1000.0 / abs(k)))
        return RadialGrid(r_min=min(r_min, 0.5 * r_mid), r_max=r_mid, n=grid_hint.n)

    def probe(shots, grid_of, at=None):
        """A scan's probe: u and sign changes of the shot at energy e on
        grid_of(e), read at step `at` (its last when None), each energy
        shot once and kept in `shots`."""
        def above(e):
            if e not in shots:
                shots[e] = _dirichlet_u(m, mix, k, e, grid_of(e), count=True, steps=at)
            return shots[e][1] > 0
        return above

    def last(energy):
        if energy(0) - m == energy(0) + m:
            raise ScanError(
                f"lambda = {mix.lam} puts every scan energy E in (m, m + 10*sqrt(lambda)) "
                f"= ({m}, {m + width}) so far above m that E - m and E + m round to "
                f"the same value; there are no turning points to scan")
        return steps

    def bracket(i, shots, where):
        """(lo, hi), the scan energies across the first sign change, which
        the search found at index i from the shots kept in `shots`.  Refused
        when there is none, `where` naming the shots, and when hi counts
        more than one sign change: the bracket may then hold more than one
        level, and Brent's method may converge on any."""
        if i == steps + 1:
            raise ScanError(f"no Dirichlet sign change {where}")
        lo, hi = energy(i - 1), energy(i)
        if shots[hi][1] > 1:
            raise ScanError(f"the scan step {step} does not resolve the levels: "
                            f"({lo}, {hi}) holds {shots[hi][1]} Dirichlet levels")
        return lo, hi

    width = 10.0 * math.sqrt(mix.lam)
    steps = 96
    step = width / steps
    # the spread estimates share the central estimate's grid hint, its
    # index and its shots, which no midpoint_scale changes: start there,
    # replaying the shots; else at the WKB level
    tag = (m, mix.lam, mix.s, k)
    hint_tag, start = grid_hint.__dict__.get("_scan", (None, None))
    shots_tag, scan = grid_hint.__dict__.get("_shots", (None, None))
    if shots_tag != tag:
        scan = {}
    hinted = hint_tag == tag
    i, _, energy = _scan(m, width, steps, 0.5, probe(scan, lambda e: grid_at(dirichlet_radius(e))),
                         last, "a Dirichlet level",
                         level=None if hinted else _wkb_level(m, mix.lam, mix.s, k, 0),
                         start=start if hinted else None)
    grid_hint.__dict__["_scan"] = tag, i
    grid_hint.__dict__["_shots"] = tag, scan
    lo, hi = bracket(i, scan, f"in the scan window ({m}, {m + width}); "
                              f"no quasi-bound level found")

    # converge at one fixed radius, on the fixed grid that the three
    # scales share: held by the hint unless another problem or a shorter
    # reach left it, and then freed before the new stack is built
    j = round(midpoint_scale * grid_hint.n)
    reach = max(round(1.1 * grid_hint.n), j)
    key = (*tag, lo)
    held, fixed = grid_hint.__dict__.get("_fixed", (None, None))
    if held != key or fixed.__dict__["_kept"][0] < reach:
        grid_hint.__dict__.pop("_fixed", None)
        fixed = grid_at(dirichlet_radius(0.5 * (lo + hi)))
        # every shot from here on is near lo: its whole stack, centred at
        # lo, is built in one pass
        _prime_grid(m, mix, k, lo, fixed, reach)
        fixed.__dict__["_kept"] = reach, {}
        grid_hint.__dict__["_fixed"] = key, fixed
    r_mid = fixed.r_min + j * fixed.h
    # the scan's radius moved with the energy, so its sign change need not
    # hold at r_mid: scan the same energies there, from the scan's index
    at_r_mid = {}
    i, _, _ = _scan(m, width, steps, 0.5, probe(at_r_mid, lambda e: fixed, j), last,
                    f"a Dirichlet level at r_mid = {r_mid}", start=i)
    lo, hi = bracket(i, at_r_mid, f"at r_mid = {r_mid} within the scan window "
                                  f"({m}, {m + width}) around ({lo}, {hi})")

    def residual(e, grid):
        # the scan has read the ends; an overflowed shot is only a sign,
        # which Brent's interpolation cannot use
        f = at_r_mid[e][0] if e in at_r_mid else _dirichlet_u(m, mix, k, e, grid, steps=j)[0]
        if not math.isfinite(f):
            raise ScanError(
                f"the shot at E = {e} overflows before the Dirichlet point "
                f"r_mid = {r_mid}; no finite residual to converge on")
        return f

    # the grid is an argument, not a closure cell: brentq's wrapper of
    # residual is a reference cycle, which a gc pass alone frees, and it
    # must not keep the stack alive once the hint lets it go
    return brentq(residual, lo, hi, args=(fixed,), xtol=1e-11 * m)
