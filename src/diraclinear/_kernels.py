"""Fixed-step RK4 integration kernel for the coupled radial system.

The reduced components obey

    du/dr = -(k/r) u + P(r) v      P(r) = E + m - (1-2s)*lambda*r
    dv/dr = +(k/r) v - Q(r) u      Q(r) = E - m - lambda*r

shared by the outward shot, the inward tail reconstruction (negative
step), and the quasi-bound estimator.  The system is linear in (u, v), so
one RK4 step is a fixed 2x2 transfer matrix

    T_i = I + h/6 (K1 + 2 K2 + 2 K3 + K4),   y_{i+1} = T_i y_i,

with the stage matrices K built from the coefficient matrix at r_i,
r_i + h/2 and r_i + h (see _rk4_coefficients for the form built).  The
recurrence y_{i+1} - T_i y_i = 0 with y_0 given is a unit lower-triangular
banded system in the interleaved unknowns (u_0, v_0, u_1, v_1, ...), with
three sub-diagonals, and one LAPACK dtbtrs call (Anderson et al., "LAPACK
Users' Guide") solves it by compiled forward substitution.  Its band
storage is a flat C-ordered buffer ab of 8 (n + 1) doubles whose (n + 1,
2, 4) reshape is ab[i, c, d] and whose (-1, 4) reshape, transposed, is
LAPACK's (4, 2n+2) lower band: column 2i+c of the system holds -T_i[:, c]
at sub-diagonals 2-c and 3-c, under the unit diagonal d = 0.  The state
stays in real units, capped at 1e250: a path is read up to its first
entry past the cap, and no log scaling is needed.  One dot product, the
path's sum of squares, clears the common case: when it is finite, every
entry is below sqrt(DBL_MAX) = 1.34e154, far inside the cap.  Only a path
with an entry past 1.34e154, or a NaN or inf, takes the exact max/min
scan, which gives the same stop index and sign as it always did.

Only E changes between the shots of an eigenvalue search.  The
coefficient matrix is A(r; E) = A0(r) + E J with J = [[0, 1], [-1, 0]],
so the RK4 stages have degrees 1..4 in E, and about a centre E_c every
step matrix is exactly T_i(E) = sum_{p=0..4} (E - E_c)^p C_{p,i}.  The
kernel keeps no state: a caller that will shoot a grid at E_c and then
near it builds the grid's stack with _prime, all five rows in one pass
that shares the coefficients at the three radii, one band buffer per p
with zeros in every slot that no step matrix fills (320 bytes per step,
6.4 MB at n = 20000), and passes the pair (E_c, stack) it returns to
each rk4_path call on that grid (the solvers keep the pair on the grid;
see shooting).  A shot given no pair builds its step matrices directly
(_row0), as row p = 0 of a stack centred at its own energy: T(E).

A build computes the step matrices _CHUNK = 1024 steps at a time, for
every row it builds, and writes each of the four entries of all rows
straight into its band slot (slots 2, 3, 5 and 6 of a step's eight), one
strided copy per entry.  The chunk keeps each temporary at 8 KB (the
largest, the entries of five rows, at 160 KB), small enough that the
allocator reuses the heap pages it holds: with 2048-step chunks it handed
their pages back and faulted them in again on every build, about 500
minor page faults per 4000-step solve (ru_minflt), against about 3 now.

Both paths compute each entry of row p = 0 by the same sums in the same
order, so it is the same bits whichever path built it.  A call at the
centre, d = E - E_c = 0, reads row p = 0 as it is; every other call
evaluates sum_p d^p stack[p] as one BLAS matrix-vector product over rows
p = 1..4, whose output becomes the band once row p = 0 is added to it.

A call far from the centre, |h d| > 1, builds its own row p = 0 at E,
and so does one whose d^4 is not finite, so that no structural zero of
the band becomes NaN.  The power basis in d cancels as |h d| grows: on
3000 seeded draws of 7- and 30-step grids with |h| up to 1.3, a shot's
worst deviation from a per-step RK4 loop, relative to the path's size,
is 5.2e-13 from the stack for |h d| < 1 (1.7e-13 from its own step
matrices on the same draw), but 1.7e-12 at 4 to 5 and 3.3e-10 at 10 to
11, where its own step matrices stay within 2.1e-13.  The solvers' shots
stay far inside |h d| < 1 (at most 0.05 on the benchmark's requests), so
the fallback catches only coarse grids, such as a small --n over a large
--rmax.  A shot's result depends only on its arguments; its last bits
depend on the centre of the pair it is given, if any.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtbtrs

# The kernel is plain numpy and LAPACK.  The benchmark's environment record
# reads this flag, which stays False now that there is no JIT-compiled
# backend.
NUMBA_AVAILABLE = False

_OVERFLOW_CAP = 1e250
# steps per chunk when building a stack (see the module docstring)
_CHUNK = 1024


def _rk4_coefficients(m, lam, s, k, Ec, h, r, higher):
    """-C_0 and, with `higher`, -C_1..-C_4 of
    T(E) = sum_p (E - Ec)^p C_p for the steps starting at r, as an array
    [p, entry, step], entries column by column (00, 10, 01, 11).

    With d = E - Ec, A(x) = [[-a, P + d], [q - d, a]], where a = k/x,
    P = m + Ec - cs*x and q = lam*x + m - Ec, is traceless, so A^2 = D I
    with the scalar D = a^2 + (P + d)(q - d).  With A1, Am, A4 at r,
    r + h/2, r + h and Dm = D0 + D1 d - d^2 at r + h/2,
    K3 = Am + h/2 Dm I + h^2/4 Dm A1, and the step matrix collapses to

        T = I + h/6 (A1 + 4 Am + A4 + h M + h Dm W),
        M = Am A1 + A4 Am,   W = I + h/2 (A1 + A4) + h^2/4 A4 A1,

    where M = M0 + M1 d - 2 d^2 I and W = W0 + W1 d - h^2/4 d^2 I.
    All rows share the values at the three radii, W0 and D0, and each
    entry of -C_0 is the same sum in the same order with or without
    `higher`, so row p = 0 is the same bits either way.
    """
    cs = (1.0 - 2.0 * s) * lam
    x = r + h * np.array([[0.0], [0.5], [1.0]])  # rows r, r + h/2, r + h
    (a1, am, a4), (P1, Pm, P4), (q1, qm, q4) = k / x, (m + Ec) - cs * x, lam * x + (m - Ec)
    b, da = a1 + a4, a1 - a4
    hh = 0.25 * h * h
    g0, w0 = np.empty((2, 4, len(r)))
    t = np.empty((5 if higher else 1, 4, len(r)))
    # A4 A1 = G0 + G1 d - d^2 I; W0, entries column by column
    a41 = a4 * a1
    np.add(a41, P4 * q1, out=g0[0])
    np.subtract(a4 * q1, q4 * a1, out=g0[1])
    np.subtract(P4 * a1, a4 * P1, out=g0[2])
    np.add(a41, q4 * P1, out=g0[3])
    np.negative(b, out=w0[0])
    np.add(q1, q4, out=w0[1])
    np.add(P1, P4, out=w0[2])
    w0[3] = b
    w0 *= 0.5 * h
    g0 *= hh
    w0 += g0
    w0[::3] += 1.0
    # -C_p is the d^p part of -I + c (A1 + 4 Am + A4 + h M + h Dm W) with
    # c = -h/6; u0 and u1 are c h D0 and c h D1
    c = -h / 6.0
    ch = c * h
    u0 = ch * (am * am + Pm * qm)
    t0, m0 = t[0], g0  # M0 in g0's place
    amb = am * b
    np.add(amb + Pm * q1, P4 * qm, out=m0[0])
    np.subtract(am * (q1 - q4), qm * da, out=m0[1])
    np.add(am * (P4 - P1), Pm * da, out=m0[2])
    np.add(amb + qm * P1, q4 * Pm, out=m0[3])
    a4m = b + 4.0 * am
    np.negative(a4m, out=t0[0])
    np.add(q1 + 4.0 * qm, q4, out=t0[1])
    np.add(P1 + 4.0 * Pm, P4, out=t0[2])
    t0[3] = a4m
    t0 *= c
    m0 *= ch
    t0 += m0
    t0 += u0 * w0
    t0[::3] -= 1.0
    if higher:
        t1, t2, t3, t4 = t[1:]
        u1 = ch * (qm - Pm)
        w1 = g0  # W1 in g0's place
        np.subtract(q1, P4, out=w1[0])
        w1[1] = da
        w1[2] = da
        np.subtract(q4, P1, out=w1[3])
        w1 *= hh
        w1[1] -= h
        w1[2] += h
        # t1 starts as M1
        np.add(q1 - Pm, qm - P4, out=t1[0])
        t1[1] = da
        t1[2] = da
        np.add(qm - P1, q4 - Pm, out=t1[3])
        t1 *= ch
        t1 += u0 * w1
        t1 += u1 * w0
        t1[1] -= 6.0 * c
        t1[2] += 6.0 * c
        np.multiply(u1, w1, out=t2)
        t2 -= ch * w0
        t2[::3] -= 2.0 * ch + hh * u0
        np.multiply(w1, -ch, out=t3)
        t3[::3] -= hh * u1
        t4[::3] = hh * ch
        t4[1:3] = 0.0
    return t


def _stack(m, lam, s, k, Ec, r0, h, n, higher, out):
    """Writes row p = 0 and, with `higher`, rows p = 1..4 of the stack
    centred at Ec into the band slots of out[p, i, :], a zeroed (rows,
    n + 1, 8) view, _CHUNK steps at a time so that the temporaries stay
    small; row p = 0 gets the unit diagonal too."""
    out[0, :, ::4] = 1.0
    for i0 in range(0, n, _CHUNK):
        i1 = min(n, i0 + _CHUNK)
        t = _rk4_coefficients(m, lam, s, k, Ec, h, r0 + h * np.arange(i0, i1, dtype=float),
                              higher)
        # -T[:, 0] goes to slots 2 and 3 of a step, -T[:, 1] to slots 5 and
        # 6: each entry, of every row, straight into its slot
        out[:, i0:i1, 2] = t[:, 0]
        out[:, i0:i1, 3] = t[:, 1]
        out[:, i0:i1, 5] = t[:, 2]
        out[:, i0:i1, 6] = t[:, 3]


def _row0(m, lam, s, k, E, r0, h, n):
    """The band buffer of T(E), as row p = 0 of a stack centred at E."""
    ab = np.zeros((1, n + 1, 8))
    _stack(m, lam, s, k, E, r0, h, n, False, ab)
    return ab.reshape(1, -1)


def _prime(m, lam, s, k, Ec, r0, h, n):
    """(Ec, stack): the grid's full stack centred at Ec, rows p = 0..4
    built in one pass and read-only, for a caller that shoots the grid at
    Ec and then at several energies near it: its first shot reads row
    p = 0 as it is."""
    full = np.zeros((5, n + 1, 8))
    with np.errstate(all="ignore"):
        _stack(m, lam, s, k, Ec, r0, h, n, True, full)
    full = full.reshape(5, -1)
    full.flags.writeable = False
    return Ec, full


def _transfer_matrices(m, lam, s, k, E, r0, h, n, primed=None):
    """The band buffer of the n step matrices at energy E, from `primed`,
    _prime's (E_c, stack) for this grid, or built at E when it is None
    (see the module docstring).  The caller must not write it."""
    if primed is None:
        return _row0(m, lam, s, k, E, r0, h, n)
    Ec, stack = primed
    d = E - Ec
    if d == 0.0:
        return stack[0]
    d2 = d * d
    if not (abs(h * d) <= 1.0 and math.isfinite(d2 * d2)):
        return _row0(m, lam, s, k, E, r0, h, n)
    # row p = 0 goes in last, so that each band entry near 1 is rounded
    # once: adding the small terms to it one by one rounds it up to four
    # times, and a 5000-step path drifts to 1e-13 of its size, against 1e-14
    ab = np.array((d, d2, d2 * d, d2 * d2)) @ stack[1:]
    ab += stack[0]
    return ab


def _path(ab, n, u0, v0):
    """The shot through the band buffer ab (see the module docstring),
    launched from (u0, v0), with rk4_path's return contract."""
    # x = (u_0, v_0, u_1, v_1, ...) is the right-hand side, then the path:
    # a contiguous float64 b with overwrite_b is solved in place
    x = np.zeros((n + 1, 2))
    x[0] = u0, v0
    _, info = dtbtrs(ab.reshape(-1, 4).T, x.reshape(-1), uplo="L", diag="U", overwrite_b=1)
    if info:
        raise RuntimeError(f"LAPACK dtbtrs rejected argument {-info}")
    u, v = x[:, 0], x[:, 1]
    # the common case in one pass: a finite sum of squares puts every entry
    # below sqrt(DBL_MAX) = 1.34e154, far inside the cap; a NaN or inf makes
    # the sum NaN or inf, and so does an entry past the cap
    xs = x.reshape(-1)
    if math.isfinite(np.dot(xs, xs)) or (
            x[1:].max() <= _OVERFLOW_CAP and x[1:].min() >= -_OVERFLOW_CAP):
        return u, v, n, 0.0
    bad = ~((np.abs(u[1:]) <= _OVERFLOW_CAP) & (np.abs(v[1:]) <= _OVERFLOW_CAP))
    i = int(np.argmax(bad))
    un, uu = u[i + 1], u[i]
    sign = 0.0
    if np.isfinite(un) and un != 0.0:
        sign = 1.0 if un > 0.0 else -1.0
    elif uu != 0.0:
        sign = 1.0 if uu > 0.0 else -1.0
    u[i + 1:] = np.nan
    v[i + 1:] = np.nan
    return u, v, i, sign


def rk4_path(m, lam, s, k, E, r0, h, n, u0, v0, _primed=None):
    """Integrate n RK4 steps from r0 with signed step h.

    Returns (u, v, stop, sign): arrays of length n+1 holding the solution
    at r0 + i*h, the index of the last finite entry, and the sign of u at
    the point where |u| or |v| left the representable range (0.0 while the
    integration stayed finite).  Entries beyond `stop` are NaN.  The
    private `_primed` is _prime's (E_c, stack) for this grid, or None.
    """
    with np.errstate(all="ignore"):
        return _path(_transfer_matrices(m, lam, s, k, E, r0, h, n, _primed), n, u0, v0)


def warm_up():
    """Run the kernel once on a trivial problem, so that a timed caller does
    not pay for its first-call set-up.

    This warms the kernel only.  The library imports scipy.optimize,
    scipy.integrate and scipy.special on first use, so the first brentq
    (quasi-bound estimates), quad (barrier integrals) or scipy.special call
    (Bessel functions, Airy zeros and node tables) still loads its
    subpackage.
    """
    rk4_path(1.0, 0.2, 0.5, -1, 1.5, 1e-4, 1e-3, 4, 1e-4, 0.0)
