"""Fixed-step RK4 integration kernel for the coupled radial system.

The reduced components obey

    du/dr = -(k/r) u + P(r) v      P(r) = E + m - (1-2s)*lambda*r
    dv/dr = +(k/r) v - Q(r) u      Q(r) = E - m - lambda*r

shared by the outward shot, the inward tail reconstruction (negative
step), and the quasi-bound estimator.  The system is linear in (u, v), so
one RK4 step is a fixed 2x2 transfer matrix

    T_i = I + h/6 (K1 + 2 K2 + 2 K3 + K4),   y_{i+1} = T_i y_i,

with the stage matrices K built from the coefficient matrix at r_i,
r_i + h/2 and r_i + h.  All T_i are built at once with elementwise 2x2
numpy algebra.  The recurrence y_{i+1} - T_i y_i = 0 with y_0 given is a
unit lower-triangular banded system in the interleaved unknowns
(u_0, v_0, u_1, v_1, ...), with three sub-diagonals, and one LAPACK
dtbtrs call (Anderson et al., "LAPACK Users' Guide") solves it by
compiled forward substitution.  The step matrices are written, in step
order, straight into that solve's band storage: a C-ordered buffer
ab[i, c, d] whose reshaped transpose is LAPACK's (4, 2n+2) lower band, so
column 2i+c of the system holds -T_i[:, c] at sub-diagonals 2-c and 3-c,
under the unit diagonal d = 0.  The state stays in real units, capped at
1e250: a path is read up to its first entry past the cap, and no log
scaling is needed.

Only E changes between the shots of an eigenvalue search.  The
coefficient matrix is A(r; E) = A0(r) + E J with J = [[0, 1], [-1, 0]],
so the stages K1..K4 have degrees 1..4 in E and every step matrix is
exactly T_i(E) = sum_{p=0..4} E^p C_{p,i}.  The kernel keeps one cache
entry, for the grid (m, lam, s, k, r0, h, n) of the most recent call:

- the first call on a grid builds T directly, so a grid shot once (the
  quasi-bound scan, where each energy has its own radius, or an inward
  tail rebuild) pays nothing for the cache;
- the second call in a row on it builds the coefficients C, 5 matrices
  per step (160 bytes per step, 3.2 MB at n = 20000), _CHUNK steps at a
  time, and keeps them;
- every later call evaluates T(E) from C by Horner's rule, four
  multiply-add passes written straight into the band buffer.

Cached and direct step matrices agree to a few 1e-16 of their size, so a
shot's last bits can depend on whether the grid was shot just before.
Each shot is one rk4_path call; the energy scans shoot one energy at a
time, so a node-count scan on one grid shares that grid's coefficients.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtbtrs

# The kernel is plain numpy and LAPACK.  The benchmark's environment record
# reads this flag, which stays False now that there is no JIT-compiled
# backend.
NUMBA_AVAILABLE = False

_OVERFLOW_CAP = 1e250
# steps per chunk when building the transfer matrices or their
# coefficients; keeps the temporaries small enough to stay in cache
_CHUNK = 2048

# (key, C) for the grid of the most recent call, key = (m, lam, s, k, r0, h,
# n); C is that grid's read-only coefficient stack, or None until the grid
# is shot twice in a row.  Replaced by one assignment and read once into a
# local, so a thread never pairs one grid's key with another grid's C.
_last_grid = (None, None)


def _mul(a, b):
    """Product a @ b of two stacks of 2x2 matrices given as entry tuples."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _plus_identity(scale, a):
    """I + scale * a for a stack of 2x2 matrices."""
    a00, a01, a10, a11 = a
    return (1.0 + scale * a00, scale * a01, scale * a10, 1.0 + scale * a11)


def _rk4_matrix(m, lam, s, k, E, h, r):
    """Entries (00, 01, 10, 11) of the step matrix T at energy E for steps
    starting at r."""
    cs = (1.0 - 2.0 * s) * lam
    h2 = 0.5 * h

    def coeffs(x):
        # dy/dr = [[-k/x, P(x)], [-Q(x), k/x]] y
        a = k / x
        return (-a, (E + m) - cs * x, lam * x - (E - m), a)

    k1 = coeffs(r)
    am = coeffs(r + h2)
    k2 = _mul(am, _plus_identity(h2, k1))
    k3 = _mul(am, _plus_identity(h2, k2))
    k4 = _mul(coeffs(r + h), _plus_identity(h, k3))
    return _plus_identity(h / 6.0, tuple(
        w1 + 2.0 * w2 + 2.0 * w3 + w4 for w1, w2, w3, w4 in zip(k1, k2, k3, k4)))


def _rk4_coefficients(m, lam, s, k, h, r, out):
    """Writes -C_0..-C_4, T(E) = sum_p E^p C_p, for the steps starting at r
    into out[p, entry, step], entries column by column (00, 10, 01, 11).

    A(x) = [[-a, P + E], [q - E, a]], with a = k/x, P = m - cs*x and
    q = lam*x + m, is traceless, so A^2 = d I with the scalar
    d = a^2 + (P + E)(q - E).  With A1, Am, A4 at r, r + h/2, r + h and
    dm = d0 + d1 E - E^2 at r + h/2, K3 = Am + h/2 dm I + h^2/4 dm A1, and
    the step matrix collapses to

        T = I + h/6 (A1 + 4 Am + A4 + h M + h dm W),
        M = Am A1 + A4 Am,   W = I + h/2 (A1 + A4) + h^2/4 A4 A1,

    where M = M0 + M1 E - 2 E^2 I and W = W0 + W1 E - h^2/4 E^2 I.
    """
    cs = (1.0 - 2.0 * s) * lam
    x = r + h * np.array([[0.0], [0.5], [1.0]])  # rows r, r + h/2, r + h
    (a1, am, a4), (P1, Pm, P4), (q1, qm, q4) = k / x, m - cs * x, lam * x + m
    b, da = a1 + a4, a1 - a4
    # the E^0 and E^1 parts of M and W, entries column by column
    m0 = np.stack([am * b + Pm * q1 + P4 * qm, am * (q1 - q4) - qm * da,
                   am * (P4 - P1) + Pm * da, am * b + qm * P1 + q4 * Pm])
    m1 = np.stack([(q1 - Pm) + (qm - P4), da, da, (qm - P1) + (q4 - Pm)])
    # A4 A1 = G0 + G1 E - E^2 I
    g0 = np.stack([a4 * a1 + P4 * q1, a4 * q1 - q4 * a1, P4 * a1 - a4 * P1, a4 * a1 + q4 * P1])
    w0 = (0.5 * h) * np.stack([-b, q1 + q4, P1 + P4, b]) + (0.25 * h * h) * g0
    w0[::3] += 1.0
    w1 = (0.25 * h * h) * np.stack([q1 - P4, da, da, q4 - P1])
    w1[1] -= h
    w1[2] += h
    # -C_p is the E^p part of -I + c (A1 + 4 Am + A4 + h M + h dm W) with
    # c = -h/6; u0 and u1 are c h d0 and c h d1
    c = -h / 6.0
    ch = c * h
    u0, u1 = ch * (am * am + Pm * qm), ch * (qm - Pm)
    a4m = b + 4.0 * am
    np.add(c * np.stack([-a4m, q1 + 4.0 * qm + q4, P1 + 4.0 * Pm + P4, a4m]), ch * m0 + u0 * w0,
           out=out[0])
    out[0, ::3] -= 1.0
    np.add(ch * m1 + u0 * w1, u1 * w0, out=out[1])
    out[1, 1] -= 6.0 * c
    out[1, 2] += 6.0 * c
    np.subtract(u1 * w1, ch * w0, out=out[2])
    out[2, ::3] -= 2.0 * ch + (0.25 * h * h) * u0
    np.multiply(w1, -ch, out=out[3])
    out[3, ::3] -= (0.25 * h * h) * u1
    out[4] = 0.0
    out[4, ::3] = 0.25 * ch * h * h


def _band(n):
    """Band storage for an n-step system, ab[i, c, d] (see the module
    docstring), with the unit diagonal and zeros wherever no step matrix
    goes."""
    ab = np.zeros((n + 1, 2, 4))
    ab[..., 0] = 1.0
    return ab


def _steps(ab):
    """The view t[c, r, i] = -T_i[r, c] of a band buffer ab[i, :, :], i < n:
    -T_i[:, 0] sits at ab[i, 0, 2:4] and -T_i[:, 1] at ab[i, 1, 1:3]."""
    t = ab[:-1].reshape(-1, 8)[:, 2:].reshape(-1, 2, 3)
    return t[..., :2].transpose(1, 2, 0)


def _fill(out, fill, r0, h, n):
    """fill(r, out[..., i0:i1]) for the radii r of steps i0..i1 - 1 of the
    grid r0 + h*i, _CHUNK steps at a time so that the temporaries stay
    small."""
    for i0 in range(0, n, _CHUNK):
        i1 = min(n, i0 + _CHUNK)
        fill(r0 + h * np.arange(i0, i1, dtype=float), out[..., i0:i1])


def _step_matrices(m, lam, s, k, E, r0, h, n):
    """The n RK4 transfer matrices at energy E, built directly, in band
    storage ab[i, c, d]."""
    ab = _band(n)

    def fill(r, t):
        for (row, col), x in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                                 _rk4_matrix(m, lam, s, k, E, h, r)):
            np.negative(x, out=t[col, row])

    _fill(_steps(ab), fill, r0, h, n)
    return ab


def _horner(coef, E):
    """T(E) = sum_p E^p C_p by Horner's rule, in a new band buffer.  The
    passes run on a contiguous array, and only the last writes the band."""
    t = coef[4] * E
    for c in coef[3:0:-1]:
        t += c
        t *= E
    ab = _band(coef.shape[-1])
    np.add(t, coef[0], out=_steps(ab))
    return ab


def _transfer_matrices(m, lam, s, k, E, r0, h, n):
    """_step_matrices through the one-grid cache (see the module docstring).

    Returns a new band buffer the caller may overwrite.
    """
    global _last_grid
    key = (m, lam, s, k, r0, h, n)
    last_key, coef = _last_grid
    if last_key != key:
        # drops the local reference too, so the old grid's coefficients are
        # freed before this grid's matrices are built
        _last_grid, coef = (key, None), None
        return _step_matrices(m, lam, s, k, E, r0, h, n)
    if coef is None:
        # coef[p, c, r, i] = -C_{p,i}[r, c], read-only once stored
        coef = np.empty((5, 2, 2, n))
        _fill(coef.reshape(5, 4, n), lambda r, out: _rk4_coefficients(m, lam, s, k, h, r, out),
              r0, h, n)
        coef.flags.writeable = False
        _last_grid = (key, coef)
    return _horner(coef, E)


def _path(ab, n, u0, v0):
    """The shot through the band buffer ab (as _step_matrices lays it out),
    launched from (u0, v0), with rk4_path's return contract."""
    # x = (u_0, v_0, u_1, v_1, ...) is the right-hand side, then the path:
    # a contiguous float64 b with overwrite_b is solved in place
    x = np.zeros((n + 1, 2))
    x[0] = u0, v0
    _, info = dtbtrs(ab.reshape(-1, 4).T, x.reshape(-1), uplo="L", diag="U", overwrite_b=1)
    if info:
        raise RuntimeError(f"LAPACK dtbtrs rejected argument {-info}")
    u, v = x[:, 0], x[:, 1]
    # the common case in one pass: a NaN or inf fails the test too
    if np.abs(x[1:]).max() <= _OVERFLOW_CAP:
        return u, v, n, 0.0
    bad = ~((np.abs(u[1:]) <= _OVERFLOW_CAP) & (np.abs(v[1:]) <= _OVERFLOW_CAP))
    if not bad.any():
        return u, v, n, 0.0
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


def rk4_path(m, lam, s, k, E, r0, h, n, u0, v0):
    """Integrate n RK4 steps from r0 with signed step h.

    Returns (u, v, stop, sign): arrays of length n+1 holding the solution
    at r0 + i*h, the index of the last finite entry, and the sign of u at
    the point where |u| or |v| left the representable range (0.0 while the
    integration stayed finite).  Entries beyond `stop` are NaN.
    """
    with np.errstate(all="ignore"):
        return _path(_transfer_matrices(m, lam, s, k, E, r0, h, n), n, u0, v0)


def warm_up():
    """Run the kernel once on a trivial problem, so that a timed caller does
    not pay for first-call set-up."""
    rk4_path(1.0, 0.2, 0.5, -1, 1.5, 1e-4, 1e-3, 4, 1e-4, 0.0)
