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
numpy algebra; the path is then a blocked scan (Blelloch 1990, "Prefix
sums and their applications"): prefix products inside blocks of about
sqrt(n)/2 steps, vectorized across the blocks, and a short scalar loop
that carries the state from block to block.  The state stays in real
units: one block grows by only about exp(sqrt(n)/2 h kappa), and its
product overflows only past exp(709), by which point a state started
above 1e-58 has passed the 1e250 cap anyway, so no log scaling is needed.

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
  multiply-add passes written straight into the layout the scan reads.

Cached and direct step matrices agree to a few 1e-16 of their size, so a
shot's last bits can depend on whether the grid was shot just before.
"""

from __future__ import annotations

import math

import numpy as np

# The kernel is plain numpy.  The benchmark's environment record reads this
# flag, which stays False now that there is no JIT-compiled backend.
NUMBA_AVAILABLE = False

_OVERFLOW_CAP = 1e250
# steps per batch when building the transfer matrices or their
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


def _scale(c, a):
    return tuple(c * x for x in a)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _jmul(a):
    """J @ a for J = [[0, 1], [-1, 0]], the matrix that E multiplies."""
    a00, a01, a10, a11 = a
    return (a10, a11, -a00, -a01)


def _rk4_matrix(m, lam, s, k, E, h, r):
    """Entries of the step matrix T at energy E for steps starting at r."""
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


def _rk4_coefficients(m, lam, s, k, h, r):
    """Entries of C_0..C_4, T(E) = sum_p E^p C_p, for steps starting at r.

    The coefficient matrix is A0(x) + E J, so the stages K1..K4 are
    polynomials in E of degrees 1..4, kept as lists of coefficients.
    Entries that do not depend on r come out as Python floats.
    """
    cs = (1.0 - 2.0 * s) * lam
    h2 = 0.5 * h

    def a0(x):
        a = k / x
        return (-a, m - cs * x, lam * x + m, a)

    def amul(a, q):
        # (a + E J) @ q(E)
        out = [_mul(a, c) for c in q] + [_jmul(q[-1])]
        for p in range(1, len(q)):
            out[p] = _add(out[p], _jmul(q[p - 1]))
        return out

    def plus_identity(scale, q):
        return [_plus_identity(scale, q[0])] + [_scale(scale, c) for c in q[1:]]

    k1 = [a0(r), (0.0, 1.0, -1.0, 0.0)]
    am = a0(r + h2)
    k2 = amul(am, plus_identity(h2, k1))
    k3 = amul(am, plus_identity(h2, k2))
    k4 = amul(a0(r + h), plus_identity(h, k3))
    zero = (0.0,) * 4
    by_degree = zip(*(q + [zero] * (5 - len(q)) for q in (k1, k2, k3, k4)))
    return plus_identity(h / 6.0, [tuple(
        w1 + 2.0 * w2 + 2.0 * w3 + w4 for w1, w2, w3, w4 in zip(*ks)) for ks in by_degree])


def _blocked(entries, count, r0, h, n):
    """The `count` matrices entries(r) gives for the steps starting at r,
    for all n steps, in the blocked layout out[p, j, :, :, b] (step
    b*size + j); past step n, matrix 0 is the identity and the rest are
    zero.  Built _CHUNK steps at a time so that the temporaries stay small."""
    # about sqrt(n)/2 steps per block balances the vectorized loop over a
    # block's steps against the scalar loop over blocks
    size = max(1, math.isqrt(n) // 2)
    blocks = -(-n // size)
    out = np.empty((count, size, 4, blocks))
    pad = size * blocks - n
    if pad:
        out[:, size - pad:, :, -1] = 0.0
        out[0, size - pad:, ::3, -1] = 1.0
    per_chunk = max(1, _CHUNK // size)
    for b0 in range(0, blocks, per_chunk):
        r = r0 + h * np.arange(b0 * size, min(n, (b0 + per_chunk) * size), dtype=float)
        whole, part = divmod(len(r), size)
        for p, matrix in enumerate(entries(r)):
            for i, x in enumerate(matrix):
                if isinstance(x, float):  # an entry that does not depend on r
                    x = np.full(len(r), x)
                # x[b*size + j] is step j of block b0 + b
                out[p, :, i, b0:b0 + whole] = x[:whole * size].reshape(whole, size).T
                if part:
                    out[p, :part, i, b0 + whole] = x[whole * size:]
    return out.reshape(count, size, 2, 2, blocks)


def _step_matrices(m, lam, s, k, E, r0, h, n):
    """The n RK4 transfer matrices at energy E, built directly, as one
    array t[j, row, col, b] holding step b*size + j (identity past n)."""
    return _blocked(lambda r: [_rk4_matrix(m, lam, s, k, E, h, r)], 1, r0, h, n)[0]


def _transfer_matrices(m, lam, s, k, E, r0, h, n):
    """_step_matrices through the one-grid cache (see the module docstring).

    Returns a new array the caller may overwrite.
    """
    global _last_grid
    key = (m, lam, s, k, r0, h, n)
    last_key, coef = _last_grid
    if last_key != key:
        _last_grid = (key, None)
        return _step_matrices(m, lam, s, k, E, r0, h, n)
    if coef is None:
        coef = _blocked(lambda r: _rk4_coefficients(m, lam, s, k, h, r), 5, r0, h, n)
        coef.flags.writeable = False
        _last_grid = (key, coef)
    t = coef[4] * E
    for c in coef[3:0:-1]:
        t += c
        t *= E
    t += coef[0]
    return t


def rk4_path(m, lam, s, k, E, r0, h, n, u0, v0):
    """Integrate n RK4 steps from r0 with signed step h.

    Returns (u, v, stop, sign): arrays of length n+1 holding the solution
    at r0 + i*h, the index of the last finite entry, and the sign of u at
    the point where |u| or |v| left the representable range (0.0 while the
    integration stayed finite).  Entries beyond `stop` are NaN.
    """
    u = np.full(n + 1, np.nan)
    v = np.full(n + 1, np.nan)
    u[0] = u0
    v[0] = v0
    with np.errstate(all="ignore"):
        # p[j, :, :, b] starts as step b*size + j and becomes the product of
        # the first j+1 steps of block b
        p = _transfer_matrices(m, lam, s, k, E, r0, h, n)
        size, blocks = p.shape[0], p.shape[3]
        for j in range(1, size):
            p[j] = p[j, :, 0:1] * p[j - 1, 0] + p[j, :, 1:2] * p[j - 1, 1]

        # carry the state across blocks until it passes the cap
        starts = np.full((2, blocks), np.nan)
        uu, vv = float(u0), float(v0)
        for b, (e00, e01, e10, e11) in enumerate(zip(*p[-1].reshape(4, blocks).tolist())):
            starts[:, b] = uu, vv
            uu, vv = e00 * uu + e01 * vv, e10 * uu + e11 * vv
            if not (abs(uu) <= _OVERFLOW_CAP and abs(vv) <= _OVERFLOW_CAP):
                break

        y = p[:, :, 0] * starts[0] + p[:, :, 1] * starts[1]
        u[1:] = y[:, 0].T.ravel()[:n]
        v[1:] = y[:, 1].T.ravel()[:n]

    bad = ~((np.abs(u[1:]) <= _OVERFLOW_CAP) & (np.abs(v[1:]) <= _OVERFLOW_CAP))
    if not bad.any():
        return u, v, n, 0.0
    stop = int(np.argmax(bad))
    un, uu = u[stop + 1], u[stop]
    sign = 0.0
    if np.isfinite(un) and un != 0.0:
        sign = 1.0 if un > 0.0 else -1.0
    elif uu != 0.0:
        sign = 1.0 if uu > 0.0 else -1.0
    u[stop + 1:] = np.nan
    v[stop + 1:] = np.nan
    return u, v, stop, sign


def warm_up():
    """Run the kernel once on a trivial problem, so that a timed caller does
    not pay for first-call set-up."""
    rk4_path(1.0, 0.2, 0.5, -1, 1.5, 1e-4, 1e-3, 4, 1e-4, 0.0)
