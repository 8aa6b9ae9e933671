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

rk4_paths shoots K energies with the same n in one call, for the energy
scans, whose shots are short enough that numpy's per-call overhead, not
arithmetic, sets their cost.  The K grids' blocks sit side by side on the
block axis, so the prefix loop runs once for all of them and the carry
is vectorized across the K shots; each row keeps rk4_path's contract,
overflow, stop, sign and NaN tail included.  For the cache:

- K shots on one grid evaluate T(E_q) from that grid's coefficients, one
  Horner pass per energy, building and storing C first if the cache does
  not hold it, so the grid's next rk4_path call reuses it;
- shots on different grids build their matrices directly, each row bit
  for bit the shot rk4_path's first call on that grid gives, and leave
  the cache empty;
- one shot is an rk4_path call, one-grid cache and scalar carry included.

One pass holds at most _BATCH_STEPS steps over all its shots, which keeps
its working set near 1.6 MB; batch_rows(n) says how many shots that is,
and rk4_paths splits a longer batch into passes.  Past n = 4096 a pass is
one shot, so the 20000-step grids the CLI defaults to are shot exactly as
rk4_path shoots them.
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
# steps per rk4_paths pass, all shots together: caps a batch's working set
# (about 100 bytes per step) at about 1.6 MB
_BATCH_STEPS = 16384

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


def _column(x):
    """x (a scalar or a length-K sequence) as a float column of shape (K, 1)."""
    return np.reshape(np.asarray(x, dtype=float), (-1, 1))


def _blocked(entries, count, r0, h, n):
    """The `count` matrices entries(r) gives for the steps starting at r,
    for all n steps of each of the K grids r0 + h*i, in the blocked layout
    out[p, j, :, :, q*blocks + b] (step b*size + j of grid q); past step n,
    matrix 0 is the identity and the rest are zero.  r0 and h are scalars
    for one grid, else columns of shape (K, 1), and r has the matching
    shape (steps,) or (K, steps).  Built about _CHUNK steps at a time so
    that the temporaries stay small."""
    # about sqrt(n)/2 steps per block balances the vectorized loop over a
    # block's steps against the scalar loop over blocks
    size = max(1, math.isqrt(n) // 2)
    blocks = -(-n // size)
    rows = np.size(r0)
    out = np.empty((count, size, 4, rows, blocks))
    pad = size * blocks - n
    if pad:
        out[:, size - pad:, :, :, -1] = 0.0
        out[0, size - pad:, ::3, :, -1] = 1.0
    per_chunk = max(1, _CHUNK // (size * rows))
    for b0 in range(0, blocks, per_chunk):
        r = r0 + h * np.arange(b0 * size, min(n, (b0 + per_chunk) * size), dtype=float)
        whole, part = divmod(r.shape[-1], size)
        for p, matrix in enumerate(entries(r)):
            for i, x in enumerate(matrix):
                if isinstance(x, float):  # an entry that does not depend on r
                    x = np.full(r.shape, x)
                # x[..., b*size + j] is step j of block b0 + b
                out[p, :, i, :, b0:b0 + whole] = (
                    x[..., :whole * size].reshape(rows, whole, size).transpose(2, 0, 1))
                if part:
                    out[p, :part, i, :, b0 + whole] = x[..., whole * size:].reshape(rows, part).T
    return out.reshape(count, size, 2, 2, rows * blocks)


def _step_matrices(m, lam, s, k, E, r0, h, n):
    """The n RK4 transfer matrices at energy E, built directly, as one
    array t[j, row, col, q*blocks + b] holding step b*size + j of grid q
    (identity past n).  E, r0 and h are scalars, for one grid, or length-K
    sequences, one grid and energy per row."""
    if np.ndim(E):  # one grid per row
        E, r0, h = _column(E), _column(r0), _column(h)
    return _blocked(lambda r: [_rk4_matrix(m, lam, s, k, E, h, r)], 1, r0, h, n)[0]


def _coefficients(m, lam, s, k, r0, h, n):
    """The grid's read-only coefficient stack C, from the one-grid cache,
    or built and stored there."""
    global _last_grid
    key = (m, lam, s, k, r0, h, n)
    last_key, coef = _last_grid
    if last_key != key or coef is None:
        coef = _blocked(lambda r: _rk4_coefficients(m, lam, s, k, h, r), 5, r0, h, n)
        coef.flags.writeable = False
        _last_grid = (key, coef)
    return coef


def _horner(coef, E):
    """T(E) = sum_p E^p C_p by Horner's rule, E broadcast against C_p."""
    t = coef[4] * E
    for c in coef[3:0:-1]:
        t += c
        t *= E
    t += coef[0]
    return t


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
        coef = _coefficients(m, lam, s, k, r0, h, n)
    return _horner(coef, E)


def _paths(p, n, u0, v0):
    """The shots through the step matrices p of K grids side by side, in
    the layout of _step_matrices, launched from (u0[q], v0[q]).  Overwrites
    p.  Returns u and v of shape (K, n+1), and lists of the K stops and
    signs, with rk4_path's contract for each row."""
    rows = len(u0)
    size, blocks = p.shape[0], p.shape[3] // rows
    # p[j, :, :, b] starts as step b*size + j and becomes the product of
    # the first j+1 steps of block b
    for j in range(1, size):
        np.add(p[j, :, 0:1] * p[j - 1, 0], p[j, :, 1:2] * p[j - 1, 1], out=p[j])

    # carry the states across blocks; starts[:, q*blocks + b] enters block
    # b of row q
    if rows == 1:
        # one shot: Python floats beat numpy on length-1 arrays, and the
        # carry stops once the state passes the cap
        starts = np.full((2, blocks), np.nan)
        uu, vv = float(u0[0]), float(v0[0])
        for b, (e00, e01, e10, e11) in enumerate(zip(*p[-1].reshape(4, blocks).tolist())):
            starts[:, b] = uu, vv
            uu, vv = e00 * uu + e01 * vv, e10 * uu + e11 * vv
            if not (abs(uu) <= _OVERFLOW_CAP and abs(vv) <= _OVERFLOW_CAP):
                break
    else:
        # every row runs to the end; the scan below cuts each at its own
        # stop, before which the values are the ones a break would give
        starts = np.empty((blocks, 2, rows))
        state = np.array([u0, v0], dtype=float)
        for b, e in enumerate(p[-1].reshape(2, 2, rows, blocks).transpose(3, 0, 1, 2)):
            starts[b] = state
            state = e[:, 0] * state[0] + e[:, 1] * state[1]
        starts = starts.transpose(1, 2, 0).reshape(2, rows * blocks)

    # the state after step b*size + j + 1 of row q, written straight into
    # u and v (uv[0] and uv[1]); past n it is identity padding, dropped
    uv = np.empty((2, rows, 1 + blocks * size))
    uv[0, :, 0] = u0
    uv[1, :, 0] = v0
    np.add((p[:, :, 0] * starts[0]).reshape(size, 2, rows, blocks),
           (p[:, :, 1] * starts[1]).reshape(size, 2, rows, blocks),
           out=uv[:, :, 1:].reshape(2, rows, blocks, size).transpose(3, 0, 1, 2))
    u, v = uv[:, :, :n + 1]

    stop, sign = [n] * rows, [0.0] * rows
    bad = ~((np.abs(u[:, 1:]) <= _OVERFLOW_CAP) & (np.abs(v[:, 1:]) <= _OVERFLOW_CAP))
    if not bad.any():
        return u, v, stop, sign
    for q in np.flatnonzero(bad.any(axis=1)):
        i = stop[q] = int(np.argmax(bad[q]))
        un, uu = u[q, i + 1], u[q, i]
        if np.isfinite(un) and un != 0.0:
            sign[q] = 1.0 if un > 0.0 else -1.0
        elif uu != 0.0:
            sign[q] = 1.0 if uu > 0.0 else -1.0
        u[q, i + 1:] = np.nan
        v[q, i + 1:] = np.nan
    return u, v, stop, sign


def batch_rows(n):
    """The most shots of n steps that rk4_paths runs in one pass: as many
    as _BATCH_STEPS holds, but one where that is fewer than four, since a
    pass of two or three long shots takes longer than shooting them one at
    a time (the vectorized carry is then mostly numpy call overhead)."""
    rows = _BATCH_STEPS // n
    return rows if rows >= 4 else 1


def rk4_path(m, lam, s, k, E, r0, h, n, u0, v0):
    """Integrate n RK4 steps from r0 with signed step h.

    Returns (u, v, stop, sign): arrays of length n+1 holding the solution
    at r0 + i*h, the index of the last finite entry, and the sign of u at
    the point where |u| or |v| left the representable range (0.0 while the
    integration stayed finite).  Entries beyond `stop` are NaN.
    """
    with np.errstate(all="ignore"):
        p = _transfer_matrices(m, lam, s, k, E, r0, h, n)
        u, v, stop, sign = _paths(p, n, (u0,), (v0,))
    return u[0], v[0], stop[0], sign[0]


def rk4_paths(m, lam, s, k, E, r0, h, n, u0, v0):
    """K shots of n RK4 steps each: row q at energy E[q] from r0[q] with
    step h[q], launched from (u0[q], v0[q]).

    Returns u and v of shape (K, n+1), and stop and sign of length K; each
    row keeps rk4_path's contract.  Runs batch_rows(n) shots per pass.  One
    shot goes through rk4_path's one-grid cache; shots that all share one
    grid evaluate their step matrices from its cached coefficients (built
    first if the cache lacks them); shots on different grids build theirs
    directly and leave the cache empty.
    """
    global _last_grid
    E, r0, h, u0, v0 = (np.asarray(x, dtype=float).ravel() for x in (E, r0, h, u0, v0))
    rows = batch_rows(n)
    if len(E) > rows:
        parts = [rk4_paths(m, lam, s, k, E[i:i + rows], r0[i:i + rows], h[i:i + rows], n,
                           u0[i:i + rows], v0[i:i + rows]) for i in range(0, len(E), rows)]
        return tuple(np.concatenate(x) for x in zip(*parts))
    with np.errstate(all="ignore"):
        if len(E) == 1:
            p = _transfer_matrices(m, lam, s, k, float(E[0]), float(r0[0]), float(h[0]), n)
        elif (r0 == r0[0]).all() and (h == h[0]).all():
            coef = _coefficients(m, lam, s, k, float(r0[0]), float(h[0]), n)
            # row q's blocks follow row q-1's, as in _step_matrices; one
            # Horner pass per row keeps numpy's inner loops long
            p = np.empty(coef.shape[1:4] + (len(E), coef.shape[4]))
            for q, e in enumerate(E.tolist()):
                p[:, :, :, q] = _horner(coef, e)
            p = p.reshape(coef.shape[1:4] + (-1,))
        else:
            _last_grid = (None, None)
            p = _step_matrices(m, lam, s, k, E, r0, h, n)
        u, v, stop, sign = _paths(p, n, u0, v0)
    return u, v, np.array(stop), np.array(sign)


def warm_up():
    """Run the kernel once on a trivial problem, so that a timed caller does
    not pay for first-call set-up."""
    rk4_path(1.0, 0.2, 0.5, -1, 1.5, 1e-4, 1e-3, 4, 1e-4, 0.0)
