"""Special functions underlying the linear-potential Dirac states.

Airy Ai (with its negative zeros and first derivative) quantizes the
equal-mix spectrum; Bessel J0/I0/K0 give the local wavefunction profiles
at the continuum edge and the classical turning point.

The Bessel functions are validating wrappers over scipy.special, and the
Ai zeros are scipy.special.ai_zeros polished by one Newton step on the
in-house Ai/Ai'.  Ai and Ai' are evaluated here.  For |x| <= AIRY_SWITCH
they are 13-term Taylor polynomials about the nearest of 193 nodes spaced
1/8 apart on [-12, 12], summed by Horner's rule in float64 (|t| <= 1/16).
The node tables are built on first use, by one cached builder: Ai and Ai'
at each node from one scipy.special.airy call, and the higher coefficients
from the Airy equation y'' = x y by recurrence in float64; no extended
precision is used.  Beyond the nodes, on (12, inf), Ai and Ai' are the
standard large-argument asymptotic expansions, summed by Horner's rule in
float64 in powers of 1/zeta < 0.036.  Evaluation stays in-house because
scipy.special.airy rounds unevenly enough to fail the contract
|Ai'' - x Ai| <= 1e-7 with Ai'' from central differences at h = 1e-4.

I0 and K0 split an array of 2 * _MIN_POINTS points or more into up to
one contiguous slice per CPU the process may use, and scipy's ufunc runs
on each slice on its own thread (scipy's loops release the GIL).  Every
element goes through the same scalar code, so the bits equal one serial
call.  J0 stays one serial call: on the profiles' arguments it costs
about 11 ns per point, less than a thread start buys back.

All functions are pure and accept scalars or numpy arrays.  scipy.special
is imported by the functions that call it, so importing this module does
not load it.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading

import numpy as np

_SQRT_PI = math.sqrt(math.pi)

# Switchover between the Taylor nodes and the asymptotic branches.  The textbook
# asymptotic expansion has an optimal-truncation floor ~ exp(-2*zeta), far below
# float64 rounding past this seam, where the rounded phase sets the error: 2e-15
# (Ai) and 9e-15 (Ai') on [-16, -12], growing to 1.6e-14 and 1.1e-13 at -60.
AIRY_SWITCH = 12.0

# Taylor nodes x_j = -AIRY_SWITCH + j * _NODE_STEP cover |x| <= AIRY_SWITCH,
# so every point there lies within 1/16 of one.  With 13 terms the dropped
# part of both Ai and Ai' is below 1e-18 of max(|Ai|, |Ai'|) at |t| = 1/16.
_NODE_STEP = 0.125
_N_TAYLOR = 13


def _powsum(y, coef):
    """sum_k coef[k] * y**k by Horner's rule in float64.

    One multiply and one add per coefficient, with no table of powers.  It
    sums the asymptotic expansions beyond AIRY_SWITCH.
    """
    acc = np.full_like(y, coef[-1])
    for c in coef[-2::-1]:
        acc *= y
        acc += c
    return acc


_NODES = -AIRY_SWITCH + _NODE_STEP * np.arange(round(2 * AIRY_SWITCH / _NODE_STEP) + 1)


@functools.cache
def _taylor_tables(terms=_N_TAYLOR):
    """Taylor coefficients of Ai and Ai' about the nodes, in float64.

    Row n, column j holds the coefficient of t^n, t = x - x_j.  c_0 = Ai(x_j)
    and c_1 = Ai'(x_j) come from scipy.special.airy, and Ai'' = x Ai gives
    (n+1)(n+2) c_{n+2} = x_j c_n + c_{n-1}.  The Ai' table holds
    (n+1) c_{n+1}.  Built on the first call for each number of terms, and
    read-only, since every caller shares them.
    """
    from scipy import special

    c = np.zeros((terms + 1, _NODES.size))
    c[0], c[1] = special.airy(_NODES)[:2]
    c[2] = _NODES * c[0] / 2
    for n in range(1, terms - 1):
        c[n + 2] = (_NODES * c[n] + c[n - 1]) / ((n + 1) * (n + 2))
    tables = c[:terms], c[1:] * np.arange(1, terms + 1)[:, None]
    for table in tables:
        table.flags.writeable = False
    return tables

# Airy asymptotic coefficients c_k (and d_k for Ai') in inverse powers of
# zeta = (2/3)|x|^(3/2).
_N_AIRY_ASY = 26
_AIRY_C = np.empty(_N_AIRY_ASY)
_AIRY_D = np.empty(_N_AIRY_ASY)
_AIRY_C[0] = _AIRY_D[0] = 1.0
for _k in range(1, _N_AIRY_ASY):
    _AIRY_C[_k] = _AIRY_C[_k - 1] * (6 * _k - 5) * (6 * _k - 1) / (72.0 * _k)
    _AIRY_D[_k] = -_AIRY_C[_k] * (6 * _k + 1) / (6 * _k - 1)


def _as_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} requires finite arguments")
    return arr, arr.ndim == 0


def _inv_powsum(z, coef):
    """sum_k coef[k] * z**-k in float64 (asymptotic tail sums).

    Beyond AIRY_SWITCH, z is zeta or zeta^2 with zeta > 27.7, so 1/z < 0.036
    and the terms fall off fast.
    """
    return _powsum(1.0 / z, coef)


# ---------------------------------------------------------------------------
# Airy Ai

def _airy_taylor(x, derivative):
    """Horner's rule on the nearest node's row, |x| <= AIRY_SWITCH."""
    j = np.rint((x + AIRY_SWITCH) * (1.0 / _NODE_STEP)).astype(np.intp)
    t = x - _NODES.take(j)
    table = _taylor_tables()[1 if derivative else 0]
    acc = table[-1].take(j)
    for row in table[-2::-1]:
        acc *= t
        acc += row.take(j)
    return acc


def _airy_asym_pos(x, derivative=False):
    zeta = (2.0 / 3.0) * x ** 1.5
    coef = _AIRY_D if derivative else _AIRY_C
    signed = coef * (-1.0) ** np.arange(_N_AIRY_ASY)
    s = _inv_powsum(zeta, signed)
    # exp(-zeta) underflows gracefully to 0 for very large x
    pref = np.exp(-zeta) / (2.0 * _SQRT_PI)
    if derivative:
        return -pref * x ** 0.25 * s
    return pref * s / x ** 0.25


def _airy_asym_neg(x, derivative=False):
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    coef = _AIRY_D if derivative else _AIRY_C
    ks = np.arange(_N_AIRY_ASY)
    even = coef[0::2] * (-1.0) ** ks[: (_N_AIRY_ASY + 1) // 2]
    odd = coef[1::2] * (-1.0) ** ks[: _N_AIRY_ASY // 2]
    inv2 = zeta * zeta
    p = _inv_powsum(inv2, even)
    q = _inv_powsum(inv2, odd) / zeta
    phase = zeta - 0.25 * math.pi
    c, s = np.cos(phase), np.sin(phase)
    if derivative:
        return z ** 0.25 / _SQRT_PI * (s * p - c * q)
    return (c * p + s * q) / (_SQRT_PI * z ** 0.25)


def _airy_eval(x, derivative, name):
    arr, scalar = _as_array(x, name)
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    ser = np.abs(flat) <= AIRY_SWITCH
    pos = (~ser) & (flat > 0)
    neg = (~ser) & (flat < 0)
    out[ser] = _airy_taylor(flat[ser], derivative)
    if pos.any():
        out[pos] = _airy_asym_pos(flat[pos], derivative)
    if neg.any():
        out[neg] = _airy_asym_neg(flat[neg], derivative)
    out = out.reshape(np.shape(arr))
    return float(out) if scalar else out


def airy_ai(x):
    """Airy function Ai(x), the solution of u'' = x u that decays as x -> +inf.

    Accurate to a few 1e-15 absolute for |x| <= 12 (contract: 1e-10).
    Raises ValueError on non-finite input.
    """
    return _airy_eval(x, False, "airy_ai")


def airy_ai_prime(x):
    """Derivative Ai'(x), same branch structure and accuracy as airy_ai."""
    return _airy_eval(x, True, "airy_ai_prime")


def airy_ai_zero(index):
    """The index-th negative zero of Ai (1-based, strictly decreasing).

    scipy.special.ai_zeros, polished by one Newton step on the in-house
    Ai/Ai': within 8e-15 absolute for the first 50 indices and 2e-14 for
    the first 200 (scipy's value alone is off by 8.1e-12 at index 5).  The
    last 256 indices asked for are cached.
    """
    if not isinstance(index, (int, np.integer)) or isinstance(index, bool):
        raise ValueError("zero index must be a positive integer")
    if index < 1:
        raise ValueError("zero index must be >= 1")
    return _ai_zero(int(index))


@functools.lru_cache(maxsize=256)
def _ai_zero(index):
    from scipy import special

    z = float(special.ai_zeros(index)[0][-1])
    return z - airy_ai(z) / airy_ai_prime(z)


# ---------------------------------------------------------------------------
# Bessel J0, I0, K0

# Points per slice below which a thread's start and join (about 150 us) cost
# more than the slice saves: scipy's i0 and k0 on the `analytic` workload's
# arguments gain from 2 slices of 8192 points on, and break even at 2 of 4096.
_MIN_POINTS = 8192


def _split(ufunc, arr):
    """ufunc(arr), with the points split into min(CPUs, size // _MIN_POINTS)
    contiguous slices, each run on its own thread; the calling thread takes
    the first.  One slice is one serial call.

    Each worker runs in a copy of the caller's context, so the caller's
    np.errstate holds in it, and calls nothing but the ufunc.  An exception
    in any slice is raised here once every thread has joined.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    parts = min(cpus, arr.size // _MIN_POINTS)
    if parts < 2:
        return ufunc(arr)
    src = arr.ravel()  # C order: a view when arr is C-contiguous, else a copy
    flat = np.empty(arr.size)
    edges = [arr.size * i // parts for i in range(parts + 1)]
    errors = [None] * parts

    def run(i):
        try:
            ufunc(src[edges[i]:edges[i + 1]], out=flat[edges[i]:edges[i + 1]])
        except Exception as exc:  # raised in the caller once all have joined
            errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, i))
               for i in range(1, parts)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return flat.reshape(arr.shape)


def bessel_j0(x):
    """Bessel function of the first kind J0(x); even in x.

    Taken from scipy.special.j0: relative accuracy better than 1e-12 on
    0 < x <= 20 away from the zeros of J0, and ~1e-16 absolute near them.
    One serial call at any size: on the `analytic` workload's arguments it
    costs about 11 ns per point, and a 50,000-point array split in two still
    lost to it.  Raises ValueError on non-finite input.
    """
    arr, scalar = _as_array(x, "bessel_j0")
    from scipy import special

    out = special.j0(np.abs(arr))
    return float(out) if scalar else out


def bessel_i0(x):
    """Modified Bessel function I0(x); even in x, >= 1 and increasing on x >= 0.

    scipy.special.i0, split across threads for arrays of 2 * _MIN_POINTS
    points or more; the bits equal one serial call.  Raises ValueError on
    non-finite input.
    """
    arr, scalar = _as_array(x, "bessel_i0")
    from scipy import special

    out = _split(special.i0, np.abs(arr))
    return float(out) if scalar else out


def bessel_k0(x):
    """Modified Bessel function of the second kind K0(x), x > 0.

    Diverges logarithmically at x = 0; zero and negative arguments raise
    ValueError before any thread starts.  Positive and strictly decreasing.
    scipy.special.k0, split across threads like bessel_i0, with the same
    bits as one serial call.
    """
    arr, scalar = _as_array(x, "bessel_k0")
    if np.any(arr <= 0.0):
        raise ValueError("bessel_k0 requires x > 0 (divergent at x = 0)")
    from scipy import special

    out = _split(special.k0, arr)
    return float(out) if scalar else out
