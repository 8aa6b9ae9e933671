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

Ai and Ai' share one pass (`_airy`): the input is validated, the branch
masks are built and the node lookup is done once, for one Horner sum
each; the equal-mix wavefunction takes both from it.

I0 and K0 split an array of 2 * _MIN_POINTS points or more into up to
one contiguous slice per CPU the process may use, and scipy's ufunc runs
on each slice on its own thread (scipy's loops release the GIL).  Every
element goes through the same scalar code, so the bits equal one serial
call.  bessel_j0 stays one serial call: on the profiles' arguments it
costs about 11 ns per point, less than a thread start buys back.  Each
barrier-edge profile is one fan-out: the turning point's I0 and K0 of
one argument run on the same slices (`_bessel_i0_k0`), and the
continuum edge's J0 points ride along on the threads that its I0 points
pay for (`_bessel_j0_i0`).

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

from .errors import finite, integer, positive, require

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

# Below this x the far-negative branch's phase zeta = (2/3)|x|^(3/2) is
# 2^53 or more: its ulp of 2 exceeds pi/2, so cos and sin of the rounded
# phase have no correct digit, and Ai and Ai' are refused there.
_AIRY_PHASE_END = -(1.5 * 2.0 ** 53) ** (2.0 / 3.0)


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

# The signed sums the asymptotic branches take, indexed by derivative (Ai, then
# Ai'): (-1)^k c_k past +AIRY_SWITCH, and past -AIRY_SWITCH the even and odd
# terms, (-1)^j c_2j and (-1)^j c_2j+1.  Built once, read-only.
_SIGNS = (-1.0) ** np.arange(_N_AIRY_ASY)
_ASYM_POS = tuple(coef * _SIGNS for coef in (_AIRY_C, _AIRY_D))
_ASYM_NEG = tuple((coef[0::2] * _SIGNS[: (_N_AIRY_ASY + 1) // 2],
                   coef[1::2] * _SIGNS[: _N_AIRY_ASY // 2])
                  for coef in (_AIRY_C, _AIRY_D))
for _table in (*_ASYM_POS, *_ASYM_NEG[0], *_ASYM_NEG[1]):
    _table.flags.writeable = False


def _as_array(x, name, rule=finite, what="x"):
    """x as a float array and whether it is a scalar; refused by `rule`,
    naming the caller `name` and its argument `what`."""
    arr = np.asarray(x, dtype=float)
    rule(name, **{what: arr})
    return arr, arr.ndim == 0


def _inv_powsum(z, coef):
    """sum_k coef[k] * z**-k in float64 (asymptotic tail sums).

    Beyond AIRY_SWITCH, z is zeta or zeta^2 with zeta > 27.7, so 1/z < 0.036
    and the terms fall off fast.
    """
    return _powsum(1.0 / z, coef)


# ---------------------------------------------------------------------------
# Airy Ai

def _airy_asym_pos(x, derivative=False):
    with np.errstate(over="ignore"):  # an inf zeta: exp(-zeta) is 0
        zeta = (2.0 / 3.0) * x ** 1.5
    s = _inv_powsum(zeta, _ASYM_POS[derivative])
    # exp(-zeta) underflows gracefully to 0 for very large x
    pref = np.exp(-zeta) / (2.0 * _SQRT_PI)
    if derivative:
        return -pref * x ** 0.25 * s
    return pref * s / x ** 0.25


def _airy_asym_neg(x, derivative=False):
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    even, odd = _ASYM_NEG[derivative]
    inv2 = zeta * zeta
    p = _inv_powsum(inv2, even)
    q = _inv_powsum(inv2, odd) / zeta
    phase = zeta - 0.25 * math.pi
    c, s = np.cos(phase), np.sin(phase)
    if derivative:
        return z ** 0.25 / _SQRT_PI * (s * p - c * q)
    return (c * p + s * q) / (_SQRT_PI * z ** 0.25)


def _airy(x, name, derivatives, what="x"):
    """Ai (False) or Ai' (True) at x for each entry of `derivatives`, from
    one pass: the input is validated (a refusal names the caller `name`
    and its argument `what`), the branch masks are built, and the node
    index j and offset t = x - x_j are computed once for them all.
    Horner's rule then runs on the nearest node's row of each table, one
    row at a time, and the asymptotic branches take |x| > AIRY_SWITCH.
    Returns a tuple of floats for a scalar, else of arrays of x's shape."""
    arr, scalar = _as_array(x, name, what=what)
    flat = arr.reshape(-1)
    require(name, np.min(flat, initial=0.0) > _AIRY_PHASE_END,
            f"{what} above about -5.6727e10, where the phase (2/3)|{what}|^(3/2) "
            "stays below 2^53: an ulp of 2 leaves its cos and sin no correct digit")
    ser = np.abs(flat) <= AIRY_SWITCH
    far = [(mask, branch, flat[mask])
           for mask, branch in (((~ser) & (flat > 0), _airy_asym_pos),
                                ((~ser) & (flat < 0), _airy_asym_neg))
           if mask.any()]
    inner = flat[ser]
    j = np.rint((inner + AIRY_SWITCH) * (1.0 / _NODE_STEP)).astype(np.intp)
    t = inner - _NODES.take(j)
    tables = _taylor_tables()
    outs = []
    for derivative in derivatives:
        table = tables[1 if derivative else 0]
        acc = table[-1].take(j)
        for row in table[-2::-1]:
            acc *= t
            acc += row.take(j)
        out = np.empty_like(flat)
        out[ser] = acc
        for mask, branch, xs in far:
            out[mask] = branch(xs, derivative)
        outs.append(float(out[0]) if scalar else out.reshape(arr.shape))
    return tuple(outs)


def airy_ai(x):
    """Airy function Ai(x), the solution of u'' = x u that decays as x -> +inf.

    Accurate to a few 1e-15 absolute for |x| <= 12 (contract: 1e-10).
    Raises ValueError on non-finite input, and below about -5.67e10, where
    the rounded phase of the oscillation has no correct digit left.
    """
    return _airy(x, "airy_ai", (False,))[0]


def airy_ai_prime(x):
    """Derivative Ai'(x), same branch structure and accuracy as airy_ai."""
    return _airy(x, "airy_ai_prime", (True,))[0]


def airy_ai_zero(index):
    """The index-th negative zero of Ai (1-based, strictly decreasing).

    scipy.special.ai_zeros, polished by one Newton step on the in-house
    Ai/Ai': within 8e-15 absolute for the first 50 indices and 2e-14 for
    the first 200 (scipy's value alone is off by 8.1e-12 at index 5).  The
    last 256 indices asked for are cached.
    """
    integer("airy_ai_zero", "index", index, 1)
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

# scipy's k0 halves x, which rounds the least subnormal to 0 and returns
# inf; there K0 = ln 2 - ln x - gamma_Euler, the rest of its series far
# below an ulp
_K0_LEAST = math.log(2.0) - math.log(math.ulp(0.0)) - np.euler_gamma


def _split(jobs, points):
    """ufunc(src, out=dst) for each (ufunc, src, dst) in jobs, in order: src
    and dst are 1-d float arrays of one size, and dst may be src.  Every
    job is split into the same number of contiguous slices,
    min(CPUs, points // _MIN_POINTS) or one; points is the size of the I0
    or K0 array, the evaluations that pay for a thread.  Slice i of every
    job runs on the i-th thread, the jobs in order, and the calling thread
    takes the first.  One slice is one serial call per job.

    Each worker runs in a copy of the caller's context, so the caller's
    np.errstate holds in it, and calls nothing but the ufuncs.  An exception
    in any slice is raised here once every thread has joined.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    parts = max(1, min(cpus, points // _MIN_POINTS))
    errors = [None] * parts

    def run(i):
        try:
            for ufunc, src, dst in jobs:
                lo, hi = src.size * i // parts, src.size * (i + 1) // parts
                ufunc(src[lo:hi], out=dst[lo:hi])
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

    out = np.abs(arr.reshape(-1))  # C-ordered and ours, so I0 overwrites it
    _split([(special.i0, out, out)], out.size)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def bessel_k0(x):
    """Modified Bessel function of the second kind K0(x), x > 0.

    Diverges logarithmically at x = 0; zero and negative arguments raise
    ValueError before any thread starts.  Positive and strictly decreasing.
    scipy.special.k0, split across threads like bessel_i0, with the same
    bits as one serial call, except at the least subnormal, where scipy
    halves x to 0 and returns inf.
    """
    arr, scalar = _as_array(x, "bessel_k0", positive)
    from scipy import special

    src = arr.reshape(-1)  # C order: a view when arr is C-contiguous, else a copy
    out = np.empty(src.size)
    _split([(special.k0, src, out)], src.size)
    out[src == math.ulp(0.0)] = _K0_LEAST
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _bessel_i0_k0(x, name, what):
    """(I0(x), K0(x)) for a 1-d float array x > 0, from one fan-out: each
    thread takes K0 and then I0 of the same slice, I0 overwriting x there.
    x is validated once, as bessel_k0 does, before any thread starts; a
    refusal names the caller `name` and the quantity `what` that x is
    built from.  The bits equal bessel_i0(x) and bessel_k0(x)."""
    positive(name, **{what: x})
    from scipy import special

    k0 = np.empty_like(x)
    _split([(special.k0, x, k0), (special.i0, x, x)], x.size)
    return x, k0


def _bessel_j0_i0(j0_args, i0_args):
    """J0(j0_args) and I0(i0_args), each overwriting its 1-d float array of
    finite arguments >= 0, which the caller has validated, from one
    fan-out with as many slices as I0 alone would take: the J0 points,
    about a sixth of an I0 point's cost, ride along on the same threads.
    The bits equal bessel_j0 and bessel_i0 of the arguments."""
    from scipy import special

    _split([(special.j0, j0_args, j0_args), (special.i0, i0_args, i0_args)], i0_args.size)
