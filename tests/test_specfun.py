"""Special-function accuracy against closed forms and independent oracles."""

import math
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

from diraclinear import (
    LocalProfileCoefficients,
    vector_profile_continuum_edge,
    vector_profile_turning_point,
)
from diraclinear import specfun as sf


def test_airy_at_origin_closed_form():
    # Ai(0) = 3^(-2/3) / Gamma(2/3)
    exact = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
    assert abs(sf.airy_ai(0.0) - exact) < 1e-14
    assert abs(sf.airy_ai(0.0) - 0.3550280539) < 1e-10


def test_airy_near_first_zero():
    assert abs(sf.airy_ai(-2.338)) < 5e-4


def test_airy_at_five_cross_checked():
    # the node tables and the asymptotic branch agree here, pinning the value
    taylor = sf.airy_ai(5.0)  # |x| <= AIRY_SWITCH: from the node tables
    asym = sf._airy_asym_pos(np.array([5.0]))[0]
    assert abs(taylor - asym) < 1e-9
    assert abs(sf.airy_ai(5.0) - 1.0834e-4) < 1e-8


def test_airy_absolute_accuracy_contract():
    xs = np.linspace(-10.0, 10.0, 401)
    ai_ref = sp.airy(xs)[0]
    assert np.max(np.abs(sf.airy_ai(xs) - ai_ref)) < 1e-10


def test_airy_prime_accuracy():
    xs = np.linspace(-10.0, 10.0, 401)
    aip_ref = sp.airy(xs)[1]
    assert np.max(np.abs(sf.airy_ai_prime(xs) - aip_ref)) < 1e-10


def test_airy_ode_residual():
    # |Ai'' - x Ai| <= 1e-7 with Ai'' by central differences, h = 1e-4
    x = np.linspace(-5.0, 5.0, 201)
    h = 1e-4
    second = (sf.airy_ai(x + h) - 2.0 * sf.airy_ai(x) + sf.airy_ai(x - h)) / h**2
    assert np.max(np.abs(second - x * sf.airy_ai(x))) <= 1e-7


def test_airy_ode_residual_across_node_seams():
    # the grid above never straddles a seam between two Taylor nodes (odd
    # multiples of _NODE_STEP / 2); here every stencil on [-5, 5] does
    h = 1e-4
    seams = np.arange(-5.0 + sf._NODE_STEP / 2, 5.0, sf._NODE_STEP)
    x = (seams[:, None] + h * np.array([-0.75, -0.25, 0.0, 0.25, 0.75])).ravel()
    second = (sf.airy_ai(x + h) - 2.0 * sf.airy_ai(x) + sf.airy_ai(x - h)) / h**2
    assert np.max(np.abs(second - x * sf.airy_ai(x))) <= 1e-7


def test_airy_ode_residual_dense_across_branches():
    # the same check at every 1e-4 on [-12, 12]: across every node seam
    # and out to AIRY_SWITCH
    h = 1e-4
    x = np.linspace(-12.0, 12.0, 240001)
    second = (sf.airy_ai(x + h) - 2.0 * sf.airy_ai(x) + sf.airy_ai(x - h)) / h**2
    assert np.max(np.abs(second - x * sf.airy_ai(x))) <= 1e-6


def _mpmath_airy(x):
    """Ai and Ai' at the points x from 40-digit mpmath; skips the test
    where mpmath is missing."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ai = np.array([float(mpmath.airyai(v)) for v in x])
        aip = np.array([float(mpmath.airyai(v, derivative=1)) for v in x])
    return ai, aip


def test_airy_against_mpmath_oracle():
    x = np.linspace(-7.0, 7.0, 3001)
    ai, aip = _mpmath_airy(x)
    assert np.max(np.abs(sf.airy_ai(x) - ai)) <= 3e-15
    assert np.max(np.abs(sf.airy_ai_prime(x) - aip)) <= 1e-14


def test_airy_against_mpmath_oracle_beyond_seven():
    x = np.concatenate([np.linspace(-12.0, -7.0, 501)[:-1],
                        np.linspace(7.0, 12.0, 501)[1:]])
    ai, aip = _mpmath_airy(x)
    got = sf.airy_ai(x)
    assert np.max(np.abs(got - ai)) <= 1e-14
    assert np.max(np.abs(sf.airy_ai_prime(x) - aip)) <= 3e-14
    pos = x > 0
    assert np.max(np.abs(got[pos] / ai[pos] - 1.0)) <= 2e-14


def test_taylor_tables_need_no_extended_precision():
    # the node tables come out bit-identical where numpy's longdouble is
    # plain float64, as on MSVC Windows and macOS arm64
    code = ("import sys, numpy\n"
            "numpy.longdouble = numpy.float64\n"
            "from diraclinear import specfun\n"
            "ai, aip = specfun._taylor_tables()\n"
            "sys.stdout.write((ai.tobytes() + aip.tobytes()).hex())\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    ai, aip = sf._taylor_tables()
    tables = np.frombuffer(bytes.fromhex(proc.stdout)).reshape(2, *ai.shape)
    np.testing.assert_array_equal(tables, [ai, aip])


def test_taylor_truncation_covers_node_spacing():
    # at |t| = _NODE_STEP / 2 the Taylor terms the tables drop (the
    # recurrence run 6 terms further) must sum to below 1e-18 of
    # max(|Ai|, |Ai'|) at every node
    kept = sf._N_TAYLOR
    t = sf._NODE_STEP / 2
    ai, aip = sf._taylor_tables()
    scale = np.maximum(np.abs(ai[0]), np.abs(aip[0]))
    powers = t ** np.arange(kept, kept + 6)
    for name, table, full in zip(("Ai", "Ai'"), (ai, aip), sf._taylor_tables(kept + 6)):
        assert np.array_equal(full[:kept], table), name
        dropped = np.sum(np.abs(full[kept:]) * powers[:, None], axis=0)
        assert np.all(dropped < 1e-18 * scale), name


def _pairwise_powsum(y, coef):
    """The earlier summation: an (N, len(coef)) longdouble power table,
    multiplied by the coefficients and summed pairwise along each row."""
    n = coef.shape[0]
    if y.shape[0] == 0:
        return np.empty(0, dtype=np.longdouble)
    pows = np.empty((y.shape[0], n), dtype=np.longdouble)
    pows[:, 0] = np.longdouble(1)
    np.cumprod(np.broadcast_to(y[:, None], (y.shape[0], n - 1)), axis=1,
               out=pows[:, 1:])
    return np.sum(pows * coef, axis=1)


def _pairwise_inv_powsum(z, coef):
    return _pairwise_powsum((1.0 / z).astype(np.longdouble),
                            coef.astype(np.longdouble)).astype(float)


def _maclaurin_airy(x, terms=150, bits=192):
    """Ai and Ai' at the points x, |x| <= 7, from the Maclaurin series of
    Ai, with Ai(0) and Ai'(0) from 60-digit mpmath, every term summed in
    `bits`-bit integer fixed point.  The series cancels about 2e5-fold near
    x = -7, which leaves over 50 digits: the floats agree with 40-digit
    mpmath, in about a fifteenth of the time that mpmath.airyai takes at
    every point.

    With T_n = a_n x^n the terms of Ai = sum a_n x^n, Ai'' = x Ai gives
    T_n = T_{n-3} x^3 / (n (n-1)), and Ai' = sum n a_n x^(n-1) has the
    terms T_{n-3} x^2 / (n-1)."""
    mpmath = pytest.importorskip("mpmath")
    one = 1 << bits
    with mpmath.workdps(60):
        a0, a1 = int(mpmath.airyai(0) * one), int(mpmath.airyai(0, derivative=1) * one)
    x1 = np.array([int(v * 2.0 ** bits) for v in x], dtype=object)  # exact
    x2 = x1 * x1 >> bits
    x3 = x2 * x1 >> bits
    t = [a0 + 0 * x1, a1 * x1 >> bits, 0 * x1]
    ai, aip = t[0] + t[1], a1 + 0 * x1
    for n in range(3, terms):
        aip += (t[n - 3] * x2 >> bits) // (n - 1)
        t.append((t[n - 3] * x3 >> bits) // (n * (n - 1)))
        ai += t[n]
    return np.array([v / one for v in ai]), np.array([v / one for v in aip])


def test_airy_matches_pairwise_reference(monkeypatch):
    # Taylor nodes and float64 asymptotic sums against a reference computed
    # at every point: the Maclaurin series in fixed point for |x| <= 7
    # (checked against 40-digit mpmath at every 500th of those points), the
    # asymptotic expansions summed pairwise beyond AIRY_SWITCH; (7,
    # AIRY_SWITCH] is left to the mpmath oracle above
    x = np.linspace(-16.0, 16.0, 32001)
    x = x[(np.abs(x) <= 7.0) | (np.abs(x) > sf.AIRY_SWITCH)]
    ai, aip = sf.airy_ai(x), sf.airy_ai_prime(x)
    inner, pos = np.abs(x) <= 7.0, x > sf.AIRY_SWITCH
    neg = ~(inner | pos)
    ai_ref, aip_ref = np.empty_like(x), np.empty_like(x)
    ai_ref[inner], aip_ref[inner] = _maclaurin_airy(x[inner])
    every = np.flatnonzero(inner)[::500]
    np.testing.assert_array_equal(np.stack(_mpmath_airy(x[every])),
                                  [ai_ref[every], aip_ref[every]])
    monkeypatch.setattr(sf, "_inv_powsum", _pairwise_inv_powsum)
    for ref, derivative in ((ai_ref, False), (aip_ref, True)):
        ref[pos] = sf._airy_asym_pos(x[pos], derivative)
        ref[neg] = sf._airy_asym_neg(x[neg], derivative)
    assert np.max(np.abs(ai - ai_ref)) <= 2e-14
    assert np.max(np.abs(aip - aip_ref)) <= 4e-14


def _per_function_airy(x, derivative):
    """Ai or Ai' alone, with its own masks, node index and Horner sum: the
    bit-for-bit reference for the pass that Ai and Ai' share."""
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr).ravel()
    out = np.empty_like(flat)
    ser = np.abs(flat) <= sf.AIRY_SWITCH
    pos = (~ser) & (flat > 0)
    neg = (~ser) & (flat < 0)
    inner = flat[ser]
    j = np.rint((inner + sf.AIRY_SWITCH) * (1.0 / sf._NODE_STEP)).astype(np.intp)
    t = inner - sf._NODES.take(j)
    table = sf._taylor_tables()[1 if derivative else 0]
    acc = table[-1].take(j)
    for row in table[-2::-1]:
        acc *= t
        acc += row.take(j)
    out[ser] = acc
    if pos.any():
        out[pos] = sf._airy_asym_pos(flat[pos], derivative)
    if neg.any():
        out[neg] = sf._airy_asym_neg(flat[neg], derivative)
    return out.reshape(arr.shape)


def test_one_airy_pass_has_the_per_function_bits():
    seams = np.array([sf.AIRY_SWITCH, -sf.AIRY_SWITCH])
    line = np.concatenate((np.linspace(-40.0, 40.0, 64_001), seams,
                           np.nextafter(seams, 0.0), np.nextafter(seams, 2.0 * seams)))
    rng = np.random.default_rng(34)
    for x in (line, rng.permutation(line), 3.3, -17.5, np.array(12.0),
              np.asfortranarray(line[:63_000].reshape(420, 150)), np.empty(0),
              np.empty((0, 3))):
        want = [_per_function_airy(x, derivative) for derivative in (False, True)]
        for pair in (sf._airy(x, "airy_ai", (False, True)),
                     (sf.airy_ai(x), sf.airy_ai_prime(x))):
            for got, ref in zip(pair, want):
                if np.ndim(x) == 0:
                    assert type(got) is float and np.float64(got).tobytes() == ref.tobytes()
                else:
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_asymptotic_tables_are_the_signed_coefficients_read_only():
    # built once at import with the bits of (-1)^k c_k and, past -12, of
    # the even and odd terms (-1)^j c_2j and (-1)^j c_2j+1
    k = np.arange(sf._N_AIRY_ASY)
    for derivative, coef in ((False, sf._AIRY_C), (True, sf._AIRY_D)):
        even, odd = sf._ASYM_NEG[derivative]
        for table, want in ((sf._ASYM_POS[derivative], coef * (-1.0) ** k),
                            (even, coef[0::2] * (-1.0) ** k[:(k.size + 1) // 2]),
                            (odd, coef[1::2] * (-1.0) ** k[:k.size // 2])):
            assert table.tobytes() == want.tobytes()
            assert not table.flags.writeable


def test_airy_rejects_nonfinite():
    for fn in (sf.airy_ai, sf.airy_ai_prime):
        # the message names the function that was called
        for bad in (math.nan, math.inf, -math.inf, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match=rf"^{fn.__name__} requires finite"):
                fn(bad)


def test_airy_zero_first():
    assert abs(sf.airy_ai_zero(1) - (-2.33811)) < 1e-4


def test_airy_zero_second_with_bisection_oracle():
    # independent oracle: plain bisection on airy_ai over a bracketing interval
    a, b = -4.2, -4.0
    fa = sf.airy_ai(a)
    for _ in range(60):
        mid = 0.5 * (a + b)
        fm = sf.airy_ai(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    oracle = 0.5 * (a + b)
    assert abs(oracle - (-4.08795)) < 1e-5
    assert abs(sf.airy_ai_zero(2) - oracle) < 1e-8


def test_airy_zeros_strictly_decreasing():
    zeros = [sf.airy_ai_zero(i) for i in range(1, 13)]
    for earlier, later in zip(zeros, zeros[1:]):
        assert later < earlier < 0


def test_airy_zero_residuals():
    for i in range(1, 11):
        assert abs(sf.airy_ai(sf.airy_ai_zero(i))) <= 1e-8


def test_airy_zero_five_matches_table():
    # the tabulated a_5, to 15 significant digits; scipy.special.ai_zeros
    # alone is 8.1e-12 off here
    assert abs(sf.airy_ai_zero(5) - (-7.94413358712085)) < 1e-14
    assert sf.airy_ai_zero(np.int64(5)) == sf.airy_ai_zero(5)


def test_airy_zero_bad_index():
    for bad in (0, -3):
        with pytest.raises(ValueError):
            sf.airy_ai_zero(bad)
    with pytest.raises(ValueError):
        sf.airy_ai_zero(1.5)


def test_j0_i0_at_zero():
    assert sf.bessel_j0(0.0) == 1.0
    assert sf.bessel_i0(0.0) == 1.0


def test_j0_first_zero_with_series_oracle():
    # oracle: direct alternating series plus bisection, independent code path
    def j0_series(x, terms=30):
        q = -x * x / 4.0
        term, total = 1.0, 1.0
        for k in range(1, terms):
            term *= q / (k * k)
            total += term
        return total

    a, b = 2.0, 3.0
    fa = j0_series(a)
    for _ in range(60):
        mid = 0.5 * (a + b)
        if fa * j0_series(mid) <= 0:
            b = mid
        else:
            a, fa = mid, j0_series(mid)
    oracle_zero = 0.5 * (a + b)
    assert abs(oracle_zero - 2.404826) < 1e-5
    assert abs(sf.bessel_j0(2.404826)) < 1e-6
    assert abs(sf.bessel_j0(oracle_zero)) < 1e-12


def test_k0_at_one_quadrature_oracle():
    # K0(x) = int_0^inf exp(-x cosh t) dt
    oracle, err = integrate.quad(lambda t: math.exp(-math.cosh(t)), 0.0, 30.0,
                                 epsabs=1e-14, limit=200)
    assert err < 1e-10  # QUADPACK's estimate is conservative
    assert abs(oracle - 0.4210244382) < 1e-9
    assert abs(sf.bessel_k0(1.0) - oracle) < 1e-9


def test_k0_domain_errors():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            sf.bessel_k0(bad)


def test_bessel_relative_accuracy_contract():
    x = np.linspace(1e-3, 20.0, 1777)
    for mine, ref in ((sf.bessel_j0, sp.j0), (sf.bessel_i0, sp.i0),
                      (sf.bessel_k0, sp.k0)):
        got, want = mine(x), ref(x)
        err = np.abs(got - want)
        # 1e-10 relative, falling back to 1e-12 absolute near zeros of J0
        assert np.all((err <= 1e-10 * np.abs(want)) | (err <= 1e-12))


def test_i0_at_least_one_and_monotone():
    x = np.linspace(0.0, 30.0, 601)
    vals = sf.bessel_i0(x)
    assert np.all(vals >= 1.0)
    assert np.all(np.diff(vals) > 0)


def test_k0_positive_and_decreasing():
    x = np.linspace(0.05, 25.0, 601)
    vals = sf.bessel_k0(x)
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_even_symmetry_and_vectorization():
    xs = np.array([-3.7, -0.5, 0.0, 0.5, 3.7, 16.0])
    assert np.allclose(sf.bessel_j0(xs), sf.bessel_j0(-xs), rtol=0, atol=0)
    assert np.allclose(sf.bessel_i0(xs), sf.bessel_i0(-xs), rtol=0, atol=0)
    vec = sf.airy_ai(xs)
    for x, v in zip(xs, vec):
        assert v == sf.airy_ai(float(x))
    assert isinstance(sf.airy_ai(1.0), float)
    assert sf.airy_ai(np.array([[1.0, 2.0]])).shape == (1, 2)


# ---------------------------------------------------------------------------
# I0 and K0 split across threads

M = sf._MIN_POINTS
THREADED = ("i0", "k0")


def _cpus(monkeypatch, count):
    """Make the process appear to run on `count` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)


def _spy(monkeypatch, name):
    """Wrap scipy.special.<name>; each call records its thread, its point
    count and the np.errstate in force."""
    real = getattr(sp, name)
    calls = []

    def spy(x, **kwargs):
        calls.append((threading.get_ident(), x.size, np.geterr()))
        return real(x, **kwargs)

    monkeypatch.setattr(sp, name, spy)
    return calls


def _args(rng, name, shape):
    """Arguments from 1e-3 to about 660 (I0 stays finite), signed for I0."""
    x = np.exp(rng.uniform(-7.0, 6.5, shape))
    return x * rng.choice((-1.0, 1.0), shape) if name == "i0" else x


@pytest.mark.parametrize("name", THREADED)
def test_threaded_bessel_bits_equal_one_serial_scipy_call(monkeypatch, name):
    _cpus(monkeypatch, 4)
    mine, real = getattr(sf, f"bessel_{name}"), getattr(sp, name)
    rng = np.random.default_rng(33)
    for n in (1, M - 1, M, M + 1, 2 * M - 1, 2 * M, 2 * M + 1, 50_000, 40_009):
        x = _args(rng, name, n)
        want = real(np.abs(x))
        calls = _spy(monkeypatch, name)
        got = mine(x)
        parts = min(4, n // M) if n >= 2 * M else 1
        assert sorted(size for _, size, _ in calls) == sorted(
            n * (i + 1) // parts - n * i // parts for i in range(parts))
        assert got.shape == (n,) and got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("name", THREADED)
def test_threaded_bessel_returns_a_float_for_a_scalar(monkeypatch, name):
    _cpus(monkeypatch, 4)
    mine, real = getattr(sf, f"bessel_{name}"), getattr(sp, name)
    for x in (1.5, np.float64(1.5), np.array(1.5)):
        got = mine(x)
        assert type(got) is float and got == float(real(1.5))


@pytest.mark.parametrize("name", THREADED)
def test_threaded_bessel_keeps_any_layout_in_the_input_shape(monkeypatch, name):
    _cpus(monkeypatch, 2)
    mine, real = getattr(sf, f"bessel_{name}"), getattr(sp, name)
    x = _args(np.random.default_rng(5), name, (8, M))
    for arg in (x, x.T, x[:, ::2]):  # C-ordered, F-ordered, strided
        want = real(np.abs(arg))
        calls = _spy(monkeypatch, name)
        got = mine(arg)
        assert len(calls) == 2
        assert got.shape == arg.shape and got.tobytes() == want.tobytes()


def _started(monkeypatch):
    """The list of every thread started from here on."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def test_k0_refuses_zero_before_any_thread_starts(monkeypatch):
    _cpus(monkeypatch, 4)
    started = _started(monkeypatch)
    calls = _spy(monkeypatch, "k0")
    x = np.linspace(1.0, 2.0, 4 * M)
    x[-1] = 0.0  # in the last slice
    with pytest.raises(ValueError, match="bessel_k0 requires x > 0"):
        sf.bessel_k0(x)
    assert started == [] and calls == []


@pytest.mark.parametrize("name", THREADED)
def test_an_exception_in_a_worker_slice_reaches_the_caller(monkeypatch, name):
    _cpus(monkeypatch, 3)
    mine, real = getattr(sf, f"bessel_{name}"), getattr(sp, name)
    caller = threading.get_ident()

    def failing(x, **kwargs):
        if threading.get_ident() != caller:
            time.sleep(0.05)  # fails after the caller's own slice is done
            raise ArithmeticError("a worker slice failed")
        return real(x, **kwargs)

    monkeypatch.setattr(sp, name, failing)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match="a worker slice failed"):
        mine(np.full(3 * M, 0.5))
    assert threading.active_count() == before


@pytest.mark.parametrize("name", THREADED)
def test_one_cpu_starts_no_thread(monkeypatch, name):
    mine = getattr(sf, f"bessel_{name}")
    caller = threading.get_ident()
    _cpus(monkeypatch, 1)
    calls = _spy(monkeypatch, name)
    mine(np.full(8 * M, 0.5))
    assert [(tid, size) for tid, size, _ in calls] == [(caller, 8 * M)]
    # without an affinity call the count is os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpus, parts in ((1, 1), (None, 1), (3, 3)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        calls = _spy(monkeypatch, name)
        mine(np.full(8 * M, 0.5))
        assert len(calls) == parts


@pytest.mark.parametrize("name", THREADED)
def test_the_callers_errstate_holds_in_every_worker(monkeypatch, name):
    _cpus(monkeypatch, 3)
    mine = getattr(sf, f"bessel_{name}")
    calls = _spy(monkeypatch, name)
    with np.errstate(all="raise"):
        mine(np.full(3 * M, 0.5))
        want = np.geterr()
    assert want != np.geterr()  # the test's own setting, not the default
    assert len({tid for tid, _, _ in calls}) == 3
    assert all(state == want for _, _, state in calls)


# ---------------------------------------------------------------------------
# I0 and K0 of one argument share one fan-out


def test_a_turning_point_profile_starts_one_worker_on_two_cpus(monkeypatch):
    # I0 and K0 share one fan-out: one worker on two CPUs, not one per function
    _cpus(monkeypatch, 2)
    started = _started(monkeypatch)
    i0, k0 = _spy(monkeypatch, "i0"), _spy(monkeypatch, "k0")
    x = np.linspace(1e-3, 4.0, 50_000)
    vector_profile_turning_point(1.6, 1.0, LocalProfileCoefficients(B=1.0, C=0.5), x)
    assert len(started) == 1
    # each thread runs both ufuncs on the same slice
    assert sorted((tid, size) for tid, size, _ in i0) == sorted(
        (tid, size) for tid, size, _ in k0)
    assert sorted(size for _, size, _ in i0) == [25_000, 25_000]
    assert len({tid for tid, _, _ in i0}) == 2


def test_a_continuum_edge_profile_runs_j0_on_the_i0_threads(monkeypatch):
    # J0 runs on the threads that the I0 points pay for
    _cpus(monkeypatch, 2)
    started = _started(monkeypatch)
    j0, i0 = _spy(monkeypatch, "j0"), _spy(monkeypatch, "i0")
    x = np.linspace(-1.0, 3.0, 40_000)  # 10,000 J0 points, 30,000 I0 points
    vector_profile_continuum_edge(1.6, 1.0, 1.0, x)
    assert len(started) == 1
    assert sorted(size for _, size, _ in j0) == [5_000, 5_000]
    assert sorted(size for _, size, _ in i0) == [15_000, 15_000]
    assert {tid for tid, _, _ in j0} == {tid for tid, _, _ in i0}


def test_a_failed_worker_in_a_shared_fan_out_is_raised_after_every_join(monkeypatch):
    _cpus(monkeypatch, 3)
    started = _started(monkeypatch)
    caller, real = threading.get_ident(), sp.k0

    def failing(x, **kwargs):
        if threading.get_ident() != caller:
            time.sleep(0.05)  # fails after the caller's own slice is done
            raise ArithmeticError("a worker slice failed")
        return real(x, **kwargs)

    monkeypatch.setattr(sp, "k0", failing)
    with pytest.raises(ArithmeticError, match="a worker slice failed"):
        sf._bessel_i0_k0(np.full(3 * M, 0.5), "a profile", "x")
    assert len(started) == 2 and not any(thread.is_alive() for thread in started)


def test_a_shared_fan_out_refuses_zero_before_any_thread_starts(monkeypatch):
    _cpus(monkeypatch, 4)
    started = _started(monkeypatch)
    x = np.linspace(1.0, 2.0, 4 * M)
    x[-1] = 0.0
    with pytest.raises(ValueError, match=r"^a profile requires x/\(E - m\) > 0"):
        sf._bessel_i0_k0(x, "a profile", "x/(E - m)")
    assert started == []


# ---------------------------------------------------------------------------
# The extremes of the real line

def test_airy_far_right_is_zero_without_a_warning():
    # x^1.5 overflowed with a RuntimeWarning before the 0 came back
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sf.airy_ai(1e300) == 0.0
        assert sf.airy_ai_prime(1e300) == 0.0
        assert sf.airy_ai(np.array([1e300, 1e200])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("x", [-1e300, -6e10, np.array([-1.0, -1e11])])
def test_airy_refuses_x_where_the_phase_has_no_digit(x):
    # ai_prime(-1e300) was nan, after an "invalid value in cos" warning
    for fn in (sf.airy_ai, sf.airy_ai_prime):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{fn.__name__} requires x above about"):
                fn(x)


def test_airy_answers_up_to_the_phase_limit():
    # zeta = (2/3) 5e10^1.5 is 7.5e15 < 2^53: the phase's ulp is 1 at most
    assert (2.0 / 3.0) * 5e10 ** 1.5 < 2.0 ** 53
    for x in (-5e10, np.nextafter(sf._AIRY_PHASE_END, 0.0)):
        assert math.isfinite(sf.airy_ai(x)) and math.isfinite(sf.airy_ai_prime(x))
    with pytest.raises(ValueError, match="requires x above about"):
        sf.airy_ai(sf._AIRY_PHASE_END)


def test_k0_of_the_least_subnormal_is_finite():
    # scipy halves x to 0 there and returned inf; K0 ~ ln 2 - ln x - gamma_Euler
    least = math.ulp(0.0)
    want = math.log(2.0) - math.log(least) - np.euler_gamma
    assert sf.bessel_k0(least) == pytest.approx(want, rel=1e-15)
    assert sf.bessel_k0(np.array([least, 1.0]))[0] == sf.bessel_k0(least)


def test_k0_keeps_scipys_bits_everywhere_else():
    x = np.array([2 * math.ulp(0.0), 1e-310, 1e-300, 0.5, 700.0, 1e300])
    assert sf.bessel_k0(x).tobytes() == sp.k0(x).tobytes()


@pytest.mark.parametrize("index", [0, -1, 1.5, True, math.nan])
def test_airy_zero_refuses_a_bad_index_by_name(index):
    with pytest.raises(ValueError, match="^airy_ai_zero: index must be an integer >= 1"):
        sf.airy_ai_zero(index)
