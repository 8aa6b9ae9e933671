"""Special-function accuracy against closed forms and independent oracles."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy import special as sp

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
    taylor = sf._airy_taylor(np.array([5.0]), False)[0]
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
            "sys.stdout.write((specfun._AI_TAYLOR.tobytes()"
            " + specfun._AIP_TAYLOR.tobytes()).hex())\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    tables = np.frombuffer(bytes.fromhex(proc.stdout)).reshape(2, *sf._AI_TAYLOR.shape)
    np.testing.assert_array_equal(tables, [sf._AI_TAYLOR, sf._AIP_TAYLOR])


def test_taylor_truncation_covers_node_spacing():
    # at |t| = _NODE_STEP / 2 the Taylor terms the tables drop (the
    # recurrence run 6 terms further) must sum to below 1e-18 of
    # max(|Ai|, |Ai'|) at every node
    kept = sf._N_TAYLOR
    t = sf._NODE_STEP / 2
    scale = np.maximum(np.abs(sf._AI_TAYLOR[0]), np.abs(sf._AIP_TAYLOR[0]))
    powers = t ** np.arange(kept, kept + 6)
    for name, table, full in zip(("Ai", "Ai'"), (sf._AI_TAYLOR, sf._AIP_TAYLOR),
                                 sf._taylor_tables(kept + 6)):
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


def test_airy_rejects_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            sf.airy_ai(bad)
    with pytest.raises(ValueError):
        sf.airy_ai(np.array([1.0, math.nan]))


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
