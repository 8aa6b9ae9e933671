"""Gamow barrier integrals, lifetimes, and the Sauter comparison."""

import math

import numpy as np
import pytest

from diraclinear import (
    PotentialMix,
    gamma_barrier_quadrature,
    gamma_mixed,
    gamma_pure_vector,
    lifetime_ratio,
    momentum_modulus,
    sauter_transmission,
)


def second_integral_closed_form(m, lam, E, s):
    """Antiderivative oracle for the lifted-continuum integral: with
    w = lambda*r - E, int sqrt(w^2 - m^2) dw evaluated from w = m (at r2)
    to w = lambda*r3 - E, all divided by lambda."""
    w3 = (E + m) / (1.0 - 2.0 * s) - E

    def antideriv(w):
        root = math.sqrt(w * w - m * m)
        return 0.5 * w * root - 0.5 * m * m * math.log(w + root)

    return (antideriv(w3) - antideriv(m)) / lam


def test_momentum_modulus_anchors():
    assert momentum_modulus(1.0, 1.5828, 1.5828) == 1.0
    assert momentum_modulus(1.0, 1.5828, 0.5828) == pytest.approx(0.0, abs=1e-12)
    assert momentum_modulus(1.0, 1.5828, 1.0) == pytest.approx(0.8126, abs=1e-4)


def test_momentum_modulus_where_m_plus_the_gap_overflows():
    # m + |E - V| past DBL_MAX: at the continuum edge the modulus is 0,
    # and below it sqrt(m^2 - (E - V)^2) = sqrt(19) 1e307
    assert momentum_modulus(1e308, 1e308, 0.0) == 0.0
    assert momentum_modulus(1e308, 9e307, 0.0) == pytest.approx(math.sqrt(19.0) * 1e307,
                                                                rel=1e-15)


def test_momentum_modulus_rejects_allowed_region():
    with pytest.raises(ValueError):
        momentum_modulus(1.0, 1.5828, 0.0)  # inside the well
    with pytest.raises(ValueError):
        momentum_modulus(1.0, 1.5828, 4.0)  # beyond the continuum edge


def test_gamma_pure_vector_value_and_scaling():
    assert gamma_pure_vector(1.0, 0.2) == pytest.approx(7.853982, abs=1e-6)
    assert gamma_pure_vector(2.0, 0.2) == pytest.approx(4 * gamma_pure_vector(1.0, 0.2))
    # gamma = 3.5 needs lambda = pi m^2 / 7
    assert gamma_pure_vector(1.0, math.pi / 7.0) == pytest.approx(3.5, rel=1e-14)
    with pytest.raises(ValueError):
        gamma_pure_vector(-1.0, 0.2)


def test_quadrature_matches_closed_form_randomized():
    rng = np.random.default_rng(1912)
    for _ in range(10):
        m = rng.uniform(0.3, 3.0)
        lam = rng.uniform(0.05, 1.0)
        exact = gamma_pure_vector(m, lam)
        assert abs(gamma_barrier_quadrature(m, lam) - exact) <= 1e-8 * exact


def test_quadrature_independent_of_energy():
    a = gamma_barrier_quadrature(1.0, 0.2, E=1.2)
    b = gamma_barrier_quadrature(1.0, 0.2, E=2.9)
    assert a == pytest.approx(b, rel=1e-12)


def test_gamma_mixed_pure_vector_is_exact():
    rep = gamma_mixed(1.0, PotentialMix(0.2, 0.0), 1.5828)
    assert abs(rep.gamma - gamma_pure_vector(1.0, 0.2)) <= 1e-10
    assert rep.r2 == rep.r3


def test_gamma_mixed_second_integral_against_antiderivative():
    for s in (0.1, 0.25, 0.4):
        rep = gamma_mixed(1.0, PotentialMix(0.2, s), 1.5828)
        q = rep.gamma - gamma_pure_vector(1.0, 0.2)
        oracle = second_integral_closed_form(1.0, 0.2, 1.5828, s)
        assert q >= 0
        assert abs(q - oracle) <= 1e-8 * oracle


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, mix, E", [
    (1e200, PotentialMix(0.2, 0.25), 2e200),  # pi m^2/(2 lambda) passes DBL_MAX
    (1e150, PotentialMix(1.0, 0.49), 1e154),  # the second integral alone does
], ids=["first-term", "second-integral"])
def test_gamma_mixed_past_dbl_max_is_inf_without_quadrature(monkeypatch, m, mix, E):
    # the closed form's size decides: quad would integrate an overflowing
    # integrand, warn, and return NaN
    import scipy.integrate

    monkeypatch.setattr(scipy.integrate, "quad", None)
    rep = gamma_mixed(m, mix, E)
    assert rep.gamma == math.inf and rep.tau_ratio == math.inf


@pytest.mark.filterwarnings("error")
def test_gamma_mixed_just_below_dbl_max_keeps_its_quadrature():
    # Q ~ 5.2e303 is finite: quad gives it, as the antiderivative does
    rep = gamma_mixed(1e150, PotentialMix(1.0, 0.25), 1e152)
    q = rep.gamma - gamma_pure_vector(1e150, 1.0)
    oracle = second_integral_closed_form(1e150, 1.0, 1e152, 0.25)
    assert math.isfinite(rep.gamma) and rep.tau_ratio == math.inf
    assert abs(q - oracle) <= 1e-8 * oracle


def test_gamma_mixed_at_a_vanishing_scalar_fraction():
    # r3 rounds to r2: the size of Q's closed form is 0, not a domain error
    m, E = 0.6570624353653729, 1.9480139176637732
    rep = gamma_mixed(m, PotentialMix(0.2, 5.043894510799565e-104), E)
    assert rep.r3 == rep.r2 and rep.gamma == gamma_mixed(m, PotentialMix(0.2, 0.0), E).gamma


def test_gamma_mixed_monotone_in_scalar_fraction():
    gammas = [gamma_mixed(1.0, PotentialMix(0.2, s), 1.5828).gamma
              for s in np.linspace(0.0, 0.45, 10)]
    assert all(b > a for a, b in zip(gammas, gammas[1:]))
    assert all(g >= gamma_pure_vector(1.0, 0.2) for g in gammas)


def test_gamma_mixed_report_invariants():
    rep = gamma_mixed(1.0, PotentialMix(0.2, 0.3), 1.5828)
    assert rep.gamma >= 0
    assert rep.tau_ratio == lifetime_ratio(rep.gamma)
    assert rep.r1 < rep.r2 <= rep.r3
    assert rep.s == 0.3 and rep.E == 1.5828


def test_gamma_mixed_first_term_independent_of_energy():
    # the barrier term is E-free: at s = 0 the whole gamma is, and for
    # s > 0 only the lifted-continuum integral moves with E
    assert (gamma_mixed(1.0, PotentialMix(0.2, 0.0), 1.3).gamma
            == gamma_mixed(1.0, PotentialMix(0.2, 0.0), 2.6).gamma)
    for e in (1.3, 2.6):
        q = (gamma_mixed(1.0, PotentialMix(0.2, 0.2), e).gamma
             - gamma_pure_vector(1.0, 0.2))
        assert q > 0


def test_gamma_mixed_preconditions():
    with pytest.raises(ValueError):
        gamma_mixed(1.0, PotentialMix(0.2, 0.5), 1.5828)
    with pytest.raises(ValueError):
        gamma_mixed(1.0, PotentialMix(0.2, 0.2), 0.9)


def test_lifetime_ratio_values():
    assert lifetime_ratio(3.5) == pytest.approx(1096.6, abs=0.1)
    assert lifetime_ratio(0.0) == 1.0
    assert lifetime_ratio(7.853982) == pytest.approx(6.634e6, rel=1e-3)
    assert lifetime_ratio(7.853982) == pytest.approx(math.exp(2 * 7.853982), rel=1e-14)


def test_lifetime_ratio_saturates_and_validates():
    assert math.isinf(lifetime_ratio(400.0))
    with pytest.raises(ValueError):
        lifetime_ratio(-0.1)


def test_sauter_transmission_values():
    assert sauter_transmission(1.0, 0.2) == pytest.approx(1.507e-7, rel=1e-3)
    assert sauter_transmission(1.0, 1e12) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        sauter_transmission(1.0, 0.0)


def test_sauter_identity_with_pure_vector_gamma():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = rng.uniform(0.3, 2.0)
        lam = rng.uniform(0.05, 1.0)
        prod = (sauter_transmission(m, lam)
                * lifetime_ratio(gamma_pure_vector(m, lam)))
        assert prod == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("call, match", [
    (lambda: lifetime_ratio(math.nan), "^lifetime_ratio requires finite gamma"),  # gave nan
    (lambda: lifetime_ratio(-1.0), "^lifetime_ratio requires gamma >= 0"),
    (lambda: sauter_transmission(math.nan, 0.2), "^sauter_transmission requires finite mass m"),
    (lambda: sauter_transmission(1.0, math.inf), "^sauter_transmission requires finite v"),
    (lambda: gamma_barrier_quadrature(1.0, math.inf),
     "^gamma_barrier_quadrature requires finite slope lam"),  # gave 0.0
    (lambda: gamma_pure_vector(math.inf, 1.0), "^gamma_pure_vector requires finite mass m"),
    (lambda: momentum_modulus(math.nan, 1.0, 1.0), "^momentum_modulus requires finite mass m"),
    (lambda: momentum_modulus(1.0, 1.0, math.inf), "^momentum_modulus requires finite V"),
], ids=["lifetime-nan", "lifetime-negative", "sauter-m", "sauter-v", "quadrature-lam",
        "pure-vector-m", "modulus-m", "modulus-V"])
def test_non_finite_inputs_are_refused_by_name(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_a_huge_gamma_still_saturates_the_lifetime_ratio():
    assert lifetime_ratio(1e300) == math.inf


def test_momentum_modulus_of_a_huge_mass_is_finite():
    # m^2 overflowed: the modulus was inf
    assert momentum_modulus(1e300, 1.5, 1.0) == pytest.approx(1e300, rel=1e-15)
