"""Domain types, potential split, turning points, binding classification."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraclinear import (
    BindingClass,
    Particle,
    PotentialMix,
    QuantumNumbers,
    RadialGrid,
    TurningPoints,
    classify_binding,
    count_nodes,
    estimate_quasibound_energy,
    potentials,
    suggest_bracket,
    turning_points,
)


def test_potentials_equal_mix():
    v, s = potentials(PotentialMix(0.2, 0.5), 1.0)
    assert v == pytest.approx(0.1, abs=1e-15)
    assert s == pytest.approx(0.1, abs=1e-15)


def test_potentials_origin_and_pure_vector():
    assert potentials(PotentialMix(0.7, 0.3), 0.0) == (0.0, 0.0)
    v, s = potentials(PotentialMix(0.2, 0.0), 2.0)
    assert v == pytest.approx(0.4, abs=1e-15)
    assert s == 0.0


def test_potentials_sum_is_total_slope():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lam = rng.uniform(0.01, 5.0)
        s = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, 50.0)
        v, sc = potentials(PotentialMix(lam, s), r)
        assert v + sc == pytest.approx(lam * r, rel=1e-15)


def test_potentials_negative_radius_rejected():
    with pytest.raises(ValueError):
        potentials(PotentialMix(0.2, 0.5), -0.1)


def test_turning_points_pure_vector():
    tp = turning_points(1.0, 1.5828, PotentialMix(0.2, 0.0))
    assert tp.r1 == pytest.approx(2.914, abs=1e-12)
    assert tp.r2 == pytest.approx(12.914, abs=1e-12)
    assert tp.r3 == pytest.approx(12.914, abs=1e-12)


def test_turning_points_equal_mix_has_no_continuum_edge():
    tp = turning_points(1.0, 1.5828, PotentialMix(0.2, 0.5))
    assert tp.r1 == pytest.approx(2.914, abs=1e-12)
    assert tp.r2 is None and tp.r3 is None


def test_turning_points_mixed():
    tp = turning_points(1.0, 1.5828, PotentialMix(0.2, 0.4))
    assert tp.r3 == pytest.approx(2.5828 / 0.04, rel=1e-12)


def test_turning_points_require_binding_energy():
    with pytest.raises(ValueError):
        turning_points(1.0, 1.0, PotentialMix(0.2, 0.0))
    with pytest.raises(ValueError):
        turning_points(1.0, 0.5, PotentialMix(0.2, 0.0))


def test_turning_points_too_close_to_tell_apart_name_m_and_e():
    # E - m and E + m round to the same double
    with pytest.raises(ValueError, match=r"E = 5e\+20 is too far above m = 1.0"):
        turning_points(1.0, 5e20, PotentialMix(0.2, 0.25))
    # strictly bound: there is no r2 to tell r1 from
    assert turning_points(1.0, 5e20, PotentialMix(0.2, 0.5)).r2 is None


def test_r1_independent_of_scalar_fraction():
    for s in (0.0, 0.2, 0.5, 0.8, 1.0):
        tp = turning_points(1.3, 2.1, PotentialMix(0.37, s))
        assert tp.r1 == pytest.approx((2.1 - 1.3) / 0.37, rel=1e-15)


def test_geometry_identities_randomized():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = rng.uniform(0.3, 3.0)
        lam = rng.uniform(0.05, 1.0)
        e = m * rng.uniform(1.05, 3.0)
        s = rng.uniform(0.0, 0.499)
        tp = turning_points(m, e, PotentialMix(lam, s))
        assert tp.r2 - tp.r1 == pytest.approx(2.0 * m / lam, rel=5e-13)
        assert tp.r3 / tp.r2 == pytest.approx(1.0 / (1.0 - 2.0 * s), rel=5e-13)


def test_classify_binding():
    assert classify_binding(PotentialMix(0.2, 0.5)) is BindingClass.STRICTLY_BOUND
    assert classify_binding(PotentialMix(0.2, 0.0)) is BindingClass.QUASI_BOUND
    assert classify_binding(PotentialMix(0.2, 1.0)) is BindingClass.STRICTLY_BOUND
    assert classify_binding(PotentialMix(0.2, 0.4999)) is BindingClass.QUASI_BOUND


def test_type_validation():
    with pytest.raises(ValueError):
        Particle(0.0)
    with pytest.raises(ValueError, match="finite"):
        Particle(np.inf)
    with pytest.raises(ValueError):
        PotentialMix(-0.2, 0.5)
    with pytest.raises(ValueError, match="finite"):
        PotentialMix(np.inf, 0.5)
    with pytest.raises(ValueError):
        PotentialMix(0.2, 1.2)
    with pytest.raises(ValueError):
        QuantumNumbers(0)
    with pytest.raises(ValueError):
        TurningPoints(r1=2.0, r2=1.0, r3=3.0)
    with pytest.raises(ValueError):
        RadialGrid(r_min=0.0, r_max=10.0, n=1000)
    with pytest.raises(ValueError):
        RadialGrid(r_min=1e-5, r_max=10.0, n=50)


def test_quantum_numbers_derived():
    ground = QuantumNumbers(-1)
    assert ground.j == 0.5 and ground.l == 0
    assert QuantumNumbers(1).j == 0.5 and QuantumNumbers(1).l == 1
    assert QuantumNumbers(-2).j == 1.5 and QuantumNumbers(-2).l == 1


def test_radial_grid_points():
    grid = RadialGrid(r_min=1e-4, r_max=10.0, n=100)
    r = grid.radii()
    assert len(r) == 101
    assert r[0] == 1e-4 and r[-1] == 10.0
    assert grid.h == pytest.approx((10.0 - 1e-4) / 100)


def test_radial_grid_radii_cache_takes_no_part_in_equality():
    grid = RadialGrid(r_min=1e-4, r_max=10.0, n=100)
    grid.radii()
    # the solvers' stack and the estimator's one record, its scan's index
    # and bracket and its fixed grid, sit beside the radii
    suggest_bracket(1.0, PotentialMix(0.2, 0.5), -1, grid)
    estimate_quasibound_energy(1.0, PotentialMix(0.2, 0.0), -1, grid)
    assert vars(grid).keys() - {"r_min", "r_max", "n"} == {"_radii", "_stack", "_estimate"}
    twin = RadialGrid(r_min=1e-4, r_max=10.0, n=100)
    assert twin == grid and hash(twin) == hash(grid) and repr(twin) == repr(grid)
    # copies and pickles carry the fields alone
    for copied in (copy.copy(grid), copy.deepcopy(grid), pickle.loads(pickle.dumps(grid))):
        assert copied == grid and vars(copied) == vars(twin)


@settings(max_examples=100)
@given(r_min=st.floats(1e-300, 1e3), width=st.floats(1e-12, 1e6),
       n=st.integers(100, 30000))
def test_radial_grid_points_are_linspace_bit_for_bit(r_min, width, n):
    r_max = r_min + width
    if not r_max > r_min:
        return
    r = RadialGrid(r_min=r_min, r_max=r_max, n=n).radii()
    assert r.tobytes() == np.linspace(r_min, r_max, n + 1).tobytes()


def test_count_nodes():
    assert count_nodes(np.array([0.0, 1.0, 2.0, 1.0, 0.5, 0.1])) == 0
    assert count_nodes(np.array([0.0, 1e308, 1e308, -1e308, 0.0])) == 1
    assert count_nodes(np.array([0.0, 1.0, -1.0, 1.0, 0.0])) == 2
    assert count_nodes(np.array([0.0, 1.0, 0.0, 1.0, 0.0])) == 0
    assert count_nodes(np.array([0.0, 1.0, np.nan, np.nan, np.nan])) == 0


def _two_pass_nodes(u):
    """count_nodes by its definition: drop the non-finite entries of the
    interior, then the zero signs, and count products of neighbours < 0."""
    interior = u[1:-1]
    s = np.sign(interior[np.isfinite(interior)])
    s = s[s != 0]
    return int(np.count_nonzero(s[1:] * s[:-1] < 0))


# all-nonzero finite interiors take count_nodes' dot-product path: with
# entries near the largest double the sums of |u| would overflow unscaled
_HUGE = st.sampled_from((1.79e308, -1.79e308, 1e308, -1e308))
_NONZERO = st.one_of(_HUGE, st.floats(allow_nan=False, allow_infinity=False).filter(bool))
_ANY = st.one_of(st.sampled_from((0.0, -0.0, np.nan, np.inf, -np.inf)),
                 st.floats(allow_nan=False))


@pytest.mark.filterwarnings("error")
@settings(max_examples=200)
@given(values=st.one_of(st.lists(_ANY, max_size=40),
                        st.tuples(_ANY, st.lists(_NONZERO, max_size=40), _ANY).map(
                            lambda t: [t[0], *t[1], t[2]])),
       strided=st.booleans())
def test_count_nodes_matches_its_definition(values, strided):
    u = np.array(values, dtype=float)
    if strided:  # a shot's u is a strided view of its interleaved path
        u = np.stack([u, -u], axis=1)[:, 0]
    assert count_nodes(u) == _two_pass_nodes(u)


@pytest.mark.parametrize("args, match", [
    ((1e-6, np.inf, 200), "finite r_max"),
    ((np.nan, 10.0, 200), "finite r_min"),
    ((1e-6, 10.0, 200.5), "n must be an integer"),  # radii() gave 202 points
    ((1e-6, 10.0, True), "n must be an integer"),
    ((1e-6, 10.0, 99), r"n must be an integer >= 100"),
])
def test_grid_refuses_non_finite_radii_and_a_non_integer_n(args, match):
    with pytest.raises(ValueError, match=rf"^RadialGrid.*{match}"):
        RadialGrid(*args)


def test_grid_takes_a_numpy_integer_n():
    assert RadialGrid(1e-6, 10.0, np.int64(200)).radii().size == 201


@pytest.mark.parametrize("args, match", [
    ((np.inf,), "finite r1"),
    ((np.nan,), "finite r1"),
    ((1.0, 2.0, np.inf), r"r1 < r2 <= r3 < inf"),
    ((1.0, np.nan, 3.0), r"r1 < r2 <= r3 < inf"),
])
def test_turning_points_refuse_non_finite_radii(args, match):
    with pytest.raises(ValueError, match=rf"^TurningPoints requires {match}"):
        TurningPoints(*args)


@pytest.mark.parametrize("r, match", [
    ([np.nan], "finite r$"),
    ([1.0, -1.0], "r >= 0$"),
    (-1.0, r"r >= 0, got -1.0"),
])
def test_potentials_refuse_a_bad_radius_by_name(r, match):
    with pytest.raises(ValueError, match=rf"^potentials requires {match}"):
        potentials(PotentialMix(0.2, 0.5), r)


@pytest.mark.parametrize("k", [0, 1.0, True, np.nan])
def test_quantum_numbers_refuse_by_name(k):
    with pytest.raises(ValueError, match=r"^QuantumNumbers.*\bk\b"):
        QuantumNumbers(k)


def test_turning_points_refuse_a_bad_mass_by_name():
    for m in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=r"^turning_points requires .*mass m"):
            turning_points(m, 2.0, PotentialMix(0.2, 0.25))
