import cmath
import math

import numpy as np
import pytest

from oamch.azimuthal import (
    MAX_STEP_INDEX,
    TAU,
    StepIndex,
    gauss_segments,
    overlap_integral,
    overlap_integral_opposite_phase,
    overlap_integral_quadrature,
    spp_phase,
    wrap_angle,
    wrap_signed,
)

HALF = StepIndex(0.5)


def test_step_index_half_integer_detection():
    assert StepIndex(0.5).is_half_integer
    assert StepIndex(3.5).is_half_integer
    assert StepIndex.half_integer(0).value == 0.5
    assert StepIndex.half_integer(2).value == 2.5
    assert StepIndex.half_integer(3).value == 3.5
    assert not StepIndex(1.0).is_half_integer
    assert not StepIndex(0.4999).is_half_integer
    assert not StepIndex(0.2).is_half_integer
    assert not StepIndex(2.0).is_half_integer


def test_step_index_rejects_nonpositive():
    for bad in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            StepIndex(bad)
    with pytest.raises(ValueError):
        StepIndex.half_integer(-1)


def test_step_index_bound_keeps_closed_form_within_oracle_tolerance():
    # just below the bound, float64 phases still carry the closed form to 1e-9
    rng = np.random.default_rng(9)
    ell = StepIndex(0.999 * MAX_STEP_INDEX)
    worst = 0.0
    for _ in range(200):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        worst = max(worst, abs(overlap_integral(mu, nu, ell) - overlap_integral_quadrature(mu, nu, ell)))
    assert worst <= 1e-9
    assert StepIndex(MAX_STEP_INDEX).value == MAX_STEP_INDEX
    for beyond in (1.001 * MAX_STEP_INDEX, 1e17, 1e300):
        with pytest.raises(ValueError, match="step index must be in"):
            StepIndex(beyond)


def test_wrap_angle_basic():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(TAU) == 0.0
    assert wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)


def test_wrap_angle_idempotent():
    rng = np.random.default_rng(1)
    for x in rng.uniform(-50.0, 50.0, size=200):
        w = wrap_angle(x)
        assert 0.0 <= w < TAU
        assert wrap_angle(w) == w


def test_wrap_angle_rejects_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            wrap_angle(bad)


def test_wrap_signed_range():
    assert wrap_signed(math.pi) == pytest.approx(math.pi)
    assert wrap_signed(-math.pi) == pytest.approx(math.pi)
    assert wrap_signed(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    rng = np.random.default_rng(2)
    for x in rng.uniform(-50.0, 50.0, size=200):
        w = wrap_signed(x)
        assert -math.pi < w <= math.pi


def test_spp_phase_above_dislocation():
    assert spp_phase(0.0, math.pi, HALF) == pytest.approx(1j, abs=1e-15)


def test_spp_phase_below_dislocation():
    # phi < chi picks up the extra 2*pi*L jump
    expected = -cmath.exp(-0.75j * math.pi)
    assert spp_phase(math.pi / 2, 0.0, StepIndex(1.5)) == pytest.approx(expected, abs=1e-15)


def test_spp_phase_on_dislocation_is_one():
    for ell in (HALF, StepIndex(1.7), StepIndex(2.5)):
        assert spp_phase(1.0, 1.0, ell) == pytest.approx(1.0, abs=1e-15)


def test_spp_phase_unit_modulus():
    rng = np.random.default_rng(3)
    phis = rng.uniform(0.0, TAU, size=400)
    for chi, ell in [(0.3, HALF), (5.1, StepIndex(2.5)), (2.2, StepIndex(0.77))]:
        vals = spp_phase(chi, phis, ell)
        assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-14


def test_overlap_equal_orientations_is_full_turn():
    for mu, ell in [(0.0, HALF), (1.3, StepIndex(2.5)), (4.4, StepIndex(0.9))]:
        assert overlap_integral(mu, mu, ell) == pytest.approx(TAU, abs=1e-12)
    assert overlap_integral_quadrature(1.3, 1.3, StepIndex(2.5)) == pytest.approx(TAU, abs=1e-10)


def test_overlap_half_turn_orthogonality():
    for alpha in (0.0, 0.7, 2.9, 5.5):
        for l in (0, 1, 2, 3):
            ell = StepIndex.half_integer(l)
            assert abs(overlap_integral(alpha + math.pi, alpha, ell)) <= 1e-12
            assert abs(overlap_integral(alpha, alpha + math.pi, ell)) <= 1e-12
            assert abs(overlap_integral_quadrature(alpha + math.pi, alpha, ell)) <= 1e-10


def test_overlap_quarter_turn_value_adjudicated_by_quadrature():
    # quadrature oracle first; the frozen value pi*e^{-i pi/4} matches it
    expected = math.pi * cmath.exp(-1j * math.pi / 4)
    oracle = overlap_integral_quadrature(math.pi / 2, 0.0, HALF)
    assert oracle == pytest.approx(expected, abs=1e-10)
    assert overlap_integral(math.pi / 2, 0.0, HALF) == pytest.approx(oracle, abs=1e-12)
    # swapping the arguments conjugates
    assert overlap_integral(0.0, math.pi / 2, HALF) == pytest.approx(oracle.conjugate(), abs=1e-12)


def test_overlap_conjugate_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(100):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        ell = StepIndex(rng.uniform(0.1, 4.0))
        assert overlap_integral(mu, nu, ell) == overlap_integral(nu, mu, ell).conjugate()
        q1 = overlap_integral_quadrature(mu, nu, ell)
        q2 = overlap_integral_quadrature(nu, mu, ell)
        assert q1 == pytest.approx(q2.conjugate(), abs=1e-10)


def test_overlap_bounded_by_full_turn():
    rng = np.random.default_rng(5)
    for _ in range(200):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        ell = StepIndex(rng.uniform(0.1, 4.0))
        assert abs(overlap_integral(mu, nu, ell)) <= TAU + 1e-12


def test_overlap_oracle_equivalence_half_integer():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(500):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        ell = StepIndex.half_integer(int(rng.integers(0, 4)))
        worst = max(worst, abs(overlap_integral(mu, nu, ell) - overlap_integral_quadrature(mu, nu, ell)))
    assert worst <= 1e-9


def test_overlap_oracle_equivalence_general_step_index():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        ell = StepIndex(rng.uniform(0.05, 5.0))
        worst = max(worst, abs(overlap_integral(mu, nu, ell) - overlap_integral_quadrature(mu, nu, ell)))
    assert worst <= 1e-9


def test_overlap_periodic_inputs_are_canonicalized():
    rng = np.random.default_rng(8)
    for _ in range(50):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        ell = StepIndex(rng.uniform(0.1, 4.0))
        assert overlap_integral(mu + TAU, nu, ell) == pytest.approx(
            overlap_integral(mu, nu, ell), abs=1e-12
        )


def test_overlap_array_matches_scalar_bit_for_bit():
    rng = np.random.default_rng(10)
    for value in (0.3, 0.5, 1.7, 2.5458, 3.5, 7.5, 123.25):
        ell = StepIndex(value)
        # angles outside [0, 2*pi), both argument orders
        mu, nu = rng.uniform(-2.0 * TAU, 3.0 * TAU, size=(2, 400))
        array = overlap_integral(mu, nu, ell)
        assert array.shape == (400,)
        for m, n, z in zip(mu.tolist(), nu.tolist(), array.tolist()):
            assert z == overlap_integral(m, n, ell)
    # broadcasting: one scalar against an array, and a 2-d grid
    rows = np.linspace(0.0, TAU, 3)[:, None]
    grid = overlap_integral(rows, np.linspace(-1.0, 8.0, 4), HALF)
    assert grid.shape == (3, 4)
    assert grid[2, 1] == overlap_integral(float(rows[2, 0]), 2.0, HALF)
    assert overlap_integral(1.3, np.array([0.2]), HALF)[0] == overlap_integral(1.3, 0.2, HALF)


def test_overlap_quadrature_rows_equal_one_row_calls():
    rng = np.random.default_rng(11)
    # degenerate rows among ordinary ones: mu == nu, a half-turn apart,
    # cuts at 0 and 2*pi, both cuts at 0, angles outside [0, 2*pi)
    mu = [1.3, 0.4 + math.pi, 0.0, TAU, 0.0, -1.0, 2.0, *rng.uniform(0.0, TAU, size=9)]
    nu = [1.3, 0.4, 2.0, 1.0, 0.0, 7.5, 0.5, *rng.uniform(0.0, TAU, size=9)]
    for ell in (HALF, StepIndex(2.5), StepIndex(1.7)):
        rows = overlap_integral_quadrature(np.array(mu), np.array(nu), ell)
        assert rows.shape == (16,)
        for m, n, z in zip(mu, nu, rows.tolist()):
            assert z == overlap_integral_quadrature(m, n, ell)
            assert abs(z - overlap_integral(m, n, ell)) <= 1e-9
        grid = overlap_integral_quadrature(np.reshape(mu, (4, 4)), np.reshape(nu, (4, 4)), ell)
        assert np.array_equal(grid, rows.reshape(4, 4))
        column = overlap_integral_quadrature(0.3, np.array(nu), ell)
        assert column.tolist() == [overlap_integral_quadrature(0.3, n, ell) for n in nu]


def test_gauss_segments_rows_give_coincident_cuts_zero_weight():
    cuts = np.array([[1.0, 2.0], [1.0, 1.0], [0.0, 3.0], [TAU, -1.0]])
    x, w = gauss_segments(cuts, order=8)
    assert x.shape == w.shape == (4, 24)
    for row, (xr, wr) in enumerate(zip(x, w)):
        x1, w1 = gauss_segments(cuts[row], order=8)
        assert np.array_equal(xr, x1) and np.array_equal(wr, w1)
        assert wr.sum() == pytest.approx(TAU, abs=1e-13)
        assert np.all((0.0 <= xr) & (xr < TAU))
    # a coincident pair and a cut at 0 each leave one empty segment
    assert np.count_nonzero(w[1]) == 16 and np.count_nonzero(w[2]) == 16


def test_opposite_phase_variant_fails_against_oracle():
    oracle = overlap_integral_quadrature(2.0, 0.5, HALF)
    assert abs(overlap_integral(2.0, 0.5, HALF) - oracle) <= 1e-12
    assert abs(overlap_integral_opposite_phase(2.0, 0.5, HALF) - oracle) > 0.1
