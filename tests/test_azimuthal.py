import cmath
import math

import numpy as np
import pytest

from oamch.azimuthal import (
    MAX_STEP_INDEX,
    TAU,
    PiecewiseConstantError,
    StepIndex,
    check_node_values,
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
    for bad in (-1, math.inf, math.nan):
        with pytest.raises(ValueError, match="l must be a nonnegative integer"):
            StepIndex.half_integer(bad)


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


def _fmod_wrap(x: float) -> float:
    """The reduction to [0, 2*pi) by fmod alone, without an early return for canonical input."""
    r = math.fmod(x, TAU)
    if r < 0.0:
        r += TAU
    return 0.0 if r >= TAU else r


def test_wrap_angle_basic():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(TAU) == 0.0
    assert wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)
    # either side of both ends of [0, 2*pi): float.hex tells -0.0 from 0.0
    for x in (-0.0, 0.0, 5e-324, -5e-324, math.nextafter(TAU, 0.0), TAU, -TAU, 1e300):
        assert wrap_angle(x).hex() == _fmod_wrap(x).hex(), x


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
        vals = [spp_phase(chi, phi, ell) for phi in phis]
        assert max(abs(abs(v) - 1.0) for v in vals) <= 1e-14


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


def test_overlap_quadrature_handles_degenerate_cuts():
    rng = np.random.default_rng(11)
    # degenerate pairs among ordinary ones: mu == nu, a half-turn apart,
    # cuts at 0 and 2*pi, both cuts at 0, angles outside [0, 2*pi)
    mu = [1.3, 0.4 + math.pi, 0.0, TAU, 0.0, -1.0, 2.0, *rng.uniform(0.0, TAU, size=9)]
    nu = [1.3, 0.4, 2.0, 1.0, 0.0, 7.5, 0.5, *rng.uniform(0.0, TAU, size=9)]
    for ell in (HALF, StepIndex(2.5), StepIndex(1.7)):
        for m, n in zip(mu, nu):
            z = overlap_integral_quadrature(m, n, ell)
            assert type(z) is complex
            assert abs(z - overlap_integral(m, n, ell)) <= 1e-9


def test_overlap_quadrature_block_evaluates_each_plate_phase_once(monkeypatch):
    # two plates, one phase difference: one cosine and one sine per node, one node pair per segment
    rng = np.random.default_rng(25)
    mu, nu = rng.uniform(0.0, TAU, size=(2, 8))
    nodes = sum(2 * len(gauss_segments((m, n))) for m, n in zip(mu, nu))
    assert nodes == 8 * 2 * 3
    calls = {"cos": 0, "sin": 0}

    def counted(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)

        return call

    for name in calls:
        monkeypatch.setattr(math, name, counted(name, getattr(math, name)))
    for m, n in zip(mu, nu):
        overlap_integral_quadrature(m, n, StepIndex(1.7))
    assert calls == {"cos": nodes, "sin": nodes}


@pytest.mark.parametrize("segments", [8, 64])
def test_gauss_legendre_nodes_are_leggauss(segments):
    # on each of n equal segments the nodes and weights are numpy's 2-point
    # Gauss-Legendre rule, mapped from [-1, 1] onto that segment
    want_x, want_w = np.polynomial.legendre.leggauss(2)
    cuts = [TAU * k / segments for k in range(1, segments)]
    rule = gauss_segments(cuts)
    assert len(rule) == segments
    for (h, x1, x2), a, b in zip(rule, [0.0, *cuts], [*cuts, TAU]):
        mid = 0.5 * (a + b)
        assert h == pytest.approx(0.5 * (b - a), rel=1e-14)
        np.testing.assert_allclose([(x1 - mid) / h, (x2 - mid) / h], want_x, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose([1.0, 1.0], want_w, rtol=0.0, atol=1e-15)


def test_two_point_rule_integrates_cubics_exactly():
    # a 2-point rule integrates every polynomial of degree 3 exactly, on every segment
    for cuts in ((), (1.0, 4.0), (2.5,)):
        for k in range(4):
            exact = TAU ** (k + 1) / (k + 1)
            got = math.fsum(h * (x1**k + x2**k) for h, x1, x2 in gauss_segments(cuts))
            assert got == pytest.approx(exact, rel=1e-14)


def test_gauss_segments_rows_give_coincident_cuts_zero_weight():
    rows = [(1.0, 2.0), (1.0, 1.0), (0.0, 3.0), (TAU, -1.0)]
    rules = [gauss_segments(cuts) for cuts in rows]
    for rule in rules:
        assert math.fsum(2.0 * h for h, _, _ in rule) == pytest.approx(TAU, abs=1e-13)
        assert all(0.0 < x1 < x2 < TAU for _, x1, x2 in rule)
    # a coincident pair and a cut at 0 each leave one empty segment out
    assert [len(rule) for rule in rules] == [3, 2, 2, 2]
    # a segment too narrow to hold its nodes strictly inside is skipped too
    assert len(gauss_segments((1.0, math.nextafter(1.0, 2.0)))) == 2
    assert len(gauss_segments((1.0, 1.0 + 1e-9))) == 3


def test_node_values_that_differ_beyond_rounding_are_refused():
    ell = StepIndex(2.5)
    bound = 32.0 * (TAU * 2.5 + 1.0) * 2.0**-53
    check_node_values((1j, 1.0), (1j, 1.0 + 0.5 * bound), ell, 0.1, 0.2)
    with pytest.raises(PiecewiseConstantError, match="between azimuths 0.1 and 0.2"):
        check_node_values((1j, 1.0), (1j, 1.0 + 2.0 * bound), ell, 0.1, 0.2)
    # a NaN gap fails wherever it falls, not only as the first value
    for nan_first in (True, False):
        v = (complex("nan"), 1j) if nan_first else (1j, complex("nan"))
        with pytest.raises(PiecewiseConstantError, match="differs by nan"):
            check_node_values(v, v, ell, 0.1, 0.2)


def test_opposite_phase_variant_fails_against_oracle():
    oracle = overlap_integral_quadrature(2.0, 0.5, HALF)
    assert abs(overlap_integral(2.0, 0.5, HALF) - oracle) <= 1e-12
    assert abs(overlap_integral_opposite_phase(2.0, 0.5, HALF) - oracle) > 0.1
