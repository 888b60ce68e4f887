import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamch.azimuthal import TAU, StepIndex, overlap_integral
from oamch.chtest import CANONICAL_THETAS, MAX_CH_VIOLATION, ChSettings, ch_parameter
from oamch.coincidence import amplitude_matrix_quadrature
from oamch.search import (
    MAX_SCAN_POINTS,
    ChLandscape,
    ScanGrid,
    ScanResult,
    optimize_thetas,
    scan_alpha_beta,
)

HALF = StepIndex(0.5)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _random_points(seed, count=12):
    """Fixed-seed (alpha, beta, step index), alternating half-integer and general L."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        alpha, beta = rng.uniform(0.0, TAU, size=2)
        if k % 2:
            step = StepIndex(rng.uniform(0.1, 4.0))
        else:
            step = StepIndex.half_integer(int(rng.integers(0, 4)))
        yield alpha, beta, step


def _s_via_ch_parameter(alpha, beta, step, thetas, amplitude_fn=None):
    cfg = ChSettings(*thetas, alpha=alpha, beta=beta, step_index=step)
    if amplitude_fn is None:
        return ch_parameter(cfg).s
    return ch_parameter(cfg, amplitude_fn=amplitude_fn).s


def test_landscape_matches_full_evaluation():
    # general L matters: at half-integer L, Re(k conj(q)) = 0 hides the marginal term
    rng = np.random.default_rng(50)
    for alpha, beta, step in _random_points(55, count=26):
        thetas = tuple(rng.uniform(0.0, TAU, size=4))
        land = ChLandscape(alpha, beta, step)
        assert land.value(*thetas) == pytest.approx(
            _s_via_ch_parameter(alpha, beta, step, thetas), abs=1e-12
        )


def test_landscape_grid_matches_scalar_path():
    # the four angles broadcast against each other to the lattice values^4
    land = ChLandscape(0.9, 0.4, HALF)
    values = np.linspace(0.0, TAU, 5, endpoint=False)
    grid = land.value(*np.ix_(values, values, values, values))
    for i, ta in enumerate(values):
        for j, tap in enumerate(values):
            for k, tb in enumerate(values):
                for m, tbp in enumerate(values):
                    assert grid[i, j, k, m] == pytest.approx(
                        land.value(ta, tap, tb, tbp), abs=1e-12
                    )


def test_optimizer_reaches_maximum_on_aligned_plates():
    for alpha in (0.0, 0.8, 3.9):
        thetas, s = optimize_thetas(alpha, alpha, HALF)
        assert s == pytest.approx(MAX_CH_VIOLATION, abs=1e-12)
        # reported quadruple reproduces the reported value
        assert _s_via_ch_parameter(alpha, alpha, HALF, thetas) == pytest.approx(s, abs=1e-12)


def test_optimizer_never_below_coarse_grid():
    lattice = np.linspace(0.0, TAU, 12, endpoint=False)
    for alpha, beta, step in _random_points(51, count=6):
        s4 = ChLandscape(alpha, beta, step).value(*np.ix_(lattice, lattice, lattice, lattice))
        lattice_best = float(np.max(s4))
        _, s = optimize_thetas(alpha, beta, step)
        assert lattice_best <= s + 1e-12


def test_optimizer_matches_horodecki_closed_form():
    # (sqrt(s1^2 + s2^2) - 1) / 2 from a numpy SVD of the x-z correlation block
    for alpha, beta, step in _random_points(52, count=40):
        plates_a = (alpha, alpha + math.pi)
        plates_b = (beta, beta + math.pi)
        k = np.array([[overlap_integral(pa, pb, step) for pb in plates_b] for pa in plates_a])
        block = np.array(
            [[np.vdot(k, si @ k @ sj).real for sj in (SIGMA_X, SIGMA_Z)] for si in (SIGMA_X, SIGMA_Z)]
        ) / np.vdot(k, k).real
        s1, s2 = np.linalg.svd(block, compute_uv=False)
        thetas, s = optimize_thetas(alpha, beta, step)
        assert s == pytest.approx((math.hypot(s1, s2) - 1.0) / 2.0, abs=1e-12)
        assert _s_via_ch_parameter(alpha, beta, step, thetas) == pytest.approx(s, abs=1e-12)


def test_optimizer_is_locally_optimal():
    for alpha, beta, step in _random_points(53):
        thetas, s = optimize_thetas(alpha, beta, step)
        land = ChLandscape(alpha, beta, step)
        for k in range(4):
            for shift in (-1e-4, 1e-4):
                moved = list(thetas)
                moved[k] += shift
                # S sums O(1) terms, so a flat direction may still move it by rounding
                assert land.value(*moved) <= s + 1e-15


def test_optimizer_matches_quadrature_ch_parameter():
    for alpha, beta, step in _random_points(54, count=6):
        thetas, s = optimize_thetas(alpha, beta, step)
        s_quad = _s_via_ch_parameter(
            alpha, beta, step, thetas, amplitude_fn=amplitude_matrix_quadrature
        )
        assert s_quad == pytest.approx(s, abs=1e-8)


def test_optimizer_half_turn_misalignment_cross_check():
    alpha = 0.7
    thetas, s = optimize_thetas(alpha, alpha + math.pi, HALF)
    s_quad = _s_via_ch_parameter(
        alpha, alpha + math.pi, HALF, thetas, amplitude_fn=amplitude_matrix_quadrature
    )
    assert s_quad == pytest.approx(s, abs=1e-8)


def test_optimizer_finds_violation_next_to_diagonal():
    _, s = optimize_thetas(TAU / 33.0, 0.0, HALF)
    assert s > 0.204


def test_scan_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(alpha_steps=1, beta_steps=4)
    with pytest.raises(ValueError):
        ScanGrid(alpha_steps=4, beta_steps=4, theta_policy="anneal")
    with pytest.raises(ValueError):
        ScanGrid(alpha_steps=4, beta_steps=4, threshold=math.inf)


def test_scan_grid_size_is_bounded():
    assert ScanGrid(alpha_steps=1024, beta_steps=1024).alpha_steps == 1024
    assert 1024 * 1024 == MAX_SCAN_POINTS
    for steps in ((1024, 1025), (2, MAX_SCAN_POINTS), (10**9, 10**9)):
        with pytest.raises(ValueError, match="points"):
            ScanGrid(alpha_steps=steps[0], beta_steps=steps[1])


def test_scan_bookkeeping_2x2():
    result = scan_alpha_beta(ScanGrid(alpha_steps=2, beta_steps=2), HALF)
    assert result.s.shape == (4,)
    assert result.thetas.shape == (4, 4)
    assert list(zip(result.alpha.tolist(), result.beta.tolist())) == [
        (0.0, 0.0),
        (0.0, math.pi),
        (math.pi, 0.0),
        (math.pi, math.pi),
    ]
    assert result.s[result.best] == result.s.max()


@pytest.mark.parametrize("policy", ["fixed-canonical", "optimize-per-point"])
@pytest.mark.parametrize("step", [StepIndex(0.5), StepIndex(2.5), StepIndex(1.7), StepIndex(3.21)])
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(alpha_steps=st.integers(2, 9), beta_steps=st.integers(2, 9), threshold=st.floats(0.0, 0.25))
def test_scan_columns_match_scalar_reference(policy, step, alpha_steps, beta_steps, threshold):
    # non-square grids among them, so swapping the alpha-major repeat and tile fails
    grid = ScanGrid(alpha_steps, beta_steps, theta_policy=policy, threshold=threshold)
    result = scan_alpha_beta(grid, step)
    land = ChLandscape(result.alpha, result.beta, step)
    alphas = np.linspace(0.0, TAU, alpha_steps, endpoint=False)
    betas = np.linspace(0.0, TAU, beta_steps, endpoint=False)
    rows = [(a, b) for a in alphas.tolist() for b in betas.tolist()]
    assert list(zip(result.alpha.tolist(), result.beta.tolist())) == rows
    for i, (a, b) in enumerate(rows):
        point = ChLandscape(a, b, step)
        assert (land.k[i], land.q[i]) == (point.k, point.q)
        if policy == "optimize-per-point":
            thetas, s = optimize_thetas(a, b, step)
        else:
            thetas, s = CANONICAL_THETAS, point.value(*CANONICAL_THETAS)
        assert tuple(result.thetas[i].tolist()) == tuple(float(t) for t in thetas)
        assert abs(result.s[i] - s) <= 2e-15
    np.testing.assert_array_equal(result.exceeds_threshold, result.s > threshold)
    assert result.best == int(np.argmax(result.s))


def test_scan_diagonal_plateau():
    result = scan_alpha_beta(ScanGrid(alpha_steps=5, beta_steps=5), HALF)
    assert (result.thetas == np.array(CANONICAL_THETAS)).all()
    diagonal = result.alpha == result.beta
    assert diagonal.sum() == 5
    np.testing.assert_allclose(result.s[diagonal], MAX_CH_VIOLATION, rtol=0.0, atol=1e-9)
    assert result.exceeds_threshold[diagonal].all()


def test_scan_origin_shift_invariance():
    result = scan_alpha_beta(ScanGrid(alpha_steps=3, beta_steps=3), HALF)
    shift = 0.37
    for alpha, beta, thetas, s in zip(result.alpha, result.beta, result.thetas, result.s):
        shifted = ChLandscape(alpha + shift, beta + shift, HALF).value(*thetas)
        assert shifted == pytest.approx(s, abs=1e-8)


def test_scan_threshold_flags():
    result = scan_alpha_beta(ScanGrid(alpha_steps=4, beta_steps=4, threshold=0.1), HALF)
    assert result.exceeds_threshold.dtype == bool
    np.testing.assert_array_equal(result.exceeds_threshold, result.s > 0.1)


def test_scan_reproducibility():
    grid = ScanGrid(alpha_steps=3, beta_steps=4, theta_policy="optimize-per-point")
    first = scan_alpha_beta(grid, HALF)
    second = scan_alpha_beta(grid, HALF)
    for name in ("alpha", "beta", "thetas", "s", "exceeds_threshold"):
        np.testing.assert_array_equal(getattr(first, name), getattr(second, name))
    assert first.best == second.best


def test_scan_result_requires_rows():
    empty = np.zeros(0)
    with pytest.raises(ValueError):
        ScanResult(alpha=empty, beta=empty, thetas=np.zeros((0, 4)), s=empty, exceeds_threshold=empty > 0)
    s = np.array([0.1, 0.2, 0.2, -0.3])
    zeros = np.zeros(4)
    result = ScanResult(alpha=zeros, beta=zeros, thetas=np.zeros((4, 4)), s=s, exceeds_threshold=s > 0.15)
    assert result.best == 1
