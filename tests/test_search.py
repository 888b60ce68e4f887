import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamch.chtest
from oamch.azimuthal import TAU, StepIndex, overlap_integral
from oamch.chtest import CANONICAL_THETAS, MAX_CH_VIOLATION, ChSettings, ch_parameter
from oamch.coincidence import amplitude_matrix_quadrature
from oamch.search import (
    MAX_SCAN_POINTS,
    ChLandscape,
    ScanGrid,
    ScanResult,
    max_scan_keys,
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


def _s_via_ch_parameter(alpha, beta, step, thetas):
    return ch_parameter(ChSettings(*thetas, alpha=alpha, beta=beta, step_index=step)).s


def _s_via_quadrature(monkeypatch, alpha, beta, step, thetas):
    """`ch_parameter`'s S with the quadrature oracle in place of the closed-form amplitudes."""
    with monkeypatch.context() as patch:
        patch.setattr(oamch.chtest, "amplitude_matrix", amplitude_matrix_quadrature)
        return _s_via_ch_parameter(alpha, beta, step, thetas)


def _optimum(alpha, beta, step):
    """`optimize_thetas` at one plate pair: its four angles and S."""
    (thetas,), (s,) = optimize_thetas(ChLandscape.at(alpha, beta, step))
    return thetas, s


def test_landscape_matches_full_evaluation():
    # general L matters: at half-integer L, Re(k conj(q)) = 0 hides the marginal term
    rng = np.random.default_rng(50)
    for alpha, beta, step in _random_points(55, count=26):
        thetas = tuple(rng.uniform(0.0, TAU, size=4))
        land = ChLandscape.at(alpha, beta, step)
        assert land.value(*thetas)[0] == pytest.approx(
            _s_via_ch_parameter(alpha, beta, step, thetas), abs=1e-12
        )


def test_landscape_has_the_bits_of_the_array_formula():
    # the same formula on numpy arrays, squaring with `** 2` (x * x); pow-based
    # squaring differs in the last bit on some inputs and would move S.  The
    # sines and cosines come from libm, as numpy's may not on every CPU.
    def cos(x):
        return np.array([math.cos(v) for v in x.tolist()])

    def sin(x):
        return np.array([math.sin(v) for v in x.tolist()])

    rng = np.random.default_rng(56)
    alpha, beta = rng.uniform(0.0, TAU, size=(2, 4000))
    ells = np.where(rng.random(4000) < 0.5, rng.integers(0, 8, 4000) + 0.5, rng.uniform(0.1, 8.0, 4000))
    thetas = rng.uniform(0.0, TAU, size=(4, 4000))
    lands = [ChLandscape.at(a, b, StepIndex(ell)) for a, b, ell in zip(alpha, beta, ells)]
    k = np.array([land.k[0] for land in lands])
    q = np.array([land.q[0] for land in lands])

    def joint(ta, tb):
        c, s = cos(ta - tb), sin(ta + tb)
        return np.hypot(k.real * c - q.real * s, k.imag * c - q.imag * s) ** 2

    ta, tap, tb, tbp = thetas
    n = np.hypot(k.real, k.imag) ** 2 + np.hypot(q.real, q.imag) ** 2
    r = 2.0 * (k.real * q.real + k.imag * q.imag)
    joints = joint(ta, tb) - joint(ta, tbp) + joint(tap, tb) + joint(tap, tbp)
    s = (joints - (2.0 * n - r * (sin(2.0 * tap) + sin(2.0 * tb)))) / (2.0 * n)
    # each of the 4,000 pairs at its own four angles
    assert [land.value(*angles)[0] for land, angles in zip(lands, thetas.T.tolist())] == s.tolist()


def test_optimizer_reaches_maximum_on_aligned_plates():
    for alpha in (0.0, 0.8, 3.9):
        thetas, s = _optimum(alpha, alpha, HALF)
        assert s == pytest.approx(MAX_CH_VIOLATION, abs=1e-12)
        # reported quadruple reproduces the reported value
        assert _s_via_ch_parameter(alpha, alpha, HALF, thetas) == pytest.approx(s, abs=1e-12)


def test_optimizer_never_below_coarse_grid():
    lattice = np.linspace(0.0, TAU, 12, endpoint=False).tolist()
    for alpha, beta, step in _random_points(51, count=6):
        land = ChLandscape.at(alpha, beta, step)
        lattice_best = max(land.value(*point)[0] for point in itertools.product(lattice, repeat=4))
        _, s = _optimum(alpha, beta, step)
        assert lattice_best <= s + 1e-12


def test_optimized_scan_takes_s_in_the_stable_form():
    # S is below 1e-10 on most keys at L = 0.9979; the landscape at the optimum
    # sums terms of order 1 there, and reads below zero on two rows of this grid
    step = StepIndex(0.9979)
    result = scan_alpha_beta(ScanGrid(93, 91, theta_policy="optimize-per-point"), step)
    assert len(result.key_s) == 93 * 91
    for i in range(len(result.key)):
        alpha, beta, *thetas, s, _ = result.row(i)
        land = ChLandscape.at(alpha, beta, step)
        hk, hq = abs(land.k[0]), abs(land.q[0])
        t = (hk * hk - hq * hq) / (hk * hk + hq * hq)
        assert s == t * t / (2.0 * (math.sqrt(1.0 + t * t) + 1.0)) >= 0.0
        assert abs(land.value(*thetas)[0] - s) <= 1e-15


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
        thetas, s = _optimum(alpha, beta, step)
        assert s == pytest.approx((math.hypot(s1, s2) - 1.0) / 2.0, abs=1e-12)
        assert _s_via_ch_parameter(alpha, beta, step, thetas) == pytest.approx(s, abs=1e-12)


def test_optimizer_is_locally_optimal():
    for alpha, beta, step in _random_points(53):
        thetas, s = _optimum(alpha, beta, step)
        land = ChLandscape.at(alpha, beta, step)
        for k in range(4):
            for shift in (-1e-4, 1e-4):
                moved = list(thetas)
                moved[k] += shift
                # S sums O(1) terms, so a flat direction may still move it by rounding
                assert land.value(*moved)[0] <= s + 1e-15


def test_optimizer_matches_quadrature_ch_parameter(monkeypatch):
    for alpha, beta, step in _random_points(54, count=6):
        thetas, s = _optimum(alpha, beta, step)
        s_quad = _s_via_quadrature(monkeypatch, alpha, beta, step, thetas)
        assert s_quad == pytest.approx(s, abs=1e-8)


def test_optimizer_half_turn_misalignment_cross_check(monkeypatch):
    alpha = 0.7
    thetas, s = _optimum(alpha, alpha + math.pi, HALF)
    s_quad = _s_via_quadrature(monkeypatch, alpha, alpha + math.pi, HALF, thetas)
    assert s_quad == pytest.approx(s, abs=1e-8)


def test_optimizer_finds_violation_next_to_diagonal():
    _, s = _optimum(TAU / 33.0, 0.0, HALF)
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


def _rows(result) -> list[tuple]:
    return [result.row(i) for i in range(len(result.key))]


def test_scan_bookkeeping_2x2():
    result = scan_alpha_beta(ScanGrid(alpha_steps=2, beta_steps=2), HALF)
    rows = _rows(result)
    assert [len(row) for row in rows] == [8] * 4
    assert [row[:2] for row in rows] == [(0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi)]
    assert rows[result.best][6] == max(row[6] for row in rows)


@pytest.mark.parametrize("policy", ["fixed-canonical", "optimize-per-point"])
@pytest.mark.parametrize("step", [StepIndex(0.5), StepIndex(2.5), StepIndex(1.7), StepIndex(3.21)])
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(alpha_steps=st.integers(2, 9), beta_steps=st.integers(2, 9), threshold=st.floats(0.0, 0.25))
def test_scan_columns_match_scalar_reference(policy, step, alpha_steps, beta_steps, threshold):
    # non-square grids among them, so swapping the alpha-major order fails
    grid = ScanGrid(alpha_steps, beta_steps, theta_policy=policy, threshold=threshold)
    result = scan_alpha_beta(grid, step)
    alphas = np.linspace(0.0, TAU, alpha_steps, endpoint=False)
    betas = np.linspace(0.0, TAU, beta_steps, endpoint=False)
    plates = [(a, b) for a in alphas.tolist() for b in betas.tolist()]
    rows = _rows(result)
    assert [row[:2] for row in rows] == plates
    for (a, b), row in zip(plates, rows):
        if policy == "optimize-per-point":
            thetas, s = _optimum(a, b, step)
        else:
            thetas, s = CANONICAL_THETAS, ChLandscape.at(a, b, step).value(*CANONICAL_THETAS)[0]
        assert row[2:] == (*thetas, s, s > threshold)
    assert result.best == max(range(len(rows)), key=lambda i: rows[i][6])


def test_scan_diagonal_plateau():
    result = scan_alpha_beta(ScanGrid(alpha_steps=5, beta_steps=5), HALF)
    rows = _rows(result)
    assert all(row[2:6] == CANONICAL_THETAS for row in rows)
    diagonal = [row for row in rows if row[0] == row[1]]
    assert len(diagonal) == 5
    for row in diagonal:
        assert row[6] == pytest.approx(MAX_CH_VIOLATION, abs=1e-9)
        assert row[7] is True


def test_scan_origin_shift_invariance():
    result = scan_alpha_beta(ScanGrid(alpha_steps=3, beta_steps=3), HALF)
    shift = 0.37
    for alpha, beta, *thetas, s, _ in _rows(result):
        shifted = ChLandscape.at(alpha + shift, beta + shift, HALF).value(*thetas)[0]
        assert shifted == pytest.approx(s, abs=1e-8)


def test_scan_threshold_flags():
    result = scan_alpha_beta(ScanGrid(alpha_steps=4, beta_steps=4, threshold=0.1), HALF)
    rows = _rows(result)
    assert {type(row[7]) for row in rows} == {bool}
    assert [row[7] for row in rows] == [row[6] > 0.1 for row in rows]


def test_scan_reproducibility():
    grid = ScanGrid(alpha_steps=3, beta_steps=4, theta_policy="optimize-per-point")
    first = scan_alpha_beta(grid, HALF)
    second = scan_alpha_beta(grid, HALF)
    assert first == second
    assert _rows(first) == _rows(second)
    assert first.best == second.best


def test_scan_evaluates_each_relative_orientation_once():
    # on a square grid, keys repeat along the diagonals: far fewer keys than rows
    result = scan_alpha_beta(ScanGrid(alpha_steps=33, beta_steps=33), HALF)
    assert len(result.key) == 33 * 33
    assert len(result.key_s) == len(result.key_thetas) == len(result.key_exceeds_threshold) == 593
    # keys are numbered in the order of the rows where they first appear
    firsts = sorted(set(result.key), key=result.key.index)
    assert firsts == list(range(593))


def test_scan_result_requires_rows():
    with pytest.raises(ValueError):
        ScanResult(alpha=[], beta=[], key=[], key_thetas=[], key_s=[], key_exceeds_threshold=[])
    # one alpha and four betas, three keys: the best row is the first of two tied maxima
    s = [0.1, -0.3, 0.2]
    result = ScanResult(alpha=[0.0], beta=[0.0, 1.0, 2.0, 3.0], key=[0, 1, 2, 2],
                        key_thetas=[CANONICAL_THETAS] * 3, key_s=s,
                        key_exceeds_threshold=[x > 0.15 for x in s])
    assert result.best == 2
    assert result.row(3) == (0.0, 3.0, *CANONICAL_THETAS, 0.2, True)
    assert result.exceeding == 2
    # per-key fields are named as such: a row index cannot read them by the old names
    for name in ("s", "thetas", "exceeds_threshold"):
        assert not hasattr(result, name)


def test_scan_key_count_is_bounded(monkeypatch):
    # square grids repeat relative orientations; coprime steps almost never do
    assert max_scan_keys(1024 * 1024) == 2**13 + 2**20 // 24
    assert len(scan_alpha_beta(ScanGrid(alpha_steps=1024, beta_steps=2), HALF).key_s) == 2048
    assert len(scan_alpha_beta(ScanGrid(alpha_steps=93, beta_steps=91), HALF).key_s) == 93 * 91
    assert max_scan_keys(93 * 92) < 93 * 92
    for steps in ((93, 92), (256, 255), (512, 2048), (2, 2**19), (2**19, 2)):
        with pytest.raises(ValueError, match="distinct relative plate orientations"):
            scan_alpha_beta(ScanGrid(*steps), HALF)
    # the limit is exact: as many keys as allowed pass, one more raises
    keys = len(scan_alpha_beta(ScanGrid(alpha_steps=5, beta_steps=3), HALF).key_s)
    monkeypatch.setattr("oamch.search.max_scan_keys", lambda points: keys)
    assert len(scan_alpha_beta(ScanGrid(alpha_steps=5, beta_steps=3), HALF).key_s) == keys
    monkeypatch.setattr("oamch.search.max_scan_keys", lambda points: keys - 1)
    with pytest.raises(ValueError, match=f"more than {keys - 1} distinct"):
        scan_alpha_beta(ScanGrid(alpha_steps=5, beta_steps=3), HALF)