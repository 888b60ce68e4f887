import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamch.chtest
from oamch import search
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


def _rows(scan) -> list[tuple]:
    """Every row of a scan, in order: alpha, beta, the four thetas, S and the flag."""
    return [(a, b, *tail) for alphas, betas, tails in scan
            for (a, b), tail in zip(itertools.product(alphas, betas), tails)]


def test_optimized_scan_takes_s_in_the_stable_form():
    # S is below 1e-10 on most keys at L = 0.9979; the landscape at the optimum
    # sums terms of order 1 there, and reads below zero on two rows of this grid
    step = StepIndex(0.9979)
    rows = _rows(scan_alpha_beta(ScanGrid(93, 91, theta_policy="optimize-per-point"), step))
    assert len(rows) == 93 * 91
    for alpha, beta, *thetas, s, _ in rows:
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


def _first_best(rows) -> tuple:
    """The first row with the largest S."""
    return max(rows, key=lambda row: row[6])


def test_scan_bookkeeping_2x2():
    scan = scan_alpha_beta(ScanGrid(alpha_steps=2, beta_steps=2), HALF)
    rows = _rows(scan)
    assert [len(row) for row in rows] == [8] * 4
    assert [row[:2] for row in rows] == [(0.0, 0.0), (0.0, math.pi), (math.pi, 0.0), (math.pi, math.pi)]
    assert scan.result == (4, sum(row[7] for row in rows), _first_best(rows))


@pytest.mark.parametrize("policy", ["fixed-canonical", "optimize-per-point"])
@pytest.mark.parametrize("step", [StepIndex(0.5), StepIndex(2.5), StepIndex(1.7), StepIndex(3.21)])
@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(alpha_steps=st.integers(2, 9), beta_steps=st.integers(2, 9), threshold=st.floats(0.0, 0.25))
def test_scan_columns_match_scalar_reference(policy, step, alpha_steps, beta_steps, threshold):
    # non-square grids among them, so swapping the alpha-major order fails
    grid = ScanGrid(alpha_steps, beta_steps, theta_policy=policy, threshold=threshold)
    scan = scan_alpha_beta(grid, step)
    alphas = np.linspace(0.0, TAU, alpha_steps, endpoint=False)
    betas = np.linspace(0.0, TAU, beta_steps, endpoint=False)
    plates = [(a, b) for a in alphas.tolist() for b in betas.tolist()]
    rows = _rows(scan)
    assert [row[:2] for row in rows] == plates
    for (a, b), row in zip(plates, rows):
        if policy == "optimize-per-point":
            thetas, s = _optimum(a, b, step)
        else:
            thetas, s = CANONICAL_THETAS, ChLandscape.at(a, b, step).value(*CANONICAL_THETAS)[0]
        assert row[2:] == (*thetas, s, s > threshold)
    assert scan.result.best == _first_best(rows)


def test_scan_diagonal_plateau():
    rows = _rows(scan_alpha_beta(ScanGrid(alpha_steps=5, beta_steps=5), HALF))
    assert all(row[2:6] == CANONICAL_THETAS for row in rows)
    diagonal = [row for row in rows if row[0] == row[1]]
    assert len(diagonal) == 5
    for row in diagonal:
        assert row[6] == pytest.approx(MAX_CH_VIOLATION, abs=1e-9)
        assert row[7] is True


def test_scan_origin_shift_invariance():
    shift = 0.37
    for alpha, beta, *thetas, s, _ in _rows(scan_alpha_beta(ScanGrid(alpha_steps=3, beta_steps=3), HALF)):
        shifted = ChLandscape.at(alpha + shift, beta + shift, HALF).value(*thetas)[0]
        assert shifted == pytest.approx(s, abs=1e-8)


def test_scan_threshold_flags():
    scan = scan_alpha_beta(ScanGrid(alpha_steps=4, beta_steps=4, threshold=0.1), HALF)
    rows = _rows(scan)
    assert {type(row[7]) for row in rows} == {bool}
    assert [row[7] for row in rows] == [row[6] > 0.1 for row in rows]
    assert scan.result.exceeding == sum(row[7] for row in rows) > 0


def test_scan_reproducibility():
    grid = ScanGrid(alpha_steps=3, beta_steps=4, theta_policy="optimize-per-point")
    first = scan_alpha_beta(grid, HALF)
    second = scan_alpha_beta(grid, HALF)
    rows = _rows(first)
    assert rows == _rows(second)
    assert first.result == second.result
    # a second pass over one scan gives the same rows
    assert _rows(first) == rows


class _CountingLandscape(ChLandscape):
    """A `ChLandscape` that records how many keys each batch evaluates."""

    batches: list = []

    def __init__(self, k, q):
        super().__init__(k, q)
        self.batches.append(len(k))


def test_scan_evaluates_each_relative_orientation_once(monkeypatch):
    # on a square grid, keys repeat along the diagonals: far fewer keys than rows
    monkeypatch.setattr(search, "ChLandscape", _CountingLandscape)
    monkeypatch.setattr(_CountingLandscape, "batches", [])
    scan = scan_alpha_beta(ScanGrid(alpha_steps=33, beta_steps=33), HALF)
    assert len(_rows(scan)) == 33 * 33 and scan.result.rows == 33 * 33
    # the 1,089 rows fit one chunk, whose 593 keys are evaluated together
    assert _CountingLandscape.batches == [593]
    # the memo lives as long as its pass: a second pass evaluates the 593 keys again
    assert sorted(vars(scan)) == ["grid", "result", "step_index", "tail"]
    first, scan.result = scan.result, None
    assert len(_rows(scan)) == 33 * 33 and scan.result == first
    assert _CountingLandscape.batches == [593, 593]


def test_scan_result_requires_rows():
    with pytest.raises(ValueError, match="scan produced no rows"):
        ScanResult(rows=0, exceeding=0, best=None)
    # each full pass sets `result`
    scan = scan_alpha_beta(ScanGrid(alpha_steps=5, beta_steps=5), HALF)
    assert scan.result is None
    rows = _rows(scan)
    assert scan.result == (25, sum(row[7] for row in rows), _first_best(rows))
    # several rows tie for the largest S: the best is the first of them
    top = [i for i, row in enumerate(rows) if row[6] == scan.result.best[6]]
    assert len(top) > 1 and rows[top[0]] == scan.result.best


def test_scan_key_count_is_bounded(monkeypatch):
    # every grid within MAX_SCAN_POINTS scans, whatever its steps share;
    # no memo holds more than `_MEMO_KEYS` keys, and one is replaced only when full
    memos = {}

    def recording(factory):
        memos[steps].append(defaultdict(factory))
        return memos[steps][-1]

    monkeypatch.setattr(search, "defaultdict", recording)
    monkeypatch.setattr(search, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(search, "_MEMO_KEYS", 200)
    for steps in ((93, 92), (2, 600), (600, 2), (33, 33)):
        memos[steps] = []
        scan = scan_alpha_beta(ScanGrid(*steps), HALF)
        assert len(_rows(scan)) == scan.result.rows == steps[0] * steps[1]
        assert max(map(len, memos[steps])) <= 200
        assert all(len(memo) > 200 - 64 for memo in memos[steps][:-1])
    # 93 x 92 has a key per row: its 8,556 keys filled many memos
    assert len(memos[(93, 92)]) > 8556 // 200
