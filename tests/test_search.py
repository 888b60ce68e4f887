import itertools
import math
from collections import defaultdict
from decimal import Decimal, getcontext, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamch.coincidence
from oamch import search
from oamch.azimuthal import TAU, StepIndex, overlap_integral
from oamch.coincidence import (
    CANONICAL_THETAS,
    MAX_CH_VIOLATION,
    ChSettings,
    amplitude_matrix_quadrature,
    ch_parameter,
)
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
        patch.setattr(oamch.coincidence, "amplitude_matrix", amplitude_matrix_quadrature)
        return _s_via_ch_parameter(alpha, beta, step, thetas)


def _optimum(alpha, beta, step):
    """`optimize_thetas` at one plate pair, from its two complex overlaps: its four angles and S."""
    land = ChLandscape.at(alpha, beta, step)
    hk, hq = abs(land.k[0]), abs(land.q[0])
    (thetas,), (s,) = optimize_thetas([hk * hk + hq * hq], [hk * hk - hq * hq])
    return thetas, s


def _lattice(i, j, shape) -> tuple[int, int]:
    """X = |2 m| - M and Y = |2 m - M + 2 M h| - M of row i and column j of an A x B scan:
    M = A B, m = i B - j A, and h = 1 where beta + pi wraps past 2 pi (2 j >= B)."""
    size, m = shape[0] * shape[1], i * shape[1] - j * shape[0]
    return abs(2 * m) - size, abs(2 * m - size + 2 * size * (2 * j >= shape[1])) - size


def _moduli(i, j, shape, step):
    """n = 2 c M^2 + s (X^2 + Y^2) and d = s (X^2 - Y^2), s = sin^2(pi L) and c = cos^2(pi L),
    at row i and column j of an A x B scan, in the float operations of a scan's key."""
    f = step.value - round(step.value)
    sine, cosine = math.sin(math.pi * f), math.cos(math.pi * f)
    s, w = sine * sine, 2.0 * cosine * cosine * float(shape[0] * shape[1]) ** 2
    x, y = map(float, _lattice(i, j, shape))
    return w + s * (x * x + y * y), s * (x * x - y * y)


def _scan_row(i, j, shape, step, policy):
    """The four angles and S of row i and column j of a scan, from the t of its key alone."""
    n, d = _moduli(i, j, shape, step)
    if policy == "optimize-per-point":
        (thetas,), (s,) = optimize_thetas([n], [d])
        return thetas, s
    return CANONICAL_THETAS, (d / n - (math.sqrt(2.0) - 1.0)) / (2.0 * math.sqrt(2.0))


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
    for r, (alpha, beta, *thetas, s, _) in enumerate(rows):
        n, d = _moduli(*divmod(r, 91), (93, 91), step)
        t = d / n
        assert s == t * t / (2.0 * (math.sqrt(1.0 + t * t) + 1.0)) >= 0.0
        assert abs(ChLandscape.at(alpha, beta, step).value(*thetas)[0] - s) <= 1e-15


def _cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """cos x and sin x from the Taylor series of exp(i x), at the context's precision, for |x| below 7."""
    parts, term, k = [Decimal(0)] * 4, Decimal(1), 0
    while abs(term) > Decimal(10) ** -(getcontext().prec + 5):
        parts[k % 4] += term  # (i x)^k / k! adds to cos, sin, -cos, -sin in turn
        k += 1
        term = term * x / k
    return parts[0] - parts[2], parts[1] - parts[3]


def _reference_t(keys, ell: float) -> list[Decimal]:
    """t = (|k|^2 - |q|^2) / (|k|^2 + |q|^2) at each key (X, Y, M), from its definitions at 60 digits.

    k = 2 pi - a J and q = 2 pi - b J with J = 1 - exp(2 pi i L), at the
    lattice's rational plate positions, where a = pi (M + X) / M and
    b = pi (M + Y) / M, and at the same float L as the scan.  Only the
    Taylor series of `_cos_sin` enter: pi is a fixed point of x + sin x,
    which triples its digits in x at each step.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        pi = Decimal(math.pi)
        for _ in range(3):
            pi += _cos_sin(pi)[1]
        cos, sin = _cos_sin(2 * pi * (Decimal(ell) % 1))
        jr, ji = 1 - cos, -sin
        t = []
        for *xy, size in keys:
            k2, q2 = [(2 * pi - x * jr) ** 2 + (x * ji) ** 2 for x in (pi * (size + v) / size for v in xy)]
            t.append((k2 - q2) / (k2 + q2))
        return t


def _optimized_keys(shape, step) -> dict:
    """S at each key (X, Y, M) of an optimized scan."""
    rows = _rows(scan_alpha_beta(ScanGrid(*shape, theta_policy="optimize-per-point"), step))
    size = shape[0] * shape[1]
    return {(*_lattice(*divmod(r, shape[1]), shape), size): row[6] for r, row in enumerate(rows)}


def _reference_s(keys, ell: float) -> list[float]:
    """The optimum's S, (sqrt(1 + t^2) - 1) / 2, at each key, from `_reference_t`."""
    with localcontext() as ctx:
        ctx.prec = 60
        return [float(((1 + t * t).sqrt() - 1) / 2) for t in _reference_t(keys, ell)]


def test_optimized_scan_is_accurate_where_s_is_near_zero():
    # near an integer L, J is near 0 and |k|^2 and |q|^2 agree in most digits on every key;
    # the bound was fixed before the test first ran, against a reference at the float angles.
    # 397 of the grid's 4,323 keys (X, Y) have S below 1e-12.
    for ell in (0.9979, 40000.9979):
        small = {key: s for key, s in _optimized_keys((93, 91), StepIndex(ell)).items() if s < 1e-12}
        assert len(small) > 350
        for s, want in zip(small.values(), _reference_s(small, ell)):
            assert abs(s - want) <= 1e-10 * want


def test_optimized_scan_is_accurate_at_a_large_step_index():
    # f = L - round(L) is exact, so a large L costs no digits; the bound was fixed before the
    # test first ran, against a reference at the float angles
    keys = _optimized_keys((33, 33), StepIndex(50000.25))
    for s, want in zip(keys.values(), _reference_s(keys, 50000.25)):
        assert abs(s - want) <= 1e-12 * want


@pytest.mark.parametrize("shape, ell", [
    ((93, 91), 0.9979), ((93, 91), 40000.9979), ((33, 33), 1.7321), ((33, 33), 50000.25), ((256, 256), 1.7321),
])
def test_scan_takes_t_to_a_few_roundings_at_the_rational_angles(monkeypatch, shape, ell):
    # t = d / n as the scan passes n and d to `optimize_thetas`, at every key (X, Y) of the grid,
    # and exactly 0 where |X| = |Y|; the bound was fixed before the test first ran
    moduli = []
    monkeypatch.setattr(search, "optimize_thetas", lambda n, d: moduli.append((n, d)) or optimize_thetas(n, d))
    keys = sorted({(*_lattice(i, j, shape), shape[0] * shape[1]) for i in range(shape[0]) for j in range(shape[1])})
    scan_alpha_beta(ScanGrid(*shape, theta_policy="optimize-per-point"), StepIndex(ell))._evaluate(
        [x + size for x, _, size in keys], [y + size for _, y, size in keys])
    [(n, d)] = moduli
    worst = 0.0
    for (x, y, _), norm, diff, want in zip(keys, n, d, _reference_t(keys, ell)):
        if abs(x) == abs(y):
            assert diff == 0.0
        else:
            worst = max(worst, abs((Decimal(diff / norm) - want) / want))
    assert worst <= 2e-15


def test_scan_is_exactly_zero_where_a_plus_b_is_two_pi():
    # at (0, pi/2) and (0, 3 pi/2) the float a + b is 2 pi, so d = 0 and S is exactly 0
    rows = _rows(scan_alpha_beta(ScanGrid(5, 4, theta_policy="optimize-per-point"), StepIndex(1.7321)))
    first = {beta: s for alpha, beta, *_, s, _ in rows if alpha == 0.0}
    assert (first[math.pi / 2], first[3 * math.pi / 2]) == (0.0, 0.0)


def test_scan_at_an_integer_step_index_has_t_zero():
    # s = sin^2(pi L) is 0, so t = 0 on every key: S = 0 at the optimum, and the b angles meet;
    # 8 x 8 reads its rows from the table, 8 x 7 evaluates each row
    step = StepIndex(2.0)
    canonical = (0.0 - (math.sqrt(2.0) - 1.0)) / (2.0 * math.sqrt(2.0))
    for shape in ((8, 8), (8, 7)):
        for *_, theta_b, theta_b_prime, s, _ in _rows(
                scan_alpha_beta(ScanGrid(*shape, theta_policy="optimize-per-point"), step)):
            assert s == 0.0 and theta_b == theta_b_prime
        assert {row[6] for row in _rows(scan_alpha_beta(ScanGrid(*shape), step))} == {canonical}


def test_optimized_scan_is_exactly_zero_where_x_and_y_have_equal_size():
    # d = s (X^2 - Y^2) is exactly 0 there: no rounded plate angle leaves S near 1e-32
    shape = (256, 256)
    rows = _rows(scan_alpha_beta(ScanGrid(*shape, theta_policy="optimize-per-point"), StepIndex(1.7321)))
    zeros = [row[6] for r, row in enumerate(rows) if len(set(map(abs, _lattice(*divmod(r, 256), shape)))) == 1]
    assert len(zeros) > 256 and set(zeros) == {0.0}


def _tails_by_key(shape, policy, step) -> dict:
    """The distinct tails of each key (m, h) of a scan, as repr, which tells -0.0 from 0.0."""
    tails = defaultdict(set)
    for r, row in enumerate(_rows(scan_alpha_beta(ScanGrid(*shape, theta_policy=policy), step))):
        i, j = divmod(r, shape[1])
        tails[i * shape[1] - j * shape[0], 2 * j >= shape[1]].add(repr(row[2:]))
    return tails


@pytest.mark.parametrize("policy", ["fixed-canonical", "optimize-per-point"])
@pytest.mark.parametrize("shape, table", [((64, 48), True), ((64, 48), False), ((30, 27), False)])
def test_rows_of_one_key_get_equal_bits(monkeypatch, policy, shape, table):
    # 64 x 48 (gcd 16) from the table and from each row's own key, and 30 x 27 (gcd 3),
    # whose keys repeat but whose table would have more keys than the grid has rows
    if not table:
        monkeypatch.setattr(search, "_TABLE_KEYS", 0)
    tails = _tails_by_key(shape, policy, StepIndex(0.9979))
    assert len(tails) < shape[0] * shape[1] and {len(t) for t in tails.values()} == {1}
    # (m, h) and (-m, 1 - h) have the same |X| and |Y|
    mirrored = [(tails[key], tails[-key[0], not key[1]]) for key in tails if (-key[0], not key[1]) in tails]
    assert len(mirrored) > 100 and all(a == b for a, b in mirrored)


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
    assert ScanGrid(alpha_steps=2, beta_steps=MAX_SCAN_POINTS // 2).beta_steps == 2**19
    with pytest.raises(ValueError, match="the grid has 1049600 points"):
        ScanGrid(alpha_steps=1024, beta_steps=1025)
    # either count alone past 2^19 is refused, before the product is formed
    for steps in ((2, MAX_SCAN_POINTS), (10**9, 10**9)):
        with pytest.raises(ValueError, match=r"at most 524288 \(2\^19\)"):
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
    for r, row in enumerate(rows):
        thetas, s = _scan_row(*divmod(r, beta_steps), (alpha_steps, beta_steps), step, policy)
        assert row[2:] == (*thetas, s, s > threshold)
    assert scan.result.best == _first_best(rows)


@pytest.mark.parametrize("policy", ["fixed-canonical", "optimize-per-point"])
@pytest.mark.parametrize("step", [StepIndex(0.5), StepIndex(1.7321), StepIndex(0.9979)])
def test_scan_rows_match_ch_parameter_at_their_angles(policy, step):
    # the S a scan takes from t alone, against the full CH evaluation and the
    # landscape of the two complex overlaps, each at the row's own angles
    for alpha, beta, *thetas, s, _ in _rows(scan_alpha_beta(ScanGrid(33, 33, theta_policy=policy), step)):
        assert _s_via_ch_parameter(alpha, beta, step, thetas) == pytest.approx(s, abs=1e-12)
        assert ChLandscape.at(alpha, beta, step).value(*thetas)[0] == pytest.approx(s, abs=1e-12)


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


def test_scan_evaluates_each_relative_orientation_once():
    # on a square grid, keys repeat along the diagonals: far fewer keys than rows
    batches = []

    def tail(thetas, s, flags):
        batches.append(len(s))
        return [(*t, v, f) for t, v, f in zip(thetas, s, flags)]

    scan = scan_alpha_beta(ScanGrid(alpha_steps=33, beta_steps=33), HALF, tail)
    assert len(_rows(scan)) == 33 * 33 and scan.result.rows == 33 * 33
    # m / 33 runs from -32 to 32: each h's 65 keys are evaluated, and their tails made, together
    assert batches == [65, 65]
    # the table lives as long as its pass: a second pass evaluates the 130 keys again
    assert sorted(vars(scan)) == ["grid", "result", "step_index", "tail"]
    first, scan.result = scan.result, None
    assert len(_rows(scan)) == 33 * 33 and scan.result == first
    assert batches == [65, 65, 65, 65]


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
    # every grid within MAX_SCAN_POINTS scans, whatever its steps share; a table has fewer keys
    # than the grid has rows and at most `_TABLE_KEYS`, and without one a scan evaluates each
    # chunk's rows, one key per row
    evaluated = []
    evaluate = search.Scan._evaluate

    def recording(self, ps, qs):
        evaluated[-1].append(len(qs))
        return evaluate(self, ps, qs)

    monkeypatch.setattr(search.Scan, "_evaluate", recording)
    monkeypatch.setattr(search, "_CHUNK_ROWS", 64)
    monkeypatch.setattr(search, "_TABLE_KEYS", 800)
    tables = {}
    for steps in ((93, 92), (2, 600), (600, 2), (33, 33), (64, 48), (128, 96)):
        evaluated.append([])
        scan = scan_alpha_beta(ScanGrid(*steps), HALF)
        assert len(_rows(scan)) == scan.result.rows == steps[0] * steps[1]
        rows, keys = steps[0] * steps[1], sum(evaluated[-1])
        assert keys == rows or keys <= min(rows, 800)
        assert keys == rows or len(evaluated[-1]) == 2
        assert keys < rows or max(evaluated[-1]) <= 64
        tables[steps] = keys < rows
    # 93 x 92 has a key per row, and 2 x 600 and 600 x 2 (gcd 2) tables of 1,800 keys;
    # 128 x 96 (gcd 32) has a table of 1,524 keys, past the bound
    assert tables == {(93, 92): False, (2, 600): False, (600, 2): False, (33, 33): True, (64, 48): True,
                      (128, 96): False}
