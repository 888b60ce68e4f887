import math
import struct

import numpy as np
import pytest

import oamch.coincidence
from oamch import azimuthal
from oamch.azimuthal import TAU, StepIndex, overlap_integral, wrap_angle
from oamch.coincidence import (
    SIGMA,
    AmplitudeMatrix,
    DegenerateStateError,
    ExperimentSettings,
    amplitude_matrix,
    amplitude_matrix_quadrature,
    closed_form_from_settings,
    closed_form_probabilities,
    mz_unitary,
    normalized_amplitudes,
)

HALF = StepIndex(0.5)


def _settings(alpha=0.0, beta=0.0, theta_a=0.0, theta_b=0.0, step=HALF, aux=(0.0,) * 4):
    return ExperimentSettings(
        alpha=alpha, beta=beta, theta_a=theta_a, theta_b=theta_b, step_index=step, aux_phases=aux
    )


def _random_settings(rng, with_aux=False, half_integer=True):
    return _settings(
        alpha=rng.uniform(0.0, TAU),
        beta=rng.uniform(0.0, TAU),
        theta_a=rng.uniform(0.0, TAU),
        theta_b=rng.uniform(0.0, TAU),
        step=StepIndex.half_integer(int(rng.integers(0, 4)))
        if half_integer
        else StepIndex(rng.uniform(0.1, 4.0)),
        aux=tuple(rng.uniform(0.0, TAU, size=4)) if with_aux else (0.0,) * 4,
    )


def test_delta_wraps_to_signed_interval():
    assert _settings(alpha=0.1, beta=6.2).delta() == pytest.approx(0.1 - 6.2 + TAU)
    assert _settings(alpha=math.pi, beta=0.0).delta() == pytest.approx(math.pi)
    assert _settings(alpha=0.0, beta=math.pi).delta() == pytest.approx(math.pi)


def test_probability_matrix_consistency():
    s = _settings(alpha=1.0, beta=0.2, theta_a=0.7, theta_b=1.9)
    m = amplitude_matrix(s)
    np.testing.assert_allclose(m.p, np.abs(m.c) ** 2, atol=1e-14)
    assert np.all(np.array(m.p) >= 0.0)
    # channel-pair factors sigma_11 = 1, sigma_12 = sigma_21 = i, sigma_22 = -1
    k = overlap_integral(s.alpha, s.beta, s.step_index)
    q = overlap_integral(s.alpha, wrap_angle(s.beta + math.pi), s.step_index)
    ua, ub = np.array(mz_unitary(s.theta_a)), np.array(mz_unitary(s.theta_b))
    rotated = 0.5 * ua @ np.array([[k, q], [q, k]]) @ ub.T
    np.testing.assert_allclose(m.c, np.array([[1, 1j], [1j, -1]]) * rotated, atol=1e-14)


def test_aligned_probabilities_follow_cosine_law():
    for alpha in (0.0, 0.7, 4.1):
        for ta, tb in [(0.0, 0.0), (0.0, math.pi / 2), (0.3, 1.2), (2.0, 0.4)]:
            m = amplitude_matrix(_settings(alpha=alpha, beta=alpha, theta_a=ta, theta_b=tb))
            assert m.p[0][0] / m.p_total == pytest.approx(
                0.5 * math.cos(ta - tb) ** 2, abs=1e-12
            )


def test_aligned_orthogonal_arm_pair_is_dark():
    m = amplitude_matrix_quadrature(_settings())
    assert abs(m.c[0][1]) <= 1e-10
    assert abs(m.c[1][0]) <= 1e-10


def test_quadrature_matches_analytic_on_aligned_case():
    for ta, tb in [(0.0, 0.0), (0.9, 2.2)]:
        ma = amplitude_matrix(_settings(alpha=1.1, beta=1.1, theta_a=ta, theta_b=tb))
        mq = amplitude_matrix_quadrature(_settings(alpha=1.1, beta=1.1, theta_a=ta, theta_b=tb))
        np.testing.assert_allclose(ma.c, mq.c, atol=1e-9)


def test_amplitude_oracle_equivalence_random_settings():
    rng = np.random.default_rng(20)
    worst = 0.0
    for k in range(200):
        s = _random_settings(rng, with_aux=bool(k % 2))
        pairs = zip(amplitude_matrix(s).c, amplitude_matrix_quadrature(s).c)
        worst = max(worst, *(abs(c - q) for row in pairs for c, q in zip(*row)))
    assert worst <= 1e-8


def test_amplitude_oracle_equivalence_general_step_index():
    rng = np.random.default_rng(21)
    for _ in range(50):
        s = _random_settings(rng, half_integer=False)
        np.testing.assert_allclose(
            amplitude_matrix(s).c, amplitude_matrix_quadrature(s).c, atol=1e-9
        )


def test_amplitude_quadrature_rows_equal_one_row_calls():
    rng = np.random.default_rng(23)
    for step in (HALF, StepIndex(1.5), StepIndex(2.3)):
        rows = [
            _settings(alpha=1.1, beta=1.1, theta_a=0.9, theta_b=2.2, step=step),  # aligned
            _settings(alpha=0.4 + math.pi, beta=0.4, theta_a=0.3, step=step),  # half-turn
            _settings(alpha=0.0, beta=2.0, theta_b=1.0, step=step),  # a cut at 0
            _settings(alpha=TAU, beta=math.pi, step=step),  # cuts at 0 and pi twice
            _settings(alpha=0.7, beta=0.2, step=step, aux=(0.3, 1.9, 4.0, 5.5)),
            *(
                _settings(*rng.uniform(0.0, TAU, size=4), step=step, aux=tuple(aux))
                for aux in rng.uniform(0.0, TAU, size=(5, 4)) * [[0], [1], [0], [1], [1]]
            ),
        ]
        for s in rows:
            one = amplitude_matrix_quadrature(s).c
            assert type(one) is tuple and [[type(z) for z in row] for row in one] == [[complex] * 2] * 2
            assert all(type(row) is tuple for row in one)
            np.testing.assert_allclose(one, amplitude_matrix(s).c, atol=1e-9)


def test_amplitude_matrix_takes_two_overlaps_of_the_four(monkeypatch):
    rng = np.random.default_rng(29)
    for _ in range(40):
        s = _random_settings(rng, half_integer=False)
        calls, overlaps = [], []

        def counting(mu, nu, step):
            calls.append((mu, nu))
            overlaps.append(overlap_integral(mu, nu, step))
            return overlaps[-1]

        with monkeypatch.context() as patch:
            patch.setattr(oamch.coincidence, "overlap_integral", counting)
            amplitude_matrix(s)
        assert calls == [(s.alpha, s.beta), (s.alpha, wrap_angle(s.beta + math.pi))]
        k, q = overlaps
        plates_a = (s.alpha, s.alpha + math.pi)
        plates_b = (s.beta, s.beta + math.pi)
        four = [[overlap_integral(a, b, s.step_index) for b in plates_b] for a in plates_a]
        np.testing.assert_allclose(((k, q), (q, k)), four, rtol=0, atol=1e-12)


def _two_products(s):
    """sigma/2 * (ua @ K @ ub^T) as two generic 2x2 products, K = ((k, q), (q, k))."""
    def matmul(a, b):
        return tuple(tuple(row[0] * b[0][j] + row[1] * b[1][j] for j in (0, 1)) for row in a)

    a1, a2, b1, b2 = s.aux_phases
    ua = mz_unitary(s.theta_a, a1, a2)
    ub = mz_unitary(s.theta_b, b1, b2)
    k = overlap_integral(s.alpha, s.beta, s.step_index)
    q = overlap_integral(s.alpha, wrap_angle(s.beta + math.pi), s.step_index)
    g = matmul(matmul(ua, ((k, q), (q, k))), tuple(zip(*ub)))
    return tuple(
        tuple(0.5 * sigma * x for sigma, x in zip(s_row, g_row)) for s_row, g_row in zip(SIGMA, g)
    )


def _bits(c):
    return [struct.pack("<dd", z.real, z.imag) for row in c for z in row]


def test_amplitude_matrix_bits_equal_two_generic_products():
    # the bits of every real and imaginary part, so that -0.0 and 0.0 are told apart
    rng = np.random.default_rng(37)
    settings = [_random_settings(rng, with_aux=bool(k % 2), half_integer=bool(k % 3))
                for k in range(300)]
    # exact zeros and signed zeros: aligned plates, splitters at 0 and pi/2, half-turned plates
    settings += [
        _settings(alpha=a, beta=b, theta_a=ta, theta_b=tb, step=step)
        for a, b in ((0.0, 0.0), (1.1, 1.1), (0.4 + math.pi, 0.4))
        for ta, tb in ((0.0, 0.0), (0.0, math.pi / 2), (math.pi / 2, math.pi))
        for step in (HALF, StepIndex(1.7321))
    ]
    for s in settings:
        assert _bits(amplitude_matrix(s).c) == _bits(_two_products(s))


def test_amplitude_sequence_equals_one_setting_calls():
    rng = np.random.default_rng(31)
    for step in (HALF, StepIndex(1.7321)):
        alpha, beta = rng.uniform(0.0, TAU, size=2)
        rows = [
            _settings(alpha, beta, *rng.uniform(0.0, TAU, size=2), step=step, aux=tuple(aux))
            for aux in rng.uniform(0.0, TAU, size=(6, 4)) * [[0], [1], [0], [1], [1], [0]]
        ]
        for s in rows:  # shared plates, aux phases on half of them
            np.testing.assert_allclose(amplitude_matrix(s).c, amplitude_matrix_quadrature(s).c,
                                       atol=1e-9)


def test_amplitude_quadrature_block_evaluates_each_plate_phase_once(monkeypatch):
    # two analyzers with two plates each: four cosines and four sines per node,
    # two nodes per segment, and one of each per splitter matrix
    rng = np.random.default_rng(24)
    block = [_settings(*rng.uniform(0.0, TAU, size=4), step=StepIndex(1.7)) for _ in range(8)]
    plates = [(s.alpha, (s.alpha + math.pi) % TAU, s.beta, (s.beta + math.pi) % TAU) for s in block]
    nodes = sum(2 * len(azimuthal.gauss_segments(p)) for p in plates)
    assert nodes == 8 * 2 * 5
    calls = {"cos": 0, "sin": 0}

    def counted(name, fn):
        def call(x):
            calls[name] += 1
            return fn(x)

        return call

    for name in calls:
        monkeypatch.setattr(math, name, counted(name, getattr(math, name)))
    for s in block:
        amplitude_matrix_quadrature(s)
    assert calls == {"cos": 4 * nodes + 2 * len(block), "sin": 4 * nodes + 2 * len(block)}


def test_marginals_do_not_depend_on_far_splitter():
    rng = np.random.default_rng(22)
    s0 = _random_settings(rng)
    row = None
    col = None
    for sweep in np.linspace(0.0, TAU, 17):
        p_b = amplitude_matrix(_settings(s0.alpha, s0.beta, s0.theta_a, sweep, s0.step_index)).p
        p_a = amplitude_matrix(_settings(s0.alpha, s0.beta, sweep, s0.theta_b, s0.step_index)).p
        row = p_b[0][0] + p_b[0][1] if row is None else row
        col = p_a[0][0] + p_a[1][0] if col is None else col
        assert p_b[0][0] + p_b[0][1] == pytest.approx(row, abs=1e-10)
        assert p_a[0][0] + p_a[1][0] == pytest.approx(col, abs=1e-10)


def test_quadrature_marginals_do_not_depend_on_far_splitter():
    base = None
    for tb in np.linspace(0.0, TAU, 5):
        p = amplitude_matrix_quadrature(_settings(2.2, 0.9, 0.6, tb, StepIndex(1.5))).p
        row = p[0][0] + p[0][1]
        base = row if base is None else base
        assert row == pytest.approx(base, abs=1e-10)


def test_joint_rotation_invariance():
    rng = np.random.default_rng(23)
    for _ in range(40):
        s = _random_settings(rng, half_integer=bool(rng.integers(0, 2)))
        shift = rng.uniform(-10.0, 10.0)
        shifted = _settings(s.alpha + shift, s.beta + shift, s.theta_a, s.theta_b, s.step_index)
        np.testing.assert_allclose(amplitude_matrix(shifted).p, amplitude_matrix(s).p, atol=1e-10)


def test_probabilities_independent_of_half_integer_order():
    rng = np.random.default_rng(24)
    for _ in range(40):
        args = dict(
            alpha=rng.uniform(0.0, TAU),
            beta=rng.uniform(0.0, TAU),
            theta_a=rng.uniform(0.0, TAU),
            theta_b=rng.uniform(0.0, TAU),
        )
        p0 = amplitude_matrix(_settings(step=StepIndex.half_integer(0), **args)).p
        p3 = amplitude_matrix(_settings(step=StepIndex.half_integer(3), **args)).p
        np.testing.assert_allclose(p0, p3, atol=1e-10)


def test_normalized_amplitudes():
    m = amplitude_matrix(_settings(alpha=0.4, beta=2.0, theta_a=1.0, theta_b=0.2))
    normalized = normalized_amplitudes(m)
    assert type(normalized) is AmplitudeMatrix
    assert normalized.p_total == pytest.approx(1.0, abs=1e-12)
    lam = normalized.c
    assert float(np.sum(np.abs(lam) ** 2)) == pytest.approx(1.0, abs=1e-12)
    # positive rescaling of the amplitudes leaves lambda unchanged
    scaled = tuple(tuple(4.0 * z for z in row) for row in m.c)
    scaled = normalized_amplitudes(AmplitudeMatrix(c=scaled)).c
    np.testing.assert_allclose(scaled, lam, atol=1e-15)


def test_normalized_amplitudes_aligned_zero_theta():
    lam = normalized_amplitudes(amplitude_matrix(_settings())).c
    np.testing.assert_allclose(np.abs(lam) ** 2, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


def test_normalized_amplitudes_degenerate():
    with pytest.raises(DegenerateStateError):
        normalized_amplitudes(AmplitudeMatrix(c=((0j, 0j), (0j, 0j))))


def test_closed_form_at_zero_misalignment():
    joint, marg_a, marg_b, total = closed_form_probabilities(0.0, 0.0, 0.0)
    assert total == pytest.approx(2.0 * math.pi**2, abs=1e-12)
    assert joint == pytest.approx(math.pi**2, abs=1e-12)
    assert joint / total == pytest.approx(0.5, abs=1e-12)
    for ta in (0.0, 0.7, 2.2):
        _, marg_a, _, total = closed_form_probabilities(0.0, ta, 1.3)
        assert marg_a / total == pytest.approx(0.5, abs=1e-12)


def test_closed_form_rejects_out_of_branch_delta():
    with pytest.raises(ValueError, match="wrap"):
        closed_form_probabilities(3.5, 0.0, 0.0)
    with pytest.raises(ValueError, match="wrap"):
        closed_form_probabilities(-3.5, 0.0, 0.0)


def test_closed_form_matches_quadrature_sums():
    rng = np.random.default_rng(25)
    for _ in range(100):
        beta = rng.uniform(0.0, TAU)
        s = _settings(
            alpha=beta + rng.uniform(-math.pi, math.pi),
            beta=beta,
            theta_a=rng.uniform(0.0, TAU),
            theta_b=rng.uniform(0.0, TAU),
            step=StepIndex.half_integer(int(rng.integers(0, 3))),
        )
        closed = closed_form_probabilities(s.delta(), s.theta_a, s.theta_b)
        p = amplitude_matrix_quadrature(s).p
        quad = (p[0][0], p[0][0] + p[0][1], p[0][0] + p[1][0], np.sum(p))
        for c, q in zip(closed, quad):
            assert abs(c - q) <= 1e-8 * max(abs(q), 1e-9 * quad[3])


def test_closed_form_from_settings_guards():
    good = _settings(alpha=1.0, beta=0.5)
    assert closed_form_from_settings(good) == closed_form_probabilities(good.delta(), 0.0, 0.0)
    with pytest.raises(ValueError, match="half-integer"):
        closed_form_from_settings(_settings(step=StepIndex(1.0)))
    with pytest.raises(ValueError, match="auxiliary"):
        closed_form_from_settings(_settings(aux=(0.1, 0.0, 0.0, 0.0)))


def test_experiment_settings_validation():
    with pytest.raises(ValueError):
        _settings(aux=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        _settings(alpha=math.nan)
