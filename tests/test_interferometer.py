import math

import numpy as np
from oamch.azimuthal import TAU, StepIndex, spp_phase
from oamch.interferometer import arm_amplitude, mz_unitary

HALF = StepIndex(0.5)
SQRT2 = math.sqrt(2.0)


def test_mz_unitary_reduces_to_rotation():
    np.testing.assert_allclose(mz_unitary(0.0), np.eye(2), atol=1e-15)
    np.testing.assert_allclose(
        mz_unitary(math.pi / 4), np.array([[1, -1], [1, 1]]) / SQRT2, atol=1e-15
    )
    np.testing.assert_allclose(mz_unitary(math.pi / 2), np.array([[0, -1], [1, 0]]), atol=1e-15)
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    np.testing.assert_allclose(mz_unitary(math.pi / 6), np.array([[c, -s], [s, c]]), atol=1e-15)


def test_mz_unitary_phase_substitution():
    np.testing.assert_allclose(
        mz_unitary(0.0, math.pi, 0.0), np.array([[-1, 0], [0, 1]]), atol=1e-15
    )


def test_mz_unitary_is_unitary():
    rng = np.random.default_rng(10)
    for _ in range(50):
        theta, p1, p2 = rng.uniform(0.0, TAU, size=3)
        u = np.array(mz_unitary(theta, p1, p2))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def _arms(chi=0.8, theta=0.0, aux_phase_1=0.0, aux_phase_2=0.0, phi=0.0, step_index=HALF,
          conjugate_plates=False):
    return arm_amplitude(chi, theta, aux_phase_1, aux_phase_2, phi, step_index, conjugate_plates)


def test_plate_pair_is_half_turn_apart():
    # at a quarter-turn splitter arm 1 carries only the second plate, arm 2 only the first
    phis = np.linspace(0.0, TAU, 40, endpoint=False)
    a1, a2 = _arms(chi=5.0, theta=math.pi / 2, phi=phis)
    second = spp_phase((5.0 + math.pi) % TAU, phis, HALF) / SQRT2
    np.testing.assert_allclose(a1, -second, atol=1e-14)
    np.testing.assert_allclose(a2, spp_phase(5.0, phis, HALF) / SQRT2, atol=1e-14)


def test_arm_amplitude_passthrough_at_zero_theta():
    phis = np.linspace(0.0, TAU, 40, endpoint=False)
    expected = spp_phase(0.8, phis, HALF) / SQRT2
    np.testing.assert_allclose(_arms(phi=phis)[0], expected, atol=1e-14)


def test_arm_amplitude_conjugate_plates_negate_phase():
    phis = np.linspace(0.0, TAU, 40, endpoint=False)
    expected = np.conjugate(spp_phase(0.8, phis, HALF)) / SQRT2
    np.testing.assert_allclose(_arms(phi=phis, conjugate_plates=True)[0], expected, atol=1e-14)


def test_arm_norm_conservation():
    rng = np.random.default_rng(11)
    phis = rng.uniform(0.0, TAU, size=64)
    for _ in range(30):
        a1, a2 = arm_amplitude(
            chi=rng.uniform(0.0, TAU),
            theta=rng.uniform(0.0, TAU),
            step_index=StepIndex(rng.uniform(0.1, 4.0)),
            aux_phase_1=rng.uniform(0.0, TAU),
            aux_phase_2=rng.uniform(0.0, TAU),
            conjugate_plates=bool(rng.integers(0, 2)),
            phi=phis,
        )
        norm = np.abs(a1) ** 2 + np.abs(a2) ** 2
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)


def test_arm_amplitude_theta_periodicity():
    # exact equality is unattainable: theta + 2*pi already rounds in floats
    phis = np.linspace(0.0, TAU, 16, endpoint=False)
    for theta in (0.0, 0.5, 2.9):
        a = _arms(theta=theta, phi=phis)
        b = _arms(theta=theta + TAU, phi=phis)
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_quarter_turn_swaps_columns_with_sign():
    phis = np.linspace(0.0, TAU, 32, endpoint=False)
    kw = dict(aux_phase_1=0.3, aux_phase_2=1.1, phi=phis)
    arm1_quarter = _arms(theta=math.pi / 2, **kw)[0]
    arm2_zero = _arms(theta=0.0, **kw)[1]
    np.testing.assert_allclose(arm1_quarter, -arm2_zero, atol=1e-14)


def test_arm_amplitudes_are_the_splitter_rows_on_the_plate_phases():
    phis = np.linspace(0.0, TAU, 24, endpoint=False)
    for chi in (0.8, 5.0):  # the second plate at chi + pi, wrapped past 2*pi for chi = 5
        for conjugate in (False, True):
            plates = np.array([spp_phase(c, phis, HALF) for c in (chi, (chi + math.pi) % TAU)])
            if conjugate:
                plates = np.conjugate(plates)
            expected = mz_unitary(0.7, 0.3, 1.1) @ plates / SQRT2
            arms = _arms(chi, 0.7, 0.3, 1.1, phis, conjugate_plates=conjugate)
            np.testing.assert_allclose(np.array(arms), expected, atol=1e-14)


def test_arm_amplitude_rows_equal_one_analyzer_calls():
    rng = np.random.default_rng(12)
    chi, theta, p1, p2 = rng.uniform(0.0, TAU, size=(4, 5, 1))
    phis = rng.uniform(0.0, TAU, size=(5, 12))
    arms = _arms(chi, theta, p1, p2, phis, conjugate_plates=True)
    for arm, rows in enumerate(arms):
        assert rows.shape == (5, 12)
        for r, row in enumerate(rows):
            one = _arms(chi[r, 0], theta[r, 0], p1[r, 0], p2[r, 0], phis[r], conjugate_plates=True)
            assert np.array_equal(row, one[arm])
    assert all(isinstance(a, complex) for a in _arms(chi[0, 0], theta[0, 0], phi=0.1))
