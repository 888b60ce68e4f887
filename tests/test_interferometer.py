import math

import numpy as np
from oamch.azimuthal import TAU, StepIndex, spp_phase
from oamch.coincidence import arm_amplitude, mz_unitary

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


def _arms_over(phis, **kw):
    """Arms 1 and 2 at each azimuth, as two arrays."""
    return np.array([_arms(phi=phi, **kw) for phi in phis]).T


def _phases(chi, phis, step_index=HALF):
    return np.array([spp_phase(chi, phi, step_index) for phi in phis])


def test_plate_pair_is_half_turn_apart():
    # at a quarter-turn splitter arm 1 carries only the second plate, arm 2 only the first
    phis = np.linspace(0.0, TAU, 40, endpoint=False)
    a1, a2 = _arms_over(phis, chi=5.0, theta=math.pi / 2)
    second = _phases((5.0 + math.pi) % TAU, phis) / SQRT2
    np.testing.assert_allclose(a1, -second, atol=1e-14)
    np.testing.assert_allclose(a2, _phases(5.0, phis) / SQRT2, atol=1e-14)


def test_arm_amplitude_passthrough_at_zero_theta():
    phis = np.linspace(0.0, TAU, 40, endpoint=False)
    expected = _phases(0.8, phis) / SQRT2
    np.testing.assert_allclose(_arms_over(phis)[0], expected, atol=1e-14)


def test_arm_amplitude_conjugate_plates_negate_phase():
    phis = np.linspace(0.0, TAU, 40, endpoint=False)
    expected = np.conjugate(_phases(0.8, phis)) / SQRT2
    np.testing.assert_allclose(_arms_over(phis, conjugate_plates=True)[0], expected, atol=1e-14)


def test_arm_norm_conservation():
    rng = np.random.default_rng(11)
    phis = rng.uniform(0.0, TAU, size=64)
    for _ in range(30):
        a1, a2 = _arms_over(
            phis,
            chi=rng.uniform(0.0, TAU),
            theta=rng.uniform(0.0, TAU),
            step_index=StepIndex(rng.uniform(0.1, 4.0)),
            aux_phase_1=rng.uniform(0.0, TAU),
            aux_phase_2=rng.uniform(0.0, TAU),
            conjugate_plates=bool(rng.integers(0, 2)),
        )
        norm = np.abs(a1) ** 2 + np.abs(a2) ** 2
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)


def test_arm_amplitude_theta_periodicity():
    # exact equality is unattainable: theta + 2*pi already rounds in floats
    phis = np.linspace(0.0, TAU, 16, endpoint=False)
    for theta in (0.0, 0.5, 2.9):
        a = _arms_over(phis, theta=theta)
        b = _arms_over(phis, theta=theta + TAU)
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_quarter_turn_swaps_columns_with_sign():
    phis = np.linspace(0.0, TAU, 32, endpoint=False)
    kw = dict(aux_phase_1=0.3, aux_phase_2=1.1)
    arm1_quarter = _arms_over(phis, theta=math.pi / 2, **kw)[0]
    arm2_zero = _arms_over(phis, theta=0.0, **kw)[1]
    np.testing.assert_allclose(arm1_quarter, -arm2_zero, atol=1e-14)


def test_arm_amplitudes_are_the_splitter_rows_on_the_plate_phases():
    phis = np.linspace(0.0, TAU, 24, endpoint=False)
    for chi in (0.8, 5.0):  # the second plate at chi + pi, wrapped past 2*pi for chi = 5
        for conjugate in (False, True):
            plates = np.array([_phases(c, phis) for c in (chi, (chi + math.pi) % TAU)])
            if conjugate:
                plates = np.conjugate(plates)
            expected = mz_unitary(0.7, 0.3, 1.1) @ plates / SQRT2
            arms = _arms_over(phis, chi=chi, theta=0.7, aux_phase_1=0.3, aux_phase_2=1.1,
                              conjugate_plates=conjugate)
            np.testing.assert_allclose(arms, expected, atol=1e-14)


def test_arm_amplitudes_are_python_complex():
    rng = np.random.default_rng(12)
    for chi, theta, p1, p2, phi in rng.uniform(0.0, TAU, size=(5, 5)):
        for conjugate in (False, True):
            arms = _arms(chi, theta, p1, p2, phi, conjugate_plates=conjugate)
            assert type(arms) is tuple and [type(a) for a in arms] == [complex, complex]
