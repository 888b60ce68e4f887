import math

import numpy as np
import pytest

from oamch.azimuthal import TAU, StepIndex, spp_phase
from oamch.interferometer import MzConfig, arm_amplitude, mz_unitary

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


def _cfg(**kw):
    base = dict(plate_orientation=0.8, theta=0.0, step_index=HALF)
    base.update(kw)
    return MzConfig(**base)


def test_plate_pair_is_half_turn_apart():
    cfg = _cfg(plate_orientation=5.0)
    assert cfg.second_plate_orientation == pytest.approx((5.0 + math.pi) % TAU)


def test_arm_amplitude_passthrough_at_zero_theta():
    cfg = _cfg()
    phis = np.linspace(0.0, TAU, 40, endpoint=False)
    expected = spp_phase(cfg.plate_orientation, phis, HALF) / SQRT2
    np.testing.assert_allclose(arm_amplitude(cfg, phis)[0], expected, atol=1e-14)


def test_arm_amplitude_conjugate_plates_negate_phase():
    cfg = _cfg(conjugate_plates=True)
    phis = np.linspace(0.0, TAU, 40, endpoint=False)
    expected = np.conjugate(spp_phase(cfg.plate_orientation, phis, HALF)) / SQRT2
    np.testing.assert_allclose(arm_amplitude(cfg, phis)[0], expected, atol=1e-14)


def test_arm_norm_conservation():
    rng = np.random.default_rng(11)
    phis = rng.uniform(0.0, TAU, size=64)
    for _ in range(30):
        cfg = MzConfig(
            plate_orientation=rng.uniform(0.0, TAU),
            theta=rng.uniform(0.0, TAU),
            step_index=StepIndex(rng.uniform(0.1, 4.0)),
            aux_phase_1=rng.uniform(0.0, TAU),
            aux_phase_2=rng.uniform(0.0, TAU),
            conjugate_plates=bool(rng.integers(0, 2)),
        )
        a1, a2 = arm_amplitude(cfg, phis)
        norm = np.abs(a1) ** 2 + np.abs(a2) ** 2
        np.testing.assert_allclose(norm, 1.0, atol=1e-12)


def test_arm_amplitude_theta_periodicity():
    # exact equality is unattainable: theta + 2*pi already rounds in floats
    phis = np.linspace(0.0, TAU, 16, endpoint=False)
    for theta in (0.0, 0.5, 2.9):
        a = arm_amplitude(_cfg(theta=theta), phis)
        b = arm_amplitude(_cfg(theta=theta + TAU), phis)
        np.testing.assert_allclose(a, b, atol=1e-14)


def test_quarter_turn_swaps_columns_with_sign():
    phis = np.linspace(0.0, TAU, 32, endpoint=False)
    kw = dict(aux_phase_1=0.3, aux_phase_2=1.1)
    arm1_quarter = arm_amplitude(_cfg(theta=math.pi / 2, **kw), phis)[0]
    arm2_zero = arm_amplitude(_cfg(theta=0.0, **kw), phis)[1]
    np.testing.assert_allclose(arm1_quarter, -arm2_zero, atol=1e-14)


def test_arm_amplitudes_are_the_splitter_rows_on_the_plate_phases():
    phis = np.linspace(0.0, TAU, 24, endpoint=False)
    for conjugate in (False, True):
        cfg = _cfg(theta=0.7, aux_phase_1=0.3, aux_phase_2=1.1, conjugate_plates=conjugate)
        plates = np.array(
            [spp_phase(chi, phis, HALF) for chi in (cfg.plate_orientation, cfg.second_plate_orientation)]
        )
        if conjugate:
            plates = np.conjugate(plates)
        expected = mz_unitary(cfg.theta, cfg.aux_phase_1, cfg.aux_phase_2) @ plates / SQRT2
        np.testing.assert_allclose(np.array(arm_amplitude(cfg, phis)), expected, atol=1e-14)


def test_arm_amplitude_rows_equal_one_analyzer_calls():
    rng = np.random.default_rng(12)
    cfgs = [
        _cfg(
            plate_orientation=chi, theta=theta, aux_phase_1=p1, aux_phase_2=p2, conjugate_plates=True
        )
        for chi, theta, p1, p2 in rng.uniform(0.0, TAU, size=(5, 4))
    ]
    phis = rng.uniform(0.0, TAU, size=(5, 12))
    arms = arm_amplitude(cfgs, phis)
    for arm, rows in enumerate(arms):
        assert rows.shape == (5, 12)
        for cfg, phi, row in zip(cfgs, phis, rows):
            assert np.array_equal(row, arm_amplitude(cfg, phi)[arm])
    assert all(isinstance(a, complex) for a in arm_amplitude(cfgs[0], 0.1))
    with pytest.raises(ValueError, match="share"):
        arm_amplitude([_cfg(), _cfg(step_index=StepIndex(1.5))], phis[:2])
    with pytest.raises(ValueError, match="share"):
        arm_amplitude([_cfg(), _cfg(conjugate_plates=True)], phis[:2])
    with pytest.raises(ValueError, match="one row per analyzer"):
        arm_amplitude(cfgs, phis[:3])
