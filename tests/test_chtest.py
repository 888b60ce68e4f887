import cProfile
import math
import pstats

import numpy as np
import pytest

import oamch.coincidence
from oamch.azimuthal import TAU, StepIndex, overlap_integral
from oamch.coincidence import (
    CANONICAL_THETAS,
    MAX_CH_VIOLATION,
    ChResult,
    ChSettings,
    ExperimentSettings,
    amplitude_matrix,
    amplitude_matrix_quadrature,
    canonical_settings,
    ch_from_probabilities,
    ch_parameter,
    ch_violated,
)

HALF = StepIndex(0.5)


def test_canonical_settings_fields():
    cfg = canonical_settings(0.0)
    assert (cfg.theta_a, cfg.theta_a_prime, cfg.theta_b, cfg.theta_b_prime) == CANONICAL_THETAS
    assert cfg.beta == cfg.alpha
    assert canonical_settings(1.3).beta == pytest.approx(1.3)


def test_canonical_angles_reach_maximum_violation():
    for alpha in (0.0, math.pi / 3, 1.1, 0.9):
        result = ch_parameter(canonical_settings(alpha))
        assert result.s == pytest.approx(MAX_CH_VIOLATION, abs=1e-9)


def test_ch_parameter_makes_four_amplitude_calls_and_eight_overlaps(monkeypatch):
    plain = ch_parameter(canonical_settings(0.7))
    calls = []

    def overlap(mu, nu, step):
        calls.append("overlap")
        return overlap_integral(mu, nu, step)

    def amplitude(settings):
        calls.append("amplitude")
        return amplitude_matrix(settings)

    with monkeypatch.context() as patch:
        patch.setattr(oamch.coincidence, "overlap_integral", overlap)
        patch.setattr(oamch.coincidence, "amplitude_matrix", amplitude)
        result = ch_parameter(canonical_settings(0.7))
    assert calls == ["amplitude", "overlap", "overlap"] * 4  # one call per setting
    assert result == plain
    # and no evaluation hides inside the overlap itself (its mu < nu branch)
    profiler = cProfile.Profile()
    profiler.runcall(ch_parameter, canonical_settings(0.7))
    stats = pstats.Stats(profiler).stats
    assert sum(v[1] for k, v in stats.items() if k[2] == "overlap_integral") == 8


def test_equal_angles_give_zero():
    cfg = ChSettings(0.0, 0.0, 0.0, 0.0, alpha=0.5, beta=0.5, step_index=HALF)
    assert ch_parameter(cfg).s == pytest.approx(0.0, abs=1e-12)


def test_marginal_probabilities_normalized_to_half_when_aligned():
    for ta, tb in [(0.0, 0.0), (0.9, 2.0)]:
        s = ExperimentSettings(alpha=0.3, beta=0.3, theta_a=ta, theta_b=tb, step_index=HALF)
        p = amplitude_matrix(s).p
        marg_a, marg_b, total = p[0][0] + p[0][1], p[0][0] + p[1][0], np.sum(p)
        assert marg_a / total == pytest.approx(0.5, abs=1e-12)
        assert marg_b / total == pytest.approx(0.5, abs=1e-12)
        assert total == pytest.approx(2.0 * math.pi**2, abs=1e-9)


def test_marginal_is_flat_in_far_angle():
    base = None
    for tb in np.linspace(0.0, TAU, 13):
        s = ExperimentSettings(alpha=1.0, beta=0.1, theta_a=0.6, theta_b=tb, step_index=HALF)
        p = amplitude_matrix(s).p
        marg_a = p[0][0] + p[0][1]
        base = marg_a if base is None else base
        assert marg_a == pytest.approx(base, abs=1e-10)


def test_ch_combination_rescaling_invariance():
    probs = (8.7, 1.2, 8.7, 8.7, 9.9, 9.9, 19.7)
    s = ch_from_probabilities(*probs)
    assert ch_from_probabilities(*(2.0 * p for p in probs)) == s  # power of two: exact
    assert ch_from_probabilities(*(3.7 * p for p in probs)) == pytest.approx(s, rel=1e-13)


def test_analytic_and_quadrature_paths_agree(monkeypatch):
    rng = np.random.default_rng(30)
    for _ in range(10):
        cfg = ChSettings(
            *rng.uniform(0.0, TAU, size=4),
            alpha=rng.uniform(0.0, TAU),
            beta=rng.uniform(0.0, TAU),
            step_index=StepIndex.half_integer(int(rng.integers(0, 3))),
        )
        s_analytic = ch_parameter(cfg).s
        with monkeypatch.context() as patch:
            patch.setattr(oamch.coincidence, "amplitude_matrix", amplitude_matrix_quadrature)
            s_quad = ch_parameter(cfg).s
        assert s_quad == pytest.approx(s_analytic, abs=1e-8)


def test_aligned_grid_never_exceeds_maximum():
    # model-specific ceiling, checked on a coarse grid here (finer in acceptance)
    thetas = np.linspace(0.0, TAU, 8, endpoint=False)
    worst = -math.inf
    for ta in thetas:
        for tap in thetas:
            for tb in thetas:
                for tbp in thetas:
                    cfg = ChSettings(ta, tap, tb, tbp, alpha=0.4, beta=0.4, step_index=HALF)
                    worst = max(worst, ch_parameter(cfg).s)
    assert worst <= MAX_CH_VIOLATION + 1e-6


def test_ch_violated_boundary():
    violating = ch_parameter(canonical_settings(0.2))
    assert ch_violated(violating) == (True, violating.s)
    flat = ChResult(s=0.0, p_joint=(1.0, 1.0, 1.0, 1.0), p_marg_a=2.0, p_marg_b=2.0, p_total=4.0)
    assert ch_violated(flat) == (False, 0.0)
    negative = ChResult(s=-0.3, p_joint=(0.1, 1.0, 0.1, 0.1), p_marg_a=2.0, p_marg_b=2.0, p_total=4.0)
    assert ch_violated(negative) == (False, -0.3)


def test_ch_result_validation():
    with pytest.raises(ValueError):
        ChResult(s=0.0, p_joint=(1.0, 1.0, 1.0, 1.0), p_marg_a=2.0, p_marg_b=2.0, p_total=0.0)
    with pytest.raises(ValueError):
        ChResult(s=0.0, p_joint=(-1.0, 1.0, 1.0, 1.0), p_marg_a=2.0, p_marg_b=2.0, p_total=4.0)


def test_ch_settings_validation():
    with pytest.raises(ValueError):
        ChSettings(math.nan, 0.0, 0.0, 0.0, alpha=0.0, beta=0.0, step_index=HALF)
