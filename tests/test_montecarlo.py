import math
import statistics

import numpy as np
import pytest

from oamch.azimuthal import StepIndex
from oamch import montecarlo
from oamch._pcg64 import multinomial
from oamch.coincidence import (
    CANONICAL_THETAS,
    MAX_CH_VIOLATION,
    ChSettings,
    amplitude_matrix,
    canonical_settings,
    ch_parameter,
)
from oamch.montecarlo import (
    RUN_LABELS,
    ChEstimate,
    CountRecord,
    InsufficientStatisticsError,
    McConfig,
    estimate_S,
    frequency,
    simulate_ch_runs,
)

HALF = StepIndex(0.5)
# aligned plates, every splitter at 0: each run has the same setting
ALIGNED = ChSettings(0.0, 0.0, 0.0, 0.0, alpha=0.2, beta=0.2, step_index=HALF)


def _aligned_run(mc: McConfig):
    """Run 0 of `ALIGNED`: the setting (theta_a, theta_b) = (0, 0) on stream 0."""
    return simulate_ch_runs(ALIGNED, mc)[0]


def test_simulate_ch_runs_equal_per_setting_runs_from_one_amplitude_call(monkeypatch):
    cfg = ChSettings(0.3, 1.2, 0.5, 2.9, alpha=0.4, beta=2.0, step_index=StepIndex(1.7321))
    mc = McConfig(trials=50_000, efficiency_a=0.8, efficiency_b=0.6, seed=11)
    calls = []
    amplitude_matrix = montecarlo.amplitude_matrix

    def counting(settings):
        calls.append(settings)
        return amplitude_matrix(settings)

    monkeypatch.setattr(montecarlo, "amplitude_matrix", counting)
    runs = simulate_ch_runs(cfg, mc)
    assert calls == list(cfg.runs())  # one call per setting, in protocol order
    eta = mc.efficiency_a * mc.efficiency_b
    for k, (run, setting) in enumerate(zip(runs, cfg.runs())):
        # the draw on the setting's own amplitudes, on stream k
        probs = montecarlo._outcome_probabilities(amplitude_matrix(setting).p, eta)
        counts = multinomial((mc.seed, k), mc.trials, probs)
        assert run.n == (tuple(counts[0:2]), tuple(counts[2:4]))
        assert (run.setting_label, run.no_coincidence) == (RUN_LABELS[k], counts[4])


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=0)
    with pytest.raises(ValueError):
        McConfig(trials=10, efficiency_a=0.0)
    with pytest.raises(ValueError):
        McConfig(trials=10, efficiency_b=1.5)
    with pytest.raises(ValueError):
        McConfig(trials=10, seed=-1)
    with pytest.raises(ValueError):
        McConfig(trials=2**63)
    assert McConfig(trials=2**63 - 1).trials == 2**63 - 1


def test_runs_are_deterministic():
    mc = McConfig(trials=50_000, seed=99)
    a, c = simulate_ch_runs(ALIGNED, mc)[:2]
    b = _aligned_run(mc)
    assert a.n == b.n
    assert a.no_coincidence == b.no_coincidence
    # run 1 has the same setting on stream 1
    assert a.n != c.n


def test_count_conservation():
    rng = np.random.default_rng(40)
    for _ in range(20):
        mc = McConfig(
            trials=int(rng.integers(1, 5000)),
            efficiency_a=float(rng.uniform(0.2, 1.0)),
            efficiency_b=float(rng.uniform(0.2, 1.0)),
            seed=int(rng.integers(0, 2**32)),
        )
        rec = _aligned_run(mc)
        assert sum(map(sum, rec.n)) + rec.no_coincidence == mc.trials


def test_aligned_zero_theta_only_correlated_outcomes():
    rec = _aligned_run(McConfig(trials=200_000, seed=7))
    assert rec.no_coincidence == 0
    assert rec.n[0][1] == 0 and rec.n[1][0] == 0
    # both surviving outcomes have probability 1/2
    sigma = math.sqrt(200_000 * 0.25)
    assert abs(rec.n[0][0] - 100_000) <= 5 * sigma


def test_single_trial_records_exactly_one_count():
    rec = _aligned_run(McConfig(trials=1, seed=3))
    assert sum(map(sum, rec.n)) == 1 and rec.no_coincidence == 0


def test_efficiency_thinning_rate():
    mc = McConfig(trials=1_000_000, efficiency_a=0.5, efficiency_b=0.5, seed=11)
    rec = _aligned_run(mc)
    sigma = math.sqrt(1_000_000 * 0.75 * 0.25)
    assert abs(rec.no_coincidence - 750_000) <= 5 * sigma


def test_frequency_arithmetic():
    rec = CountRecord("ab", np.array([[5, 0], [0, 0]]), trials=10, no_coincidence=5)
    assert frequency(rec) == ((0.5, 0.0), (0.0, 0.0))
    empty = CountRecord("ab", np.zeros((2, 2), dtype=int), trials=4, no_coincidence=4)
    assert frequency(empty) == ((0.0, 0.0), (0.0, 0.0))
    assert sum(map(sum, frequency(rec))) <= 1.0


def test_frequency_requires_trials():
    rec = CountRecord("ab", np.zeros((2, 2), dtype=int), trials=0, no_coincidence=0)
    with pytest.raises(ValueError):
        frequency(rec)


def test_count_record_conservation_enforced():
    with pytest.raises(ValueError):
        CountRecord("ab", np.array([[1, 0], [0, 0]]), trials=10, no_coincidence=5)


def test_simulate_ch_runs_layout():
    runs = simulate_ch_runs(canonical_settings(0.0), McConfig(trials=100, seed=5))
    assert [r.setting_label for r in runs] == list(RUN_LABELS)
    assert all(r.trials == 100 for r in runs)


def test_estimate_converges_to_maximum_violation():
    runs = simulate_ch_runs(canonical_settings(0.0), McConfig(trials=1_000_000, seed=12345))
    est = estimate_S(runs)
    assert abs(est.s_hat - MAX_CH_VIOLATION) < 4.0 * est.stderr
    assert est.stderr < 2e-3


def test_estimate_unbiased_under_uniform_efficiency():
    mc = McConfig(trials=1_000_000, efficiency_a=0.5, efficiency_b=0.5, seed=777)
    est = estimate_S(simulate_ch_runs(canonical_settings(0.0), mc))
    assert abs(est.s_hat - MAX_CH_VIOLATION) < 4.0 * est.stderr


def test_estimate_zero_point():
    cfg = ChSettings(0.0, 0.0, 0.0, 0.0, alpha=0.3, beta=0.3, step_index=HALF)
    est = estimate_S(simulate_ch_runs(cfg, McConfig(trials=500_000, seed=2024)))
    assert abs(est.s_hat) < 4.0 * est.stderr


def test_estimate_requires_four_matching_runs():
    runs = simulate_ch_runs(canonical_settings(0.0), McConfig(trials=100, seed=1))
    with pytest.raises(ValueError):
        estimate_S(runs[:3])
    short = _aligned_run(McConfig(trials=50, seed=1))
    with pytest.raises(ValueError):
        estimate_S(runs[:3] + [short])


def test_estimate_insufficient_statistics():
    empty = [
        CountRecord(label, np.zeros((2, 2), dtype=int), trials=10, no_coincidence=10)
        for label in RUN_LABELS
    ]
    with pytest.raises(InsufficientStatisticsError):
        estimate_S(empty)


def test_stderr_is_calibrated_and_shrinks():
    cfg = canonical_settings(0.0)
    rms_by_n = []
    for trials in (1_000, 10_000, 100_000, 1_000_000):
        errors = []
        stderrs = []
        for seed in range(20):
            est = estimate_S(simulate_ch_runs(cfg, McConfig(trials=trials, seed=seed)))
            errors.append(est.s_hat - MAX_CH_VIOLATION)
            stderrs.append(est.stderr)
        rms = float(np.sqrt(np.mean(np.square(errors))))
        rms_by_n.append(rms)
        assert 0.4 <= rms / float(np.mean(stderrs)) <= 2.5
    assert rms_by_n[0] > rms_by_n[1] > rms_by_n[2] > rms_by_n[3]


ORACLE_SETTINGS = {
    "canonical": canonical_settings(0.0),
    "misaligned": ChSettings(*CANONICAL_THETAS, alpha=0.0, beta=0.7, step_index=StepIndex(1.5)),
    "general": ChSettings(0.3, 1.2, 0.5, 2.9, alpha=0.4, beta=2.0, step_index=StepIndex(0.9979)),
}


@pytest.mark.parametrize("efficiency_a, trials", [(1.0, 100_000), (0.3, 2_000), (1.0, 2_000)])
@pytest.mark.parametrize("name", ORACLE_SETTINGS)
def test_stderr_is_the_spread_of_400_estimates(name, efficiency_a, trials):
    # the delta-method stderr against the sample spread of S_hat over 400 seeds,
    # whose ratio has a relative standard error near 3.5%
    cfg = ORACLE_SETTINGS[name]
    estimates = [
        estimate_S(simulate_ch_runs(cfg, McConfig(trials=trials, efficiency_a=efficiency_a, seed=seed)))
        for seed in range(400)
    ]
    s_hats = [est.s_hat for est in estimates]
    spread = statistics.stdev(s_hats)
    rms_stderr = math.sqrt(statistics.fmean(est.stderr**2 for est in estimates))
    assert abs(spread / rms_stderr - 1.0) <= 0.2
    assert abs(statistics.fmean(s_hats) - ch_parameter(cfg).s) <= 5.0 * spread / math.sqrt(400)


def test_mean_estimate_invariant_under_efficiency():
    cfg = canonical_settings(0.0)
    means = []
    ses = []
    for eta in (1.0, 0.5):
        values = [
            estimate_S(
                simulate_ch_runs(
                    cfg, McConfig(trials=10_000, efficiency_a=eta, efficiency_b=eta, seed=seed)
                )
            ).s_hat
            for seed in range(50)
        ]
        means.append(float(np.mean(values)))
        ses.append(float(np.std(values, ddof=1) / math.sqrt(len(values))))
    assert abs(means[0] - means[1]) < 3.0 * math.hypot(*ses)


def test_estimate_terms_are_reported():
    est = estimate_S(simulate_ch_runs(canonical_settings(0.0), McConfig(trials=10_000, seed=9)))
    assert isinstance(est, ChEstimate)
    assert set(est.terms) == {
        "p_ab",
        "p_ab_prime",
        "p_a_prime_b",
        "p_a_prime_b_prime",
        "p_a_prime_inf",
        "p_inf_b",
        "p_inf_inf",
    }
    assert est.terms["p_inf_inf"] == pytest.approx(1.0, abs=0.02)
