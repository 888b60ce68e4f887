"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math

import numpy as np

from oamch.azimuthal import (
    TAU,
    StepIndex,
    overlap_integral,
    overlap_integral_opposite_phase,
    overlap_integral_quadrature,
)
from oamch.coincidence import (
    MAX_CH_VIOLATION,
    ChSettings,
    ExperimentSettings,
    amplitude_matrix,
    amplitude_matrix_quadrature,
    arm_amplitude,
    canonical_settings,
    ch_parameter,
    closed_form_probabilities,
    mz_unitary,
    normalized_amplitudes,
)
from oamch.montecarlo import McConfig, estimate_S, simulate_ch_runs
from oamch.search import ChLandscape, ScanGrid, scan_alpha_beta

HALF = StepIndex(0.5)


def _report(criterion: str, passed: bool, metric: str) -> bool:
    print(f"{criterion}: {'PASS' if passed else 'FAIL'} ({metric})")
    return passed


def test_criterion_1_maximum_ch_violation():
    worst = max(
        abs(ch_parameter(canonical_settings(alpha)).s - MAX_CH_VIOLATION)
        for alpha in np.linspace(0.0, TAU, 8, endpoint=False)
    )
    assert _report(
        "criterion 1 (maximum CH violation, 8 orientations)",
        worst <= 1e-9,
        f"max |S - (sqrt(2)-1)/2| = {worst:.3e}, tolerance 1e-9",
    )


def test_criterion_2_aligned_plate_reduction():
    thetas = np.linspace(0.0, TAU, 32, endpoint=False)
    alpha = 0.73
    worst = 0.0
    for ta in thetas:
        for tb in thetas:
            p = amplitude_matrix(
                ExperimentSettings(alpha=alpha, beta=alpha, theta_a=ta, theta_b=tb, step_index=HALF)
            ).p
            total = np.sum(p)
            worst = max(worst, abs(p[0][0] / total - 0.5 * math.cos(ta - tb) ** 2))
            worst = max(worst, abs((p[0][0] + p[0][1]) / total - 0.5))
            worst = max(worst, abs((p[0][0] + p[1][0]) / total - 0.5))
    assert _report(
        "criterion 2 (aligned-plate reduction, 32x32 grid)",
        worst <= 1e-9,
        f"max deviation = {worst:.3e}, tolerance 1e-9",
    )


def test_criterion_3_closed_form_oracle_equivalence():
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(500):
        delta = rng.uniform(-math.pi, math.pi)
        beta = rng.uniform(0.0, TAU)
        settings = ExperimentSettings(
            alpha=beta + delta,
            beta=beta,
            theta_a=rng.uniform(0.0, TAU),
            theta_b=rng.uniform(0.0, TAU),
            step_index=StepIndex.half_integer(int(rng.integers(0, 3))),
        )
        closed = closed_form_probabilities(settings.delta(), settings.theta_a, settings.theta_b)
        p = amplitude_matrix_quadrature(settings).p
        quad = (p[0][0], p[0][0] + p[0][1], p[0][0] + p[1][0], np.sum(p))
        for c, q in zip(closed, quad):
            worst = max(worst, abs(c - q) / max(abs(q), 1e-9 * quad[3]))
    assert _report(
        "criterion 3 (closed forms vs quadrature, 500 samples, l in 0..2)",
        worst <= 1e-8,
        f"max relative error = {worst:.3e}, tolerance 1e-8",
    )


def test_criterion_4_integral_sign_adjudication():
    rng = np.random.default_rng(304)
    worst_primary = 0.0
    worst_flipped = 0.0
    for _ in range(500):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        step = StepIndex.half_integer(int(rng.integers(0, 4)))
        oracle = overlap_integral_quadrature(mu, nu, step)
        worst_primary = max(worst_primary, abs(overlap_integral(mu, nu, step) - oracle))
        worst_flipped = max(
            worst_flipped, abs(overlap_integral_opposite_phase(mu, nu, step) - oracle)
        )
    ok = worst_primary <= 1e-9 and worst_flipped > 1e-3
    assert _report(
        "criterion 4 (overlap sign adjudication, 500 samples)",
        ok,
        f"primary max error = {worst_primary:.3e} (<= 1e-9); "
        f"flipped-sign max error = {worst_flipped:.3e} (must be large)",
    )


def test_criterion_5_search_finds_off_diagonal_violations():
    grid = ScanGrid(alpha_steps=33, beta_steps=33, theta_policy="optimize-per-point")
    rows = [(a, b, *tail) for alphas, betas, tails in scan_alpha_beta(grid, HALF)
            for (a, b), tail in zip(itertools.product(alphas, betas), tails)]
    hits = [row[6] for row in rows if row[0] != row[1] and row[6] > 0.204]
    assert _report(
        "criterion 5 (off-diagonal violations above 0.204, 33x33 optimized)",
        len(hits) > 0,
        f"{len(hits)} off-diagonal rows exceed 0.204; best off-diagonal S = "
        f"{max(hits, default=float('nan')):.7f}",
    )


def test_criterion_6_monte_carlo_consistency():
    cfg = canonical_settings(0.0)
    messages = []
    ok = True
    for eta in (1.0, 0.5):
        mc = McConfig(trials=1_000_000, efficiency_a=eta, efficiency_b=eta, seed=606)
        est = estimate_S(simulate_ch_runs(cfg, mc))
        err = abs(est.s_hat - MAX_CH_VIOLATION)
        ok = ok and err < 4.0 * est.stderr
        messages.append(f"eta={eta}: |S_hat - S| = {err:.2e} vs 4*stderr = {4 * est.stderr:.2e}")
    assert _report("criterion 6 (Monte Carlo consistency, N=1e6)", ok, "; ".join(messages))


def test_criterion_7_property_suites():
    rng = np.random.default_rng(707)
    checks = {}

    # arm-norm conservation to 1e-12
    worst = 0.0
    phis = rng.uniform(0.0, TAU, size=128)
    for _ in range(20):
        analyzer = dict(
            chi=rng.uniform(0.0, TAU),
            theta=rng.uniform(0.0, TAU),
            step_index=StepIndex(rng.uniform(0.1, 4.0)),
            aux_phase_1=rng.uniform(0.0, TAU),
            aux_phase_2=rng.uniform(0.0, TAU),
            conjugate_plates=bool(rng.integers(0, 2)),
        )
        for phi in phis:
            a1, a2 = arm_amplitude(phi=phi, **analyzer)
            worst = max(worst, abs(abs(a1) ** 2 + abs(a2) ** 2 - 1.0))
    checks["arm-norm"] = worst <= 1e-12

    # unitarity to 1e-12
    worst = max(
        float(np.max(np.abs(u @ u.conj().T - np.eye(2))))
        for u in (np.array(mz_unitary(*rng.uniform(0.0, TAU, size=3))) for _ in range(50))
    )
    checks["unitarity"] = worst <= 1e-12

    # normalization of lambda to 1e-12
    worst = 0.0
    for _ in range(20):
        s = ExperimentSettings(
            alpha=rng.uniform(0.0, TAU),
            beta=rng.uniform(0.0, TAU),
            theta_a=rng.uniform(0.0, TAU),
            theta_b=rng.uniform(0.0, TAU),
            step_index=StepIndex.half_integer(int(rng.integers(0, 3))),
        )
        lam = normalized_amplitudes(amplitude_matrix(s)).lam
        worst = max(worst, abs(float(np.sum(np.abs(lam) ** 2)) - 1.0))
    checks["lambda-normalization"] = worst <= 1e-12

    # marginal independence of the far splitter angle to 1e-10
    worst = 0.0
    for _ in range(10):
        alpha, beta = rng.uniform(0.0, TAU, size=2)
        fixed = rng.uniform(0.0, TAU)
        rows = []
        cols = []
        for sweep in np.linspace(0.0, TAU, 9):
            pb = amplitude_matrix(
                ExperimentSettings(alpha=alpha, beta=beta, theta_a=fixed, theta_b=sweep, step_index=HALF)
            ).p
            pa = amplitude_matrix(
                ExperimentSettings(alpha=alpha, beta=beta, theta_a=sweep, theta_b=fixed, step_index=HALF)
            ).p
            rows.append(pb[0][0] + pb[0][1])
            cols.append(pa[0][0] + pa[1][0])
        worst = max(worst, float(np.ptp(rows)), float(np.ptp(cols)))
    checks["marginal-invariance"] = worst <= 1e-10

    # joint rotation invariance to 1e-10
    worst = 0.0
    for _ in range(20):
        s = ExperimentSettings(
            alpha=rng.uniform(0.0, TAU),
            beta=rng.uniform(0.0, TAU),
            theta_a=rng.uniform(0.0, TAU),
            theta_b=rng.uniform(0.0, TAU),
            step_index=StepIndex.half_integer(int(rng.integers(0, 3))),
        )
        shift = rng.uniform(-10.0, 10.0)
        shifted = ExperimentSettings(
            alpha=s.alpha + shift, beta=s.beta + shift, theta_a=s.theta_a, theta_b=s.theta_b,
            step_index=s.step_index,
        )
        diff = np.subtract(amplitude_matrix(shifted).p, amplitude_matrix(s).p)
        worst = max(worst, float(np.max(np.abs(diff))))
    checks["rotation-invariance"] = worst <= 1e-10

    # count conservation, exact
    # run 0 is the setting alpha = beta = 0.2, theta_a = theta_b = 0
    settings = ChSettings(0.0, 0.0, 0.0, 0.0, alpha=0.2, beta=0.2, step_index=HALF)
    conserved = True
    for seed in range(5):
        mc = McConfig(trials=10_000, efficiency_a=0.7, efficiency_b=0.9, seed=seed)
        rec = simulate_ch_runs(settings, mc)[0]
        conserved = conserved and sum(map(sum, rec.n)) + rec.no_coincidence == mc.trials
    checks["count-conservation"] = conserved

    # determinism, bit-identical reruns
    mc = McConfig(trials=100_000, seed=123)
    r1 = simulate_ch_runs(settings, mc)[0]
    r2 = simulate_ch_runs(settings, mc)[0]
    e1 = estimate_S(simulate_ch_runs(canonical_settings(0.0), mc))
    e2 = estimate_S(simulate_ch_runs(canonical_settings(0.0), mc))
    checks["determinism"] = (
        r1.n == r2.n
        and r1.no_coincidence == r2.no_coincidence
        and e1.s_hat == e2.s_hat
        and e1.stderr == e2.stderr
    )

    ok = all(checks.values())
    assert _report(
        "criterion 7 (property suites)",
        ok,
        ", ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items()),
    )


def test_criterion_8_grid_ceiling():
    worst = -math.inf
    for alpha in (0.0, 1.9):
        land = ChLandscape.at(alpha, alpha, HALF)
        t = np.linspace(0.0, TAU, 16, endpoint=False).tolist()
        worst = max(worst, *(land.value(*point)[0] for point in itertools.product(t, repeat=4)))
    assert _report(
        "criterion 8 (aligned 16^4 grid ceiling)",
        worst <= MAX_CH_VIOLATION + 1e-6,
        f"max S over grid = {worst:.9f} vs bound {MAX_CH_VIOLATION + 1e-6:.9f}",
    )
