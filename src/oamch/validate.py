"""Analytic-vs-quadrature validation suites.

Each suite compares a closed-form path against its independent numerical
oracle over a fixed-seed random sweep and reports the worst discrepancy.
The sweeps are the draws of `numpy.random.default_rng(seed)`, bit for bit,
computed by `_pcg64`, and each sample takes one oracle call: nothing here
or in the oracles loads numpy.  A suite whose oracle finds its integrand
not constant between the plate dislocations (PiecewiseConstantError) fails
with an infinite error and says so in its detail.  The sign suite
additionally evaluates the conjugate-phase overlap variant and passes only
if that variant *fails* against the oracle, recording the adjudication
numbers in its detail string.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .azimuthal import (
    TAU,
    PiecewiseConstantError,
    StepIndex,
    overlap_integral,
    overlap_integral_opposite_phase,
    overlap_integral_quadrature,
)
from .coincidence import (
    ExperimentSettings,
    amplitude_matrix,
    amplitude_matrix_quadrature,
    closed_form_probabilities,
)

SUITE_NAMES = ("azimuthal", "coincidence", "appendix-a", "sign-check")

_SEED = 20240913

SuiteResult = namedtuple("SuiteResult", "name passed max_error tolerance detail", defaults=("",))


def _rng(seed: int):
    """`numpy.random.default_rng(seed)`'s draws, without numpy."""
    from ._pcg64 import Generator, pcg64  # loaded by `mc` and `validate` alone

    return Generator(pcg64((seed,)))


def _broken_premise(name: str, tolerance: float, exc: PiecewiseConstantError) -> SuiteResult:
    """The failed result of a suite whose oracle found its integrand not piecewise constant."""
    return SuiteResult(name, False, math.inf, tolerance, f"oracle premise broken: {exc}")


def _random_half_integer(rng) -> StepIndex:
    return StepIndex.half_integer(rng.integers(0, 4))


def _random_pairs(seed: int, samples: int):
    rng = _rng(seed)
    for _ in range(samples):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        yield mu, nu, _random_half_integer(rng)


def run_azimuthal_suite(
    samples: int = 500, tolerance: float = 1e-9, closed_form=overlap_integral
) -> SuiteResult:
    """Closed-form plate overlap against direct quadrature."""
    worst = 0.0
    try:
        for mu, nu, step in _random_pairs(_SEED, samples):
            oracle = overlap_integral_quadrature(mu, nu, step)
            worst = max(worst, abs(closed_form(mu, nu, step) - oracle))
    except PiecewiseConstantError as exc:
        return _broken_premise("azimuthal", tolerance, exc)
    return SuiteResult(
        name="azimuthal",
        passed=worst <= tolerance,
        max_error=worst,
        tolerance=tolerance,
        detail=f"{samples} random orientation pairs, half-integer step indices",
    )


def _coincidence_settings(samples: int):
    rng = _rng(_SEED + 1)
    for k in range(samples):
        aux = tuple(rng.uniform(0.0, TAU, size=4)) if k % 2 else (0.0, 0.0, 0.0, 0.0)
        yield ExperimentSettings(
            alpha=rng.uniform(0.0, TAU),
            beta=rng.uniform(0.0, TAU),
            theta_a=rng.uniform(0.0, TAU),
            theta_b=rng.uniform(0.0, TAU),
            step_index=_random_half_integer(rng),
            aux_phases=aux,
        )


def run_coincidence_suite(
    samples: int = 200, tolerance: float = 1e-8, overlap=overlap_integral
) -> SuiteResult:
    """Closed-form coincidence amplitudes against azimuthal quadrature."""
    worst = 0.0
    try:
        for s in _coincidence_settings(samples):
            quad = amplitude_matrix_quadrature(s)
            closed = amplitude_matrix(s, overlap=overlap)
            worst = max(worst, *(abs(c - q) for row in zip(closed.c, quad.c) for c, q in zip(*row)))
    except PiecewiseConstantError as exc:
        return _broken_premise("coincidence", tolerance, exc)
    return SuiteResult(
        name="coincidence",
        passed=worst <= tolerance,
        max_error=worst,
        tolerance=tolerance,
        detail=f"{samples} random settings, auxiliary phases on half of them",
    )


def _closed_form_settings(samples: int):
    rng = _rng(_SEED + 2)
    for _ in range(samples):
        delta = rng.uniform(-math.pi, math.pi)
        beta = rng.uniform(0.0, TAU)
        yield ExperimentSettings(
            alpha=beta + delta,
            beta=beta,
            theta_a=rng.uniform(0.0, TAU),
            theta_b=rng.uniform(0.0, TAU),
            step_index=StepIndex.half_integer(rng.integers(0, 3)),
        )


def run_closed_form_suite(samples: int = 500, tolerance: float = 1e-8) -> SuiteResult:
    """Closed-form probability sums against quadrature p-sums, relative error."""
    worst = 0.0
    try:
        for s in _closed_form_settings(samples):
            m = amplitude_matrix_quadrature(s)
            closed = closed_form_probabilities(s.delta(), s.theta_a, s.theta_b)
            (p11, p12), (p21, _) = m.p
            quad = (p11, p11 + p12, p11 + p21, m.p_total)
            scale = quad[3]
            for c, q in zip(closed, quad):
                worst = max(worst, abs(c - q) / max(abs(q), 1e-9 * scale))
    except PiecewiseConstantError as exc:
        return _broken_premise("appendix-a", tolerance, exc)
    return SuiteResult(
        name="appendix-a",
        passed=worst <= tolerance,
        max_error=worst,
        tolerance=tolerance,
        detail=f"{samples} random (delta, theta_a, theta_b) triples, l in 0..2",
    )


def run_sign_suite(
    samples: int = 500, tolerance: float = 1e-9, closed_form=overlap_integral
) -> SuiteResult:
    """Adjudicate the overlap phase sign against the quadrature oracle.

    Passes only if the primary closed form agrees with quadrature AND the
    conjugate-phase variant disagrees badly, proving the oracle would catch
    a flipped sign.
    """
    worst_primary = 0.0
    worst_flipped = 0.0
    try:
        for mu, nu, step in _random_pairs(_SEED + 3, samples):
            oracle = overlap_integral_quadrature(mu, nu, step)
            worst_primary = max(worst_primary, abs(closed_form(mu, nu, step) - oracle))
            worst_flipped = max(
                worst_flipped, abs(overlap_integral_opposite_phase(mu, nu, step) - oracle)
            )
    except PiecewiseConstantError as exc:
        return _broken_premise("sign-check", tolerance, exc)
    passed = worst_primary <= tolerance and worst_flipped > 1e-3
    return SuiteResult(
        name="sign-check",
        passed=passed,
        max_error=worst_primary,
        tolerance=tolerance,
        detail=(
            f"primary-sign max error {worst_primary:.3e}; "
            f"conjugate-phase variant max error {worst_flipped:.3e} (must be large)"
        ),
    )


def select_suites(names=None) -> tuple[str, ...]:
    """The named suites (all of them by default), in canonical order.

    Raises ValueError for an unknown name and for an empty selection: a
    validation that checks nothing must not report success.
    """
    if names is None:
        return SUITE_NAMES
    selected = tuple(names)
    unknown = [n for n in selected if n not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; available: {', '.join(SUITE_NAMES)}")
    if not selected:
        raise ValueError(f"no suite selected; available: {', '.join(SUITE_NAMES)}")
    return tuple(n for n in SUITE_NAMES if n in selected)


def run_suites(names=None) -> list[SuiteResult]:
    """Run the named suites (all of them by default), in canonical order."""
    runners = {
        "azimuthal": run_azimuthal_suite,
        "coincidence": run_coincidence_suite,
        "appendix-a": run_closed_form_suite,
        "sign-check": run_sign_suite,
    }
    return [runners[name]() for name in select_suites(names)]
