"""Analytic-vs-quadrature validation suites.

Each suite compares a closed-form path against its independent numerical
oracle over a fixed-seed random sweep and reports the worst discrepancy.
The sweeps are the draws of `numpy.random.default_rng(seed)`, bit for bit,
computed by `_pcg64` so that `numpy.random` never loads.  The sign suite
additionally evaluates the conjugate-phase overlap variant and passes only
if that variant *fails* against the oracle, recording the adjudication
numbers in its detail string.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import attrgetter, itemgetter

from .azimuthal import (
    TAU,
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

# Samples per oracle call.  Blocks fill as the samples are drawn and are
# evaluated when full, so a suite holds at most one block per step index.
# Compared with one oracle call per sample, 8-sample blocks cut the CPU
# time of the four suites from 0.43 to 0.15 s and raise their peak memory
# by 0.1 MB; 16-sample ones raise it by 0.5 MB and buy no measurable time,
# and one call for a whole suite raises it by about 8.4 MB (Python 3.11,
# numpy 2.4, medians of 7 runs on one core of a shared 2-core x86-64 host).
ORACLE_BLOCK = 8


SuiteResult = namedtuple("SuiteResult", "name passed max_error tolerance detail", defaults=("",))


def _rng(seed: int):
    """`numpy.random.default_rng(seed)`'s draws, without numpy.random."""
    from ._pcg64 import Generator, pcg64  # loaded by `mc` and `validate` alone

    return Generator(pcg64((seed,)))


def _random_half_integer(rng) -> StepIndex:
    return StepIndex.half_integer(rng.integers(0, 4))


def _with_oracle(samples, step_of, oracle):
    """Yield (sample, oracle value) for every sample, in blocks.

    Samples that share a step index collect in a block of up to
    ORACLE_BLOCK; `oracle(block)` returns one value per sample of a block.
    The worst errors the suites take are independent of the order in which
    samples come back.
    """
    pending: dict[StepIndex, list] = {}
    for sample in samples:
        block = pending.setdefault(step_of(sample), [])
        block.append(sample)
        if len(block) == ORACLE_BLOCK:
            yield from zip(block, oracle(block))
            block.clear()
    for block in pending.values():
        if block:
            yield from zip(block, oracle(block))


def _random_pairs(seed: int, samples: int):
    rng = _rng(seed)
    for _ in range(samples):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        yield mu, nu, _random_half_integer(rng)


def _overlap_oracle(block) -> list[complex]:
    mu, nu, _ = zip(*block)
    return overlap_integral_quadrature(mu, nu, block[0][2])


def run_azimuthal_suite(
    samples: int = 500, tolerance: float = 1e-9, closed_form=overlap_integral
) -> SuiteResult:
    """Closed-form plate overlap against direct quadrature."""
    worst = 0.0
    pairs = _random_pairs(_SEED, samples)
    for (mu, nu, step), oracle in _with_oracle(pairs, itemgetter(2), _overlap_oracle):
        worst = max(worst, abs(closed_form(mu, nu, step) - oracle))
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
    settings = _coincidence_settings(samples)
    for s, quad in _with_oracle(settings, attrgetter("step_index"), amplitude_matrix_quadrature):
        closed = amplitude_matrix(s, overlap=overlap)
        worst = max(worst, *(abs(c - q) for row in zip(closed.c, quad.c) for c, q in zip(*row)))
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
    settings = _closed_form_settings(samples)
    for s, m in _with_oracle(settings, attrgetter("step_index"), amplitude_matrix_quadrature):
        closed = closed_form_probabilities(s.delta(), s.theta_a, s.theta_b)
        (p11, p12), (p21, _) = m.p
        quad = (p11, p11 + p12, p11 + p21, m.p_total)
        scale = quad[3]
        for c, q in zip(closed, quad):
            worst = max(worst, abs(c - q) / max(abs(q), 1e-9 * scale))
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
    pairs = _random_pairs(_SEED + 3, samples)
    for (mu, nu, step), oracle in _with_oracle(pairs, itemgetter(2), _overlap_oracle):
        worst_primary = max(worst_primary, abs(closed_form(mu, nu, step) - oracle))
        worst_flipped = max(
            worst_flipped, abs(overlap_integral_opposite_phase(mu, nu, step) - oracle)
        )
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
