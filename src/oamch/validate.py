"""Analytic-vs-quadrature validation suites.

Each suite compares a closed-form path against its independent numerical
oracle over a fixed-seed random sweep of a fixed size and reports the worst
discrepancy.  The sweeps draw from `random.Random(seed)`, only through its
`random()`, whose stream Python keeps from version to version, and each
sample takes one oracle call: nothing here or in the oracles loads numpy.
Every closed form and oracle is called through this module's global name.
A suite whose oracle finds its integrand not constant between the plate
dislocations (PiecewiseConstantError) fails with an infinite error and
says so in its detail; a NaN discrepancy fails its suite with a NaN error.
The sign suite additionally evaluates the conjugate-phase overlap variant
and passes only if that variant *fails* against the oracle, recording the
adjudication numbers in its detail string.
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
_PAIRS = 500  # the azimuthal and sign suites' samples
_COINCIDENCE_SETTINGS = 200
_CLOSED_FORM_SETTINGS = 500

SuiteResult = namedtuple("SuiteResult", "name passed max_error tolerance detail", defaults=("",))


def _rng(seed: int):
    """`random.Random(seed)`, drawn by `random()` and by `uniform(a, b)`, `a + (b - a) * random()`."""
    import random  # loaded by `validate` alone

    return random.Random(seed)


def _worse(worst: float, error: float) -> float:
    """The larger of two errors, NaN if either is (`max` keeps whichever comes first)."""
    return worst if error <= worst or worst != worst else error


def _fold(name: str, tolerance: float, errors, detail) -> SuiteResult:
    """A suite's result from the generator of its discrepancies.

    The worst discrepancy is NaN if any is, and `detail(worst)` describes
    the sweep.  An oracle that finds its integrand not piecewise constant
    fails the suite with an infinite error.
    """
    worst = 0.0
    try:
        for error in errors:
            worst = _worse(worst, error)
    except PiecewiseConstantError as exc:
        return SuiteResult(name, False, math.inf, tolerance, f"oracle premise broken: {exc}")
    return SuiteResult(name, worst <= tolerance, worst, tolerance, detail(worst))


def _random_half_integer(rng) -> StepIndex:
    return StepIndex.half_integer(int(4 * rng.random()))


def _random_pairs(seed: int):
    rng = _rng(seed)
    for _ in range(_PAIRS):
        mu = rng.uniform(0.0, TAU)
        nu = rng.uniform(0.0, TAU)
        yield mu, nu, _random_half_integer(rng)


def run_azimuthal_suite() -> SuiteResult:
    """Closed-form plate overlap against direct quadrature."""
    errors = (
        abs(overlap_integral(mu, nu, step) - overlap_integral_quadrature(mu, nu, step))
        for mu, nu, step in _random_pairs(_SEED)
    )
    detail = f"{_PAIRS} random orientation pairs, half-integer step indices"
    return _fold("azimuthal", 1e-9, errors, lambda _: detail)


def _coincidence_settings():
    rng = _rng(_SEED + 1)
    for k in range(_COINCIDENCE_SETTINGS):
        aux = tuple(rng.uniform(0.0, TAU) for _ in range(4)) if k % 2 else (0.0, 0.0, 0.0, 0.0)
        yield ExperimentSettings(
            alpha=rng.uniform(0.0, TAU),
            beta=rng.uniform(0.0, TAU),
            theta_a=rng.uniform(0.0, TAU),
            theta_b=rng.uniform(0.0, TAU),
            step_index=_random_half_integer(rng),
            aux_phases=aux,
        )


def run_coincidence_suite() -> SuiteResult:
    """Closed-form coincidence amplitudes against azimuthal quadrature."""

    def errors():
        for s in _coincidence_settings():
            quad = amplitude_matrix_quadrature(s)
            closed = amplitude_matrix(s)
            for c, q in zip(closed.c[0] + closed.c[1], quad.c[0] + quad.c[1]):
                yield abs(c - q)

    detail = f"{_COINCIDENCE_SETTINGS} random settings, auxiliary phases on half of them"
    return _fold("coincidence", 1e-8, errors(), lambda _: detail)


def _closed_form_settings():
    rng = _rng(_SEED + 2)
    for _ in range(_CLOSED_FORM_SETTINGS):
        delta = rng.uniform(-math.pi, math.pi)
        beta = rng.uniform(0.0, TAU)
        yield ExperimentSettings(
            alpha=beta + delta,
            beta=beta,
            theta_a=rng.uniform(0.0, TAU),
            theta_b=rng.uniform(0.0, TAU),
            step_index=StepIndex.half_integer(int(3 * rng.random())),
        )


def run_closed_form_suite() -> SuiteResult:
    """Closed-form probability sums against quadrature p-sums, relative error."""

    def errors():
        for s in _closed_form_settings():
            (p11, p12), (p21, p22) = amplitude_matrix_quadrature(s).p
            closed = closed_form_probabilities(s.delta(), s.theta_a, s.theta_b)
            quad = (p11, p11 + p12, p11 + p21, p11 + p12 + p21 + p22)
            for c, q in zip(closed, quad):
                yield abs(c - q) / max(abs(q), 1e-9 * quad[3])

    detail = f"{_CLOSED_FORM_SETTINGS} random (delta, theta_a, theta_b) triples, l in 0..2"
    return _fold("appendix-a", 1e-8, errors(), lambda _: detail)


def run_sign_suite() -> SuiteResult:
    """Adjudicate the overlap phase sign against the quadrature oracle.

    Passes only if the primary closed form agrees with quadrature AND the
    conjugate-phase variant disagrees badly, proving the oracle would catch
    a flipped sign.
    """
    flipped = [0.0]  # the conjugate-phase variant's worst error

    def errors():
        for mu, nu, step in _random_pairs(_SEED + 3):
            oracle = overlap_integral_quadrature(mu, nu, step)
            flipped[0] = _worse(flipped[0], abs(overlap_integral_opposite_phase(mu, nu, step) - oracle))
            yield abs(overlap_integral(mu, nu, step) - oracle)

    def detail(worst):
        return (f"primary-sign max error {worst:.3e}; "
                f"conjugate-phase variant max error {flipped[0]:.3e} (must be large)")

    result = _fold("sign-check", 1e-9, errors(), detail)
    return result._replace(passed=result.passed and flipped[0] > 1e-3)


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
