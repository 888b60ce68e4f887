"""Finite-statistics simulation of CH counting runs.

Each run repeats one (theta_a-choice, theta_b-choice) setting for a fixed
number of trials.  A trial yields one of five outcomes: a coincidence in arm
pair (i, j) with probability eta_a * eta_b * p_ij / p_total, or no
coincidence with probability 1 - eta_a * eta_b (uniform per-arm detection
efficiencies, applied as a single thinning of coincidences; a uniform
efficiency cancels in the CH ratio, which is the point of using
unnormalized probabilities).  Counts are drawn as one multinomial per run,
which is distribution-identical to independent per-trial draws and
bit-reproducible for a given seed.

The draw is numpy's: `_pcg64.multinomial` computes, with Python ints and
floats, the counts `numpy.random.default_rng([seed, stream]).multinomial`
gives, so this module never imports numpy.  Counts and frequencies are 2x2
nested tuples, and `estimate_S` is plain float arithmetic, summed in numpy's
order.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .chtest import ChSettings, ch_from_probabilities
from .coincidence import amplitude_matrix

RNG_ALGORITHM = "numpy.random.Generator(PCG64) seeded with SeedSequence([seed, run_index])"

RUN_LABELS = ("ab", "ab'", "a'b", "a'b'")


class InsufficientStatisticsError(ValueError):
    """No coincidences observed across the pooled runs; S is undefined."""


class McConfig(namedtuple("McConfig", "trials efficiency_a efficiency_b seed")):
    """Trial count, per-arm detection efficiencies, and the RNG seed."""

    __slots__ = ()

    def __new__(cls, trials: int, efficiency_a: float = 1.0, efficiency_b: float = 1.0,
                seed: int = 0):
        # the sampler runs numpy's int64 arithmetic on the trial count
        if not 1 <= trials < 2**63 or int(trials) != trials:
            raise ValueError(f"trials must be an integer in [1, 2**63), got {trials!r}")
        for name, eta in (("efficiency_a", efficiency_a), ("efficiency_b", efficiency_b)):
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {eta!r}")
        if not 0 <= seed < 2**64 or int(seed) != seed:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        return tuple.__new__(cls, (int(trials), efficiency_a, efficiency_b, int(seed)))


def _whole(value, name: str) -> int:
    """`value` as an int, or a ValueError unless it is a nonnegative integer."""
    if not 0 <= value < math.inf or int(value) != value:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return int(value)


class CountRecord(namedtuple("CountRecord", "setting_label n trials no_coincidence")):
    """Coincidence counts N_ij for one run, plus the no-coincidence count."""

    __slots__ = ()

    def __new__(cls, setting_label: str, n, trials: int, no_coincidence: int):
        try:
            n = tuple(tuple(row) for row in n)
        except TypeError:
            n = ()
        if len(n) != 2 or any(len(row) != 2 for row in n):
            raise ValueError("n must be a 2x2 matrix of nonnegative counts")
        n = tuple(tuple(_whole(count, "each count in n") for count in row) for row in n)
        no_coincidence = _whole(no_coincidence, "no_coincidence")
        trials = _whole(trials, "trials")
        if n[0][0] + n[0][1] + n[1][0] + n[1][1] + no_coincidence != trials:
            raise ValueError("counts plus no-coincidence outcomes must equal trials")
        return tuple.__new__(cls, (setting_label, n, trials, no_coincidence))


class ChEstimate(namedtuple("ChEstimate", "s_hat stderr terms")):
    """Estimated CH parameter with a first-order delta-method standard error."""

    __slots__ = ()

    def __new__(cls, s_hat: float, stderr: float, terms: dict[str, float]):
        if not stderr >= 0.0:
            raise ValueError("stderr must be nonnegative")
        return tuple.__new__(cls, (s_hat, stderr, terms))


def _add_up(values) -> float:
    """The values summed left to right, as numpy sums fewer than eight.

    Not `sum`: on Python 3.12+ it compensates float rounding.
    """
    total = values[0]
    for value in values[1:]:
        total += value
    return total


def _outcome_probabilities(p, eta: float) -> list[float]:
    """The five outcome probabilities of a trial: (1,1), (1,2), (2,1), (2,2), none.

    `p` is the 2x2 matrix of unnormalized p_ij and `eta` the product of the
    two efficiencies; every sum runs left to right, as numpy summed these.
    """
    (p11, p12), (p21, p22) = p
    total = _add_up((p11, p12, p21, p22))
    coinc = [eta * (x / total) for x in (p11, p12, p21, p22)]
    probs = [*coinc, max(0.0, 1.0 - _add_up(coinc))]
    norm = _add_up(probs)
    return [x / norm for x in probs]


def simulate_ch_runs(cfg: ChSettings, mc: McConfig) -> list[CountRecord]:
    """The four CH setting runs, in protocol order; run k draws from sub-stream k.

    Each run takes its amplitudes from one `amplitude_matrix` call on its
    setting and is one multinomial draw over its five outcomes,
    deterministic for a given (seed, stream).
    """
    from ._pcg64 import multinomial  # loaded by `mc` alone

    eta = mc.efficiency_a * mc.efficiency_b
    runs = []
    for stream, (label, m) in enumerate(zip(RUN_LABELS, map(amplitude_matrix, cfg.runs()))):
        counts = multinomial((mc.seed, stream), mc.trials, _outcome_probabilities(m.p, eta))
        runs.append(CountRecord(label, (counts[0:2], counts[2:4]), mc.trials, counts[4]))
    return runs


def frequency(rec: CountRecord) -> tuple:
    """Coincidence frequencies F_ij = N_ij / trials, as 2x2 nested tuples."""
    if rec.trials < 1:
        raise ValueError("frequencies require at least one trial")
    trials = float(rec.trials)  # above 2**53 an int / int quotient rounds differently
    return tuple(tuple(float(count) / trials for count in row) for row in rec.n)


# Weight of each run's count cells (n11, n12, n21, n22) in the CH numerator:
# joint terms use the matching run's (1,1) cell; the a'-marginal pools runs
# 3 and 4, the b-marginal pools runs 1 and 3.
_NUMERATOR_WEIGHTS = (
    (0.5, 0.0, -0.5, 0.0),
    (-1.0, 0.0, 0.0, 0.0),
    (0.0, -0.5, -0.5, 0.0),
    (0.5, -0.5, 0.0, 0.0),
)


def estimate_S(runs: list[CountRecord]) -> ChEstimate:
    """Estimate S from the four CH runs (protocol order: ab, ab', a'b, a'b').

    Joint terms come from the matching run, marginals are pooled over the
    runs sharing that angle, and the total pools all four.  The standard
    error propagates each run's multinomial covariance through the ratio to
    first order.
    """
    if len(runs) != 4:
        raise ValueError(f"expected the four CH runs, got {len(runs)}")
    trials = runs[0].trials
    if any(r.trials != trials for r in runs):
        raise ValueError("all four runs must share the same trial count")
    coincidences = sum(sum(row) for r in runs for row in r.n)
    if coincidences == 0:
        raise InsufficientStatisticsError("no coincidences in any run; cannot estimate S")

    f = [frequency(r) for r in runs]
    terms = {
        "p_ab": f[0][0][0],
        "p_ab_prime": f[1][0][0],
        "p_a_prime_b": f[2][0][0],
        "p_a_prime_b_prime": f[3][0][0],
        "p_a_prime_inf": (f[2][0][0] + f[2][0][1] + f[3][0][0] + f[3][0][1]) / 2.0,
        "p_inf_b": (f[0][0][0] + f[0][1][0] + f[2][0][0] + f[2][1][0]) / 2.0,
        "p_inf_inf": _add_up([_add_up(fr[0] + fr[1]) for fr in f]) / 4.0,
    }
    s_hat = ch_from_probabilities(
        terms["p_ab"],
        terms["p_ab_prime"],
        terms["p_a_prime_b"],
        terms["p_a_prime_b_prime"],
        terms["p_a_prime_inf"],
        terms["p_inf_b"],
        terms["p_inf_inf"],
    )

    # S = (w.n)/(v.n) with v = 1/4 on every coincidence cell, so
    # dS/dn_c = (w_c - S/4)/(v.n); per-run multinomial covariance then gives
    # Var(S) = sum_runs N*(E[u^2] - E[u]^2) / (v.n)^2 with u = w - S/4.
    pooled = coincidences / 4.0
    var = 0.0
    for w, rec in zip(_NUMERATOR_WEIGHTS, runs):
        u = [wc - s_hat / 4.0 for wc in w] + [0.0]
        cells = (*rec.n[0], *rec.n[1], rec.no_coincidence)
        phat = [float(count) / float(trials) for count in cells]
        e2 = _add_up([ui * ui * pi for ui, pi in zip(u, phat)])
        e1 = _add_up([ui * pi for ui, pi in zip(u, phat)])
        var += trials * (e2 - e1 ** 2)
    stderr = math.sqrt(max(0.0, var)) / pooled
    return ChEstimate(s_hat=s_hat, stderr=stderr, terms=terms)
