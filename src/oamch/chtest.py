"""Clauser-Horne probabilities and the CH parameter S.

The CH combination used here is built from unnormalized coincidence
probabilities, so detector losses divide out of the ratio and no fair
sampling assumption is needed:

    S = [P(ta, tb) - P(ta, tb') + P(ta', tb) + P(ta', tb')
         - P(ta', inf) - P(inf, tb)] / P(inf, inf),

where P(x, inf) = p11 + p12, P(inf, y) = p11 + p21 and P(inf, inf) is the
sum of all four p_ij (independent of both splitter angles).  Note which
marginals enter: the primed a-side angle and the unprimed b-side angle.
Any objective local theory requires S <= 0; with aligned plates the
canonical splitter angles below reach S = (sqrt(2) - 1) / 2 for every
orientation.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .azimuthal import StepIndex, wrap_angle
from .coincidence import ExperimentSettings, amplitude_matrix

CANONICAL_THETAS = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)
MAX_CH_VIOLATION = (math.sqrt(2.0) - 1.0) / 2.0


class ChSettings(namedtuple("ChSettings", "theta_a theta_a_prime theta_b theta_b_prime alpha beta "
                                           "step_index")):
    """One CH experiment: two splitter angles per side plus fixed plates."""

    __slots__ = ()

    def __new__(cls, theta_a: float, theta_a_prime: float, theta_b: float, theta_b_prime: float,
                alpha: float, beta: float, step_index: StepIndex):
        thetas = (theta_a, theta_a_prime, theta_b, theta_b_prime)
        for name, theta in zip(cls._fields, thetas):  # the first four fields
            if not math.isfinite(theta):
                raise ValueError(f"{name} must be finite")
        return tuple.__new__(cls, (*thetas, wrap_angle(alpha), wrap_angle(beta), step_index))

    def runs(self) -> tuple[ExperimentSettings, ...]:
        """The settings of the four runs, in protocol order: ab, ab', a'b, a'b'."""
        return tuple(
            ExperimentSettings(alpha=self.alpha, beta=self.beta, theta_a=ta, theta_b=tb,
                               step_index=self.step_index)
            for ta in (self.theta_a, self.theta_a_prime)
            for tb in (self.theta_b, self.theta_b_prime)
        )


class ChResult(namedtuple("ChResult", "s p_joint p_marg_a p_marg_b p_total")):
    """The six CH probabilities and the parameter S they combine into."""

    __slots__ = ()

    def __new__(cls, s: float, p_joint: tuple[float, ...], p_marg_a: float, p_marg_b: float,
                p_total: float):
        if not p_total > 0.0:
            raise ValueError("total coincidence probability must be positive")
        if any(p < 0.0 for p in (*p_joint, p_marg_a, p_marg_b)):
            raise ValueError("probabilities must be nonnegative")
        return tuple.__new__(cls, (s, p_joint, p_marg_a, p_marg_b, p_total))


def ch_from_probabilities(
    p_ab: float,
    p_ab_prime: float,
    p_a_prime_b: float,
    p_a_prime_b_prime: float,
    p_marg_a_prime: float,
    p_marg_b: float,
    p_total: float,
) -> float:
    """The CH combination; invariant under a common rescaling of all terms."""
    return (
        p_ab - p_ab_prime + p_a_prime_b + p_a_prime_b_prime - p_marg_a_prime - p_marg_b
    ) / p_total


def ch_parameter(cfg: ChSettings, amplitude_fn=amplitude_matrix) -> ChResult:
    """Evaluate the six CH probabilities and S for one experiment.

    `amplitude_fn` selects the closed-form path (default) or the quadrature
    oracle; the two must agree.  It is called once, on the four settings of
    the protocol, which share plates and step index.
    """
    mats = amplitude_fn(cfg.runs())
    p = [m.p for m in mats]
    p_joint = tuple(float(pm[0][0]) for pm in p)
    p_marg_a = float(p[2][0][0] + p[2][0][1])  # theta_a' run; independent of theta_b
    p_marg_b = float(p[0][0][0] + p[0][1][0])  # theta_b run; independent of theta_a
    p_total = mats[0].p_total
    s = ch_from_probabilities(*p_joint, p_marg_a, p_marg_b, p_total)
    return ChResult(s=s, p_joint=p_joint, p_marg_a=p_marg_a, p_marg_b=p_marg_b, p_total=p_total)


def canonical_settings(alpha: float, step_index: StepIndex = StepIndex(0.5)) -> ChSettings:
    """Aligned-plate experiment at the maximally violating splitter angles."""
    return ChSettings(*CANONICAL_THETAS, alpha=alpha, beta=alpha, step_index=step_index)


def ch_violated(result: ChResult) -> tuple[bool, float]:
    """(violated, margin): local realism is violated iff S > 0; margin is S."""
    return result.s > 0.0, result.s
