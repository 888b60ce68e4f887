"""The spiral-plate Mach-Zehnder analyzers and their two-photon coincidences.

Each photon's analyzer holds one plate per internal arm, the second fixed a
half-turn from the first, followed by a variable output splitter with
transmission cos(theta) and reflection i*sin(theta), at an angle of its own.
Its arm amplitudes (A_1, A_2) at azimuth phi (`arm_amplitude`) are the
splitter matrix (`mz_unitary`, optionally carrying one azimuth-independent
phase per arm) acting on the plate-phase vector
(e^{i f(chi, phi)}, e^{i f(chi+pi, phi)})/sqrt(2).  The complementary plates
used on the second photon imprint the negated azimuthal phase, so there the
exponents are conjugated.

The joint amplitude for the photon pair landing in output arms (i, j) is

    C_ij = sigma_ij * integral_0^{2 pi} A_i(phi) B_j(phi) dphi,

where A and B are the two analyzers' arm amplitudes and sigma_ij carries the
residual factors of i from the input splitters and mirrors.  Expanding the
product leaves everything in terms of the four pairwise plate overlaps
K[k, m] = I(alpha_k, beta_m, L) contracted with the two splitter matrices:

    C = sigma * (Ua @ K @ Ub^T) / 2.

Only two of the overlaps differ, K = [[k, q], [q, k]].  The closed form
and its quadrature oracle each take one setting and work on 2x2 nested
tuples with `math`/`cmath` alone.  The oracle shares no code with the
closed-form overlap path: it writes the plate phase profile out itself, with
`spp_profile`'s float operations, and a test holds it to their bits.

All probabilities are reported without the constant radial mode integral,
which is independent of every knob; only ratios of these quantities are
physically meaningful.

For half-integer step index, zero auxiliary phases, and plate misalignment
delta = alpha - beta wrapped into [-pi, pi], the four unnormalized
probability sums also have closed forms (`closed_form_probabilities`) in
delta and the splitter angles alone.

The CH parameter S of four runs (`ChSettings`, `ch_parameter`) is built from
unnormalized coincidence probabilities, so detector losses divide out of the
ratio and no fair sampling assumption is needed:

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

import cmath
import math
from collections import namedtuple

from .azimuthal import (
    TAU,
    StepIndex,
    check_node_values,
    gauss_segments,
    overlap_integral,
    spp_phase,
    wrap_angle,
    wrap_signed,
)

_PI = math.pi
_SQRT2 = math.sqrt(2.0)

# Per-channel-pair factors from the input splitters and mirrors:
# sigma_11 = 1, sigma_12 = sigma_21 = i, sigma_22 = -1.
SIGMA = ((1.0, 1.0j), (1.0j, -1.0))


def mz_unitary(theta: float, aux_phase_1: float = 0.0, aux_phase_2: float = 0.0):
    """Output-splitter transfer matrix with per-arm azimuth-independent phases.

    A 2x2 nested tuple of complex entries (rows first).  Reduces to the real
    rotation ((cos, -sin), (sin, cos)) when both phases vanish.
    """
    c, s = math.cos(theta), math.sin(theta)
    p1 = cmath.exp(1j * aux_phase_1)
    p2 = cmath.exp(1j * aux_phase_2)
    return ((p1 * c, -p2 * s), (p1 * s, p2 * c))


def arm_amplitude(chi: float, theta: float, aux_phase_1: float, aux_phase_2: float, phi: float,
                  step_index: StepIndex, conjugate_plates: bool = False) -> tuple[complex, complex]:
    """Azimuthal amplitudes (A1, A2) in output arms 1 and 2 of one analyzer at azimuth phi.

    The first plate sits at chi and the second at chi + pi; theta is the
    output-splitter angle and aux_phase_1, aux_phase_2 the per-arm phases;
    conjugate_plates selects the complementary plates (negated azimuthal
    phase) used on the second photon.  Both arms come from one evaluation of
    the two plate phases and always satisfy |A1|^2 + |A2|^2 = 1: a unitary
    applied to a unit-norm vector.
    """
    e1 = spp_phase(chi, phi, step_index, conjugate_plates)
    e2 = spp_phase(chi + math.pi, phi, step_index, conjugate_plates)
    (u11, u12), (u21, u22) = mz_unitary(theta, aux_phase_1, aux_phase_2)
    return (u11 * e1 + u12 * e2) / _SQRT2, (u21 * e1 + u22 * e2) / _SQRT2


class DegenerateStateError(ValueError):
    """All four coincidence amplitudes vanish; nothing to normalize."""


class ExperimentSettings(
    namedtuple("ExperimentSettings", "alpha beta theta_a theta_b step_index aux_phases")
):
    """One full apparatus configuration.

    alpha orients the plate pair on photon a, beta the complementary pair on
    photon b; theta_a and theta_b are the output-splitter angles; aux_phases
    holds the four azimuth-independent arm phases (a1, a2, b1, b2).
    """

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, theta_a: float, theta_b: float,
                step_index: StepIndex, aux_phases: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0)):
        angles = tuple(wrap_angle(a) for a in (alpha, beta, theta_a, theta_b))
        phases = tuple(float(p) for p in aux_phases)
        if len(phases) != 4 or not all(math.isfinite(p) for p in phases):
            raise ValueError("aux_phases must be four finite phases (a1, a2, b1, b2)")
        return tuple.__new__(cls, (*angles, step_index, phases))

    def delta(self) -> float:
        """Plate misalignment alpha - beta wrapped into (-pi, pi]."""
        return wrap_signed(self.alpha - self.beta)

    @property
    def has_aux_phases(self) -> bool:
        return any(p != 0.0 for p in self.aux_phases)


def _squared_moduli(c):
    """|z|^2 of every entry of a 2x2 nested sequence, as nested tuples."""
    return tuple(tuple(abs(z) * abs(z) for z in row) for row in c)


class AmplitudeMatrix(namedtuple("AmplitudeMatrix", "c")):
    """The four complex coincidence amplitudes C_ij of one setting.

    c is a 2x2 nested tuple of complex, rows first, from the closed form
    and the quadrature oracle alike.
    """

    __slots__ = ()

    @property
    def p(self) -> tuple:
        """Unnormalized probabilities p_ij = |C_ij|^2."""
        return _squared_moduli(self.c)

    @property
    def p_total(self) -> float:
        (p11, p12), (p21, p22) = self.p
        return p11 + p12 + p21 + p22


class NormalizedState(namedtuple("NormalizedState", "lam")):
    """Normalized two-photon amplitudes lambda_ij, sum |lambda_ij|^2 = 1."""

    __slots__ = ()

    @property
    def p(self) -> tuple:
        """|lambda_ij|^2."""
        return _squared_moduli(self.lam)


def plate_overlap_matrix(settings: ExperimentSettings):
    """K[k][m] = overlap of a-side plate k against b-side plate m.

    The overlap depends only on the relative orientation of the two plates,
    so turning both a half-turn changes nothing: K = ((k, q), (q, k)) with
    k = I(alpha, beta) and q = I(alpha, beta + pi), two overlaps for all four.
    """
    k = overlap_integral(settings.alpha, settings.beta, settings.step_index)
    q = overlap_integral(settings.alpha, wrap_angle(settings.beta + _PI), settings.step_index)
    return ((k, q), (q, k))


def _matmul(a, b):
    """Product of two 2x2 nested sequences."""
    return tuple(tuple(row[0] * b[0][j] + row[1] * b[1][j] for j in (0, 1)) for row in a)


def amplitude_matrix(settings: ExperimentSettings) -> AmplitudeMatrix:
    """Coincidence amplitudes of one setting via the closed-form plate overlaps."""
    a1, a2, b1, b2 = settings.aux_phases
    ua = mz_unitary(settings.theta_a, a1, a2)
    ub = mz_unitary(settings.theta_b, b1, b2)
    k = plate_overlap_matrix(settings)
    g = _matmul(_matmul(ua, k), tuple(zip(*ub)))  # ua @ k @ ub^T
    c = tuple(
        tuple(0.5 * sigma * x for sigma, x in zip(s_row, g_row)) for s_row, g_row in zip(SIGMA, g)
    )
    return AmplitudeMatrix(c=c)


def amplitude_matrix_quadrature(settings: ExperimentSettings) -> AmplitudeMatrix:
    """Numerical oracle for `amplitude_matrix`, one setting per call.

    Integrates the arm-amplitude products A_i B_j over azimuth from the four
    plate phases at each node and the splitter rows, which do not vary with
    azimuth; shares no code with the closed-form overlap path.  Each plate
    phase is `spp_phase`'s cos f + i*sin f (conjugated on photon b) of
    `spp_profile`'s expression, written out with the same float operations:
    the nodes lie strictly inside (0, 2*pi), where wrapping leaves them
    unchanged.  The products are constant between the plate dislocations,
    so the 2-point rule of each segment is exact up to rounding, as
    `check_node_values` verifies.
    """
    s, step = settings, settings.step_index
    (a11, a12), (a21, a22) = mz_unitary(s.theta_a, *s.aux_phases[:2])
    (b11, b12), (b21, b22) = mz_unitary(s.theta_b, *s.aux_phases[2:])
    p1, p2, p3, p4 = plates = (
        wrap_angle(s.alpha), wrap_angle(s.alpha + _PI), wrap_angle(s.beta), wrap_angle(s.beta + _PI)
    )
    ell = step.value
    jump = TAU * ell
    cos, sin = math.cos, math.sin
    g11 = g12 = g21 = g22 = 0j  # the integrals of A1 B1, A1 B2, A2 B1, A2 B2
    for h, x1, x2 in gauss_segments(plates):
        nodes = []
        for x in (x1, x2):
            # `spp_profile` of each plate; photon b's plates are complementary: conjugated phases
            f1 = ell * (x - p1) + (jump if x < p1 else 0.0)
            f2 = ell * (x - p2) + (jump if x < p2 else 0.0)
            f3 = ell * (x - p3) + (jump if x < p3 else 0.0)
            f4 = ell * (x - p4) + (jump if x < p4 else 0.0)
            e1, e2 = complex(cos(f1), sin(f1)), complex(cos(f2), sin(f2))
            e3, e4 = complex(cos(f3), -sin(f3)), complex(cos(f4), -sin(f4))
            b1, b2 = b11 * e3 + b12 * e4, b21 * e3 + b22 * e4
            a1, a2 = 0.5 * (a11 * e1 + a12 * e2), 0.5 * (a21 * e1 + a22 * e2)
            nodes.append((a1 * b1, a1 * b2, a2 * b1, a2 * b2))
        check_node_values(*nodes, step, x1, x2)
        (v11, v12, v21, v22), (w11, w12, w21, w22) = nodes
        g11, g12 = g11 + h * (v11 + w11), g12 + h * (v12 + w12)
        g21, g22 = g21 + h * (v21 + w21), g22 + h * (v22 + w22)
    (s11, s12), (s21, s22) = SIGMA
    return AmplitudeMatrix(c=((s11 * g11, s12 * g12), (s21 * g21, s22 * g22)))


def normalized_amplitudes(m: AmplitudeMatrix) -> NormalizedState:
    """lambda_ij = C_ij / sqrt(sum |C_kl|^2).

    Scaling every C_ij by a positive constant leaves the result unchanged.
    """
    total = m.p_total
    if total <= 0.0:
        raise DegenerateStateError("all coincidence amplitudes vanish; state is degenerate")
    norm = math.sqrt(total)
    return NormalizedState(lam=tuple(tuple(z / norm for z in row) for row in m.c))


def closed_form_probabilities(
    delta: float, theta_a: float, theta_b: float
) -> tuple[float, float, float, float]:
    """Closed-form unnormalized probabilities (joint, a-marginal, b-marginal, total).

    Valid only for plate misalignment delta in [-pi, pi] (half-integer step
    index and zero auxiliary phases assumed); callers must wrap delta rather
    than extrapolate, and a domain error enforces that.
    """
    d = float(delta)
    if not -_PI <= d <= _PI:
        raise ValueError(
            f"delta = {d!r} outside [-pi, pi]; wrap the orientation difference before calling"
        )
    ad = abs(d)
    app = abs(_PI + d)
    apm = abs(_PI - d)
    pi2 = _PI * _PI
    ca, sa = math.cos(theta_a), math.sin(theta_a)
    cb, sb = math.cos(theta_b), math.sin(theta_b)
    cab2 = math.cos(theta_a - theta_b) ** 2
    joint = (
        d * d * cab2
        - 2.0 * _PI * ad * cab2
        + sa * sa * (pi2 * sb * sb + cb * cb * (2.0 * pi2 + d * d - 2.0 * _PI * (d + apm)))
        + ca * ca * (pi2 * cb * cb + sb * sb * (2.0 * pi2 + d * d - 2.0 * _PI * (-d + app)))
        + 0.5
        * math.sin(2.0 * theta_a)
        * math.sin(2.0 * theta_b)
        * (_PI * (app + apm) - app * apm)
    )
    common = 3.0 * pi2 + 2.0 * d * d - _PI * (app + 2.0 * ad + apm)
    swing = _PI * (2.0 * d - app + apm)
    marg_a = common + swing * math.cos(2.0 * theta_a)
    marg_b = common + swing * math.cos(2.0 * theta_b)
    total = 6.0 * pi2 + 4.0 * d * d - 2.0 * _PI * (app + 2.0 * ad + apm)
    return joint, marg_a, marg_b, total


def closed_form_from_settings(settings: ExperimentSettings) -> tuple[float, float, float, float]:
    """Route settings through the closed forms, enforcing their assumptions."""
    if not settings.step_index.is_half_integer:
        raise ValueError("closed form requires a half-integer step index")
    if settings.has_aux_phases:
        raise ValueError("closed form requires zero auxiliary phases")
    return closed_form_probabilities(settings.delta(), settings.theta_a, settings.theta_b)


CANONICAL_THETAS = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)
MAX_CH_VIOLATION = (math.sqrt(2.0) - 1.0) / 2.0
RUN_LABELS = ("ab", "ab'", "a'b", "a'b'")


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
        """The settings of the four runs, in the protocol order that `RUN_LABELS` names."""
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


def ch_parameter(cfg: ChSettings) -> ChResult:
    """Evaluate the six CH probabilities and S for one experiment.

    Calls the closed-form `amplitude_matrix` once per setting of the
    protocol, in protocol order.
    """
    mats = [amplitude_matrix(s) for s in cfg.runs()]
    p = [m.p for m in mats]
    p_joint = tuple(pm[0][0] for pm in p)
    p_marg_a = p[2][0][0] + p[2][0][1]  # theta_a' run; independent of theta_b
    p_marg_b = p[0][0][0] + p[0][1][0]  # theta_b run; independent of theta_a
    p_total = mats[0].p_total
    s = ch_from_probabilities(*p_joint, p_marg_a, p_marg_b, p_total)
    return ChResult(s=s, p_joint=p_joint, p_marg_a=p_marg_a, p_marg_b=p_marg_b, p_total=p_total)


def canonical_settings(alpha: float, step_index: StepIndex = StepIndex(0.5)) -> ChSettings:
    """Aligned-plate experiment at the maximally violating splitter angles."""
    return ChSettings(*CANONICAL_THETAS, alpha=alpha, beta=alpha, step_index=step_index)


def ch_violated(result: ChResult) -> tuple[bool, float]:
    """(violated, margin): local realism is violated iff S > 0; margin is S."""
    return result.s > 0.0, result.s
