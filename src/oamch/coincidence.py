"""Two-photon coincidence amplitudes, probabilities, and closed forms.

The joint amplitude for the photon pair landing in output arms (i, j) is

    C_ij = sigma_ij * integral_0^{2 pi} A_i(phi) B_j(phi) dphi,

where A and B are the two analyzers' arm amplitudes and sigma_ij carries the
residual factors of i from the input splitters and mirrors.  Expanding the
product leaves everything in terms of the four pairwise plate overlaps
K[k, m] = I(alpha_k, beta_m, L) contracted with the two splitter matrices:

    C = sigma * (Ua @ K @ Ub^T) / 2.

Only two of the overlaps differ, K = [[k, q], [q, k]].  The closed form
and its quadrature oracle work on 2x2 nested tuples with `math`/`cmath` alone.

All probabilities are reported without the constant radial mode integral,
which is independent of every knob; only ratios of these quantities are
physically meaningful.

For half-integer step index, zero auxiliary phases, and plate misalignment
delta = alpha - beta wrapped into [-pi, pi], the four unnormalized
probability sums also have closed forms (`closed_form_probabilities`) in
delta and the splitter angles alone.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .azimuthal import (
    StepIndex,
    check_node_values,
    gauss_segments,
    overlap_integral,
    spp_phase,
    wrap_angle,
    wrap_signed,
)
from .interferometer import arm_amplitude, mz_unitary  # noqa: F401  (bench/traced_cli.py times it here)

_PI = math.pi

# Per-channel-pair factors from the input splitters and mirrors:
# sigma_11 = 1, sigma_12 = sigma_21 = i, sigma_22 = -1.
SIGMA = ((1.0, 1.0j), (1.0j, -1.0))


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


def plate_overlap_matrix(settings: ExperimentSettings, overlap=overlap_integral):
    """K[k][m] = overlap of a-side plate k against b-side plate m.

    The overlap depends only on the relative orientation of the two plates,
    so turning both a half-turn changes nothing: K = ((k, q), (q, k)) with
    k = I(alpha, beta) and q = I(alpha, beta + pi), two overlaps for all four.
    """
    k = overlap(settings.alpha, settings.beta, settings.step_index)
    q = overlap(settings.alpha, wrap_angle(settings.beta + _PI), settings.step_index)
    return ((k, q), (q, k))


def _matmul(a, b):
    """Product of two 2x2 nested sequences."""
    return tuple(tuple(row[0] * b[0][j] + row[1] * b[1][j] for j in (0, 1)) for row in a)


def amplitude_matrix(settings, overlap=overlap_integral):
    """Coincidence amplitudes via the closed-form plate overlaps.

    `settings` is one ExperimentSettings, giving one AmplitudeMatrix, or a
    sequence of them sharing plates and step index, giving one
    AmplitudeMatrix per setting; the plate overlaps are evaluated once for
    the whole sequence.  `overlap` is injectable so the validation suite can
    demonstrate the sensitivity of the pipeline to a wrong overlap sign.
    """
    rows = (settings,) if isinstance(settings, ExperimentSettings) else tuple(settings)
    if not rows:
        raise ValueError("no settings to evaluate")
    first = rows[0]
    plates = (first.alpha, first.beta, first.step_index)
    if any((s.alpha, s.beta, s.step_index) != plates for s in rows):
        raise ValueError("settings evaluated together must share plates and step index")
    k = plate_overlap_matrix(first, overlap=overlap)
    mats = []
    for s in rows:
        a1, a2, b1, b2 = s.aux_phases
        ua = mz_unitary(s.theta_a, a1, a2)
        ub = mz_unitary(s.theta_b, b1, b2)
        g = _matmul(_matmul(ua, k), tuple(zip(*ub)))  # ua @ k @ ub^T
        c = tuple(
            tuple(0.5 * sigma * x for sigma, x in zip(s_row, g_row))
            for s_row, g_row in zip(SIGMA, g)
        )
        mats.append(AmplitudeMatrix(c=c))
    return mats[0] if isinstance(settings, ExperimentSettings) else mats


def amplitude_matrix_quadrature(settings):
    """Numerical oracle for `amplitude_matrix`.

    Integrates the arm-amplitude products A_i B_j over azimuth from the four
    plate phases at each node and the splitter rows, which do not vary with
    azimuth; shares no code with the closed-form overlap path beyond the
    phase profile.  The products are constant between the
    plate dislocations, so the 2-point rule of each segment is exact up to
    rounding, as `check_node_values` verifies.  `settings` is one
    ExperimentSettings, giving one AmplitudeMatrix, or a sequence of them
    sharing one step index, giving one AmplitudeMatrix per setting.
    """
    rows = (settings,) if isinstance(settings, ExperimentSettings) else tuple(settings)
    if not rows:
        raise ValueError("no settings to evaluate")
    step = rows[0].step_index
    if any(s.step_index != step for s in rows):
        raise ValueError("settings evaluated together must share one step index")
    (s11, s12), (s21, s22) = SIGMA
    mats = []
    for s in rows:
        ua, ub = mz_unitary(s.theta_a, *s.aux_phases[:2]), mz_unitary(s.theta_b, *s.aux_phases[2:])
        plates = (s.alpha, wrap_angle(s.alpha + _PI), s.beta, wrap_angle(s.beta + _PI))
        g = [0j] * 4  # the integrals of A1 B1, A1 B2, A2 B1, A2 B2
        for h, x1, x2 in gauss_segments(plates):
            nodes = []
            for x in (x1, x2):
                # photon b's plates are complementary: conjugated phases
                e1, e2, e3, e4 = (spp_phase(c, x, step, k > 1) for k, c in enumerate(plates))
                b = [u1 * e3 + u2 * e4 for u1, u2 in ub]
                nodes.append([0.5 * (u1 * e1 + u2 * e2) * bj for u1, u2 in ua for bj in b])
            check_node_values(*nodes, step, x1, x2)
            g = [gk + h * (p + q) for gk, p, q in zip(g, *nodes)]
        mats.append(AmplitudeMatrix(c=((s11 * g[0], s12 * g[1]), (s21 * g[2], s22 * g[3]))))
    return mats[0] if isinstance(settings, ExperimentSettings) else mats


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
