"""Two-photon coincidence amplitudes, probabilities, and closed forms.

The joint amplitude for the photon pair landing in output arms (i, j) is

    C_ij = sigma_ij * integral_0^{2 pi} A_i(phi) B_j(phi) dphi,

where A and B are the two analyzers' arm amplitudes and sigma_ij carries the
residual factors of i from the input splitters and mirrors.  Expanding the
product leaves everything in terms of the four pairwise plate overlaps
K[k, m] = I(alpha_k, beta_m, L) contracted with the two splitter matrices:

    C = sigma * (Ua @ K @ Ub^T) / 2.

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
from dataclasses import dataclass, field

import numpy as np

from .azimuthal import (
    StepIndex,
    gauss_segments,
    overlap_integral,
    wrap_angle,
    wrap_signed,
)
from .interferometer import MzConfig, arm_amplitude, mz_unitary

_PI = math.pi

# Per-channel-pair factors from the input splitters and mirrors:
# sigma_11 = 1, sigma_12 = sigma_21 = i, sigma_22 = -1.
SIGMA = np.array([[1.0, 1.0j], [1.0j, -1.0]])


class DegenerateStateError(ValueError):
    """All four coincidence amplitudes vanish; nothing to normalize."""


@dataclass(frozen=True)
class ExperimentSettings:
    """One full apparatus configuration.

    alpha orients the plate pair on photon a, beta the complementary pair on
    photon b; theta_a and theta_b are the output-splitter angles; aux_phases
    holds the four azimuth-independent arm phases (a1, a2, b1, b2).
    """

    alpha: float
    beta: float
    theta_a: float
    theta_b: float
    step_index: StepIndex
    aux_phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "theta_a", "theta_b"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))
        phases = tuple(float(p) for p in self.aux_phases)
        if len(phases) != 4 or not all(math.isfinite(p) for p in phases):
            raise ValueError("aux_phases must be four finite phases (a1, a2, b1, b2)")
        object.__setattr__(self, "aux_phases", phases)

    def delta(self) -> float:
        """Plate misalignment alpha - beta wrapped into (-pi, pi]."""
        return wrap_signed(self.alpha - self.beta)

    @property
    def has_aux_phases(self) -> bool:
        return any(p != 0.0 for p in self.aux_phases)

    def analyzer_a(self) -> MzConfig:
        return MzConfig(
            plate_orientation=self.alpha,
            theta=self.theta_a,
            step_index=self.step_index,
            aux_phase_1=self.aux_phases[0],
            aux_phase_2=self.aux_phases[1],
            conjugate_plates=False,
        )

    def analyzer_b(self) -> MzConfig:
        return MzConfig(
            plate_orientation=self.beta,
            theta=self.theta_b,
            step_index=self.step_index,
            aux_phase_1=self.aux_phases[2],
            aux_phase_2=self.aux_phases[3],
            conjugate_plates=True,
        )


@dataclass(frozen=True)
class AmplitudeMatrix:
    """The four complex coincidence amplitudes C_ij.

    c has shape (2, 2), or (n, 2, 2) for the quadrature oracle evaluated on
    a sequence of settings; `p_total` sums over everything it holds.
    """

    c: np.ndarray

    @property
    def p(self) -> np.ndarray:
        """Unnormalized probabilities p_ij = |C_ij|^2."""
        return np.abs(self.c) ** 2

    @property
    def p_total(self) -> float:
        return float(np.sum(self.p))


@dataclass(frozen=True)
class NormalizedState:
    """Normalized two-photon amplitudes lambda_ij, sum |lambda_ij|^2 = 1."""

    lam: np.ndarray


def plate_overlap_matrix(settings: ExperimentSettings, overlap=overlap_integral) -> np.ndarray:
    """K[k, m] = overlap of a-side plate k against b-side plate m."""
    plates_a = (settings.alpha, wrap_angle(settings.alpha + _PI))
    plates_b = (settings.beta, wrap_angle(settings.beta + _PI))
    return np.array(
        [[overlap(pa, pb, settings.step_index) for pb in plates_b] for pa in plates_a]
    )


def amplitude_matrix(settings: ExperimentSettings, overlap=overlap_integral) -> AmplitudeMatrix:
    """Coincidence amplitudes via the closed-form plate overlaps.

    `overlap` is injectable so the validation suite can demonstrate the
    sensitivity of the pipeline to a wrong overlap sign.
    """
    k = plate_overlap_matrix(settings, overlap=overlap)
    ua = mz_unitary(settings.theta_a, settings.aux_phases[0], settings.aux_phases[1])
    ub = mz_unitary(settings.theta_b, settings.aux_phases[2], settings.aux_phases[3])
    return AmplitudeMatrix(c=SIGMA * (0.5 * ua @ k @ ub.T))


def amplitude_matrix_quadrature(settings, order: int = 64) -> AmplitudeMatrix:
    """Numerical oracle for `amplitude_matrix`.

    Integrates the arm-amplitude products directly over azimuth, splitting
    at the four plate dislocations; shares no code with the closed-form
    overlap path beyond the phase profile itself.  `settings` is one
    ExperimentSettings, giving c of shape (2, 2), or a sequence of n of them
    sharing one step index, giving c of shape (n, 2, 2) whose row r equals
    the one-settings call on settings r.
    """
    rows = (settings,) if isinstance(settings, ExperimentSettings) else tuple(settings)
    if not rows:
        raise ValueError("no settings to evaluate")
    cfg_a = [s.analyzer_a() for s in rows]
    cfg_b = [s.analyzer_b() for s in rows]
    cuts = [
        (
            a.plate_orientation,
            a.second_plate_orientation,
            b.plate_orientation,
            b.second_plate_orientation,
        )
        for a, b in zip(cfg_a, cfg_b)
    ]
    x, w = gauss_segments(cuts, order=order)
    a = arm_amplitude(cfg_a, x)
    b = arm_amplitude(cfg_b, x)
    g = np.array([[np.sum(w * a[i] * b[j], axis=-1) for j in (0, 1)] for i in (0, 1)])
    c = SIGMA * np.moveaxis(g, -1, 0)
    return AmplitudeMatrix(c=c[0] if isinstance(settings, ExperimentSettings) else c)


def normalized_amplitudes(m: AmplitudeMatrix) -> NormalizedState:
    """lambda_ij = C_ij / sqrt(sum |C_kl|^2).

    Scaling every C_ij by a positive constant leaves the result unchanged.
    """
    total = m.p_total
    if total <= 0.0:
        raise DegenerateStateError("all coincidence amplitudes vanish; state is degenerate")
    return NormalizedState(lam=m.c / math.sqrt(total))


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
