"""Single-photon Mach-Zehnder analyzer with a spiral-plate pair in its arms.

Each analyzer holds one plate per internal arm, the second fixed a half-turn
from the first, followed by a variable output splitter with transmission
cos(theta) and reflection i*sin(theta).  The net effect on the two-arm
amplitude vector is the splitter matrix (optionally carrying one
azimuth-independent phase per arm) acting on the plate-phase vector
(e^{i f(chi, phi)}, e^{i f(chi+pi, phi)})/sqrt(2); the mirror and input
splitter bookkeeping collapses into that matrix plus the per-channel factors
applied at the coincidence level.  The complementary plates used on the
second photon imprint the negated azimuthal phase, so there the exponents
are conjugated.  Each photon's analyzer carries its own independent splitter
angle.
"""

from __future__ import annotations

import cmath
import math

from .azimuthal import StepIndex, spp_phase

_SQRT2 = math.sqrt(2.0)


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
