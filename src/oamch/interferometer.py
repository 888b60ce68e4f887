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
from collections import namedtuple

from ._np import np
from .azimuthal import StepIndex, spp_phase, wrap_angle

_SQRT2 = math.sqrt(2.0)


class MzConfig(namedtuple("MzConfig", "plate_orientation theta step_index aux_phase_1 aux_phase_2 "
                                       "conjugate_plates")):
    """One analyzer: plate pair, output-splitter angle, auxiliary phases.

    The second plate orientation is always plate_orientation + pi and is
    never set independently.  conjugate_plates selects the complementary
    plates (negated azimuthal phase) used on the second photon.
    """

    __slots__ = ()

    def __new__(cls, plate_orientation: float, theta: float, step_index: StepIndex,
                aux_phase_1: float = 0.0, aux_phase_2: float = 0.0, conjugate_plates: bool = False):
        plate_orientation, theta = wrap_angle(plate_orientation), wrap_angle(theta)
        for name, phase in (("aux_phase_1", aux_phase_1), ("aux_phase_2", aux_phase_2)):
            if not math.isfinite(phase):
                raise ValueError(f"{name} must be finite")
        fields = (plate_orientation, theta, step_index, aux_phase_1, aux_phase_2, conjugate_plates)
        return tuple.__new__(cls, fields)

    @property
    def second_plate_orientation(self) -> float:
        return wrap_angle(self.plate_orientation + math.pi)


def mz_unitary(theta: float, aux_phase_1: float = 0.0, aux_phase_2: float = 0.0):
    """Output-splitter transfer matrix with per-arm azimuth-independent phases.

    A 2x2 nested tuple of complex entries (rows first).  Reduces to the real
    rotation ((cos, -sin), (sin, cos)) when both phases vanish.
    """
    c, s = math.cos(theta), math.sin(theta)
    p1 = cmath.exp(1j * aux_phase_1)
    p2 = cmath.exp(1j * aux_phase_2)
    return ((p1 * c, -p2 * s), (p1 * s, p2 * c))


def arm_amplitude(cfg, phi):
    """Azimuthal amplitudes (A1, A2) in output arms 1 and 2 of one analyzer, or of several.

    `cfg` is one MzConfig, with phi a scalar or an array of azimuths, or a
    sequence of n MzConfigs sharing one step index and plate kind, with phi
    of shape (n, ...) whose row r is seen by analyzer r.  Each arm has the
    shape of phi; both come from one evaluation of the two plate phases.
    The two arm amplitudes always satisfy |A1|^2 + |A2|^2 = 1: a unitary
    applied to a unit-norm vector.
    """
    if isinstance(cfg, MzConfig):
        a1, a2 = arm_amplitude((cfg,), np.asarray(phi, dtype=float)[np.newaxis])
        if a1.ndim == 1:
            return complex(a1[0]), complex(a2[0])
        return a1[0], a2[0]
    first = cfg[0]
    if any(
        c.step_index != first.step_index or c.conjugate_plates != first.conjugate_plates
        for c in cfg
    ):
        raise ValueError("analyzers evaluated together must share step index and plate kind")
    ph = np.asarray(phi, dtype=float)
    if ph.shape[:1] != (len(cfg),):
        raise ValueError(f"phi needs one row per analyzer ({len(cfg)}), got shape {ph.shape}")
    shape = (len(cfg),) + (1,) * (ph.ndim - 1)

    def column(name: str) -> np.ndarray:
        return np.array([getattr(c, name) for c in cfg]).reshape(shape)

    e1 = spp_phase(column("plate_orientation"), ph, first.step_index)
    e2 = spp_phase(column("second_plate_orientation"), ph, first.step_index)
    if first.conjugate_plates:
        e1 = np.conjugate(e1)
        e2 = np.conjugate(e2)
    # The two rows of `mz_unitary`, for every analyzer at once.
    theta = column("theta")
    cos, sin = np.cos(theta), np.sin(theta)
    p1 = np.exp(1j * column("aux_phase_1"))
    p2 = np.exp(1j * column("aux_phase_2"))
    return (p1 * cos * e1 - p2 * sin * e2) / _SQRT2, (p1 * sin * e1 + p2 * cos * e2) / _SQRT2
