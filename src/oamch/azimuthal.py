"""Spiral-phase-plate phase profiles and the azimuthal overlap integral.

A spiral phase plate (SPP) whose edge dislocation sits at orientation chi
multiplies a transmitted field by the unit-modulus factor exp(i*f(chi, phi))
with, for step index L (phase shift per unit angle),

    f(chi, phi) = L*(phi - chi)            for phi >= chi,
    f(chi, phi) = L*(phi - chi) + 2*pi*L   for phi <  chi,

i.e. a linear azimuthal ramp with a 2*pi*L jump across the dislocation.
Every interference quantity downstream reduces to the full-turn overlap of
two such profiles,

    I(mu, nu, L) = integral_0^{2 pi} exp(i*(f(mu, phi) - f(nu, phi))) dphi,

whose closed form for canonical mu >= nu is

    I = exp(-i*L*(mu - nu)) * (2*pi - (mu - nu)*(1 - exp(i*2*pi*L))),

with conjugate symmetry under swapping mu and nu.  For half-integer
L = l + 1/2 this collapses to 2*pi*exp(-i*L*(mu - nu))*(1 - |mu - nu|/pi),
which vanishes at |mu - nu| = pi: plate states a half-turn apart are
orthogonal.  The sign of the leading phase factor is adjudicated against
direct piecewise Gauss-Legendre quadrature (`overlap_integral_quadrature`),
which sums the cosine and sine of the real phase difference
f(mu, phi) - f(nu, phi) over the nodes; the conjugate-phase variant is
retained only so the validation suite can demonstrate that it disagrees
with the numerical oracle.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

TAU = 2.0 * math.pi

# Closed form and quadrature both round phases L*x with x < 2*pi, each to
# within half an ulp: up to L*2*pi*2^-53 rad.  Both take the jump 2*pi*L as
# one double, and the closed form is exact for whatever jump the profiles
# carry, so that rounding cancels.  Besides it the closed form rounds one
# phase, L*|mu - nu|, and the quadrature three at each node: the two
# profiles and their difference, whose cosine and sine it sums.  Each
# rounding moves a term of modulus up to 2*pi, so the two may disagree by
# 4 * 2*pi * L*2*pi*2^-53.  Keeping that within the oracle suites' 1e-9
# bounds the step index at about 5.7e4.
MAX_STEP_INDEX = 1e-9 / (4.0 * TAU * TAU * 2.0**-53)


class StepIndex(namedtuple("StepIndex", "value")):
    """Phase shift per unit azimuthal angle of a spiral phase plate.

    `is_half_integer` tells whether value = l + 1/2 exactly for an integer
    l >= 0.  Half-integer plates are the ones that make orientations a
    half-turn apart orthogonal, and are required by the closed-form
    coincidence probabilities.  The value is at most `MAX_STEP_INDEX`, where
    float64 phases still carry the closed form to 1e-9.
    """

    __slots__ = ()

    def __new__(cls, value: float):
        v = float(value)
        if not 0.0 < v <= MAX_STEP_INDEX:
            raise ValueError(f"step index must be in (0, {MAX_STEP_INDEX:.6g}], got {value!r}")
        return tuple.__new__(cls, (v,))

    @classmethod
    def half_integer(cls, l: int) -> "StepIndex":
        if l != int(l) or l < 0:
            raise ValueError(f"l must be a nonnegative integer, got {l!r}")
        return cls(int(l) + 0.5)

    @property
    def is_half_integer(self) -> bool:
        # value - 0.5 is exact from 0.5 up, and lies in (-0.5, 0) below
        return (self.value - 0.5).is_integer()


def wrap_angle(raw: float) -> float:
    """Reduce an angle in radians to the canonical interval [0, 2*pi)."""
    x = float(raw)
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {raw!r}")
    r = math.fmod(x, TAU)
    if r < 0.0:
        r += TAU
    if r >= TAU:  # fmod is exact but the += above can round up to 2*pi
        r = 0.0
    return r


def wrap_signed(raw: float) -> float:
    """Reduce an angle in radians to the signed interval (-pi, pi]."""
    r = wrap_angle(raw)
    return r - TAU if r > math.pi else r


def _wrap_array(phi):
    import numpy as np

    ph = np.asarray(phi, dtype=float)
    if ph.size and 0.0 <= ph.min() and ph.max() < TAU:
        return ph  # already canonical (quadrature nodes are); np.mod is the slow part
    if not np.all(np.isfinite(ph)):
        raise ValueError("azimuth angles must be finite")
    ph = np.mod(ph, TAU)
    return np.where(ph >= TAU, 0.0, ph)


def spp_profile(chi, phi, step_index: StepIndex):
    """The real phase f(chi, phi) that a plate oriented at chi imprints, in [0, 2*pi*L).

    chi and phi are scalars or arrays that broadcast against each other,
    such as a column of n orientations against n rows of azimuths.  On the
    dislocation itself (phi == chi exactly) the phi >= chi branch wins.
    """
    c = _wrap_array(chi)
    ph = _wrap_array(phi)
    ell = step_index.value
    return ell * (ph - c) + (TAU * ell) * (ph < c)


def spp_phase(chi, phi, step_index: StepIndex, conjugate: bool = False):
    """Unit-modulus transmission factor exp(i*f(chi, phi)) of a plate oriented at chi.

    Broadcasts as `spp_profile` into a complex array, cos f + i*sin f of its
    one profile; `conjugate` gives exp(-i*f), the complementary plate's factor.
    """
    import numpy as np

    f = np.asarray(spp_profile(chi, phi, step_index))
    out = np.empty(f.shape, dtype=complex)
    np.cos(f, out=out.real)
    np.sin(f, out=out.imag)
    if conjugate:
        np.negative(out.imag, out=out.imag)
    return out


def difference_overlaps(differences, step_index: StepIndex, sign: complex = -1j) -> list[complex]:
    """The closed-form overlap at each signed difference d = wrap(mu) - wrap(nu) in a collection.

    Conjugate-symmetric by construction: d < 0 (for finite wrapped angles,
    exactly mu < nu) gives the conjugate of the overlap at -d.  The leading
    phase factor is exp(sign * L * |d|).
    """
    ell = step_index.value
    phase, jump = sign * ell, 1.0 - cmath.exp(1j * TAU * ell)
    overlaps = [cmath.exp(phase * a) * (TAU - a * jump) for a in map(abs, differences)]
    return [value.conjugate() if d < 0.0 else value for d, value in zip(differences, overlaps)]


def overlap_integral(mu: float, nu: float, step_index: StepIndex) -> complex:
    """Closed form of the full-turn overlap of two plate phase profiles, in `math`/`cmath` alone."""
    return difference_overlaps((wrap_angle(mu) - wrap_angle(nu),), step_index)[0]


def overlap_integral_opposite_phase(mu: float, nu: float, step_index: StepIndex) -> complex:
    """Variant of `overlap_integral` with the leading phase factor conjugated.

    Not a valid overlap: kept only for the sign-adjudication suite, which
    shows this variant disagrees with direct quadrature while the primary
    closed form agrees.  Do not use for physics.
    """
    return difference_overlaps((wrap_angle(mu) - wrap_angle(nu),), step_index, 1j)[0]


_GAUSS_NODES = None  # the 64 Gauss-Legendre nodes and weights on [-1, 1], as arrays


def gauss_segments(cut_points):
    """Gauss-Legendre nodes and weights over [0, 2*pi) split at cut points.

    `cut_points` holds k angles, giving nodes and weights of shape
    ((k + 1) * 64,), or is an array of shape (n, k) whose rows are cut
    independently, giving shape (n, (k + 1) * 64).  The cuts are wrapped
    into [0, 2*pi) and sorted, so every row has k + 1 segments.  A segment
    between coincident cuts (equal angles, or a cut at 0) has zero width and
    zero weight; every node of nonzero weight is interior to a segment, so
    integrands that are smooth between dislocations are seen as smooth
    everywhere.
    """
    global _GAUSS_NODES
    import numpy as np

    if _GAUSS_NODES is None:
        from ._gauss import gauss_legendre  # loaded by `validate` alone

        _GAUSS_NODES = tuple(map(np.array, gauss_legendre(64)))
    base_x, base_w = _GAUSS_NODES
    cuts = np.sort(_wrap_array(cut_points), axis=-1)
    rows = cuts.shape[:-1]
    edges = np.concatenate((np.zeros(rows + (1,)), cuts, np.full(rows + (1,), TAU)), axis=-1)
    a = edges[..., :-1, np.newaxis]
    b = edges[..., 1:, np.newaxis]
    half = 0.5 * (b - a)
    nodes = half * base_x + 0.5 * (a + b)
    return nodes.reshape(rows + (-1,)), (half * base_w).reshape(rows + (-1,))


def overlap_integral_quadrature(mu, nu, step_index: StepIndex):
    """Numerical oracle for `overlap_integral`.

    Integrates exp(i*d) directly over the real phase difference
    d = f(mu, phi) - f(nu, phi), as the sum of w*cos(d) plus i times the sum
    of w*sin(d), splitting [0, 2*pi) at the two dislocation angles so each
    Gauss-Legendre panel sees a smooth integrand.  Absolute error is far
    below 1e-10.  Scalar mu and nu give a complex; arrays or sequences
    broadcast and give nested lists of complex, each element equal to the
    scalar call on its pair.
    """
    import numpy as np

    m, n = np.broadcast_arrays(_wrap_array(mu), _wrap_array(nu))
    x, w = gauss_segments(np.stack((m, n), axis=-1))
    d = spp_profile(m[..., np.newaxis], x, step_index) - spp_profile(n[..., np.newaxis], x, step_index)
    out = np.empty(m.shape, dtype=complex)
    np.sum(w * np.cos(d), axis=-1, out=out.real)
    np.sum(w * np.sin(d), axis=-1, out=out.imag)
    return out.tolist()
