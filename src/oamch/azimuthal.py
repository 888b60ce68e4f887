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
direct quadrature over the segments between the two dislocations, where the
integrand is constant (`overlap_integral_quadrature`); it sums the cosine
and sine of the real phase difference f(mu, phi) - f(nu, phi) over the
nodes.  The conjugate-phase variant is retained only so the validation
suite can demonstrate that it disagrees with the numerical oracle.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

TAU = 2.0 * math.pi

# Closed form and oracle round phases of up to 2*pi*L, each by at most
# u = L*2*pi*2^-53 rad.  Both take the jump 2*pi*L as one double, and the
# closed form is exact for whatever jump the profiles carry, so that rounding
# cancels.  Counting one rounding per phase (the closed form's L*|mu - nu|;
# at each oracle node the two profiles and their difference) and node
# weights summing to 2*pi, the two may disagree by 4 * 2*pi * u; keeping
# that within the suites' 1e-9 bounds the step index at about 5.7e4.
# Operation by operation a profile rounds by up to 2u, 7 * 2*pi * u in all,
# but half-ulps of independent sign do not add up so: at 0.999 times the
# bound the worst of 200 random pairs is 2.4e-10.
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


def spp_profile(chi: float, phi: float, step_index: StepIndex) -> float:
    """The real phase f(chi, phi) that a plate oriented at chi imprints, in [0, 2*pi*L).

    On the dislocation itself (phi == chi after wrapping) the phi >= chi
    branch wins.
    """
    c = wrap_angle(chi)
    ph = wrap_angle(phi)
    ell = step_index.value
    return ell * (ph - c) + (TAU * ell if ph < c else 0.0)


def spp_phase(chi: float, phi: float, step_index: StepIndex, conjugate: bool = False) -> complex:
    """Unit-modulus transmission factor exp(i*f(chi, phi)) of a plate oriented at chi.

    cos f + i*sin f of its one profile; `conjugate` gives exp(-i*f), the
    complementary plate's factor.
    """
    f = spp_profile(chi, phi, step_index)
    return complex(math.cos(f), -math.sin(f) if conjugate else math.sin(f))


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


_NODE = 1.0 / math.sqrt(3.0)  # the 2-point Gauss-Legendre nodes on [-1, 1] are -+1/sqrt(3)


class PiecewiseConstantError(ArithmeticError):
    """A quadrature oracle's integrand varied within a segment between dislocations."""


def gauss_segments(cut_points) -> list[tuple[float, float, float]]:
    """The 2-point Gauss-Legendre rule over [0, 2*pi) split at cut points.

    Each segment [a, b) between neighbouring wrapped, sorted cuts gives
    (h, x1, x2): its half-width h, the weight of each node, and the nodes
    (a + b)/2 -+ h/sqrt(3).  A segment is skipped unless both nodes fall
    strictly inside it, so every node lies on its segment's side of every
    cut: between coincident cuts (or a cut at 0) it has zero width, and one
    at most three ulps wide, too narrow for them, carries under 3e-15.
    """
    edges = [0.0, *sorted(map(wrap_angle, cut_points)), TAU]
    rule = []
    for a, b in zip(edges, edges[1:]):
        mid, h = 0.5 * (a + b), 0.5 * (b - a)
        x1, x2 = mid - h * _NODE, mid + h * _NODE
        if a < x1 <= x2 < b:
            rule.append((h, x1, x2))
    return rule


def check_node_values(v1, v2, step_index: StepIndex, x1: float, x2: float) -> None:
    """Raise PiecewiseConstantError unless an integrand's values at a segment's nodes agree.

    v1 and v2 hold the values at nodes x1 and x2.  Between dislocations every
    oracle integrand is constant, so they differ by rounding alone: at most
    10u across the two nodes (u = L*2*pi*2^-53: 2u per profile, see
    `MAX_STEP_INDEX`) and some 24 ulps of 1 from the trigonometric functions
    and complex products.  The bound, 32 * (u + 2^-53), covers that.
    """
    gap = max(abs(p - q) for p, q in zip(v1, v2))
    bound = 32.0 * (TAU * step_index.value + 1.0) * 2.0**-53
    if not gap <= bound:
        raise PiecewiseConstantError(
            f"integrand differs by {gap:.3e} between azimuths {x1:.6g} and {x2:.6g} "
            f"of one segment, where rounding allows {bound:.3e}"
        )


def overlap_integral_quadrature(mu: float, nu: float, step_index: StepIndex) -> complex:
    """Numerical oracle for `overlap_integral`.

    Integrates exp(i*d) directly over the real phase difference
    d = f(mu, phi) - f(nu, phi), as the sum of w*cos(d) plus i times the sum
    of w*sin(d), splitting [0, 2*pi) at the two dislocation angles.  d is
    constant between them, so the 2-point rule of each segment is exact up
    to rounding; `check_node_values` holds the oracle to that premise.
    """
    total = 0j
    for h, x1, x2 in gauss_segments((mu, nu)):
        d1, d2 = (spp_profile(mu, x, step_index) - spp_profile(nu, x, step_index) for x in (x1, x2))
        v1, v2 = complex(math.cos(d1), math.sin(d1)), complex(math.cos(d2), math.sin(d2))
        check_node_values((v1,), (v2,), step_index, x1, x2)
        total += h * (v1 + v2)
    return total
