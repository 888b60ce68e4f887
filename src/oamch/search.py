"""Mapping the CH-violation landscape over plate orientations.

With the plates fixed, two plate overlaps, k = I(alpha, beta) and
q = I(alpha, beta + pi), fully determine the dependence of every
coincidence probability on the splitter angles, so S is one closed formula
in the four angles (`ChLandscape`).  The per-point optimum over the
splitter angles is exact, read off the x-z block of the state's
correlation tensor (Horodecki criterion for coplanar settings).

The landscape, the optimum and the overlaps all take numpy arrays of plate
angles, so the alpha x beta scan is one array evaluation over the
flattened grid, and its result is a set of columns (`ScanResult`), not one
object per point.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._np import np
from .azimuthal import TAU, StepIndex, overlap_integral
from .chtest import CANONICAL_THETAS

THETA_POLICIES = ("fixed-canonical", "optimize-per-point")

# A scan holds its columns as arrays: alpha, beta, four thetas, S (56 bytes
# a point) and the flag, and while evaluating, the overlaps k, q (32 bytes)
# and a few float temporaries.  Both writers add one list of cell texts per
# column and stream their rows to the file.  At 2^20 points, 16 times the
# 256 x 256 scan, a whole CSV scan command takes 2.1-2.3 s and a JSON one
# 3.9-4.3 s, and both peak near 0.19 GB of memory (os.wait4 from a small
# parent; 2-core Intel Xeon x86-64 with AVX-512, Python 3.11, numpy 2.4).
MAX_SCAN_POINTS = 2**20


class ScanGrid(namedtuple("ScanGrid", "alpha_steps beta_steps theta_policy threshold")):
    """Grid resolution, splitter-angle policy, and the violation threshold."""

    __slots__ = ()

    def __new__(cls, alpha_steps: int, beta_steps: int, theta_policy: str = "fixed-canonical",
                threshold: float = 0.204):
        for name, value in (("alpha_steps", alpha_steps), ("beta_steps", beta_steps)):
            if int(value) != value or value < 2:
                raise ValueError(f"{name} must be an integer >= 2")
        points = int(alpha_steps) * int(beta_steps)
        if points > MAX_SCAN_POINTS:
            raise ValueError(f"the grid has {points} points; at most {MAX_SCAN_POINTS} (2^20) are allowed")
        if theta_policy not in THETA_POLICIES:
            raise ValueError(f"theta_policy must be one of {THETA_POLICIES}, got {theta_policy!r}")
        if not math.isfinite(threshold):
            raise ValueError("threshold must be finite")
        fields = (int(alpha_steps), int(beta_steps), theta_policy, float(threshold))
        return tuple.__new__(cls, fields)


class ScanResult(namedtuple("ScanResult", "alpha beta thetas s exceeds_threshold")):
    """The scanned lattice as columns, in (alpha index, beta index) order.

    Row i has plates alpha[i], beta[i], splitter angles thetas[i] =
    (theta_a, theta_a', theta_b, theta_b'), S = s[i] and the flag
    exceeds_threshold[i]; `best` is the index of the first row with the
    largest S.  The columns are arrays, so two results compare equal only
    when they are the same object.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, alpha, beta, thetas, s, exceeds_threshold):
        if s.size == 0:
            raise ValueError("scan produced no rows")
        return tuple.__new__(cls, (alpha, beta, thetas, s, exceeds_threshold))

    @property
    def best(self) -> int:
        return int(np.argmax(self.s))


def _sq_modulus(z):
    """|z|^2 through hypot, which rounds as CPython's abs(complex) does."""
    return np.hypot(z.real, z.imag) ** 2


class ChLandscape:
    """S as a function of the four splitter angles at fixed plates.

    The plate overlap depends only on the relative plate orientation, so the
    2x2 overlap matrix is K = [[k, q], [q, k]] with k = I(alpha, beta) and
    q = I(alpha, beta + pi): K11 = K22 and K12 = K21.  On the
    zero-auxiliary-phase path of `ch_parameter`, with n = |k|^2 + |q|^2 and
    r = 2 Re(k conj(q)), the unnormalized probabilities are

        4 p11(ta, tb) = |k cos(ta - tb) - q sin(ta + tb)|^2
        4 P(t, inf) = 4 P(inf, t) = n - r sin 2t
        4 P(inf, inf) = 2 n

    alpha and beta may be numpy arrays; then k, q and `value` hold one entry
    per plate pair.  `value` takes scalars or numpy arrays of angles and
    broadcasts them against the plates.
    """

    def __init__(self, alpha, beta, step_index: StepIndex):
        self.k = overlap_integral(alpha, beta, step_index)
        self.q = overlap_integral(alpha, beta + math.pi, step_index)

    def value(self, theta_a, theta_a_prime, theta_b, theta_b_prime):
        k, q = self.k, self.q

        # complex products written in reals, as in `overlap_integral`
        def joint(ta, tb):
            c, s = np.cos(ta - tb), np.sin(ta + tb)
            return np.hypot(k.real * c - q.real * s, k.imag * c - q.imag * s) ** 2

        n = _sq_modulus(k) + _sq_modulus(q)
        r = 2.0 * (k.real * q.real + k.imag * q.imag)
        joints = (
            joint(theta_a, theta_b)
            - joint(theta_a, theta_b_prime)
            + joint(theta_a_prime, theta_b)
            + joint(theta_a_prime, theta_b_prime)
        )
        marginals = 2.0 * n - r * (np.sin(2.0 * theta_a_prime) + np.sin(2.0 * theta_b))
        return (joints - marginals) / (2.0 * n)


def optimize_thetas(alpha, beta, step_index: StepIndex):
    """Maximum of S over the four splitter angles, in closed form.

    Splitter angle t measures the Bloch direction (-sin 2t, cos 2t) in the
    x-z plane, so S = (CHSH - 2) / 4 peaks at the Horodecki optimum for
    coplanar settings, (sqrt(s1^2 + s2^2) - 1) / 2, where s1 and s2 are the
    singular values of the x-z block of the correlation tensor of the
    normalized state vec(K).  For the symmetric K of `ChLandscape` that
    block is diag(1, t) with t = (|k|^2 - |q|^2) / (|k|^2 + |q|^2): its
    singular vectors are the x and z axes.  The optimal directions are
    a = z, a' = x and b, b' = cos(psi) x +/- sin(psi) z with psi = atan(t);
    the direction at angle d from x towards z is splitter angle d / 2 - pi / 4.

    Returns the angles (theta_a, theta_a', theta_b, theta_b') in [0, 2*pi)
    and S evaluated at them; alpha and beta may be numpy arrays, and then
    theta_b, theta_b' and S are arrays too.
    """
    land = ChLandscape(alpha, beta, step_index)
    same, opposite = _sq_modulus(land.k), _sq_modulus(land.q)
    psi = np.arctan2(same - opposite, same + opposite)
    # |t| <= 1 puts psi in [-pi/4, pi/4]: the b angles are negative, and
    # one added turn wraps them into [0, 2*pi) as `wrap_angle` would
    quarter = math.pi / 4.0
    thetas = (0.0, TAU - quarter, psi / 2.0 - quarter + TAU, -psi / 2.0 - quarter + TAU)
    return thetas, land.value(*thetas)


def scan_alpha_beta(grid: ScanGrid, step_index: StepIndex) -> ScanResult:
    """Evaluate S over the alpha x beta lattice covering [0, 2*pi)^2.

    The whole lattice is one array evaluation.  Rows come out in
    (alpha index, beta index) order; each is flagged when its S exceeds the
    grid threshold.
    """
    alphas = np.linspace(0.0, TAU, grid.alpha_steps, endpoint=False)
    betas = np.linspace(0.0, TAU, grid.beta_steps, endpoint=False)
    alpha = np.repeat(alphas, grid.beta_steps)
    beta = np.tile(betas, grid.alpha_steps)
    if grid.theta_policy == "optimize-per-point":
        thetas, s = optimize_thetas(alpha, beta, step_index)
    else:
        thetas = CANONICAL_THETAS
        s = ChLandscape(alpha, beta, step_index).value(*thetas)
    return ScanResult(
        alpha=alpha,
        beta=beta,
        thetas=np.column_stack([np.broadcast_to(t, s.shape) for t in thetas]),
        s=s,
        exceeds_threshold=s > grid.threshold,
    )
