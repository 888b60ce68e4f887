"""Mapping the CH-violation landscape over plate orientations.

With the plates fixed, two plate overlaps, k = I(alpha, beta) and
q = I(alpha, beta + pi), fully determine the dependence of every
coincidence probability on the splitter angles, so S is one closed formula
in the four angles (`ChLandscape`).  The scan walks an alpha x beta grid;
the per-point optimum over the splitter angles is exact, read off the x-z
block of the state's correlation tensor (Horodecki criterion for coplanar
settings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .azimuthal import TAU, StepIndex, overlap_integral, wrap_angle
from .chtest import CANONICAL_THETAS

THETA_POLICIES = ("fixed-canonical", "optimize-per-point")


@dataclass(frozen=True)
class ScanGrid:
    """Grid resolution, splitter-angle policy, and the violation threshold."""

    alpha_steps: int
    beta_steps: int
    theta_policy: str = "fixed-canonical"
    threshold: float = 0.204

    def __post_init__(self) -> None:
        for name in ("alpha_steps", "beta_steps"):
            value = getattr(self, name)
            if int(value) != value or value < 2:
                raise ValueError(f"{name} must be an integer >= 2")
            object.__setattr__(self, name, int(value))
        if self.theta_policy not in THETA_POLICIES:
            raise ValueError(f"theta_policy must be one of {THETA_POLICIES}, got {self.theta_policy!r}")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")
        object.__setattr__(self, "threshold", float(self.threshold))


@dataclass(frozen=True)
class ScanRow:
    alpha: float
    beta: float
    thetas: tuple[float, float, float, float]
    s: float
    exceeds_threshold: bool


@dataclass(frozen=True)
class ScanResult:
    """All scanned rows in (alpha index, beta index) order, plus the best row."""

    rows: list[ScanRow]
    best: ScanRow = field(init=False)

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("scan produced no rows")
        object.__setattr__(self, "best", max(self.rows, key=lambda r: r.s))


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

    `value` takes scalars or numpy arrays of angles and broadcasts them.
    """

    def __init__(self, alpha: float, beta: float, step_index: StepIndex):
        self.k = overlap_integral(alpha, beta, step_index)
        self.q = overlap_integral(alpha, beta + math.pi, step_index)

    def value(self, theta_a, theta_a_prime, theta_b, theta_b_prime):
        k, q = self.k, self.q

        def joint(ta, tb):
            return abs(k * np.cos(ta - tb) - q * np.sin(ta + tb)) ** 2

        n = abs(k) ** 2 + abs(q) ** 2
        r = 2.0 * (k * q.conjugate()).real
        joints = (
            joint(theta_a, theta_b)
            - joint(theta_a, theta_b_prime)
            + joint(theta_a_prime, theta_b)
            + joint(theta_a_prime, theta_b_prime)
        )
        marginals = 2.0 * n - r * (np.sin(2.0 * theta_a_prime) + np.sin(2.0 * theta_b))
        return (joints - marginals) / (2.0 * n)

    def grid(self, thetas: np.ndarray) -> np.ndarray:
        """S over the full 4-axis lattice thetas^4, indexed (a, a', b, b')."""
        t = np.asarray(thetas, dtype=float)
        return self.value(*np.ix_(t, t, t, t))


def optimize_thetas(
    alpha: float, beta: float, step_index: StepIndex
) -> tuple[tuple[float, float, float, float], float]:
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
    The returned S is evaluated at the returned angles.
    """
    land = ChLandscape(alpha, beta, step_index)
    same, opposite = abs(land.k) ** 2, abs(land.q) ** 2
    psi = math.atan2(same - opposite, same + opposite)
    quarter = math.pi / 4.0
    thetas = tuple(
        wrap_angle(t) for t in (0.0, -quarter, psi / 2.0 - quarter, -psi / 2.0 - quarter)
    )
    return thetas, land.value(*thetas)


def scan_alpha_beta(grid: ScanGrid, step_index: StepIndex) -> ScanResult:
    """Evaluate S over the alpha x beta lattice covering [0, 2*pi)^2.

    Rows come out in (alpha index, beta index) order; each is flagged when
    its S exceeds the grid threshold.
    """
    alphas = np.linspace(0.0, TAU, grid.alpha_steps, endpoint=False)
    betas = np.linspace(0.0, TAU, grid.beta_steps, endpoint=False)
    rows = []
    for a in alphas:
        for b in betas:
            if grid.theta_policy == "optimize-per-point":
                thetas, s = optimize_thetas(float(a), float(b), step_index)
            else:
                thetas = CANONICAL_THETAS
                s = ChLandscape(float(a), float(b), step_index).value(*thetas)
            rows.append(
                ScanRow(
                    alpha=float(a),
                    beta=float(b),
                    thetas=tuple(thetas),
                    s=float(s),
                    exceeds_threshold=bool(s > grid.threshold),
                )
            )
    return ScanResult(rows=rows)
