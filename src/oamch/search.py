"""Mapping the CH-violation landscape over plate orientations.

With the plates fixed, the four pairwise plate overlaps fully determine the
dependence of every coincidence probability on the splitter angles, so S can
be evaluated in a handful of complex multiplies per angle quadruple.  The
scan walks an alpha x beta grid; the per-point optimum over the splitter
angles is exact, read off the x-z block of the state's correlation tensor
(Horodecki criterion for coplanar settings).
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

    Precomputes the plate-overlap matrix once; `value` then costs a few
    complex multiplies, and `grid` broadcasts over a whole angle lattice.
    Matches `ch_parameter` on the zero-auxiliary-phase path.
    """

    def __init__(self, alpha: float, beta: float, step_index: StepIndex):
        a = wrap_angle(alpha)
        b = wrap_angle(beta)
        a2 = wrap_angle(a + math.pi)
        b2 = wrap_angle(b + math.pi)
        self.k11 = overlap_integral(a, b, step_index)
        self.k12 = overlap_integral(a, b2, step_index)
        self.k21 = overlap_integral(a2, b, step_index)
        self.k22 = overlap_integral(a2, b2, step_index)
        self.p_total = (
            abs(self.k11) ** 2 + abs(self.k12) ** 2 + abs(self.k21) ** 2 + abs(self.k22) ** 2
        ) / 4.0

    def _a_row(self, theta_a: float) -> tuple[complex, complex]:
        ca, sa = math.cos(theta_a), math.sin(theta_a)
        return ca * self.k11 - sa * self.k21, ca * self.k12 - sa * self.k22

    def joint(self, theta_a: float, theta_b: float) -> float:
        """Unnormalized p11 at one angle pair."""
        r1, r2 = self._a_row(theta_a)
        cb, sb = math.cos(theta_b), math.sin(theta_b)
        g = 0.5 * (cb * r1 - sb * r2)
        return g.real * g.real + g.imag * g.imag

    def marginal_a(self, theta_a: float) -> float:
        """Unnormalized p11 + p12; independent of theta_b."""
        r1, r2 = self._a_row(theta_a)
        return 0.25 * (abs(r1) ** 2 + abs(r2) ** 2)

    def marginal_b(self, theta_b: float) -> float:
        """Unnormalized p11 + p21; independent of theta_a."""
        cb, sb = math.cos(theta_b), math.sin(theta_b)
        c1 = cb * self.k11 - sb * self.k12
        c2 = cb * self.k21 - sb * self.k22
        return 0.25 * (abs(c1) ** 2 + abs(c2) ** 2)

    def value(self, theta_a: float, theta_a_prime: float, theta_b: float, theta_b_prime: float) -> float:
        return (
            self.joint(theta_a, theta_b)
            - self.joint(theta_a, theta_b_prime)
            + self.joint(theta_a_prime, theta_b)
            + self.joint(theta_a_prime, theta_b_prime)
            - self.marginal_a(theta_a_prime)
            - self.marginal_b(theta_b)
        ) / self.p_total

    def grid(self, thetas: np.ndarray) -> np.ndarray:
        """S over the full 4-axis lattice thetas^4, indexed (a, a', b, b')."""
        t = np.asarray(thetas, dtype=float)
        rows = np.stack([np.cos(t), -np.sin(t)], axis=1)
        k = np.array([[self.k11, self.k12], [self.k21, self.k22]])
        g = 0.5 * np.einsum("ak,km,bm->ab", rows, k, rows)
        joint = np.abs(g) ** 2
        rk = rows @ k
        marg_a = 0.25 * np.sum(np.abs(rk) ** 2, axis=1)
        ck = rows @ k.T
        marg_b = 0.25 * np.sum(np.abs(ck) ** 2, axis=1)
        s = (
            joint[:, None, :, None]
            - joint[:, None, None, :]
            + joint[None, :, :, None]
            + joint[None, :, None, :]
            - marg_a[None, :, None, None]
            - marg_b[None, None, :, None]
        )
        return s / self.p_total


def optimize_thetas(
    alpha: float, beta: float, step_index: StepIndex
) -> tuple[tuple[float, float, float, float], float]:
    """Maximum of S over the four splitter angles, in closed form.

    Splitter angle t measures the Bloch direction (-sin 2t, cos 2t) in the
    x-z plane, so S = (CHSH - 2) / 4 peaks at the Horodecki optimum for
    coplanar settings, (sqrt(s1^2 + s2^2) - 1) / 2, where s1 and s2 are the
    singular values of the x-z block of the correlation tensor of the
    normalized state vec(K).  The overlap depends only on the relative plate
    orientation, so K11 = K22 and K12 = K21, and that block is diag(1, t)
    with t = (|K11|^2 - |K12|^2) / (|K11|^2 + |K12|^2): its singular vectors
    are the x and z axes.  The optimal directions are a = z, a' = x and
    b, b' = cos(psi) x +/- sin(psi) z with psi = atan(t); the direction at
    angle d from x towards z is splitter angle d / 2 - pi / 4.  The returned
    S is evaluated at the returned angles.
    """
    land = ChLandscape(alpha, beta, step_index)
    same, opposite = abs(land.k11) ** 2, abs(land.k12) ** 2
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
