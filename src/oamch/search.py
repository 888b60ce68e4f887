"""Mapping the CH-violation landscape over plate orientations.

With the plates fixed, two plate overlaps, k = I(alpha, beta) and
q = I(alpha, beta + pi), fully determine the dependence of every
coincidence probability on the splitter angles, so S is one closed formula
in the four angles (`ChLandscape`).  The per-point optimum over the
splitter angles is exact, read off the x-z block of the state's
correlation tensor (Horodecki criterion for coplanar settings).

A scan row's overlaps depend only on its relative plate orientation, so the
scan evaluates each distinct one once, in pure Python (`ScanResult`).
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple

from .azimuthal import TAU, StepIndex, difference_overlaps, overlap_integral, wrap_angle
from .chtest import CANONICAL_THETAS

THETA_POLICIES = ("fixed-canonical", "optimize-per-point")

# A scan row costs about 0.5 us as CSV and 0.9 us as JSON, and 8 bytes; a key (see
# `scan_alpha_beta`) 5-6 us and a few hundred bytes.  At 2^20 points, 1024 x 1024
# (35,221 keys) takes 0.7-0.8 s as CSV and 1.1-1.4 s as optimized JSON, up to 49 MB;
# 93 x 91, a key per row and near `max_scan_keys`, 0.13-0.19 s and 0.15-0.21 s
# (os.wait4 from a small parent, medians of 7 runs, two passes; 2-core Intel Xeon
# x86-64 VM, Python 3.11).
MAX_SCAN_POINTS = 2**20


def max_scan_keys(points: int) -> int:
    """The most keys, distinct relative plate orientations, a scan of `points` rows may have."""
    return 2**13 + points // 24


class ScanGrid(namedtuple("ScanGrid", "alpha_steps beta_steps theta_policy threshold")):
    """Grid resolution, splitter-angle policy, and the violation threshold."""

    __slots__ = ()

    def __new__(cls, alpha_steps: int, beta_steps: int, theta_policy: str = "fixed-canonical",
                threshold: float = 0.204):
        for name, value in (("alpha_steps", alpha_steps), ("beta_steps", beta_steps)):
            if not 2 <= value < math.inf or int(value) != value:
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


class ScanResult(namedtuple("ScanResult", "alpha beta key key_thetas key_s key_exceeds_threshold")):
    """The scanned lattice: a key number per row, and per key its angles, S and flag.

    Rows run in (alpha index, beta index) order; keys are numbered by first
    row.  The `key_` fields are indexed by key, not by row: read rows with `row`.
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, key, key_thetas, key_s, key_exceeds_threshold):
        if not key:
            raise ValueError("scan produced no rows")
        return tuple.__new__(cls, (alpha, beta, key, key_thetas, key_s, key_exceeds_threshold))

    def row(self, i: int) -> tuple:
        """Row i: alpha, beta, the four thetas, S and the flag."""
        j, (a, b) = self.key[i], divmod(i, len(self.beta))
        return self.alpha[a], self.beta[b], *self.key_thetas[j], self.key_s[j], self.key_exceeds_threshold[j]

    @property
    def exceeding(self) -> int:
        """The number of flagged rows."""
        return sum(map(self.key_exceeds_threshold.__getitem__, self.key))

    @property
    def best(self) -> int:
        """The first row with the largest S: the first row of the first such key."""
        return self.key.index(max(range(len(self.key_s)), key=self.key_s.__getitem__))


class ChLandscape:
    """S as a function of the four splitter angles, at fixed plates.

    The plate overlap depends only on the relative plate orientation, so the
    2x2 overlap matrix is K = [[k, q], [q, k]] with k = I(alpha, beta) and
    q = I(alpha, beta + pi): K11 = K22 and K12 = K21.  On the
    zero-auxiliary-phase path of `ch_parameter`, with n = |k|^2 + |q|^2 and
    r = 2 Re(k conj(q)), the unnormalized probabilities are

        4 p11(ta, tb) = |k cos(ta - tb) - q sin(ta + tb)|^2
        4 P(t, inf) = 4 P(inf, t) = n - r sin 2t
        4 P(inf, inf) = 2 n

    Plate pair i has overlaps k[i] and q[i] (`at` builds one pair).  S is one
    fixed sequence of roundings: a complex times a float rounds each part once
    (a signed zero aside, which abs ignores), and |z|^2 is h * h, h = abs(z).
    """

    def __init__(self, k: list, q: list):
        self.k, self.q = k, q

    @classmethod
    def at(cls, alpha: float, beta: float, step_index: StepIndex) -> "ChLandscape":
        """The landscape of the one plate pair at alpha and beta."""
        k = overlap_integral(alpha, beta, step_index)
        return cls([k], [overlap_integral(alpha, beta + math.pi, step_index)])

    def value(self, theta_a: float, theta_a_prime: float, theta_b: float, theta_b_prime: float) -> list:
        """S at each plate pair, at the four splitter angles."""
        c1, s1 = math.cos(theta_a - theta_b), math.sin(theta_a + theta_b)
        c2, s2 = math.cos(theta_a - theta_b_prime), math.sin(theta_a + theta_b_prime)
        c3, s3 = math.cos(theta_a_prime - theta_b), math.sin(theta_a_prime + theta_b)
        c4, s4 = math.cos(theta_a_prime - theta_b_prime), math.sin(theta_a_prime + theta_b_prime)
        sines = math.sin(2.0 * theta_a_prime) + math.sin(2.0 * theta_b)
        s = []
        for k, q in zip(self.k, self.q):
            h1 = abs(k * c1 - q * s1)
            h2 = abs(k * c2 - q * s2)
            h3 = abs(k * c3 - q * s3)
            h4 = abs(k * c4 - q * s4)
            hk, hq = abs(k), abs(q)
            n = hk * hk + hq * hq
            r = 2.0 * (k.real * q.real + k.imag * q.imag)
            s.append((h1 * h1 - h2 * h2 + h3 * h3 + h4 * h4 - (2.0 * n - r * sines)) / (2.0 * n))
        return s


def optimize_thetas(land: ChLandscape):
    """Maximum of S over the four splitter angles, in closed form, at each plate pair.

    Splitter angle t measures the Bloch direction (-sin 2t, cos 2t) in the
    x-z plane, so S = (CHSH - 2) / 4 peaks at the Horodecki optimum for
    coplanar settings, (sqrt(s1^2 + s2^2) - 1) / 2, where s1 and s2 are the
    singular values of the x-z block of the correlation tensor of the
    normalized state vec(K).  For the symmetric K of `ChLandscape` that
    block is diag(1, t) with t = (|k|^2 - |q|^2) / (|k|^2 + |q|^2): its
    singular vectors are the x and z axes.  The optimal directions are
    a = z, a' = x and b, b' = cos(psi) x +/- sin(psi) z with psi = atan(t);
    the direction at angle d from x towards z is splitter angle d / 2 - pi / 4.

    S is taken as t^2 / (2 (sqrt(1 + t^2) + 1)), which cancels nothing; the
    landscape at these angles sums terms of order 1 and can read S < 0.

    Returns one (theta_a, theta_a', theta_b, theta_b') in [0, 2*pi) per
    pair, all sharing one theta_a and one theta_a', and the S at each pair.
    """
    # |t| <= 1 puts psi in [-pi/4, pi/4]: the b angles are negative, and
    # one added turn wraps them into [0, 2*pi) as `wrap_angle` would
    quarter = math.pi / 4.0
    theta_a, theta_a_prime, thetas, s = 0.0, TAU - quarter, [], []
    for k, q in zip(land.k, land.q):
        hk, hq = abs(k), abs(q)
        n, d = hk * hk + hq * hq, hk * hk - hq * hq
        psi, t = math.atan2(d, n), d / n
        thetas.append((theta_a, theta_a_prime, psi / 2.0 - quarter + TAU, -psi / 2.0 - quarter + TAU))
        s.append(t * t / (2.0 * (math.sqrt(1.0 + t * t) + 1.0)))
    return thetas, s


def scan_alpha_beta(grid: ScanGrid, step_index: StepIndex) -> ScanResult:
    """Evaluate S over the alpha x beta lattice covering [0, 2*pi)^2.

    The plate angles are i * (2*pi / steps), numpy's `linspace(0, 2*pi,
    steps, endpoint=False)` bit for bit.  With m and n a row's plates, k is a
    function of the signed difference m - n alone and q of m - wrap(n + pi),
    so S and the angles are a function of that pair, the row's key.  Each
    overlap and key is evaluated once, which gives every row the bits of its
    own plates; more keys than `max_scan_keys` allows raise a ValueError.
    """
    alpha = [i * (TAU / grid.alpha_steps) for i in range(grid.alpha_steps)]
    beta = [j * (TAU / grid.beta_steps) for j in range(grid.beta_steps)]
    # a row's key as complex(m, m) - complex(n, wrap(n + pi)): complex subtraction
    # rounds each part on its own, so equal keys are equal float pairs
    opposite = [complex(n, wrap_angle(n + math.pi)) for n in beta]
    limit = max_scan_keys(len(alpha) * len(beta))

    def next_number() -> int:  # numbers keys in order of first appearance
        if len(numbers) == limit:
            raise ValueError(f"the grid has more than {limit} distinct relative plate "
                             "orientations; steps that share a larger factor repeat them")
        return len(numbers)

    numbers, key = defaultdict(next_number), []
    for m in alpha:
        key.extend(map(numbers.__getitem__, map(complex(m, m).__sub__, opposite)))
    # one overlap per signed plate difference
    differences = {d for z in numbers for d in (z.real, z.imag)}
    overlaps = dict(zip(differences, difference_overlaps(differences, step_index)))
    land = ChLandscape([overlaps[z.real] for z in numbers], [overlaps[z.imag] for z in numbers])
    if grid.theta_policy == "optimize-per-point":
        thetas, s = optimize_thetas(land)
    else:
        s = land.value(*CANONICAL_THETAS)
        thetas = [CANONICAL_THETAS] * len(s)
    return ScanResult(alpha, beta, key, thetas, s, [value > grid.threshold for value in s])
