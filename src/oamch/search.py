"""Mapping the CH-violation landscape over plate orientations.

With the plates fixed, two plate overlaps, k = I(alpha, beta) and
q = I(alpha, beta + pi), fully determine the dependence of every
coincidence probability on the splitter angles, so S is one closed formula
in the four angles (`ChLandscape`).  Both scan policies need less: they
depend on the plates only through

    t = (|k|^2 - |q|^2) / (|k|^2 + |q|^2).

The per-point optimum over the splitter angles is exact, read off the x-z
block of the state's correlation tensor (Horodecki criterion for coplanar
settings), and is a function of t (`optimize_thetas`).  At the canonical
angles (0, pi/4, pi/8, 3 pi/8), with c = cos(pi/8), s = sin(pi/8),
n = |k|^2 + |q|^2 and r = 2 Re(k conj(q)), the landscape's terms are

    4 p(a, b) = |k|^2 c^2 + |q|^2 s^2 - r c s
    4 p(a, b') = |k|^2 s^2 + |q|^2 c^2 - r c s
    4 p(a', b) = 4 p(a', b') = (n - r) c^2
    4 P(a', inf) + 4 P(inf, b) = 2 n - r (1 + 1/sqrt(2)),   4 P(inf, inf) = 2 n.

S is (p(a, b) - p(a, b') + p(a', b) + p(a', b') - P(a', inf) - P(inf, b)) / P(inf, inf).
With c^2 - s^2 = 1/sqrt(2) and 2 c^2 = 1 + 1/sqrt(2), r cancels from it:

    S = ((|k|^2 - |q|^2) / sqrt(2) + n (1/sqrt(2) - 1)) / (2 n)
      = (t - (sqrt(2) - 1)) / (2 sqrt(2)),

which is (sqrt(2) - 1) / 2 at t = 1.

A key's n and d need no complex arithmetic.  The overlap at a plate
difference x is exp(-i L |x|) (2 pi - |x| J), or its conjugate, with
J = 1 - exp(2 pi i L) (`azimuthal.overlap_integral`), and |J|^2 = 2 Re J = 4 s
exactly, s = sin^2(pi L).  So |k|^2 = 4 pi^2 c + 4 s (a - pi)^2 with
c = cos^2(pi L) and a = |alpha - beta|, and |q|^2 is the same in
b = |alpha - wrap(beta + pi)|.  A scan puts alpha at 2 pi i / A and beta at
2 pi j / B.  With M = A B, m = i B - j A and h = 1 where beta + pi wraps
(2 j >= B), else 0, a - pi = pi X / M and b - pi = pi Y / M for the integers
X = |2 m| - M and Y = |2 m - M + 2 M h| - M.  Scaled by M^2 / (4 pi^2), which
cancels from t = d / n and psi = atan2(d, n),

    n = 2 c M^2 + s (X^2 + Y^2),    d = s (X^2 - Y^2).

|X|, |Y| <= M <= 2^20 make X^2 + Y^2 and X^2 - Y^2 exact, and s and c are
taken at f = L - round(L), exact and in [-1/2, 1/2], where sin(pi f) loses
no digits: t is a few roundings from its value at the rational angles, about
1e-16 relative from the float angles a row prints.  d is 0 wherever
|X| = |Y| and at an integer L, and keys with equal X^2 and Y^2, such as
(m, h) and (-m, 1 - h), get equal bits.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .azimuthal import TAU, StepIndex, overlap_integral
from .coincidence import CANONICAL_THETAS

THETA_POLICIES = ("fixed-canonical", "optimize-per-point")
# theta_a and theta_a' of every optimal row (`optimize_thetas`)
_OPTIMAL_THETA_A = (0.0, TAU - math.pi / 4.0)
# the angles a policy gives every row, None where each row has its own
FIXED_THETAS = {"fixed-canonical": CANONICAL_THETAS, "optimize-per-point": (*_OPTIMAL_THETA_A, None, None)}
# S at the canonical angles is (t - _CANONICAL_OFFSET) / _CANONICAL_SCALE
_CANONICAL_OFFSET, _CANONICAL_SCALE = math.sqrt(2.0) - 1.0, 2.0 * math.sqrt(2.0)

# A scan row costs about 0.2 us as CSV and 0.7-1 us as JSON, and 1 or 5 us more where it is evaluated from
# its own key; a JSON scan's first pass adds about 0.1 us a row and 0.5-0.8 us such a key (README, Domain limits)
MAX_SCAN_POINTS = 2**20
# The most steps along either axis: the other axis has at least 2
_MAX_STEPS = MAX_SCAN_POINTS // 2
# The most rows a scan handles at a time, and the most keys its table holds
_CHUNK_ROWS = 4096
_TABLE_KEYS = 2**16


class ScanGrid(namedtuple("ScanGrid", "alpha_steps beta_steps theta_policy threshold")):
    """Grid resolution, splitter-angle policy, and the violation threshold."""

    __slots__ = ()

    def __new__(cls, alpha_steps: int, beta_steps: int, theta_policy: str = "fixed-canonical",
                threshold: float = 0.204):
        for name, value in (("alpha_steps", alpha_steps), ("beta_steps", beta_steps)):
            if not 2 <= value < math.inf or int(value) != value:
                raise ValueError(f"{name} must be an integer >= 2")
            if value > _MAX_STEPS:  # refused before the product is formed
                raise ValueError(f"{name} must be at most {_MAX_STEPS} (2^19), got {value!r}")
        points = int(alpha_steps) * int(beta_steps)
        if points > MAX_SCAN_POINTS:
            raise ValueError(f"the grid has {points} points; at most {MAX_SCAN_POINTS} (2^20) are allowed")
        if theta_policy not in THETA_POLICIES:
            raise ValueError(f"theta_policy must be one of {THETA_POLICIES}, got {theta_policy!r}")
        if not math.isfinite(threshold):
            raise ValueError("threshold must be finite")
        return tuple.__new__(cls, (int(alpha_steps), int(beta_steps), theta_policy, float(threshold)))


class ScanResult(namedtuple("ScanResult", "rows exceeding best")):
    """A scan's row count, its flagged rows, and its first row with the largest S, as the scan yields rows."""

    __slots__ = ()

    def __new__(cls, rows, exceeding, best):
        if not rows:
            raise ValueError("scan produced no rows")
        return tuple.__new__(cls, (rows, exceeding, best))


# Only the tests, as the reference at general angles, and the benchmark's tracer,
# which subclasses it, use this class; ROADMAP items 3 and 7 retire it.
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


def optimize_thetas(n: list, d: list):
    """Maximum of S over the four splitter angles, in closed form, at each plate pair.

    Plate pair i has n[i] = |k|^2 + |q|^2 and d[i] = |k|^2 - |q|^2, or one
    positive multiple of both (a scan's are M^2 / (4 pi^2) times them).

    Splitter angle t measures the Bloch direction (-sin 2t, cos 2t) in the
    x-z plane, so S = (CHSH - 2) / 4 peaks at the Horodecki optimum for
    coplanar settings, (sqrt(s1^2 + s2^2) - 1) / 2, where s1 and s2 are the
    singular values of the x-z block of the correlation tensor of the
    normalized state vec(K).  For the symmetric K of `ChLandscape` that
    block is diag(1, t) with t = d / n: its singular vectors are the x and
    z axes.  The optimal directions are a = z, a' = x and
    b, b' = cos(psi) x +/- sin(psi) z with psi = atan(t) = atan2(d, n); the
    direction at angle w from x towards z is splitter angle w / 2 - pi / 4.

    S is taken as t^2 / (2 (sqrt(1 + t^2) + 1)), which cancels nothing; the
    landscape at these angles sums terms of order 1 and can read S < 0.

    Returns one (theta_a, theta_a', theta_b, theta_b') in [0, 2*pi) per
    pair, all sharing one theta_a and one theta_a', and the S at each pair.
    """
    # |t| <= 1 puts psi in [-pi/4, pi/4]: the b angles are negative, and
    # one added turn wraps them into [0, 2*pi) as `wrap_angle` would
    quarter = math.pi / 4.0
    (theta_a, theta_a_prime), thetas, s = _OPTIMAL_THETA_A, [], []
    for norm, diff in zip(n, d):
        psi, t = math.atan2(diff, norm), diff / norm
        thetas.append((theta_a, theta_a_prime, psi / 2.0 - quarter + TAU, -psi / 2.0 - quarter + TAU))
        s.append(t * t / (2.0 * (math.sqrt(1.0 + t * t) + 1.0)))
    return thetas, s


class Scan:
    """S over the alpha x beta lattice covering [0, 2*pi)^2, evaluated as its rows are read.

    A pass (iterating) yields the rows in (alpha index, beta index) order as
    chunks (alphas, betas, tails) of at most `_CHUNK_ROWS` rows alphas x betas,
    and sets `result`.  Keys get the list of tails `tail(thetas, s, flags)`
    returns for columns of angles, S and flags, by default (*thetas, S, flag)
    per key.  A row's tails are slices of the table of the grid's keys (m, h)
    when that is small (`_TABLE_KEYS`); otherwise each chunk's rows are evaluated.
    """

    def __init__(self, grid: ScanGrid, step_index: StepIndex, tail=None):
        self.grid, self.step_index, self.result = grid, step_index, None
        self.tail = tail or (lambda thetas, s, flags: [(*t, v, f) for t, v, f in zip(thetas, s, flags)])

    def _evaluate(self, ps, qs) -> list:
        """Four columns, the angles, S, flags and tails of the keys p = 2 m and q = 2 m - M + 2 M h."""
        size = float(self.grid.alpha_steps * self.grid.beta_steps)
        f = self.step_index.value - round(self.step_index.value)
        sine, cosine = math.sin(math.pi * f), math.cos(math.pi * f)
        sin2, w = sine * sine, 2.0 * cosine * cosine * (size * size)  # s and 2 c M^2
        n, d = [], []
        for p, q in zip(ps, qs):
            x, y = abs(p) - size, abs(q) - size
            n.append(w + sin2 * (x * x + y * y))
            d.append(sin2 * (x * x - y * y))
        if self.grid.theta_policy == "optimize-per-point":
            thetas, s = optimize_thetas(n, d)
        else:
            s = [(diff / norm - _CANONICAL_OFFSET) / _CANONICAL_SCALE for norm, diff in zip(n, d)]
            thetas = [CANONICAL_THETAS] * len(s)
        flags = [value > self.grid.threshold for value in s]
        return [thetas, s, flags, self.tail(thetas, s, flags)]

    def __iter__(self):
        alpha_steps, beta_steps = self.grid.alpha_steps, self.grid.beta_steps
        size, g = alpha_steps * beta_steps, math.gcd(alpha_steps, beta_steps)
        da, db = alpha_steps // g, beta_steps // g
        span, width = max(1, _CHUNK_ROWS // beta_steps), min(beta_steps, _CHUNK_ROWS)
        columns = [(j, min(j + width, beta_steps)) for j in range(0, beta_steps, width)]
        half = (beta_steps + 1) // 2  # beta + pi wraps (h = 1) from this beta index on
        # p = 2 m of each key of the table, where row i and column j read (A - 1 - i) B / g + j A / g
        ps = range(2 * (alpha_steps - 1) * beta_steps, -2 * (beta_steps - 1) * alpha_steps - 1, -2 * g)
        tables = None if 2 * len(ps) > min(size, _TABLE_KEYS) else [
            self._evaluate(ps, [p + shift for p in ps]) for shift in (-size, size)]
        best, exceeding = None, 0
        for i in range(0, alpha_steps, span):
            plates = range(i, min(i + span, alpha_steps))
            # plate angles as numpy's linspace(0, 2*pi, steps, endpoint=False) gives them
            alphas = [a * (TAU / alpha_steps) for a in plates]
            for j in columns:
                betas = [b * (TAU / beta_steps) for b in range(*j)]
                if tables is None:  # row i's p and q are 2 i B less dp and dq
                    dp = [2.0 * b * alpha_steps for b in range(*j)]
                    dq = [p + size if b < half else p - size for b, p in enumerate(dp, j[0])]
                    thetas, s, flags, tails = self._evaluate([2 * a * beta_steps - p for a in plates for p in dp],
                                                             [2 * a * beta_steps - q for a in plates for q in dq])
                else:
                    chunk = thetas, s, flags, tails = [], [], [], []
                    for a in plates:
                        base = (alpha_steps - 1 - a) * db
                        for table, lo, hi in ((tables[0], j[0], min(j[1], half)), (tables[1], max(j[0], half), j[1])):
                            for part, column in zip(chunk, table):
                                part += column[base + lo * da:base + hi * da:da]
                exceeding += sum(flags)
                top = max(s)
                if best is None or top > best[6]:
                    k = s.index(top)
                    best = (alphas[k // len(betas)], betas[k % len(betas)], *thetas[k], top, flags[k])
                yield alphas, betas, tails
        self.result = ScanResult(size, exceeding, best)


scan_alpha_beta = Scan  # the name the library and the `scan` command call it by
