"""Mapping the CH-violation landscape over plate orientations.

With the plates fixed, two plate overlaps, k = I(alpha, beta) and
q = I(alpha, beta + pi), fully determine the dependence of every
coincidence probability on the splitter angles, so S is one closed formula
in the four angles (`ChLandscape`).  The per-point optimum over the
splitter angles is exact, read off the x-z block of the state's
correlation tensor (Horodecki criterion for coplanar settings).

A scan row's overlaps depend only on its relative plate orientation, its
key.  Each pass over a scan streams the rows and evaluates, in pure Python,
the keys that its own bounded memo does not hold (`Scan`).
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict, namedtuple

from .azimuthal import TAU, StepIndex, difference_overlaps, overlap_integral, wrap_angle
from .chtest import CANONICAL_THETAS

THETA_POLICIES = ("fixed-canonical", "optimize-per-point")
FIXED_THETAS = {"fixed-canonical": CANONICAL_THETAS}  # the angles a policy gives every row

# A scan row costs about 0.5 us as CSV, 0.9 us as JSON, and a new key 3-8 us; a JSON scan's
# first pass adds about 0.3 us a row and 2-3 us a key (README, Domain limits)
MAX_SCAN_POINTS = 2**20
# The most rows a scan handles at a time, and the most keys a pass's memo holds
_CHUNK_ROWS = 4096
_MEMO_KEYS = 2**16


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


class ScanResult(namedtuple("ScanResult", "rows exceeding best")):
    """A scan's row count, its flagged rows, and its first row with the largest S, as the scan yields rows."""

    __slots__ = ()

    def __new__(cls, rows, exceeding, best):
        if not rows:
            raise ValueError("scan produced no rows")
        return tuple.__new__(cls, (rows, exceeding, best))


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


class Scan:
    """S over the alpha x beta lattice covering [0, 2*pi)^2, evaluated as its rows are read.

    A pass (iterating) yields the rows in (alpha index, beta index) order as
    chunks (alphas, betas, tails) of at most `_CHUNK_ROWS` rows alphas x betas;
    a row's tail is `tail(thetas, S, flag)`, by default (*thetas, S, flag).
    Each full pass computes its rows afresh and sets `result`.  A row's key,
    the signed differences (m - n, m - wrap(n + pi)) of its plates m and n,
    fixes its angles and S.  A pass's own memo numbers the keys by first
    appearance and holds their tails and flags; a chunk's new keys are
    evaluated together, and a chunk that could take the memo past
    `_MEMO_KEYS` keys starts from an empty one.
    """

    def __init__(self, grid: ScanGrid, step_index: StepIndex, tail=None):
        self.grid, self.step_index, self.result = grid, step_index, None
        self.tail = tail or (lambda thetas, s, flag: (*thetas, s, flag))

    def _evaluate(self, keys: list) -> tuple[list, list, list]:
        """Each key's angles, S and flag."""
        step_index = self.step_index
        land = ChLandscape(difference_overlaps([z.real for z in keys], step_index),
                           difference_overlaps([z.imag for z in keys], step_index))
        fixed = FIXED_THETAS.get(self.grid.theta_policy)
        if fixed is None:
            thetas, s = optimize_thetas(land)
        else:
            s = land.value(*fixed)
            thetas = [fixed] * len(s)
        return thetas, s, [value > self.grid.threshold for value in s]

    def __iter__(self):
        alpha_steps, beta_steps = self.grid.alpha_steps, self.grid.beta_steps
        span, width = max(1, _CHUNK_ROWS // beta_steps), min(beta_steps, _CHUNK_ROWS)
        columns = [(j, min(j + width, beta_steps)) for j in range(0, beta_steps, width)]
        best, exceeding, cached, numbers = None, 0, None, ()
        for i in range(0, alpha_steps, span):
            # plate angles as numpy's linspace(0, 2*pi, steps, endpoint=False) gives them
            alphas = [a * (TAU / alpha_steps) for a in range(i, min(i + span, alpha_steps))]
            for j in columns:
                if j != cached:  # rows of one chunk's width take their betas once
                    cached, betas = j, [b * (TAU / beta_steps) for b in range(*j)]
                    # a key as complex(m, m) - complex(n, wrap(n + pi)), equal float pairs as equal keys
                    opposite = [complex(n, wrap_angle(n + math.pi)) for n in betas]
                if not numbers or len(numbers) > _MEMO_KEYS - _CHUNK_ROWS:
                    # an empty memo: a number per key, and by number its tail and flag
                    numbers, tails, flags, flagged = defaultdict(itertools.count().__next__), [], [], 0
                known = len(tails)
                rows = [numbers[plate - z] for plate in map(complex, alphas, alphas) for z in opposite]
                if len(numbers) > known:
                    fresh = list(itertools.islice(reversed(numbers), len(numbers) - known))[::-1]
                    thetas, s, new_flags = self._evaluate(fresh)
                    tails += map(self.tail, thetas, s, new_flags)
                    flags += new_flags
                    flagged += sum(new_flags)
                    # the best row is the first row of the first new key whose S beats every S before
                    top = max(s)
                    if best is None or top > best[6]:
                        k = s.index(top)
                        r = rows.index(known + k)
                        best = (alphas[r // len(betas)], betas[r % len(betas)], *thetas[k], top, new_flags[k])
                if flagged:  # rows of unflagged keys add nothing
                    exceeding += sum([flags[r] for r in rows])
                yield alphas, betas, [tails[r] for r in rows]
        self.result = ScanResult(alpha_steps * beta_steps, exceeding, best)


scan_alpha_beta = Scan  # the name the library and the `scan` command call it by
