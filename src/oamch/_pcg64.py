"""numpy's multinomial draws for `mc`, computed with Python ints and floats.

`pcg64(entropy)` steps the PCG64 generator (M. E. O'Neill, HMC-CS-2014-0905,
2014) that `numpy.random.default_rng(entropy)` seeds through
`SeedSequence(entropy)`.  `multinomial(entropy, trials, pvals)` returns the
counts that numpy (2.0 or later) returns for
`numpy.random.default_rng(entropy).multinomial(trials, pvals)`: one
binomial draw per cell from the doubles of numpy's `Generator.random`, by
inversion for small means and by BTPE (V. Kachitvichyanukul and B. W.
Schmeiser, Commun. ACM 31(2), 216, 1988) for large ones.  None of it
imports numpy.

Each float operation follows numpy's C code in the same order, so every
rounding agrees: an int64 meets a double as C converts it (`float(n)`, not
`int / int`), sums run left to right, the int64 products that can wrap near
2**63 trials wrap, and where C's `log`, `log1p` or `exp` gives -inf or inf
the code takes the branch that value would take.
"""

from __future__ import annotations

import math

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants and pool size (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(entropy, n_words: int) -> list[int]:
    """`SeedSequence(entropy).generate_state(n_words)`: n_words uint32 words.

    `entropy` is a sequence of nonnegative ints; each enters as its 32-bit
    words, least significant first, and 0 as one word.
    """
    words = []
    for value in entropy:
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state


def pcg64(entropy):
    """`next_uint64` of `numpy.random.PCG64(entropy)`: its 64-bit outputs, in order."""
    w = _seed_words(entropy, 8)
    # the words pair up little-endian into four uint64: state hi, lo; increment hi, lo
    s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128

    def next_uint64() -> int:
        nonlocal state
        state = (state * _PCG_MULT + inc) & _MASK128
        # XSL-RR: the xor of the two halves, rotated right by the top 6 bits
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (-rot & 63)) & _MASK64

    return next_uint64


def _int64(value: int) -> int:
    """`value` wrapped to a signed 64-bit integer, as C's int64 arithmetic wraps."""
    return (value + 2**63) % 2**64 - 2**63


def _inversion(next_double, n: int, p: float) -> int:
    """numpy's `random_binomial_inversion`, for n * p <= 30."""
    u = next_double()
    if p < 0.0:
        # a conditional probability rounded past 1 leaves p = 1 - p' < 0; then
        # qn = exp(n * log1p(-p)) >= 1 > u and numpy's loop never runs
        return 0
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))  # not q**n: numpy takes log1p
    mean = n * p
    bound = int(min(float(n), mean + 10.0 * math.sqrt(mean * q + 1)))
    x = 0
    px = qn
    while u > px:
        x += 1
        if x > bound:  # x past the mean plus 10 sd: reached by no seed in the tests
            x = 0
            px = qn
            u = next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _btpe(next_double, n: int, p: float) -> int:
    """numpy's `random_binomial_btpe`, for n * p > 30 and p <= 0.5."""
    q = 1.0 - p  # numpy's r = min(p, 1 - p) is p here
    fm = n * p + p
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * p * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * p)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * p * q

    while True:
        u = next_double() * p4
        v = next_double()
        if u <= p1:
            # the triangular centre: accepted at once
            return math.floor(xm - p1 * v + u)
        if u <= p2:
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:
            if v == 0.0:  # numpy rejects log(0) after taking it; a chance of 2**-53
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:
            if v == 0.0:  # as above, a chance of 2**-53
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:  # no seed in 20,000 at n = 61, p = 0.5; its rate is not measured
                continue
            v = v * (u - p3) * lamr

        k = abs(y - m)
        if k <= 20 or float(k) >= nrq / 2.0 - 1:
            # evaluate f(y) / f(m) by its recursion; n + 1 wraps at n = 2**63 - 1
            s = p / q
            a = s * _int64(n + 1)
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v > f:
                continue
            return y

        # squeeze, then the Stirling-series bound on log f(y) / f(m)
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = _int64(-k * k) / (2 * nrq)
        big_a = math.log(v) if v > 0.0 else -math.inf
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        # numpy forms these four in doubles; above 2**53 they round unlike int sums
        x1 = float(y) + 1.0
        f1 = float(m) + 1.0
        z = float(n) + 1.0 - float(m)
        w = float(n) - float(y) + 1.0
        x2 = x1 * x1
        f2 = f1 * f1
        z2 = z * z
        w2 = w * w
        if big_a > (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w)
                    + (y - m) * math.log(w * p / (x1 * q))
                    + (13680. - (462. - (132. - (99. - 140. / f2) / f2) / f2) / f2) / f1 / 166320.
                    + (13680. - (462. - (132. - (99. - 140. / z2) / z2) / z2) / z2) / z / 166320.
                    + (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x1 / 166320.
                    + (13680. - (462. - (132. - (99. - 140. / w2) / w2) / w2) / w2) / w / 166320.):
            continue
        return y


def _binomial(next_double, p: float, n: int) -> int:
    """numpy's `random_binomial`: inversion below a mean of 30, BTPE above."""
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _inversion(next_double, n, p) if p * n <= 30.0 else _btpe(next_double, n, p)
    q = 1.0 - p
    return n - (_inversion(next_double, n, q) if q * n <= 30.0 else _btpe(next_double, n, q))


def multinomial(entropy, trials: int, pvals) -> list[int]:
    """`numpy.random.default_rng(entropy).multinomial(trials, pvals)` as a list of ints.

    `pvals` are floats in [0, 1] whose first len - 1 sum to at most 1, and
    `trials` lies in [0, 2**63), as numpy requires; they are not checked here.
    """
    next_uint64 = pcg64(entropy)

    def next_double() -> float:
        # numpy's Generator.random: the top 53 bits of one output
        return (next_uint64() >> 11) * (1.0 / 9007199254740992.0)

    counts = [0] * len(pvals)
    remaining_p = 1.0
    left = trials
    for j in range(len(pvals) - 1):
        counts[j] = _binomial(next_double, pvals[j] / remaining_p, left)
        left -= counts[j]
        if left <= 0:
            break
        remaining_p -= pvals[j]
    if left > 0:
        counts[-1] = left
    return counts
