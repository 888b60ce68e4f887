"""Gauss-Legendre nodes and weights in Python floats, for the quadrature oracles.

`azimuthal.gauss_segments` imports this on its first call, so only
`validate` loads it, and `numpy.polynomial` is never needed.
"""

from __future__ import annotations

import math


def _legendre(order: int, x: float) -> tuple[float, float]:
    """P_order(x) and P_order'(x), from Bonnet's three-term recurrence."""
    p0, p1 = 1.0, x
    for k in range(2, order + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, order * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def gauss_legendre(order: int) -> tuple[list[float], list[float]]:
    """Gauss-Legendre nodes on [-1, 1], ascending, and their weights 2/((1 - x^2) P'(x)^2).

    Newton's method on P_order finds each nonnegative root from the guess
    cos(pi*(i + 3/4)/(order + 1/2)); the roots pair up as +-x.
    """
    roots = []  # (x, weight) of the nonnegative roots, largest first
    for i in range((order + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (order + 0.5))
        for _ in range(100):
            p, dp = _legendre(order, x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-15:
                break
        dp = _legendre(order, x)[1]
        roots.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    pairs = [(-x, w) for x, w in roots] + roots[: order // 2][::-1]
    return [x for x, _ in pairs], [w for _, w in pairs]
