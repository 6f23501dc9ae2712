"""Integer frequency enumeration in Euclidean balls.

Single shared implementation so Weyl spectra, coefficient tables and bound
assemblies all agree on the frequency set and its (deterministic,
lexicographic) order.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi  # phase scale of e(k . x) = exp(2 pi i k . x)


def ball_extent(radius: float) -> int:
    """floor(radius), the largest coordinate of an integer vector in the ball.

    Raises ValueError unless the radius is positive and finite, before any
    array is sized by it.
    """
    if not 0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    return int(np.floor(radius))


def integer_ball(radius: float, d: int, *, include_boundary: bool = False,
                 include_zero: bool = False) -> np.ndarray:
    """Integer vectors k with 0 < |k| < radius (Euclidean), lexicographic order.

    include_boundary switches the norm test to |k| <= radius; include_zero
    prepends the origin.
    """
    kmax = ball_extent(radius)
    if d < 1:
        raise ValueError("dimension must be >= 1")
    axis = np.arange(-kmax, kmax + 1, dtype=np.int64)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    norm2 = np.sum(pts.astype(float) ** 2, axis=1)
    r2 = float(radius) ** 2
    keep = (norm2 <= r2) if include_boundary else (norm2 < r2)
    if not include_zero:
        keep &= norm2 > 0
    return pts[keep]


def integer_ball_bytes(radius: float, d: int) -> int:
    """About the most bytes `integer_ball(radius, d)` and a value per ball row
    hold at once: 24 (d + 1) per row of the (2 floor(radius) + 1)^d cube."""
    return 24 * (d + 1) * (2 * ball_extent(radius) + 1) ** d


def positive_half(radius: float, d: int) -> np.ndarray:
    """The lexicographically positive half (first nonzero coordinate > 0) of
    the punctured closed ball 0 < |k| <= radius, in lexicographic order.

    It is the upper half of the ball's rows, since their lexicographic order
    reversed is their order negated: a sum of f(k) = f(-k) over the ball is
    twice the sum over this half.
    """
    ball = integer_ball(radius, d, include_boundary=True)
    return ball[len(ball) // 2:]


def stripe_bounds(radius: float, *, signed_permutations: bool = False):
    """Yield (k1, start, stop, weights): a fundamental domain of the punctured
    closed ball 0 < |k| <= radius in Z^2 under a group G of symmetries, one
    stripe {k1} x [start, stop) of constant k1 >= 0 at a time, with each
    point's orbit size under G (a scalar when the whole stripe shares it).

    A sum of a G-invariant f over the ball is the sum over the stripes of
    weights * f(k1, start ... stop - 1).

    - G = {I, -I} by default: the lexicographically positive half, weight 2,
      in lexicographic order (`positive_half(radius, 2)`, stripe by stripe).
    - With signed_permutations, G is all 8 signed permutation matrices: the
      wedge 0 <= k2 <= k1, weight 8 inside and 4 on the axis k2 = 0 and the
      diagonal k2 = k1.

    The bounds are exact integer arithmetic on k1^2 + k2^2 <= radius^2, the
    test `integer_ball(radius, 2, include_boundary=True)` makes.
    """
    kmax = ball_extent(radius)
    r2 = math.floor(float(radius) ** 2)
    for k1 in range(kmax + 1):
        reach = math.isqrt(r2 - k1 * k1)     # the largest k2 >= 0 in the ball
        if signed_permutations:
            if k1 == 0:
                continue                     # the wedge's k1 = 0 stripe holds only 0
            stop = min(k1, reach) + 1
            weights = np.full(stop, 8.0)
            weights[0] = 4.0
            if stop == k1 + 1:
                weights[-1] = 4.0
            yield k1, 0, stop, weights
        elif k1 > 0:
            yield k1, -reach, reach + 1, 2.0
        elif reach:
            yield 0, 1, reach + 1, 2.0       # the upper half of the k1 = 0 stripe
