"""Integer frequency enumeration in Euclidean balls.

Single shared implementation so Weyl spectra, coefficient tables and bound
assemblies all agree on the frequency set and its (deterministic,
lexicographic) order. `stripe_bounds` streams a ball's fundamental domain in
any d, with orbit sizes 2 or d! / prod(mult!) * 2^(nonzero coordinates).
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
    keeps the origin, in its lexicographic place: the middle row. The ball is
    symmetric under k -> -k, so its lexicographic order is antisymmetric,
    ball[::-1] == -ball: row i of any per-row array holds k, and row -1 - i
    holds -k.
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


def stripe_bounds(radius: float, d: int, *, signed_permutations: bool = False):
    """Yield (prefix, start, stop, weights): a fundamental domain of the
    punctured closed ball 0 < |k| <= radius in Z^d under a group G, one stripe
    {prefix} x [start, stop) of kd at a time, prefix = (k1, ..., k_{d-1}), with
    each point's orbit size under G (a scalar when the stripe shares it).

    - G = {I, -I} by default: the lexicographically positive half, weight 2,
      in the order of `integer_ball(radius, d, include_boundary=True)`.
    - With signed_permutations, the 2^d d! signed permutations: the wedge
      k1 >= ... >= kd >= 0, where k's orbit size is d! / prod(mult!) *
      2^(nonzero coordinates), mult the multiplicities of its values. The
      prefix recursion carries that count, so a stripe's weights cost O(1).

    The bounds are exact integer arithmetic on |k|^2 <= radius^2, the test
    `integer_ball` makes.
    """
    ball_extent(radius)                      # raises unless 0 < radius < inf
    r2 = math.floor(float(radius) ** 2)

    def stripes(prefix, room, orbit, last, run):
        # room = r2 - |prefix|^2; orbit counts the prefix's orbit, whose last
        # value `last` repeats `run` times
        reach = math.isqrt(room)
        if signed_permutations:
            start, stop = 0, (reach if last is None else min(last, reach)) + 1
        else:
            start, stop = (-reach if room < r2 else 0), reach + 1
        if len(prefix) < d - 1:
            for k in range(start, stop):
                repeat = run + 1 if k == last else 1
                yield from stripes(prefix + (k,), room - k * k,
                                   orbit * (2 if k else 1) // repeat, k, repeat)
            return
        if room == r2:
            start = 1                        # a zero prefix: leave out the origin
        if start < stop and not signed_permutations:
            yield prefix, start, stop, 2.0
        elif start < stop:
            weights = np.full(stop - start, 2.0 * orbit)    # kd a new nonzero value
            if start == 0:                                  # kd = 0
                weights[0] = orbit // (run + 1) if last == 0 else orbit
            if last and stop == last + 1:                   # kd = k_{d-1}
                weights[-1] = 2 * orbit // (run + 1)
            yield prefix, start, stop, weights

    yield from stripes((), r2, math.factorial(d), None, 0)
