"""Integer frequency enumeration in Euclidean balls.

Single shared implementation so Weyl spectra, coefficient tables and bound
assemblies all agree on the frequency set and its (deterministic,
lexicographic) order.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi  # phase scale of e(k . x) = exp(2 pi i k . x)


def integer_ball(radius: float, d: int, *, include_boundary: bool = False,
                 include_zero: bool = False) -> np.ndarray:
    """Integer vectors k with 0 < |k| < radius (Euclidean), lexicographic order.

    include_boundary switches the norm test to |k| <= radius; include_zero
    prepends the origin.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    kmax = int(np.floor(radius))
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
    return 24 * (d + 1) * (2 * int(np.floor(radius)) + 1) ** d


def fundamental_domain_chunked(radius: float, d: int, *, signed_permutations: bool = False):
    """Yield (rows, weights) chunks of a fundamental domain of the punctured
    closed ball 0 < |k| <= radius under a group G of symmetries of Z^d, with
    each row's orbit size under G (a scalar when every row shares it).

    A sum of a G-invariant f over the ball is the sum of weights * f(rows)
    over the chunks.

    - G = {I, -I} by default: the lexicographically positive half (first
      nonzero coordinate > 0), weight 2, in lexicographic order. A chunk
      closed under negation and without 0 holds its positive half in its
      upper half, since its lexicographic order reversed is its order negated.
    - With signed_permutations in d = 2 (elsewhere G stays {I, -I}), G is
      all 8 signed permutation matrices: the wedge 0 <= k2 <= k1, weight 8
      inside and 4 on the axis k2 = 0 and the diagonal k2 = k1.

    In d = 2 each chunk is one stripe of constant k1 >= 0, so it holds at most
    2 floor(radius) + 1 rows (floor(radius) + 1 in the wedge).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if d != 2:
        ball = integer_ball(radius, d, include_boundary=True)
        yield ball[len(ball) // 2:], 2.0
        return
    # the k1 = 0 stripe keeps its upper half; in the wedge it holds only 0
    kmax = int(np.floor(radius))
    r2 = float(radius) ** 2
    axis = np.arange(-kmax, kmax + 1, dtype=np.int64)
    for k1 in range(kmax + 1):
        k2 = axis[kmax:kmax + k1 + 1] if signed_permutations else axis
        norm2 = float(k1) ** 2 + k2.astype(float) ** 2
        k2 = k2[(norm2 <= r2) & (norm2 > 0)]
        if not len(k2):
            continue
        stripe = np.empty((len(k2), 2), dtype=np.int64)
        stripe[:, 0] = k1
        stripe[:, 1] = k2
        if signed_permutations:
            weights = np.full(len(k2), 8.0)
            weights[(k2 == 0) | (k2 == k1)] = 4.0
            yield stripe, weights
        else:
            yield (stripe if k1 > 0 else stripe[len(stripe) // 2:]), 2.0
