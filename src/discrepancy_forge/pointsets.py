"""Point families on the torus, Weyl spectra, true discrepancy, Schmidt sums.

Generators: full rank-1 lattices m^(-1/d) Z^d, Kronecker orbits {j x mod 1},
and Korobov rank-1 sets {j g / m mod 1} at prime m. Weyl sums for lattice and
Korobov sets are evaluated by their congruence characterization in integer
arithmetic (the 0/1 dichotomy is exact, no float comparisons); Kronecker sums
use the closed Dirichlet-kernel form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResonanceError, require_memory
from .frequencies import TWO_PI, integer_ball
from .geometry import TorusSet


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PointSet:
    """Finite point multiset in [0,1)^d with its generator descriptor."""

    points: np.ndarray
    descriptor: dict

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be an (m, d) array")
        if len(pts) == 0:
            raise ValueError("a point set needs at least one point")
        if not (np.all(0 <= pts) and np.all(pts < 1)):   # NaN fails it too
            raise ValueError("all coordinates must lie in [0, 1)")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def check_point_memory(m: int, d: int, kind: str) -> None:
    """Raise ConfigError before building m points in d dimensions would
    exceed physical memory: at most 32 bytes per coordinate while building."""
    require_memory(32 * m * d, f"the {kind} point set of {m} points in d = {d}")


def lattice(m: int, d: int) -> PointSet:
    """The full lattice m^(-1/d) Z^d in [0,1)^d; m^(1/d) must be an integer."""
    n = round(m ** (1.0 / d))
    if n ** d != m:
        raise ValueError(f"m = {m} is not a d = {d} power: m^(1/d) must be an integer")
    check_point_memory(m, d, "lattice")
    axes = np.meshgrid(*([np.arange(n)] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in axes], axis=1) / n
    return PointSet(points=pts, descriptor={"kind": "lattice", "m": int(m), "d": int(d)})


def kronecker(x, m: int) -> PointSet:
    """First m multiples {j x mod 1}, j = 1..m."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    check_point_memory(m, len(x), "kronecker")
    j = np.arange(1, m + 1)[:, None]
    pts = np.mod(j * x[None, :], 1.0)
    return PointSet(points=pts, descriptor={"kind": "kronecker",
                                            "x": [float(v) for v in x], "m": int(m)})


def korobov(g, m: int) -> PointSet:
    """Rank-1 lattice {j g / m mod 1}, j = 1..m, at prime modulus m."""
    if not is_prime(m):
        raise ValueError(f"korobov modulus must be prime, got {m}")
    g = np.atleast_1d(np.asarray(g, dtype=np.int64))
    if np.any(g < 1) or np.any(g > m - 1):
        raise ValueError("generator entries must lie in [1, m-1]")
    j = np.arange(1, m + 1, dtype=np.int64)[:, None]
    pts = np.mod(j * g[None, :], m) / m
    return PointSet(points=pts, descriptor={"kind": "korobov",
                                            "g": [int(v) for v in g], "m": int(m)})


def pointset_from_descriptor(desc: dict) -> PointSet:
    kind = desc.get("kind")
    if kind == "lattice":
        return lattice(int(desc["m"]), int(desc["d"]))
    if kind == "kronecker":
        return kronecker(desc["x"], int(desc["m"]))
    if kind == "korobov":
        return korobov(desc["g"], int(desc["m"]))
    raise ValueError(f"unknown point set kind {kind!r}")


# ---------------------------------------------------------------------------
# Weyl spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylSpectrum:
    """Psi(k) = |m^-1 sum_j exp(2 pi i k . x_j)| over 0 < |k| < R.

    freqs and values share the deterministic lexicographic enumeration of
    `integer_ball`; `exact` marks spectra from integer congruence arithmetic.
    """

    freqs: np.ndarray
    values: np.ndarray
    R: float
    exact: bool

    def restrict(self, R: float) -> "WeylSpectrum":
        if R > self.R:
            raise ValueError("cannot extend a spectrum; recompute with larger R")
        keep = (self.freqs.astype(float) ** 2).sum(1) < R ** 2
        return WeylSpectrum(freqs=self.freqs[keep], values=self.values[keep],
                            R=float(R), exact=self.exact)


def weyl_spectrum(points: PointSet, R: float) -> WeylSpectrum:
    """Exponential-sum spectrum of a point set over the punctured ball |k| < R."""
    if R < 1:
        raise ValueError("R must be >= 1")
    freqs = integer_ball(R, points.dimension)
    desc = points.descriptor
    kind = desc.get("kind")
    if kind == "lattice":
        n = round(desc["m"] ** (1.0 / desc["d"]))
        vals = np.all(freqs % n == 0, axis=1).astype(float)
        exact = True
    elif kind == "korobov":
        g = np.asarray(desc["g"], dtype=np.int64)
        vals = ((freqs @ g) % desc["m"] == 0).astype(float)
        exact = True
    elif kind == "kronecker":
        x = np.asarray(desc["x"], dtype=float)
        m = desc["m"]
        theta = freqs @ x
        frac = theta - np.round(theta)
        num = np.abs(np.sin(np.pi * m * theta))
        den = m * np.abs(np.sin(np.pi * theta))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(np.abs(frac) < 1e-14, 1.0, num / den)
        vals = np.minimum(vals, 1.0)
        exact = False
    else:
        phases = np.exp(TWO_PI * 1j * (freqs.astype(float) @ points.points.T))
        vals = np.abs(phases.mean(axis=1))
        exact = False
    return WeylSpectrum(freqs=freqs, values=vals, R=float(R), exact=exact)


# ---------------------------------------------------------------------------
# discrepancy and the Schmidt diophantine sum
# ---------------------------------------------------------------------------

def true_discrepancy(points: PointSet, set_: TorusSet) -> float:
    """|mu(Omega) - (points inside)/m| with the set's membership convention."""
    inside = int(np.count_nonzero(set_.contains(points.points)))
    return abs(set_.measure() - inside / points.size)


def schmidt_sum(x, R: float) -> float:
    """sum over 0 < |k| < R of |k|^-d ||k . x||^-1 (|| || = distance to Z).

    Raises ResonanceError when some ||k . x|| is at most 1e-12, which signals
    a rational-direction resonance (the sum is infinite).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = len(x)
    freqs = integer_ball(R, d)
    theta = freqs.astype(float) @ x
    dist = np.abs(theta - np.round(theta))
    if np.any(dist <= 1e-12):
        k_bad = freqs[int(np.argmin(dist))]
        raise ResonanceError(
            f"||k . x|| = 0 at k = {tuple(int(v) for v in k_bad)}; sum diverges")
    norms = np.sqrt((freqs.astype(float) ** 2).sum(1))
    return float(np.sum(norms ** (-d) / dist))
