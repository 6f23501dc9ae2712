"""Good-lattice-point search via the congruence chain sum and its average.

For prime m and generator g in [1, m-1]^d, the figure of merit is

    S(g) = sum over 0 < |k| < m, g . k = 0 (mod m) of Phi(k).

The mean of S over all g is at most (m-1)^-1 sum over the whole ball of Phi,
so a minimizer does at least as well as that average certificate; exhaustive
search realizes the existence argument constructively.

For d = 2 the congruence set depends on g only through a = -g1 * g2^-1 mod m:
g . k = 0 (mod m) exactly when k2 = a k1, and inside |k| < m no row with
k1 = 0 (mod m) qualifies. So one pass over the k ball assigns each row its
residue class a = k2 * k1^-1 and every d = 2 strategy looks its candidates
up in one table of class sums, each taken as `congruence_sum` takes it (over
the class's values in ascending order), so every entry equals
`congruence_sum` bitwise. `exhaustive` reads one generator per class, the
representative (g1, 1) of class m - g1, in g1 order. For d != 2 each
candidate is a `congruence_sum` of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import ChainSystem, phi
from .errors import require_memory
from .frequencies import integer_ball, integer_ball_bytes
from .pointsets import is_prime


@dataclass(frozen=True)
class PhiBall:
    """Phi evaluated over the punctured integer ball |k| < m, shared read-only."""

    m: int
    freqs: np.ndarray
    values: np.ndarray

    @classmethod
    def build(cls, chains: ChainSystem, m: int) -> "PhiBall":
        freqs = integer_ball(m, chains.dimension)
        return cls(m=int(m), freqs=freqs, values=phi(chains, freqs.astype(float)))

    @property
    def total(self) -> float:
        return float(np.sum(np.sort(self.values)))


@dataclass(frozen=True)
class GlpCertificate:
    m: int
    d: int
    g: tuple
    value: float
    average: float              # (m-1)^-1 sum over the ball of Phi
    strategy: str
    searched: int
    exact_mean: float | None    # mean of S(g) over all g (d = 2 exhaustive)
    best_to_average: float


def congruence_sum(g, m: int, chains: ChainSystem, *,
                   phi_ball: PhiBall | None = None) -> float:
    """Exact sum of Phi over {0 < |k| < m : g . k = 0 (mod m)}.

    Summation runs in ascending magnitude order for run-to-run determinism.
    """
    if not is_prime(m):
        raise ValueError(f"modulus must be prime, got {m}")
    g = np.atleast_1d(np.asarray(g, dtype=np.int64))
    if np.any(g < 1) or np.any(g > m - 1):
        raise ValueError("generator entries must lie in [1, m-1]")
    if phi_ball is None:
        phi_ball = PhiBall.build(chains, m)
    mask = (phi_ball.freqs @ g) % m == 0
    return float(np.sum(np.sort(phi_ball.values[mask])))


def _residue_class(k: np.ndarray, m: int) -> np.ndarray:
    """Class a = k2 * k1^-1 (mod m) of each pair k (last axis), -1 where k1 = 0 (mod m)."""
    k1 = k[..., 0] % m
    inv = np.array([0] + [pow(j, -1, m) for j in range(1, m)], dtype=np.int64)
    return np.where(k1 != 0, (k[..., 1] % m) * inv[k1] % m, -1)


def _class_of(g: np.ndarray, m: int) -> np.ndarray:
    """Class of generators g (last axis): g . k = 0 (mod m) iff k has the class of (g2, -g1)."""
    return _residue_class(np.stack([g[..., 1], -g[..., 0]], axis=-1), m)


def _sorted_class_sums(phi_ball: PhiBall) -> np.ndarray:
    """S_class[a] summed as `congruence_sum` sums it, so bitwise equal to it; d = 2."""
    a = _residue_class(phi_ball.freqs, phi_ball.m)
    usable = a >= 0  # k1 = 0 (mod m) rows can never satisfy the congruence
    a, values = a[usable], phi_ball.values[usable]
    ordered = values[np.lexsort((values, a))]  # by class, ascending within each class
    counts = np.bincount(a, minlength=phi_ball.m)
    ends = np.cumsum(counts)
    return np.array([np.sum(ordered[e - c:e]) for c, e in zip(counts, ends)])


def check_phi_ball(m: int, d: int) -> None:
    """Raise ConfigError if the Phi ball |k| < m in d dimensions would not fit in memory."""
    require_memory(integer_ball_bytes(m, d), f"the integer ball |k| < {m} in d = {d}")


def check_search(m: int, d: int, strategy: str, n_samples: int = 128) -> None:
    """Raise ValueError unless `search` can run these parameters and its
    random candidates and Phi ball fit in memory; no work is done."""
    if not is_prime(m):
        raise ValueError(f"modulus must be prime, got {m}")
    if strategy not in ("exhaustive", "random", "korobov-rank1"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "exhaustive":
        if (m - 1) ** d > 10 ** 7:
            raise ValueError(f"exhaustive search infeasible: (m-1)^d = {(m - 1) ** d:.2e}")
        if d != 2:
            raise ValueError("exhaustive search is implemented for d = 2 only")
    if strategy == "random":
        if n_samples < 1:
            raise ValueError(f"random search needs n_samples >= 1, got {n_samples}")
        # the candidates (8 d bytes each) and, in d = 2, the class lookup's
        # temporaries, else a list of floats: by tracemalloc at 2 10^5 to
        # 2 10^6 samples, 48, 57, 68 and 72 bytes per candidate for d = 1 ... 4
        require_memory((8 * d + 48) * n_samples, f"{n_samples} random candidates in d = {d}")
    check_phi_ball(m, d)


def search(m: int, chains: ChainSystem, strategy: str = "exhaustive", *,
           n_samples: int = 128, seed: int = 0,
           phi_ball: PhiBall | None = None) -> GlpCertificate:
    """Search for a good generator; always attaches the average certificate.

    exhaustive: all (m-1)^d generators (d = 2 only, one (g1, 1) per residue
    class; requires (m-1)^d <= 1e7). random: n_samples >= 1 seeded draws.
    korobov-rank1: generators (1, a, a^2, ...) over a in [1, m-1]. For d = 2,
    every candidate is a class-table lookup; the first least value wins.
    """
    d = chains.dimension
    check_search(m, d, strategy, n_samples)
    if phi_ball is None:
        phi_ball = PhiBall.build(chains, m)
    average = phi_ball.total / (m - 1)

    if strategy == "exhaustive":  # one (g1, 1) per residue class, in g1 order
        cands = np.column_stack([np.arange(1, m), np.ones(m - 1, dtype=np.int64)])
    elif strategy == "random":
        cands = np.random.default_rng(seed).integers(1, m, size=(n_samples, d))
    else:  # korobov-rank1; no power of a in [1, m-1] is 0 mod a prime m
        cands = np.array([[pow(a, j, m) for j in range(d)] for a in range(1, m)],
                         dtype=np.int64)
    if d == 2:
        vals = _sorted_class_sums(phi_ball)[_class_of(cands, m)]
    else:
        vals = [congruence_sum(c, m, chains, phi_ball=phi_ball) for c in cands]
    g = cands[int(np.argmin(vals))]  # the first of equal minima, as the scan order gives
    exhaustive = strategy == "exhaustive"
    searched = (m - 1) ** 2 if exhaustive else len(cands)  # the classes cover every g
    exact_mean = float(np.mean(vals)) if exhaustive else None

    value = congruence_sum(g, m, chains, phi_ball=phi_ball)
    return GlpCertificate(
        m=int(m), d=int(d), g=tuple(int(v) for v in g),
        value=value, average=float(average),
        strategy=strategy, searched=int(searched),
        exact_mean=exact_mean,
        best_to_average=float(value / average) if average > 0 else np.nan,
    )
