"""Good-lattice-point search via the congruence chain sum and its average.

For prime m and generator g in [1, m-1]^d, the figure of merit is

    S(g) = sum over 0 < |k| < m, g . k = 0 (mod m) of Phi(k).

The mean of S over all g is at most (m-1)^-1 sum over the whole ball of Phi,
so a minimizer does at least as well as that average certificate; exhaustive
search realizes the existence argument constructively.

For d = 2 the congruence set depends on g only through a = -g1 * g2^-1 mod m,
so one pass over the k ball bins Phi by the residue class a = k2 * k1^-1 and
the full (m-1)^2 search collapses to m-1 exact lookups. This is an exact
reformulation of the double loop (tested against it at small m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import ChainSystem, phi
from .frequencies import integer_ball
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

    def to_json(self) -> dict:
        return {
            "m": self.m, "d": self.d, "g": list(self.g),
            "value": self.value, "average": self.average,
            "strategy": self.strategy, "searched": self.searched,
            "exact_mean": self.exact_mean,
            "best_to_average": self.best_to_average,
        }


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


def _residue_class_sums(phi_ball: PhiBall) -> np.ndarray:
    """S_class[a] = sum of Phi over {k1 != 0 mod m, k2 = a k1 (mod m)}; d = 2."""
    m = phi_ball.m
    k1 = phi_ball.freqs[:, 0] % m
    k2 = phi_ball.freqs[:, 1] % m
    usable = k1 != 0  # k1 = 0 (mod m) rows can never satisfy the congruence
    inv = np.zeros(m, dtype=np.int64)
    for j in range(1, m):
        inv[j] = pow(j, m - 2, m)
    a = (k2[usable] * inv[k1[usable]]) % m
    return np.bincount(a, weights=phi_ball.values[usable], minlength=m)


def _class_of(g: np.ndarray, m: int) -> int:
    g2_inv = pow(int(g[1]), m - 2, m)
    return int((-int(g[0]) * g2_inv) % m)


def search(m: int, chains: ChainSystem, strategy: str = "exhaustive", *,
           n_samples: int = 128, seed: int = 0,
           phi_ball: PhiBall | None = None) -> GlpCertificate:
    """Search for a good generator; always attaches the average certificate.

    exhaustive: all (m-1)^d generators (d = 2 via the residue-class reduction;
    requires (m-1)^d <= 1e7). random: n_samples seeded draws. korobov-rank1:
    generators (1, a, a^2, ...) over a in [1, m-1].
    """
    if not is_prime(m):
        raise ValueError(f"modulus must be prime, got {m}")
    if strategy not in ("exhaustive", "random", "korobov-rank1"):
        raise ValueError(f"unknown strategy {strategy!r}")
    d = chains.dimension
    if strategy == "exhaustive":
        if (m - 1) ** d > 10 ** 7:
            raise ValueError(f"exhaustive search infeasible: (m-1)^d = {(m - 1) ** d:.2e}")
        if d != 2:
            raise ValueError("exhaustive search is implemented for d = 2 only")
    if phi_ball is None:
        phi_ball = PhiBall.build(chains, m)
    average = phi_ball.total / (m - 1)

    exact_mean = None
    if strategy == "exhaustive":
        class_sums = _residue_class_sums(phi_ball)
        best_a = int(np.argmin(class_sums[1:]) + 1)  # a = 0 is not realized by any g
        g = np.array([m - best_a, 1], dtype=np.int64)
        exact_mean = float(np.mean(class_sums[1:]))
        searched = (m - 1) ** 2
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        cands = rng.integers(1, m, size=(n_samples, d))
        g = min(cands, key=lambda cg: congruence_sum(cg, m, chains, phi_ball=phi_ball))
        searched = n_samples
    else:  # korobov-rank1
        best_val, g = np.inf, None
        for a in range(1, m):
            cand = np.array([pow(a, j, m) for j in range(d)], dtype=np.int64)
            if np.any(cand < 1):
                continue
            val = congruence_sum(cand, m, chains, phi_ball=phi_ball)
            if val < best_val:
                best_val, g = val, cand
        searched = m - 1

    value = congruence_sum(g, m, chains, phi_ball=phi_ball)
    return GlpCertificate(
        m=int(m), d=int(d), g=tuple(int(v) for v in g),
        value=value, average=float(average),
        strategy=strategy, searched=int(searched),
        exact_mean=exact_mean,
        best_to_average=float(value / average) if average > 0 else np.nan,
    )


def exhaustive_table(m: int, chains: ChainSystem) -> dict:
    """All (m-1)^2 generator values, for small m; keys are (g1, g2)."""
    if chains.dimension != 2:
        raise ValueError("d = 2 only")
    phi_ball = PhiBall.build(chains, m)
    class_sums = _residue_class_sums(phi_ball)
    out = {}
    for g1 in range(1, m):
        for g2 in range(1, m):
            out[(g1, g2)] = float(class_sums[_class_of(np.array([g1, g2]), m)])
    return out
