"""Reference implementations that the library's fast paths are tested against."""

import numpy as np

from discrepancy_forge.chains import ChainSystem
from discrepancy_forge.glp import PhiBall, _class_of, _residue_class_sums, congruence_sum
from discrepancy_forge.kernel import KernelTable, _CubicHermite

TWO_PI = 2 * np.pi


def phi_per_chain(chains, xi) -> np.ndarray:
    """Chain functional Phi over the rows of xi, every chain's factors computed afresh."""
    X = np.atleast_2d(np.asarray(xi, dtype=float))
    total = np.zeros(len(X))
    for chain in chains.chain_bases:
        prod = np.ones(len(X))
        for basis in chain:
            norm = np.sqrt(((X @ np.asarray(basis).T) ** 2).sum(1))
            with np.errstate(divide="ignore"):
                prod *= np.minimum(1.0, 1.0 / (TWO_PI * norm))
        total += prod
    return total


def search_per_candidate(m, chains, strategy, *, n_samples=128, seed=0, phi_ball):
    """(g, value) of a random or korobov-rank1 search, one congruence_sum per candidate."""
    d = chains.dimension
    if strategy == "random":
        rng = np.random.default_rng(seed)
        cands = rng.integers(1, m, size=(n_samples, d))
        g = min(cands, key=lambda cg: congruence_sum(cg, m, chains, phi_ball=phi_ball))
    else:  # korobov-rank1
        best_val, g = np.inf, None
        for a in range(1, m):
            cand = np.array([pow(a, j, m) for j in range(d)], dtype=np.int64)
            if np.any(cand < 1):
                continue
            val = congruence_sum(cand, m, chains, phi_ball=phi_ball)
            if val < best_val:
                best_val, g = val, cand
    return tuple(int(v) for v in g), congruence_sum(g, m, chains, phi_ball=phi_ball)


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


def kernel_value(table: KernelTable, s):
    """K(s) by monotone cubic interpolation; power envelope beyond x_max."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    inside = s <= table.x_max
    out[inside] = _CubicHermite(table.kvals_grid, table.kvals)(s[inside])
    if np.any(~inside):
        out[~inside] = table.tail_envelope_coeff * s[~inside] ** (-(table.dimension + 2))
    return out if out.ndim else float(out)
