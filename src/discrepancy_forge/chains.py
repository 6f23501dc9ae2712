"""Decreasing chains of subspaces generated by a hyperplane family.

Given unit normals X = {n_1, ..., n_s}, the admissible subspaces are the
intersections of hyperplanes {x . n = 0}; a chain is a flag
R^d = A(d) > A(d-1) > ... > A(1) with dim A(j) = j, every member admissible.
For the d coordinate hyperplanes the chains are exactly the d! axis orders.

The chain functional

    Phi(xi) = sum over chains  prod_{j=1..d} min{1, (2 pi |P_{A(j)} xi|)^-1}

controls the Fourier decay of the family of polyhedra with facets parallel
to X. (The companion per-polytope bound, with the diameter lambda in place
of 1 and the polytope's own face chains, is a test oracle.)

A `ChainSystem` holds its distinct subspaces once and each chain as a tuple
of subspace indices. `phi` computes one factor per subspace per call and
multiplies the chain products in chain order, so its values equal the
chain-by-chain evaluation bitwise.

An orthogonal map that permutes the normal lines maps admissible subspaces,
and so chains, onto themselves, so Phi is invariant under it. `chain_sum`
folds the ball by such a group in every d, one stripe of the last coordinate
at a time (`frequencies.stripe_bounds`): the wedge k1 >= ... >= kd >= 0 with
orbit weights when all 2^d d! signed permutations keep the normal lines
(Phi is invariant there up to rounding), else the lexicographically positive
half, doubled (Phi(-xi) = Phi(xi) bitwise). `_stripe_factor` takes each
subspace's factor from a table built once per radius by `phi`'s formula, from
an exact integer squared norm when the subspace is spanned by coordinate
axes, or from the stripe's prefix; only an oblique subspace that needs kd
projects the stripe's rows with `phi`'s X @ B.T. Products, weights and each
stripe's np.sum keep `phi`'s operands and order, so in d <= 2, and for the
coordinate chains in every d, the sum is bitwise that of `phi` on the
stripes' rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frequencies import TWO_PI, ball_extent, stripe_bounds


def _nullspace(mat: np.ndarray, d: int) -> np.ndarray:
    """Orthonormal basis (rows) of the nullspace of mat (may be empty)."""
    if mat.size == 0:
        return np.eye(d)
    _, s, vt = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > 1e-10))
    return vt[rank:]


def _projector_key(basis: np.ndarray, d: int) -> tuple:
    proj = basis.T @ basis if basis.size else np.zeros((d, d))
    return tuple(np.round(proj, 9).ravel().tolist())


@dataclass(frozen=True)
class ChainSystem:
    """All decreasing chains of admissible subspaces for a normal family."""

    dimension: int
    normals: tuple                 # the generating unit normals, as tuples
    subspaces: tuple               # the distinct subspaces on chains, as row-basis arrays
    chains: tuple                  # chains as tuples of subspace indices, dims d..1

    @classmethod
    def from_normals(cls, normals) -> "ChainSystem":
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        for row in normals:
            if not np.all(np.isfinite(row)):
                raise ValueError(f"normal {row.tolist()} has a non-finite entry")
        largest = np.abs(normals).max(1)
        if np.any(largest == 0):
            raise ValueError("zero normal vector")
        # scaling by the power of two of the largest entry is exact, and its
        # squared norm can neither overflow nor underflow to 0
        normals = np.ldexp(normals, -np.frexp(largest)[1][:, None])
        normals = normals / np.sqrt((normals ** 2).sum(1))[:, None]
        d = normals.shape[1]
        if d < 1:
            raise ValueError("dimension must be >= 1")

        # admissible subspaces per dimension, deduplicated by projector
        by_dim: dict[int, dict[tuple, np.ndarray]] = {j: {} for j in range(0, d + 1)}
        by_dim[d][_projector_key(np.eye(d), d)] = np.eye(d)
        n = len(normals)
        for mask in range(1, 2 ** n):
            rows = normals[[i for i in range(n) if mask >> i & 1]]
            basis = _nullspace(rows, d)
            dim = len(basis)
            if 1 <= dim < d:
                by_dim[dim].setdefault(_projector_key(basis, d), basis)

        def contained(small: np.ndarray, big: np.ndarray) -> bool:
            # span(small) inside span(big): projecting onto big preserves norms
            proj = small @ big.T
            return np.allclose(proj @ big, small, atol=1e-9)

        # chains as tuples of projector keys, which name a subspace in any dimension
        chains: list[tuple] = []

        def descend(prefix: list[tuple], dim: int):
            if dim == 1:
                chains.append(tuple(prefix))
                return
            top = by_dim[dim][prefix[-1]]
            for key, basis in by_dim[dim - 1].items():
                if contained(basis, top):
                    descend(prefix + [key], dim - 1)

        descend([_projector_key(np.eye(d), d)], d)
        if not chains:
            raise ValueError("normal family generates no full chains")
        bases = {key: basis for level in by_dim.values() for key, basis in level.items()}
        index = {key: i for i, key in enumerate(dict.fromkeys(k for c in chains for k in c))}
        return cls(dimension=d, normals=tuple(map(tuple, normals.tolist())),
                   subspaces=tuple(bases[key] for key in index),
                   chains=tuple(tuple(index[key] for key in c) for c in chains))

    @classmethod
    def coordinate(cls, d: int) -> "ChainSystem":
        return cls.from_normals(np.eye(d))


def _factor(X: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """min{1, (2 pi |P xi|)^-1} for the rows xi of X, P projecting onto the
    span of the orthonormal basis rows."""
    with np.errstate(divide="ignore"):
        return np.minimum(1.0, 1.0 / (TWO_PI * np.sqrt(((X @ basis.T) ** 2).sum(1))))


def _norm2_factor(norm2: int) -> float:
    """`_factor` at one point whose squared projection is the integer norm2,
    in Python floats: IEEE sqrt, product and quotient, so bitwise the same."""
    return min(1.0, 1.0 / (TWO_PI * math.sqrt(norm2))) if norm2 else 1.0


def _chain_total(chains: ChainSystem, factors: list, n: int) -> np.ndarray:
    """Sum over chains of the product of their subspaces' factors, in chain order."""
    total = np.zeros(n)
    for chain in chains.chains:
        prod = np.ones(n)
        for i in chain:
            prod *= factors[i]
        total += prod
    return total


def phi(chains: ChainSystem, xi) -> np.ndarray | float:
    """Chain functional Phi(xi); vectorized over rows of xi.

    Chains share subspaces (every chain starts at R^d), so each distinct
    subspace's factor is computed once per call; the chain products still
    multiply in chain order, so the values do not depend on the sharing.
    """
    X = np.atleast_2d(np.asarray(xi, dtype=float))
    total = _chain_total(chains, [_factor(X, basis) for basis in chains.subspaces], len(X))
    if np.ndim(xi) == 1:
        return float(total[0])
    return total


def symmetry_order(chains: ChainSystem) -> int:
    """Order of the group of Z^d symmetries that `chain_sum` folds the ball by:
    2^d d! when every signed permutation maps the normal lines onto
    themselves (compared by projector), else 2, for {I, -I}, which fixes
    every Phi."""
    d = chains.dimension
    normals = np.asarray(chains.normals)
    lines = {_projector_key(n[None, :], d) for n in normals}
    # a reflection in an axis and the adjacent transpositions generate them all
    generators = [np.diag([1.0] * (d - 1) + [-1.0])]
    generators += [np.eye(d)[[*range(i), i + 1, i, *range(i + 2, d)]] for i in range(d - 1)]
    for generator in generators:
        if {_projector_key(n[None, :], d) for n in normals @ generator.T} != lines:
            return 2
    return 2 ** d * math.factorial(d)


def check_chain_sum(chains: ChainSystem, radius: float) -> None:
    """Raise ValueError if `chain_sum(chains, radius)` would fold more than 1e9
    rows, (2 floor(radius) + 1)^d / `symmetry_order`; no work is done."""
    d, order = chains.dimension, symmetry_order(chains)
    if (2 * ball_extent(radius) + 1) ** d > 10 ** 9 * order:
        raise ValueError(f"chain sum infeasible: (2 floor(R) + 1)^d / {order} rows "
                         f"exceed 1e9 at R = {radius} in d = {d}")


def _stripe_factor(basis: np.ndarray, axis: np.ndarray, squares: np.ndarray):
    """The subspace's factor on a stripe as a function of (prefix, kd slice)
    into `axis`, equal to `_factor(rows, basis)` on the stripe's rows; None
    for a basis that needs the rows. A basis on one axis projects onto
    k_j * b exactly (the other products are +-0): an entry of a table per
    stripe, or a slice for kd. A basis whose rows are signed unit vectors
    (R^d, and every subspace of the coordinate chains) has the exact squared
    norm sum k_j^2 over its axes: an integer over the prefix, plus kd^2 when
    it uses kd. Any other basis without kd sees one point per stripe."""
    d, kmax = basis.shape[1], len(axis) // 2
    used = np.flatnonzero(basis.any(0))
    if len(used) == 1:
        j = int(used[0])
        table = _factor(axis[:, None], basis[:, j:j + 1])
        if j == d - 1:
            return lambda prefix, kd: table[kd]
        return lambda prefix, kd: table[prefix[j] + kmax]
    if np.all(np.isin(basis, (-1.0, 0.0, 1.0))):
        head = [int(j) for j in used if j < d - 1]
        if used[-1] == d - 1:
            return lambda prefix, kd: np.minimum(1.0, 1.0 / (TWO_PI * np.sqrt(
                sum(prefix[j] * prefix[j] for j in head) + squares[kd])))
        return lambda prefix, kd: _norm2_factor(sum(prefix[j] * prefix[j] for j in head))
    if not basis[:, -1].any():
        return lambda prefix, kd: _factor(np.array([prefix + (0,)], dtype=float), basis)[0]
    return None


def chain_sum(chains: ChainSystem, radius: float) -> float:
    """Sum of Phi over integer frequencies 1 <= |k| <= radius, folded by the
    `symmetry_order` group and streamed one stripe at a time; ValueError
    beyond `check_chain_sum`'s cap."""
    check_chain_sum(chains, radius)
    d = chains.dimension
    kmax = ball_extent(radius)
    axis = np.arange(-kmax, kmax + 1, dtype=float)
    squares = axis ** 2
    tables = [_stripe_factor(basis, axis, squares) for basis in chains.subspaces]
    oblique = any(table is None for table in tables)
    total = 0.0
    # a coordinate subspace's projection is 0 on some stripes, where the
    # factor is min(1, 1/0) = 1, as `_factor` gives it
    with np.errstate(divide="ignore"):
        for prefix, start, stop, weights in stripe_bounds(
                radius, d, signed_permutations=symmetry_order(chains) > 2):
            kd = slice(start + kmax, stop + kmax)
            if oblique:
                rows = np.empty((stop - start, d))
                rows[:, :-1] = prefix
                rows[:, -1] = axis[kd]
            factors = [_factor(rows, basis) if table is None else table(prefix, kd)
                       for basis, table in zip(chains.subspaces, tables)]
            total += float(np.sum(weights * _chain_total(chains, factors, stop - start)))
    return total
