"""Reference implementations that the library's fast paths are tested against."""

import csv
import itertools
from dataclasses import dataclass

import numpy as np

from discrepancy_forge.chains import ChainSystem, phi, symmetry_order
from discrepancy_forge.frequencies import integer_ball, stripe_bounds
from discrepancy_forge.geometry import Ball, Box, ConvexPolytope, TorusSet
from discrepancy_forge.glp import PhiBall, congruence_sum
from discrepancy_forge.hfourier import _fft_resolution, check_table_memory
from discrepancy_forge.kernel import SPHERE_SURFACE, KernelTable, _CubicHermite

TWO_PI = 2 * np.pi


def phi_per_chain(chains, xi) -> np.ndarray:
    """Chain functional Phi over the rows of xi, every chain's factors computed afresh."""
    X = np.atleast_2d(np.asarray(xi, dtype=float))
    total = np.zeros(len(X))
    for chain in chains.chains:
        prod = np.ones(len(X))
        for i in chain:
            norm = np.sqrt(((X @ chains.subspaces[i].T) ** 2).sum(1))
            with np.errstate(divide="ignore"):
                prod *= np.minimum(1.0, 1.0 / (TWO_PI * norm))
        total += prod
    return total


def search_per_candidate(m, chains, strategy, *, n_samples=128, seed=0, phi_ball):
    """(g, value) of a search, one congruence_sum per candidate; the first strict
    minimum in scan order wins."""
    d = chains.dimension
    if strategy == "random":
        rng = np.random.default_rng(seed)
        cands = rng.integers(1, m, size=(n_samples, d))
        g = min(cands, key=lambda cg: congruence_sum(cg, m, chains, phi_ball=phi_ball))
    else:  # korobov-rank1, or exhaustive: one (g1, 1) per residue class, g1 ascending
        best_val, g = np.inf, None
        for a in range(1, m):
            if strategy == "exhaustive":
                cand = np.array([a, 1], dtype=np.int64)
            else:
                cand = np.array([pow(a, j, m) for j in range(d)], dtype=np.int64)
            if np.any(cand < 1):
                continue
            val = congruence_sum(cand, m, chains, phi_ball=phi_ball)
            if val < best_val:
                best_val, g = val, cand
    return tuple(int(v) for v in g), congruence_sum(g, m, chains, phi_ball=phi_ball)


def exhaustive_table(m: int, chains: ChainSystem) -> dict:
    """All (m-1)^2 generator values by `congruence_sum`, for small m; keys are (g1, g2)."""
    if chains.dimension != 2:
        raise ValueError("d = 2 only")
    phi_ball = PhiBall.build(chains, m)
    return {(g1, g2): congruence_sum((g1, g2), m, chains, phi_ball=phi_ball)
            for g1 in range(1, m) for g2 in range(1, m)}


def kernel_value(table: KernelTable, s):
    """K(s) by monotone cubic interpolation; power envelope beyond x_max."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    inside = s <= table.x_max
    out[inside] = _CubicHermite(table.kvals_grid, table.kvals)(s[inside])
    if np.any(~inside):
        out[~inside] = table.tail_envelope_coeff * s[~inside] ** (-(table.dimension + 2))
    return out if out.ndim else float(out)


def _blocks(weights, s, chunk, columns):
    """weights @ columns(block) for each block of `chunk` radii of s."""
    return np.concatenate([weights @ columns(s[i0:i0 + chunk])
                           for i0 in range(0, len(s), chunk)])


def radial_transform_by_blocks(d: int, r: np.ndarray, wf: np.ndarray, s: np.ndarray,
                               chunk: int) -> np.ndarray:
    """The radial transform with each block's columns a fresh numpy array: the
    former `kernel._radial_transform`, before its buffers were reused."""
    from scipy.special import j0

    def columns(sb):
        if d == 1:
            return np.cos(TWO_PI * np.outer(r, sb))
        if d == 2:
            return j0(TWO_PI * np.outer(r, sb))
        return np.sinc(2.0 * np.outer(r, sb))
    return _blocks(SPHERE_SURFACE[d] * wf * r ** (d - 1), s, chunk, columns)


def radial_masses_by_blocks(d: int, nodes: np.ndarray, coeff: np.ndarray, t: np.ndarray,
                            hi: float, chunk: int) -> np.ndarray:
    """The radial masses with each block's columns a fresh numpy array: the
    former `kernel._radial_masses`, before its buffers were reused, and with
    chunk = len(t) the one node-by-all-t product it replaced."""
    from scipy.special import j1
    a = TWO_PI * nodes

    def prim(v):
        if d == 1:
            return np.sin(np.outer(a, v)) / a[:, None]
        if d == 2:
            return j1(np.outer(a, v)) * v / a[:, None]
        av = np.outer(a, v)
        return (np.sin(av) - av * np.cos(av)) / (a * a)[:, None]
    inner = 2.0 * coeff if d == 1 else (TWO_PI if d == 2 else 2.0) * coeff * nodes
    prim_hi = prim(np.array([hi]))
    return SPHERE_SURFACE[d] * _blocks(inner, t, chunk, lambda v: prim_hi - prim(v))


def _full_grid_h(set_, kernel, R, n):
    return kernel.gamma * kernel.tail_integral(R * set_.distance_grid(n))


def full_grid_block(set_, kernel, R, n, kmax):
    """H_R coefficients on |k|_inf <= kmax by one rfft2 of H on the whole n x n grid.

    rfft2 gives k2 >= 0; every other coefficient is the conjugate of the one
    at -k, which lies in the half plane k2 > 0 or k2 = 0 <= k1.
    """
    fhat = np.fft.rfft2(_full_grid_h(set_, kernel, R, n)) / (n * n)
    k1, k2 = np.meshgrid(np.arange(-kmax, kmax + 1), np.arange(-kmax, kmax + 1), indexing="ij")
    upper = (k2 > 0) | ((k2 == 0) & (k1 >= 0))
    s1, s2 = np.where(upper, k1, -k1), np.where(upper, k2, -k2)
    values = fhat[s1 % n, s2]
    return np.where(upper, values, np.conj(values))


def full_grid_block_fft2(set_, kernel, R, n, kmax):
    """The same block by one complex fft2, Hermitian only to rounding."""
    fhat = np.fft.fft2(_full_grid_h(set_, kernel, R, n)) / (n * n)
    idx = np.arange(-kmax, kmax + 1) % n
    return fhat[np.ix_(idx, idx)]


# -- boundary shells and Minkowski content -----------------------------------

def shell_measure(set_: TorusSet, t):
    """mu{dist(x, boundary) < t} in closed form: boxes in d = 1, 2 and balls in
    d = 2, or d = 3 while r + t <= 1/2. None for any other set or t."""
    t = np.asarray(t, dtype=float)
    if isinstance(set_, Box) and set_.dimension <= 2:
        w = set_.widths
        g = 1.0 - w
        if set_.dimension == 1:
            dil = w[0] + 2 * np.minimum(t, g[0] / 2)
            ero = np.maximum(w[0] - 2 * t, 0.0)
        else:
            dil = (w[0] * w[1]
                   + 2 * w[0] * np.minimum(t, g[1] / 2)
                   + 2 * w[1] * np.minimum(t, g[0] / 2)
                   + 4 * _quarter_disk_in_rect(t, g[0] / 2, g[1] / 2))
            ero = np.maximum(w[0] - 2 * t, 0.0) * np.maximum(w[1] - 2 * t, 0.0)
        out = dil - ero
    elif isinstance(set_, Ball) and set_.dimension == 2:
        r = set_.radius
        out = _torus_disk_area(r + t) - _torus_disk_area(np.maximum(r - t, 0.0))
    elif isinstance(set_, Ball) and not np.any(set_.radius + t > 0.5):
        r = set_.radius
        out = 4.0 / 3.0 * np.pi * ((r + t) ** 3 - np.maximum(r - t, 0.0) ** 3)
    else:
        return None
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def _quarter_disk_in_rect(t, u: float, v: float):
    """Area of {0<=x<=u, 0<=y<=v, x^2+y^2 < t^2}, vectorized over t >= 0."""
    t = np.asarray(t, dtype=float)
    full = np.minimum(t, np.hypot(u, v))
    x_v = np.sqrt(np.maximum(full ** 2 - v ** 2, 0.0))  # below y=v up to here
    x1 = np.minimum(u, x_v)
    x2 = np.minimum(u, full)

    def prim(x, tt):
        # antiderivative of sqrt(tt^2 - x^2)
        with np.errstate(invalid="ignore", divide="ignore"):
            val = 0.5 * (x * np.sqrt(np.maximum(tt ** 2 - x ** 2, 0.0))
                         + tt ** 2 * np.arcsin(np.clip(np.divide(x, np.where(tt == 0, 1.0, tt)), -1, 1)))
        return np.where(tt == 0, 0.0, val)

    area = v * x1 + prim(x2, full) - prim(x1, full)
    area = np.where(t ** 2 >= u ** 2 + v ** 2, u * v, area)
    return np.where(t <= 0, 0.0, area)


def _torus_disk_area(rho):
    """Volume of a torus ball of radius rho in T^2 (disk clipped by the cell)."""
    rho = np.asarray(rho, dtype=float)
    plain = np.pi * rho ** 2
    r_safe = np.where(rho <= 0.5, 1.0, rho)
    segment = r_safe ** 2 * np.arccos(np.clip(0.5 / r_safe, 0.0, 1.0)) \
        - 0.5 * np.sqrt(np.maximum(r_safe ** 2 - 0.25, 0.0))
    clipped = plain - 4.0 * segment
    out = np.where(rho <= 0.5, plain, np.where(rho >= np.sqrt(0.5), 1.0, clipped))
    return out


def shell_measure_mc(set_: TorusSet, t, *, samples: int = 10 ** 6, seed: int = 0):
    """Monte Carlo mu{dist < t} with standard errors, for sets without closed forms."""
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, set_.dimension))
    dists = np.sort(set_.boundary_distances(pts))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    mu = np.searchsorted(dists, t, side="left") / samples
    se = np.sqrt(np.maximum(mu * (1 - mu), 0.0) / samples)
    return mu, se


@dataclass(frozen=True)
class MinkowskiContent:
    alpha: float
    value: float
    t_argmax: float
    boundary_attained: bool
    standard_error: float
    method: str


def minkowski_content(set_: TorusSet, alpha: float, t_grid=None, *,
                      mc_samples: int = 10 ** 6, seed: int = 0) -> MinkowskiContent:
    """M(alpha, Omega) = sup_t t^-alpha mu{dist(x, boundary) < t} over a t grid.

    Exact shell volumes where `shell_measure` has them, Monte Carlo otherwise
    (standard error of the maximizing ratio reported).
    """
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must lie in [0, 1]")
    if t_grid is None:
        t_grid = np.geomspace(1e-4, 1.0, 200)
    t_grid = np.asarray(t_grid, dtype=float)
    mu = shell_measure(set_, t_grid)
    if mu is not None:
        se = np.zeros_like(t_grid)
        method = "exact"
    else:
        mu, se = shell_measure_mc(set_, t_grid, samples=mc_samples, seed=seed)
        method = "monte-carlo"
    ratios = np.minimum(mu, 1.0) * t_grid ** (-alpha)
    idx = int(np.argmax(ratios))
    return MinkowskiContent(
        alpha=float(alpha),
        value=float(ratios[idx]),
        t_argmax=float(t_grid[idx]),
        boundary_attained=idx in (0, len(t_grid) - 1),
        standard_error=float(se[idx] * t_grid[idx] ** (-alpha)),
        method=method,
    )


# -- H_R cross-checks and the decay constant F(alpha, beta, Omega) -----------

def h_zero_by_coarea(ball: Ball, kernel: KernelTable, R: float, *, n: int = 20001) -> float:
    """H_R-hat(0) for a ball via the coarea (shell) disintegration.

    Stieltjes sum of gamma I(R t) against the exact shell measure mu{dist < t};
    independent of the FFT route, used as a cross-check.
    """
    r = ball.radius
    t_top = max(r, np.sqrt(ball.dimension) / 2.0)
    t = np.linspace(0.0, t_top, n)
    mu = shell_measure(ball, t)
    mid = 0.5 * (t[1:] + t[:-1])
    vals = kernel.gamma * kernel.tail_integral(R * mid)
    return float(np.sum(vals * np.diff(mu)))


@dataclass(frozen=True)
class FConstantReport:
    """Empirical lower bound for the smallest constant in the decay inequalities.

    `indicator_part` covers |chi-hat(k)| <= c |k|^-alpha over 0 < |k| <= k_max;
    `layer_parts` cover the psi(R dist) coefficients, |k|^-alpha off zero and
    R^-beta at zero, per tested R.
    """

    alpha: float
    beta: float
    value: float
    indicator_part: float
    layer_parts: tuple
    k_max: int
    r_grid: tuple


def f_constant(set_: TorusSet, kernel: KernelTable, alpha: float, beta: float,
               k_max: int, r_grid, *, oversample: int = 2) -> FConstantReport:
    d = set_.dimension
    if not 0 <= alpha <= (d + 1) / 2:
        raise ValueError(f"alpha must lie in [0, {(d + 1) / 2}]")
    if not 0 <= beta <= 1:
        raise ValueError("beta must lie in [0, 1]")

    freqs = integer_ball(k_max, d, include_boundary=True)
    norms = np.sqrt((freqs.astype(float) ** 2).sum(1))
    chi = np.abs(set_.fourier_coefficients(freqs))
    c_chi = float(np.max(chi * norms ** alpha))

    layer_parts = []
    for R in r_grid:
        # psi(R dist) = 4 H_{R/2}: its coefficients on |k|_inf <= ceil(R), from
        # the grid of the R/2 table
        kmax = int(np.ceil(R))
        block = full_grid_block(set_, kernel, R / 2.0, _fft_resolution(R / 2.0, oversample), kmax)
        inner = integer_ball(R, d)
        vals = 4.0 * np.abs(block[inner[:, 0] + kmax, inner[:, 1] + kmax])
        inner_norms = np.sqrt((inner.astype(float) ** 2).sum(1))
        c_k = float(np.max(vals * inner_norms ** alpha)) if len(inner) else 0.0
        c_0 = float(4.0 * abs(block[kmax, kmax]) * R ** beta)
        layer_parts.append((float(R), c_k, c_0))

    value = max([c_chi] + [max(ck, c0) for _, ck, c0 in layer_parts])
    return FConstantReport(alpha=float(alpha), beta=float(beta), value=value,
                           indicator_part=c_chi, layer_parts=tuple(layer_parts),
                           k_max=int(k_max), r_grid=tuple(float(R) for R in r_grid))


_AXIS_ROTATIONS = {  # rotations by arccos(-3/5) about z, x and y, times 5
    "a": np.array([[-3, -4, 0], [4, -3, 0], [0, 0, 5]], dtype=np.int64),
    "b": np.array([[5, 0, 0], [0, -3, -4], [0, 4, -3]], dtype=np.int64),
    "c": np.array([[-3, 0, 4], [0, 5, 0], [-4, 0, -3]], dtype=np.int64),
}
_GENERATORS = {**_AXIS_ROTATIONS, **{a.upper(): m.T for a, m in _AXIS_ROTATIONS.items()}}
_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"}


@dataclass(frozen=True)
class RotationWord:
    """Reduced word over the six generators with its exact integer matrix.

    matrix = int_matrix / 5^length, orthogonal with determinant one.
    """

    letters: tuple
    int_matrix: np.ndarray

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def matrix(self) -> np.ndarray:
        return self.int_matrix / 5 ** self.length


def words_depth_first(k: int) -> list:
    """All reduced words of length <= k, one RotationWord each, depth-first
    in the letter order a, A, b, B, c, C."""
    out = [RotationWord((), np.eye(3, dtype=np.int64))]
    stack = [out[0]]
    while stack:
        word = stack.pop()
        if word.length == k:
            continue
        last = word.letters[-1] if word.letters else None
        for letter in ("a", "A", "b", "B", "c", "C"):
            if last is not None and letter == _INVERSE[last]:
                continue
            nxt = RotationWord(word.letters + (letter,),
                               word.int_matrix @ _GENERATORS[letter])
            out.append(nxt)
            stack.append(nxt)
    return out


def row_multiset(rows: np.ndarray) -> list:
    """The rows of an array as a sorted list of their bytes: equal lists mean
    bitwise-equal rows, in any order."""
    flat = np.ascontiguousarray(rows).reshape(len(rows), -1)
    return sorted(row.tobytes() for row in flat)


def all_distinct(matrices: np.ndarray, k: int) -> bool:
    """Whether rotation matrices of words of length <= k are pairwise distinct.

    Each entry is an integer over 5^n, n <= k, rounded once, so times 5^k it
    lies within 1e-6 of an integer while 5^k < 2^30; the rounded integer
    matrices over the common denominator 5^k are then exact, and they are
    equal exactly when the rotations are.
    """
    scaled = np.asarray(matrices) * 5 ** k
    exact = np.rint(scaled)
    assert k <= 12 and np.max(np.abs(scaled - exact)) < 1e-6
    return len(np.unique(exact.reshape(len(exact), 9), axis=0)) == len(exact)


@dataclass(frozen=True)
class CapUnion:
    """Disjoint union of caps; shells are summed (a one-sided over-estimate)."""

    caps: tuple

    def __post_init__(self):
        caps = tuple(self.caps)
        for i in range(len(caps)):
            for j in range(i + 1, len(caps)):
                gap = np.arccos(np.clip(np.dot(caps[i].pole, caps[j].pole), -1, 1))
                if gap <= caps[i].theta + caps[j].theta:
                    raise ValueError("caps must be pairwise disjoint")
        object.__setattr__(self, "caps", caps)

    def measure(self) -> float:
        return float(sum(c.measure() for c in self.caps))

    def contains(self, points: np.ndarray) -> np.ndarray:
        hit = np.zeros(len(np.atleast_2d(points)), dtype=bool)
        for c in self.caps:
            hit |= c.contains(points)
        return hit

    def shell_measure(self, t):
        return np.clip(sum(c.shell_measure(t) for c in self.caps), 0.0, 1.0)


def polytope_ft_bound(polytope: ConvexPolytope, xi) -> np.ndarray | float:
    """Per-polytope Fourier bound 2 sum over face chains of min{lambda, .} products.

    Face chains of a polygon are (polygon, edge) pairs: the top projection is
    the identity, the edge projection is onto the edge direction.
    """
    X = np.atleast_2d(np.asarray(xi, dtype=float))
    lam = polytope.diameter
    p, q = polytope.edges()
    e = q - p
    e_unit = e / np.sqrt((e ** 2).sum(1))[:, None]

    norm = np.sqrt((X ** 2).sum(1))
    with np.errstate(divide="ignore"):
        top = np.minimum(lam, 1.0 / (TWO_PI * norm))
        along = np.minimum(lam, 1.0 / (TWO_PI * np.abs(X @ e_unit.T)))
    total = 2.0 * top * along.sum(axis=1)
    if np.ndim(xi) == 1:
        return float(total[0])
    return total


def chain_count(chains: ChainSystem) -> int:
    return len(chains.chains)


def half_ball_chain_sum(chains: ChainSystem, radius: float) -> float:
    """Phi summed over 0 < |k| <= radius as twice its lexicographically positive
    half: one stripe of constant k1 at a time in d = 2, the whole half otherwise."""
    ball = integer_ball(radius, chains.dimension, include_boundary=True)
    half = ball[len(ball) // 2:]
    if chains.dimension == 2:
        starts = np.unique(half[:, 0], return_index=True)[1]
        chunks = np.split(half, starts[1:])
    else:
        chunks = [half]
    total = 0.0
    for chunk in chunks:
        total += float(np.sum(phi(chains, chunk.astype(float))))
    return 2.0 * total


def stripe_rows(radius: float, *, signed_permutations: bool = False):
    """Yield (rows, weights) per k1 >= 0 stripe of the d = 2 fundamental domain
    that `chain_sum` sums over, each stripe's rows built and filtered by the
    float norm test of `integer_ball`: the positive half with weight 2, or
    the wedge 0 <= k2 <= k1 with weights 8, and 4 on the axis and diagonal."""
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


def per_row_chain_sum(chains: ChainSystem, radius: float) -> float:
    """Phi summed over 0 < |k| <= radius in d = 2 through `phi` on each
    stripe's rows, times the orbit weights: the wedge when `symmetry_order`
    is 8, else the positive half."""
    total = 0.0
    for rows, weights in stripe_rows(radius, signed_permutations=symmetry_order(chains) == 8):
        total += float(np.sum(weights * phi(chains, rows.astype(float))))
    return total


def stripe_phi_chain_sum(chains: ChainSystem, radius: float) -> float:
    """Phi summed over 0 < |k| <= radius in any d through `phi` on the rows of
    each of `stripe_bounds`' stripes, times its weights, in stripe order."""
    d = chains.dimension
    total = 0.0
    for prefix, start, stop, weights in stripe_bounds(
            radius, d, signed_permutations=symmetry_order(chains) > 2):
        rows = np.empty((stop - start, d))
        rows[:, :-1] = prefix
        rows[:, -1] = np.arange(start, stop)
        total += float(np.sum(weights * phi(chains, rows)))
    return total


def chain_system_from_polytope(polytope) -> ChainSystem:
    """The chain system of a polygon's edge normals."""
    p, q = polytope.edges()
    e = q - p
    normals = np.stack([e[:, 1], -e[:, 0]], axis=1)
    return ChainSystem.from_normals(normals)


def evaluate_polynomial(poly, points: np.ndarray) -> np.ndarray:
    """Direct coefficient summation of a TrigPolynomial at arbitrary points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    phases = np.exp(TWO_PI * 1j * (pts @ poly.freqs.T.astype(float)))
    vals = phases @ poly.coeffs
    return np.real(vals)


def within_budget(report) -> bool:
    """Every violation of a SandwichReport is within its budget."""
    return max(report.lower_violation, report.upper_violation,
               report.width_violation) <= report.budget


def sandwich_csv_per_row(grids: tuple, path) -> None:
    """The sandwich CSV written one csv.writer row per grid point."""
    A, B, chi, bound = grids
    grid_n = len(chi)
    axis = np.arange(grid_n) / grid_n
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "chi", "A", "B", "psi_bound"])
        for i in range(grid_n):
            for j in range(grid_n):
                writer.writerow([repr(float(axis[i])), repr(float(axis[j])),
                                 repr(float(chi[i, j])), repr(float(A[i, j])),
                                 repr(float(B[i, j])), repr(float(bound[i, j]))])


def csv_per_value(path, header: list, rows) -> None:
    """A CSV written one numpy scalar at a time: each float through repr(float(v))."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, int) else repr(float(v)) for v in row]
                         for row in rows)


def inscribed_polygon(center, radius: float, gaps: np.ndarray, turn: float, *,
                      epsilon: float = 0.05) -> ConvexPolytope:
    """Polygon with vertices on the circle (center, radius), at angular gaps in
    the proportions of `gaps`, rotated by the fraction `turn` of a full turn;
    its diameter is at most 2 radius, which must not exceed 1 - epsilon."""
    angles = turn * 2 * np.pi + 2 * np.pi * np.cumsum(gaps) / gaps.sum()
    verts = np.asarray(center) + radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return ConvexPolytope(tuple(map(tuple, verts)), epsilon=epsilon)


def box_distances_by_where(box: Box, points: np.ndarray) -> np.ndarray:
    """Periodic box distance with fresh arrays per shift: each of the 3^d
    shifts' sums, flags and margins is a new array, and np.where picks the
    inside margin or the outside gap before a new running minimum."""
    per_axis = []
    for x, a, b in zip(np.asarray(points, dtype=float).T, box.a, box.b):
        x = np.mod(x, 1.0)
        terms = []
        for s in (-1.0, 0.0, 1.0):
            lo = (a + s) - x
            hi = x - (b + s)
            terms.append((np.maximum(np.maximum(lo, hi), 0.0) ** 2,
                          (lo < 0) & (hi < 0), np.minimum(-lo, -hi)))
        per_axis.append(terms)
    best = np.inf
    for (out2, inside, margin), *rest in itertools.product(*per_axis):
        for o2, ins, mar in rest:
            out2 = out2 + o2
            inside = inside & ins
            margin = np.minimum(margin, mar)
        best = np.minimum(best, np.where(inside, margin, np.sqrt(out2)))
    return best


def polygon_distances_by_segments(poly: ConvexPolytope, pts: np.ndarray) -> np.ndarray:
    """Periodic boundary distance: every point against every edge segment and
    3 x 3 translate, with vector dot products. Exact when each coordinate of a
    point and of a boundary point differ by less than 1.5, so that a shift of
    -1, 0 or 1 reaches the nearest copy."""
    p, q = poly.edges()
    best = np.full(len(pts), np.inf)
    for a, b in zip(p, q):
        e = b - a
        for shift in np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)], dtype=float):
            rel = pts - (a + shift)
            t = np.clip(rel @ e / (e @ e), 0.0, 1.0)
            best = np.minimum(best, np.hypot(*(rel - t[:, None] * e).T))
    return best


def polygon_distances_by_images(poly: ConvexPolytope, coords) -> np.ndarray:
    """Periodic boundary distance at the points with per-axis coordinates
    `coords` (arrays that broadcast), every edge against all 3 x 3 images:
    the nearest-image search before its pruning, kept verbatim."""
    x, y = coords
    p, q = poly.edges()
    best2 = None
    for mid, half in zip(0.5 * (p + q), 0.5 * (q - p)):
        seg2 = np.dot(half, half)
        yx = np.mod(x - mid[0] + 0.5, 1.0) - 0.5
        yy = np.mod(y - mid[1] + 0.5, 1.0) - 0.5
        for sx in (-1.0, 0.0, 1.0):
            zx = yx - sx
            zx_half = zx * half[0]
            for sy in (-1.0, 0.0, 1.0):
                # squared distance from z to the segment [-half, half], in place
                zy = yy - sy
                t = zx_half + zy * half[1]
                t /= seg2
                np.clip(t, -1.0, 1.0, out=t)
                dx = t * half[0]
                np.subtract(zx, dx, out=dx)
                dx *= dx
                t *= half[1]
                np.subtract(zy, t, out=t)
                t *= t
                dx += t
                best2 = dx if best2 is None else np.minimum(best2, dx, out=best2)
    return np.sqrt(best2, out=best2)


def h_table_by_strips(set_: TorusSet, kernel: KernelTable, R: float, oversample: int):
    """(block, err) of the H-table, its k2 >= 0 halves, strip by strip on one
    thread through the public distance_grid and tail_integral: the row
    classes' transforms are put in grid order, n x (kmax + 1), and transformed
    along the columns there."""
    n, kmax, rows = check_table_memory(R, oversample)
    (row_reps, row_inv), (col_reps, col_inv) = set_.grid_classes(n)
    coarse_classes = np.zeros(len(row_reps), dtype=bool)
    coarse_classes[row_inv[::2]] = True
    coarse_at = np.cumsum(coarse_classes) - coarse_classes
    fine = np.empty((len(row_reps), kmax + 1), dtype=complex)
    coarse = np.empty((np.count_nonzero(coarse_classes), kmax + 1), dtype=complex)

    def column_fft(cols):
        m = len(cols)
        return np.fft.fft(cols, axis=0)[np.arange(-kmax, kmax + 1) % m] / (m * m)

    for start in range(0, len(row_reps), rows):
        strip = slice(start, start + rows)
        h = kernel.gamma * kernel.tail_integral(R * set_.distance_grid(n, row_reps[strip],
                                                                       col_reps))
        x = np.fft.rfft(h.take(col_inv, axis=1), axis=1)
        fine[strip] = x[:, :kmax + 1]
        # the n/2 grid row of the even columns: (X(k2) + conj X(n/2 - k2)) / 2
        x = x[coarse_classes[strip]]
        at = coarse_at[start]
        coarse[at:at + len(x)] = (x[:, :kmax + 1] + x[:, n // 2:n // 2 - kmax - 1:-1].conj()) / 2
    half = column_fft(fine[row_inv])
    err = np.abs(half - column_fft(coarse[coarse_at[row_inv[::2]]])) + 1e-15 * kernel.gamma
    return half, err


def polygon_contains_by_translates(poly: ConvexPolytope, points: np.ndarray) -> np.ndarray:
    """Closed membership tested against all 9 translates by shifts in {-1, 0, 1}^2,
    through (N, 2) point arrays."""
    pts = np.asarray(points, dtype=float)
    y = np.mod(pts - poly.centroid + 0.5, 1.0) - 0.5
    p, q = poly.edges()
    rel_p = p - poly.centroid
    e = q - p
    hit = np.zeros(len(pts), dtype=bool)
    for s in itertools.product((-1.0, 0.0, 1.0), repeat=2):
        z = y - np.asarray(s)
        inside = np.ones(len(pts), dtype=bool)
        for i in range(len(p)):
            d = z - rel_p[i]
            inside &= e[i, 0] * d[:, 1] - e[i, 1] * d[:, 0] >= -1e-12
        hit |= inside
    return hit


def indicator_grid_by_points(set_: TorusSet, n: int) -> np.ndarray:
    """The n x n membership grid through an (n^2, 2) point array."""
    axis = np.arange(n) / n
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    return set_.contains(pts).reshape(n, n).astype(float)


def hermite_by_raise(interp: _CubicHermite, v: np.ndarray) -> np.ndarray:
    """`interp` at the points of the 1-d array v, every gather in numpy's default
    mode='raise', which raises IndexError for an index out of range."""
    x, last = interp.x, len(interp.x) - 2
    i = np.clip((v - x[0]) / interp.step, 0, last).astype(np.intp)
    i = i - (x.take(i) > v) + 1
    i = np.clip(i - (x.take(i) > v), 0, last)
    s = v - x.take(i)
    return interp.c3.take(i) + interp.c2.take(i) * s + interp.c1.take(i) * (s * s) \
        + interp.c0.take(i) * ((s * s) * s)


def tail_by_whole_array(table: KernelTable, t: np.ndarray) -> np.ndarray:
    """I(t) with one boolean gather and scatter over the whole array each for the
    points at or below t_max and for the rest."""
    inside = t <= table.t_max
    out = np.empty_like(t)
    out[inside] = table._tail_interp(t[inside])
    out[~inside] = table._envelope(t[~inside])
    return np.maximum(out, 0.0, out=out)
