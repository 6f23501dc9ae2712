"""Rotation orbits on S^2, Hecke averaging blocks, and cap discrepancy bounds.

The generating set: rotations by arccos(-3/5) (positive sine branch) about
the three coordinate axes and their inverses. Entries are rationals with
denominator 5, so a reduced word of length L has an exact integer matrix
over denominator 5^L; distinctness/freeness checks run in integer
arithmetic. The averaging operator over all words of length <= k acts on
each spherical-harmonic degree as the block

    T_l = m^-1 sum_j D^l(sigma_j),

whose spectral norm over 1 <= l <= L lower-bounds the full nontrivial
spectral radius rho(m); reports always carry the truncation degree L.
D^l is assembled per word from its zyz Euler angles, with the middle factor
exp(-i beta Jy) obtained from one Hermitian eigendecomposition of Jy per
degree (exact integer spectrum), which stays unitary to ~1e-12 at l = 50.

`rho_hat` averages over the word set it is given. For the ball of all
reduced words of length <= k, `ball_rho_hat` needs no words: the sum S_n of
D^l over the words of length exactly n is a polynomial in the generator sum
S_1 (the Hecke operator of Lubotzky, Phillips and Sarnak), with S_2 =
S_1^2 - 6 and S_{n+1} = S_1 S_n - 5 S_{n-1}, so one eigvalsh of the
Hermitian S_1 per degree gives the ball block's spectrum. The word-set path
stays as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

_GEN_INT = {
    "a": np.array([[-3, -4, 0], [4, -3, 0], [0, 0, 5]], dtype=np.int64),   # about z
    "b": np.array([[5, 0, 0], [0, -3, -4], [0, 4, -3]], dtype=np.int64),   # about x
    "c": np.array([[-3, 0, 4], [0, 5, 0], [-4, 0, -3]], dtype=np.int64),   # about y
}
for _k in ("a", "b", "c"):
    _GEN_INT[_k.upper()] = _GEN_INT[_k].T.copy()

_INVERSE = {"a": "A", "A": "a", "b": "B", "B": "b", "c": "C", "C": "c"}
LETTERS = ("a", "A", "b", "B", "c", "C")


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
    def denominator(self) -> int:
        return 5 ** self.length

    @property
    def matrix(self) -> np.ndarray:
        return self.int_matrix / self.denominator

    def canonical_key(self) -> tuple:
        """Rotation identity key: 5-primitive integer matrix plus exponent."""
        flat = [int(v) for v in self.int_matrix.ravel()]
        v = 0
        while all(x % 5 == 0 for x in flat) and any(flat):
            flat = [x // 5 for x in flat]
            v += 1
        return (self.length - v, tuple(flat))


def lps_generators() -> dict:
    """The six generator words (three axes and inverses), exact matrices."""
    return {letter: RotationWord((letter,), _GEN_INT[letter].copy())
            for letter in LETTERS}


def word_count(k: int) -> int:
    """Number of reduced words of length <= k: (3 * 5^k - 1) / 2."""
    return (3 * 5 ** k - 1) // 2


def enumerate_words(k: int) -> list:
    """All reduced words of length <= k, depth-first in fixed letter order."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > 8:
        raise ValueError("k > 8 exceeds the enumeration budget (m grows as 5^k)")
    out = [RotationWord((), np.eye(3, dtype=np.int64))]
    stack = [out[0]]
    while stack:
        word = stack.pop()
        if word.length == k:
            continue
        last = word.letters[-1] if word.letters else None
        for letter in LETTERS:
            if last is not None and letter == _INVERSE[last]:
                continue
            nxt = RotationWord(word.letters + (letter,),
                               word.int_matrix @ _GEN_INT[letter])
            out.append(nxt)
            stack.append(nxt)
    return out


def all_distinct(words) -> bool:
    keys = {w.canonical_key() for w in words}
    return len(keys) == len(words)


# ---------------------------------------------------------------------------
# orbits and spherical regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereOrbit:
    base: tuple
    k: int
    points: np.ndarray   # (m, 3) unit vectors

    @property
    def size(self) -> int:
        return len(self.points)


def orbit(x, words) -> SphereOrbit:
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > 1e-9:
        raise ValueError("base point must be a unit vector")
    k = max(w.length for w in words)
    pts = np.stack([w.matrix @ x for w in words])
    return SphereOrbit(base=tuple(float(v) for v in x), k=int(k), points=pts)


@dataclass(frozen=True)
class Cap:
    """Closed spherical cap of angular radius theta about a pole."""

    pole: tuple
    theta: float

    def __post_init__(self):
        p = np.asarray(self.pole, dtype=float)
        n = np.linalg.norm(p)
        if n == 0:
            raise ValueError("pole must be nonzero")
        if not 0 < self.theta <= np.pi:
            raise ValueError("theta must lie in (0, pi]")
        object.__setattr__(self, "pole", tuple(float(v) for v in p / n))

    def measure(self) -> float:
        return 0.5 * (1.0 - np.cos(self.theta))

    def contains(self, points: np.ndarray) -> np.ndarray:
        dots = np.atleast_2d(points) @ np.asarray(self.pole)
        return dots >= np.cos(self.theta) - 1e-15

    def shell_measure(self, t):
        """mu{ |polar angle - theta| < t }, exact, clipped to [0, 1]."""
        t = np.asarray(t, dtype=float)
        lo = np.maximum(self.theta - t, 0.0)
        hi = np.minimum(self.theta + t, np.pi)
        return np.clip(0.5 * (np.cos(lo) - np.cos(hi)), 0.0, 1.0)

    def to_json(self) -> dict:
        return {"variant": "cap", "pole": list(self.pole), "theta": self.theta}


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


def set_discrepancy(orb: SphereOrbit, region) -> float:
    inside = int(np.count_nonzero(region.contains(orb.points)))
    return abs(region.measure() - inside / orb.size)


# ---------------------------------------------------------------------------
# Wigner blocks and the truncated spectral radius
# ---------------------------------------------------------------------------

_WIGNER_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
MAX_DEGREE = 50  # highest harmonic degree checked to stay unitary to ~1e-12


def _wigner_eig(ell: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of Jy in the degree-ell representation.

    Returns (levels, U) with exp(-i beta Jy) = U diag(exp(-i beta levels)) U*.
    The spectrum of Jy is exactly the integers -ell..ell, so the computed
    eigenvalues are snapped to them.
    """
    if ell not in _WIGNER_CACHE:
        m = np.arange(-ell, ell + 1, dtype=float)
        raising = np.sqrt(ell * (ell + 1) - m[:-1] * (m[:-1] + 1))
        jy = np.zeros((2 * ell + 1, 2 * ell + 1), dtype=complex)
        for i, a in enumerate(raising):
            jy[i + 1, i] = -0.5j * a
            jy[i, i + 1] = 0.5j * a
        vals, vecs = np.linalg.eigh(jy)
        levels = np.round(vals).astype(float)
        if np.max(np.abs(vals - levels)) > 1e-8:
            raise QuadratureError(f"Jy spectrum drifted from integers at l = {ell}")
        _WIGNER_CACHE[ell] = (levels, vecs)
    return _WIGNER_CACHE[ell]


def euler_zyz(matrix: np.ndarray) -> tuple[float, float, float]:
    """zyz Euler angles of a rotation matrix: R = Rz(alpha) Ry(beta) Rz(gamma)."""
    r = np.asarray(matrix, dtype=float)
    c_beta = np.clip(r[2, 2], -1.0, 1.0)
    s_beta = np.hypot(r[0, 2], r[1, 2])
    if s_beta < 1e-12:
        if c_beta > 0:
            return float(np.arctan2(r[1, 0], r[0, 0])), 0.0, 0.0
        return float(np.arctan2(-r[1, 0], -r[0, 0])), float(np.pi), 0.0
    alpha = float(np.arctan2(r[1, 2], r[0, 2]))
    gamma = float(np.arctan2(r[2, 1], -r[2, 0]))
    return alpha, float(np.arccos(c_beta)), gamma


def wigner_d_matrix(ell: int, matrix: np.ndarray) -> np.ndarray:
    """Degree-ell representation matrix of a single rotation."""
    alpha, beta, gamma = euler_zyz(matrix)
    levels, U = _wigner_eig(ell)
    d_beta = (U * np.exp(-1j * beta * levels)) @ U.conj().T
    m = np.arange(-ell, ell + 1)
    return np.exp(-1j * m * alpha)[:, None] * d_beta * np.exp(-1j * m * gamma)[None, :]


@dataclass(frozen=True)
class HarmonicBlock:
    """Averaging operator restricted to one spherical-harmonic degree."""

    ell: int
    matrix: np.ndarray
    norm: float


def hecke_block(words, ell: int, *, unitarity_checks: int = 8) -> HarmonicBlock:
    """T restricted to degree ell: m^-1 sum of D^l over the word set."""
    if ell > MAX_DEGREE:
        raise ValueError(f"degree capped at {MAX_DEGREE}")
    mats = np.stack([w.matrix for w in words])
    angles = np.array([euler_zyz(m) for m in mats])
    levels, U = _wigner_eig(ell)
    m = np.arange(-ell, ell + 1, dtype=float)

    E = np.exp(-1j * np.outer(angles[:, 1], levels))          # (W, 2l+1)
    d_all = (E[:, None, :] * U[None, :, :]) @ U.conj().T      # batched U e U*
    ph_a = np.exp(-1j * np.outer(angles[:, 0], m))
    ph_g = np.exp(-1j * np.outer(angles[:, 2], m))
    D = ph_a[:, :, None] * d_all * ph_g[:, None, :]

    rng = np.random.default_rng(0)
    sample = rng.choice(len(words), size=min(unitarity_checks, len(words)), replace=False)
    eye = np.eye(2 * ell + 1)
    for idx in sample:
        defect = np.max(np.abs(D[idx] @ D[idx].conj().T - eye))
        if defect > 1e-8:
            raise QuadratureError(f"representation lost unitarity at l = {ell}: {defect:.2e}")

    T = D.mean(axis=0)
    herm = np.max(np.abs(T - T.conj().T))
    if herm > 1e-10:
        raise QuadratureError(f"averaging block not self-adjoint at l = {ell}: {herm:.2e}")
    T = 0.5 * (T + T.conj().T)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(T))))
    return HarmonicBlock(ell=int(ell), matrix=T, norm=norm)


@dataclass(frozen=True)
class RhoHatResult:
    """Degree-truncated lower bound for the nontrivial spectral radius."""

    value: float
    L: int
    per_degree: tuple

    def to_json(self) -> dict:
        return {"value": self.value, "L": self.L, "per_degree": list(self.per_degree)}


def rho_hat(words, L: int) -> RhoHatResult:
    norms = [hecke_block(words, ell).norm for ell in range(1, L + 1)]
    return RhoHatResult(value=float(max(norms)), L=int(L), per_degree=tuple(norms))


def hecke_ball_sum(lam, k: int):
    """sum_{n <= k} p_n(lam): the eigenvalue of S_0 + ... + S_k where S_1 has lam.

    p_0 = 1, p_1 = lam, p_2 = lam^2 - 6 and p_{n+1} = lam p_n - 5 p_{n-1};
    at the trivial eigenvalue lam = 6 the sum is word_count(k).
    """
    lam = np.asarray(lam, dtype=float)
    p = [np.ones_like(lam), lam]
    for n in range(2, k + 1):
        p.append(lam * p[-1] - (6.0 if n == 2 else 5.0) * p[-2])
    return sum(p[:k + 1])


def ball_rho_hat(k: int, L: int) -> RhoHatResult:
    """rho_hat(enumerate_words(k), L), from the six generator blocks alone.

    The ball average in degree l is hecke_ball_sum(S_1, k) / word_count(k),
    with S_1 = 6 hecke_block(generators, l), so one eigvalsh of S_1 per degree
    gives its spectrum; no word list is built, so k is not capped at 8.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    gens = list(lps_generators().values())
    m = word_count(k)
    norms = []
    for ell in range(1, L + 1):
        # hecke_block also takes eigvalsh(T) for its .norm; the second one on
        # a (2l+1)-square block costs far less than building the block
        lam = np.linalg.eigvalsh(6.0 * hecke_block(gens, ell).matrix)
        norms.append(float(np.max(np.abs(hecke_ball_sum(lam, k) / m))))
    return RhoHatResult(value=float(max(norms)), L=int(L), per_degree=tuple(norms))


# ---------------------------------------------------------------------------
# the cap discrepancy bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SphereBoundReport:
    delta: float
    rho: float
    minkowski: float
    grid_min: float
    grid_argmin_R: float
    formula_R: float
    formula_value: float

    def to_json(self) -> dict:
        return {"delta": self.delta, "rho": self.rho, "minkowski": self.minkowski,
                "grid_min": self.grid_min, "grid_argmin_R": self.grid_argmin_R,
                "formula_R": self.formula_R, "formula_value": self.formula_value}


def sphere_bound(m: int, region, delta: float, rho: float, *,
                 r_grid=None) -> SphereBoundReport:
    """M(delta) * (R^-delta + R^((2-delta)/2) rho), minimized over R.

    Reports both the grid minimum and the closed-form choice
    R = m^(1/(2+delta)) log(m)^(-2/(2+delta)); constants in front are fitted
    by callers against measured discrepancies, never baked in.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    # Minkowski content: sup over t of mu(t-shell about the boundary) * t^-delta
    t_grid = np.geomspace(1e-4, np.pi, 200)
    M = float(np.max(region.shell_measure(t_grid) * t_grid ** (-delta)))

    def value(R):
        return M * (R ** (-delta) + R ** ((2.0 - delta) / 2.0) * rho)

    formula_R = m ** (1.0 / (2.0 + delta)) * np.log(m) ** (-2.0 / (2.0 + delta))
    if r_grid is None:
        r_grid = np.geomspace(1.0, max(float(m), 2.0), 129)
    r_grid = np.asarray(r_grid, dtype=float)
    vals = value(r_grid)
    idx = int(np.argmin(vals))
    return SphereBoundReport(
        delta=float(delta), rho=float(rho), minkowski=float(M),
        grid_min=float(min(vals[idx], value(formula_R))),
        grid_argmin_R=float(r_grid[idx]),
        formula_R=float(formula_R),
        formula_value=float(value(formula_R)),
    )
