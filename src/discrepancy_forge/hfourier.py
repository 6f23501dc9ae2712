"""Fourier coefficients of the boundary-layer majorant H_R on the torus.

H_R(x) = psi(2 R dist(x, boundary Omega)) / 4 = gamma * I(R dist(x, boundary)).
Coefficients are computed by tensor-grid quadrature: the 2-d DFT of H sampled
on an n x n grid, n a power of two at least max(8R, 256) times an
oversampling factor. A table holds |k|_inf <= kmax = ceil(R), which covers
the degree-R spectrum |k| < R and stays below n/4.

H is evaluated once per pair of distance classes. A set's `grid_classes`
groups the indices of each grid axis whose distances agree bitwise: for a
ball, equal squared periodic offsets from the centre, n/2 + 1 classes per
axis when n is a power of two and the centre lies on the grid. Polygons, boxes and any axis with
more than 3n/4 classes take the grid itself, in order, and gather nothing.
Grid rows of one class are equal, so each class row is transformed once,
and the kept columns are gathered into grid order before the column
transform; the table is bitwise the one every grid row would give.

H is real, so its grid is transformed as a real grid. The class rows are
evaluated one strip at a time (about 2^20 grid points, an even number of
rows): each strip's distances and I(R dist) are computed once, its rows are
gathered into grid columns and given a real FFT, and only the columns
k2 = 0 ... kmax are kept; one transform along the columns of the
n x (kmax + 1) array gives the k2 >= 0 half of the block, so memory is
O(n kmax), not O(n^2). The k2 < 0 half, and k1 < 0 on k2 = 0, are the
conjugate mirror H(-k) = conj H(k), for the block and for its error
estimate alike, so the table is exactly Hermitian. A guard estimates those
bytes first and raises ConfigError when they exceed physical memory.

The per-coefficient error estimate is the change from the n/2 grid. Its
point (i, j) is the n grid point (2i, 2j) bitwise, so the coarse strip is
taken from the fine one: the row classes of even grid rows, at even grid
columns. No point is evaluated twice. `h_function_grid` evaluates H through
the same classes on a whole grid, for callers that need the values
themselves (psi(R dist) = 4 H_{R/2} in the sandwich checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_memory
from .geometry import TorusSet
from .kernel import KernelTable


# points per strip of grid rows evaluated at once, and bytes held per strip point
_STRIP_POINTS = 1 << 20
_STRIP_BYTES_PER_POINT = 48
# an axis with more distance classes than this share of its indices is taken
# in grid order: gathering it would cost more than its repeats save
_MAX_CLASS_SHARE = 0.75


def _fft_resolution(R: float, oversample: int) -> int:
    base = max(int(np.ceil(8 * R)), 256)
    n = 1 << int(np.ceil(np.log2(base)))
    return n * oversample


def _grid_classes(set_: TorusSet, n: int) -> list[tuple]:
    """The set's (reps, inverse) per grid axis, with inverse None where the
    classes are too many to repay gathering: that axis is the grid in order."""
    return [(np.arange(n), None) if len(reps) > _MAX_CLASS_SHARE * n else (reps, inverse)
            for reps, inverse in set_.grid_classes(n)]


def _grid_order(a: np.ndarray, inverse, axis: int, step: int = 1) -> np.ndarray:
    """Every `step`-th grid index along `axis` of an array over classes;
    `inverse` gives the class of each grid index, None the grid itself."""
    if inverse is None:
        return a[::step] if axis == 0 else a[:, ::step]
    return a.take(inverse[::step], axis=axis)   # C order, which the FFTs need to be fast


def _h_values(set_: TorusSet, kernel: KernelTable, R: float, n: int,
              rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """H_R at the grid rows `rows` and columns `cols` of the n x n grid."""
    return kernel.gamma * kernel.tail_integral(R * set_.distance_grid(n, rows, cols))


def h_function_grid(set_: TorusSet, kernel: KernelTable, R: float, n: int) -> np.ndarray:
    """H_R on the whole n x n grid (i/n, j/n)."""
    (row_reps, row_inv), (col_reps, col_inv) = _grid_classes(set_, n)
    h = _h_values(set_, kernel, R, n, row_reps, col_reps)
    return _grid_order(_grid_order(h, row_inv, 0), col_inv, 1)


@dataclass
class HCoefficientTable:
    """Block of H_R coefficients for |k|_inf <= kmax with error estimates."""

    R: float
    kmax: int
    grid_n: int
    block: np.ndarray   # complex, index [k1 + kmax, k2 + kmax]
    err: np.ndarray     # per-coefficient refinement error estimate

    def values(self, freqs: np.ndarray) -> np.ndarray:
        freqs = np.atleast_2d(np.asarray(freqs, dtype=np.int64))
        if np.any(np.abs(freqs) > self.kmax):
            raise ValueError("frequency outside tabulated block")
        return self.block[freqs[:, 0] + self.kmax, freqs[:, 1] + self.kmax]

    def errors(self, freqs: np.ndarray) -> np.ndarray:
        freqs = np.atleast_2d(np.asarray(freqs, dtype=np.int64))
        return self.err[freqs[:, 0] + self.kmax, freqs[:, 1] + self.kmax]

    @property
    def zero(self) -> complex:
        return complex(self.block[self.kmax, self.kmax])

    @property
    def zero_error(self) -> float:
        return float(self.err[self.kmax, self.kmax])


def h_coefficient_table(set_: TorusSet, kernel: KernelTable, R: float, *,
                        oversample: int = 4) -> HCoefficientTable:
    """Tabulate H_R coefficients on |k|_inf <= ceil(R), with refinement errors."""
    if R <= 0:
        raise ValueError("R must be positive")
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    if set_.dimension != 2:
        raise ValueError("coefficient tables are implemented on T^2")
    if kernel.dimension != 2:
        raise ValueError("kernel dimension must match the torus dimension 2")
    kmax = int(np.ceil(R))
    n = _fft_resolution(R, oversample)   # n >= 8 R, so kmax <= n / 4
    rows = 2 * max(1, _STRIP_POINTS // (2 * n))
    _check_memory(n, kmax, rows)
    (row_reps, row_inv), (col_reps, col_inv) = _grid_classes(set_, n)
    # the row classes of the n/2 grid, whose rows are the even rows of the n grid
    coarse_classes = np.zeros(len(row_reps), dtype=bool)
    coarse_classes[slice(None, None, 2) if row_inv is None else row_inv[::2]] = True
    # the k2 = 0 ... kmax row transforms of each row class, and of each row class of the n/2 grid
    fine = np.empty((len(row_reps), kmax + 1), dtype=complex)
    coarse = np.empty((np.count_nonzero(coarse_classes), kmax + 1), dtype=complex)
    done = 0
    for start in range(0, len(row_reps), rows):
        strip = slice(start, start + rows)
        h = _h_values(set_, kernel, R, n, row_reps[strip], col_reps)
        fine[strip] = _row_fft(_grid_order(h, col_inv, 1), kmax)
        # the n/2 grid point (i, j) is the n grid point (2i, 2j), bitwise
        h = h[::2] if row_inv is None else h[coarse_classes[strip]]
        coarse[done:done + len(h)] = _row_fft(_grid_order(h, col_inv, 1, 2), kmax)
        done += len(h)
        del h   # h[::2] is a view: free this strip's values before the next is evaluated
    if row_inv is not None:
        fine = fine[row_inv]
        coarse = coarse[(np.cumsum(coarse_classes) - 1)[row_inv[::2]]]
    half = _column_fft(fine, kmax)
    err = np.abs(half - _column_fft(coarse, kmax)) + 1e-15 * kernel.gamma
    return HCoefficientTable(R=float(R), kmax=kmax, grid_n=n, block=_mirror(half),
                             err=_mirror(err))


def _row_fft(strip: np.ndarray, kmax: int) -> np.ndarray:
    """Columns 0 ... kmax of the real DFT along the rows of a strip of an m x m grid."""
    return np.fft.rfft(strip, axis=1)[:, :kmax + 1]


def _column_fft(cols: np.ndarray, kmax: int) -> np.ndarray:
    """Rows -kmax ... kmax of the 2-d DFT of a real m x m grid whose columns 0 ... kmax
    of the row transforms are `cols`: the k2 >= 0 half of the block."""
    m = len(cols)
    return np.fft.fft(cols, axis=0)[np.arange(-kmax, kmax + 1) % m] / (m * m)


def _mirror(half: np.ndarray) -> np.ndarray:
    """The whole block from its k2 >= 0 half: H(k1, -k2) = conj H(-k1, k2), and
    on k2 = 0 H(-k1, 0) = conj H(k1, 0) for k1 > 0, since a complex FFT of a
    real column is Hermitian only to rounding. The block is exactly Hermitian."""
    kmax = half.shape[1] - 1
    block = np.empty((2 * kmax + 1, 2 * kmax + 1), dtype=half.dtype)
    block[:, kmax:] = half
    block[:, :kmax] = np.conj(half[::-1, :0:-1])
    block[:kmax, kmax] = np.conj(half[:kmax:-1, 0])
    return block


def _check_memory(n: int, kmax: int, rows: int) -> None:
    """Raise ConfigError if the table's arrays would not fit in physical memory.

    Rows of kmax + 1 complex numbers held at once, with w = 2 kmax + 1: while
    row classes are put in grid order, the class rows (at most 3n/4, else they
    are the grid), the coarse class rows (at most n/2) and the n rows gathered
    from them; while the columns are transformed, the n fine and n/2 coarse
    rows, one n-row transform and the w rows kept of it; while the halves are
    mirrored, the fine and coarse rows, the half block (w rows) and its error
    (w/2), the whole block (2w), its error (w) and one mirrored half (w/2). A
    strip holds at most 48 bytes per point of its grid rows: the distances
    and H values of its row and column classes (the box's peak near 42), the
    H values in grid order and their real transform (8 bytes each).
    """
    w = 2 * kmax + 1
    gathering = int(_MAX_CLASS_SHARE * n) + n // 2 + n
    transforming = n + n // 2 + n + w
    mirroring = n + n // 2 + 5 * w
    require_memory(16 * (kmax + 1) * max(gathering, transforming, mirroring)
                   + _STRIP_BYTES_PER_POINT * rows * n, f"H-table on the {n} x {n} grid")
