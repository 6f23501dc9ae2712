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
evaluated in strips of an even number of rows, dealt round-robin to
`parallel`'s workers, one per CPU; the strips the workers hold at once add
up to about 2^18 grid points. Each worker allocates its buffers once per
table, sized to one strip, and reuses them for every strip it is dealt: the
grid rows, their real FFT and the tail evaluator's block scratch. Per strip
it computes the distances, and then R dist, I(R dist) and H in place in that
one array; it gathers the rows into grid columns and transforms them through
`out=`, and writes the columns k2 = 0 ... kmax of the strip's rows, and of
its n/2 grid rows, into the table's arrays, which hold one k2 per row, so
that each k2 column is contiguous. Chunks of k2 are then dealt to the
workers in the same way: each gathers its columns into grid
order in its own buffer, transforms them there along the contiguous axis,
and writes its part of the k2 >= 0 half of the block and of its error
estimate. So memory is O(n kmax), not O(n^2), and no n x (kmax + 1)
temporary is made. Workers call only private bodies (`_distance_grid`,
`_tail`) and numpy, so every public call, which a tracer may wrap, stays on
the calling thread. There the k2 < 0 half, and k1 < 0 on k2 = 0, are the
conjugate mirror H(-k) = conj H(k), for the block and for its error estimate
alike, so the table is exactly Hermitian. Each row and each column is
transformed alone, so the table is bitwise the same for any worker count.
`check_table_memory` estimates those bytes first and raises ConfigError when
they exceed physical memory.

The per-coefficient error estimate is the change from the n/2 grid. Its
point (i, j) is the n grid point (2i, 2j), so no point is evaluated twice and
no row is transformed twice: the DFT of the even columns of a row whose real
DFT is X is (X(k2) + conj X(n/2 - k2)) / 2, taken at the row classes of even
grid rows. `h_function_grid` evaluates H through the same classes on a whole
grid, for callers that need the values themselves (psi(R dist) = 4 H_{R/2}
in the sandwich checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .errors import require_memory
from .geometry import TorusSet
from .kernel import _HERMITE_BLOCK, _HERMITE_SCRATCH_BYTES, KernelTable, _hermite_scratch


# grid points of the strips all workers hold at once, and bytes held per strip point
_STRIP_POINTS = 1 << 18
_STRIP_BYTES_PER_POINT = 43
# k2 columns per chunk of the column transforms
_COLUMN_CHUNK = 16
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


def _grid_order(a: np.ndarray, inverse, axis: int) -> np.ndarray:
    """Every grid index along `axis` of an array over classes; `inverse` gives
    the class of each grid index, None the grid itself."""
    return a if inverse is None else a.take(inverse, axis=axis)


def _h_values(set_: TorusSet, kernel: KernelTable, R: float, n: int,
              rows: np.ndarray, cols: np.ndarray, scratch: tuple | None = None) -> np.ndarray:
    """H_R at the grid rows `rows` and columns `cols` of the n x n grid, in
    place in the distance array, through the private bodies of distance_grid
    and tail_integral: a strip worker calls no public callable. `scratch` is
    the worker's `_hermite_scratch`."""
    h = set_._distance_grid(n, rows, cols)
    h *= R
    kernel._tail(h, out=h, scratch=scratch)
    h *= kernel.gamma
    return h


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
        return self.block[self._index(freqs)]

    def errors(self, freqs: np.ndarray) -> np.ndarray:
        return self.err[self._index(freqs)]

    def _index(self, freqs: np.ndarray) -> tuple:
        """The block index of each frequency; ValueError outside the block."""
        freqs = np.atleast_2d(np.asarray(freqs, dtype=np.int64))
        if np.any(np.abs(freqs) > self.kmax):
            raise ValueError("frequency outside tabulated block")
        return freqs[:, 0] + self.kmax, freqs[:, 1] + self.kmax

    @property
    def zero(self) -> complex:
        return complex(self.block[self.kmax, self.kmax])

    @property
    def zero_error(self) -> float:
        return float(self.err[self.kmax, self.kmax])


def h_coefficient_table(set_: TorusSet, kernel: KernelTable, R: float, *,
                        oversample: int = 4) -> HCoefficientTable:
    """Tabulate H_R coefficients on |k|_inf <= ceil(R), with refinement errors."""
    if set_.dimension != 2:
        raise ValueError("coefficient tables are implemented on T^2")
    if kernel.dimension != 2:
        raise ValueError("kernel dimension must match the torus dimension 2")
    n, kmax, rows = check_table_memory(R, oversample)
    (row_reps, row_inv), (col_reps, col_inv) = _grid_classes(set_, n)
    # the row classes of the n/2 grid, whose rows are the even rows of the n grid
    coarse_classes = np.zeros(len(row_reps), dtype=bool)
    coarse_classes[slice(None, None, 2) if row_inv is None else row_inv[::2]] = True
    # where each row class's n/2 grid row goes, if it has one
    coarse_at = np.cumsum(coarse_classes) - coarse_classes
    starts = range(0, len(row_reps), rows)
    # the k2 = 0 ... kmax row transforms of each row class, and of each row
    # class of the n/2 grid, one k2 per row
    fine = np.empty((kmax + 1, len(row_reps)), dtype=complex)
    coarse = np.empty((kmax + 1, np.count_nonzero(coarse_classes)), dtype=complex)

    def strips(mine):
        # this worker's buffers, sized to one strip and reused for each of its strips
        m = min(rows, len(row_reps))
        scratch = _hermite_scratch(_HERMITE_BLOCK)
        grid = None if col_inv is None else np.empty(m * n)
        spectrum = np.empty(m * (n // 2 + 1), dtype=complex)
        for start in mine:
            strip = slice(start, start + rows)
            h = _h_values(set_, kernel, R, n, row_reps[strip], col_reps, scratch)
            if col_inv is not None:
                h = np.take(h, col_inv, axis=1, mode="clip", out=_front(grid, (len(h), n)))
            x = np.fft.rfft(h, axis=1, out=_front(spectrum, (len(h), n // 2 + 1)))
            del h   # free this strip's values before the next is evaluated
            fine[:, strip] = x[:, :kmax + 1].T
            # the n/2 grid point (i, j) is the n grid point (2i, 2j), so an n/2
            # grid row's DFT is (X(k2) + X(k2 + n/2)) / 2 of its n grid row's X,
            # and X(k2 + n/2) = conj X(n/2 - k2) for a real row
            even = coarse_classes[strip]
            at = coarse_at[start]
            c = (x[even, :kmax + 1] + x[even, n // 2:n // 2 - kmax - 1:-1].conj()) / 2
            coarse[:, at:at + len(c)] = c.T
    parallel.deal(starts, strips)

    # the k2 >= 0 half of the block, and of its error estimate, by chunks of k2
    half = np.empty((2 * kmax + 1, kmax + 1), dtype=complex)
    err = np.empty((2 * kmax + 1, kmax + 1))
    keep = np.arange(-kmax, kmax + 1)
    coarse_order = None if row_inv is None else coarse_at[row_inv[::2]]

    def columns(mine):
        # this worker's buffers, sized to one chunk of columns of each grid
        fine_cols = np.empty(_COLUMN_CHUNK * n, dtype=complex)
        coarse_cols = np.empty(_COLUMN_CHUNK * (n // 2), dtype=complex)
        for k0 in mine:
            k2 = slice(k0, k0 + _COLUMN_CHUNK)
            chunk = len(fine[k2])
            f = _column_fft(fine[k2], row_inv, keep, _front(fine_cols, (chunk, n)))
            c = _column_fft(coarse[k2], coarse_order, keep, _front(coarse_cols, (chunk, n // 2)))
            half[:, k2] = f.T
            err[:, k2] = (np.abs(f - c) + 1e-15 * kernel.gamma).T
    parallel.deal(range(0, kmax + 1, _COLUMN_CHUNK), columns)
    del fine, coarse
    return HCoefficientTable(R=float(R), kmax=kmax, grid_n=n, block=_mirror(half),
                             err=_mirror(err))


def _front(flat: np.ndarray, shape: tuple) -> np.ndarray:
    """The front of a worker's flat buffer as a C-contiguous array of `shape`."""
    return flat[:shape[0] * shape[1]].reshape(shape)


def _column_fft(cols: np.ndarray, order, keep: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Rows `keep` (mod m) of the 2-d DFT of a real m x m grid, one k2 per row,
    whose row transforms hold their columns k2 in the rows of `cols` by row
    class; `order` gives each grid row's class, None the grid itself. The
    columns go into grid order in `out` (m per row), and are transformed there."""
    m = out.shape[1]
    if order is None:
        np.fft.fft(cols, axis=1, out=out)
    else:
        np.fft.fft(np.take(cols, order, axis=1, mode="clip", out=out), axis=1, out=out)
    return out[:, keep % m] / (m * m)


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


def check_table_memory(R: float, oversample: int) -> tuple[int, int, int]:
    """The grid size n, kmax and the rows per strip of the H-table at R and
    oversample; ValueError for an R or oversample out of range, and
    ConfigError if the table's arrays would not fit in physical memory.

    Held at once, in rows of kmax + 1 complex numbers, with w = 2 kmax + 1:
    while the strips run, the row transforms of the row classes (at most n)
    and of the coarse row classes (at most n/2); while the columns are
    transformed, those and the half block (w rows) and its error (w/2); while
    the halves are mirrored, the half block and its error, the whole block
    (2w), its error (w) and one mirrored half (w/2). Each worker adds its
    buffers: while it runs strips, at most 43 bytes per point of a strip's
    grid rows and one `_hermite_scratch`; while it transforms columns, one
    chunk of columns of the n and the n/2 grid, and 6 rows of w values per
    column for the kept coefficients and their differences. Under
    tracemalloc, at 128 x 2048 and 256 x 1024 strips, a worker's strip buffers
    (grid rows and their real FFT), one strip's distances and H values and
    its n/2 grid row transforms peak at 22 bytes per point for a ball, 36 for
    a box and 42 for a quadrilateral, whose distance temporaries are the
    most.
    """
    if not R > 0:
        raise ValueError("R must be positive")
    if oversample < 1:
        raise ValueError(f"oversample must be >= 1, got {oversample}")
    kmax = int(np.ceil(R))
    n = _fft_resolution(R, oversample)   # n >= 8 R, so kmax <= n / 4
    # an even number of rows per strip, so each strip's n/2 grid rows are its
    # even rows; the workers' strips add up to about _STRIP_POINTS points
    rows = 2 * max(1, _STRIP_POINTS // (2 * n * parallel.WORKERS))
    w = 2 * kmax + 1
    row = 16 * (kmax + 1)
    held = row * (n + n // 2)
    striping = held + parallel.WORKERS * (_STRIP_BYTES_PER_POINT * rows * n
                                          + _HERMITE_SCRATCH_BYTES)
    transforming = (held + row * (w + w // 2)
                    + parallel.WORKERS * 16 * _COLUMN_CHUNK * (n + n // 2 + 6 * w))
    mirroring = row * 5 * w
    require_memory(max(striping, transforming, mirroring), f"H-table on the {n} x {n} grid")
    return n, kmax, rows
