"""Fourier coefficients of the boundary-layer majorant H_R on the torus.

H_R(x) = psi(2 R dist(x, boundary Omega)) / 4 = gamma * I(R dist(x, boundary)).
Coefficients are computed by tensor-grid quadrature: the 2-d DFT of H sampled
on an n x n grid, n a power of two at least max(8R, 256) times an
oversampling factor. A table holds |k|_inf <= kmax = ceil(R), which covers
the degree-R spectrum |k| < R and stays below n/4. The grid is evaluated one
strip of rows at a time (about 2^20 points, an even number of rows): each
strip's distances and I(R dist) are computed once, the strip is transformed
along its rows, and only the 2 kmax + 1 wanted columns are kept; one
transform along the columns of that n x (2 kmax + 1) array finishes the
block, so memory is O(n kmax), not O(n^2). A guard estimates those bytes
first and raises ConfigError when they exceed physical memory.

The per-coefficient error estimate is the change from the n/2 grid. Its
point (i, j) is the n grid point (2i, 2j) bitwise, so the coarse strip is
the fine strip at [::2, ::2] and no point is evaluated twice.
`h_function_grid` evaluates H on a whole grid for callers that need the
values themselves (psi(R dist) = 4 H_{R/2} in the sandwich checks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_memory
from .geometry import TorusSet
from .kernel import KernelTable


# points per strip of grid rows evaluated at once, and bytes held per strip point
_STRIP_POINTS = 1 << 20
_STRIP_BYTES_PER_POINT = 64


def _fft_resolution(R: float, oversample: int) -> int:
    base = max(int(np.ceil(8 * R)), 256)
    n = 1 << int(np.ceil(np.log2(base)))
    return n * oversample


def h_function_grid(set_: TorusSet, kernel: KernelTable, R: float, n: int) -> np.ndarray:
    """H_R on the whole n x n grid (i/n, j/n)."""
    dist = set_.distance_grid(n)
    return kernel.gamma * kernel.tail_integral(R * dist)


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
    width = 2 * kmax + 1
    rows = 2 * max(1, _STRIP_POINTS // (2 * n))
    _check_memory(n, width, rows)
    idx = np.arange(-kmax, kmax + 1)
    fine = np.empty((n, width), dtype=complex)
    coarse = np.empty((n // 2, width), dtype=complex)
    for start in range(0, n, rows):
        strip = slice(start, start + rows)
        h = kernel.gamma * kernel.tail_integral(R * set_.distance_grid(n, rows=strip))
        fine[strip] = _row_fft(h, idx)
        # the n/2 grid point (i, j) is the n grid point (2i, 2j), bitwise
        coarse[start // 2:(start + rows) // 2] = _row_fft(h[::2, ::2], idx)
    block = _column_fft(fine, idx)
    err = np.abs(block - _column_fft(coarse, idx)) + 1e-15 * kernel.gamma
    return HCoefficientTable(R=float(R), kmax=kmax, grid_n=n, block=block, err=err)


def _row_fft(strip: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Columns `idx` (mod m) of the DFT along the rows of a strip of an m x m grid."""
    return np.fft.fft(strip, axis=1)[:, idx % strip.shape[1]]


def _column_fft(cols: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Finish the 2-d DFT of an m x m grid whose kept columns are `cols`."""
    m = len(cols)
    return np.fft.fft(cols, axis=0)[idx % m] / (m * m)


def _check_memory(n: int, width: int, rows: int) -> None:
    """Raise ConfigError if the table's arrays would not fit in physical memory."""
    kept = n + n // 2 + n   # fine and coarse kept columns plus one column FFT
    require_memory(16 * width * kept + _STRIP_BYTES_PER_POINT * rows * n,
                   f"H-table on the {n} x {n} grid")
