"""Fourier coefficients of the boundary-layer majorant H_R on the torus.

H_R(x) = psi(2 R dist(x, boundary Omega)) / 4 = gamma * I(R dist(x, boundary)).
Coefficients are computed by tensor-grid quadrature: the 2-d DFT of H sampled
on an n x n grid, n a power of two at least max(8R, 256) times an
oversampling factor. The grid is evaluated one strip of rows at a time (about
2^20 points, an even number of rows): each strip's distances and I(R dist)
are computed once, the strip is transformed along its rows, and only the
2 kmax + 1 wanted columns are kept; one transform along the columns of that
n x (2 kmax + 1) array finishes the block, so memory is O(n kmax), not O(n^2).
A guard estimates those bytes first and raises ConfigError when they exceed
physical memory.

The per-coefficient error estimate is the change from the n/2 grid. Its
point (i, j) is the n grid point (2i, 2j) bitwise, so the coarse strip is
the fine strip at [::2, ::2] and no point is evaluated twice.
`h_function_grid` evaluates H on a whole grid for callers that need the
values themselves (psi(R dist) = 4 H_{R/2} in the sandwich checks).
The k = 0 coefficient of balls can be cross-checked through the coarea
disintegration over boundary shells, kept here as `h_zero_by_coarea`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, QuadratureError
from .frequencies import integer_ball
from .geometry import Ball, TorusSet
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
                        kmax: int | None = None, oversample: int = 4,
                        refine: bool = True) -> HCoefficientTable:
    """Tabulate H_R coefficients on |k|_inf <= kmax (default: covers |k| < R)."""
    if R <= 0:
        raise ValueError("R must be positive")
    if set_.dimension != 2:
        raise ValueError("coefficient tables are implemented on T^2")
    if kernel.dimension != 2:
        raise ValueError("kernel dimension must match the torus dimension 2")
    if kmax is None:
        kmax = int(np.ceil(R))
    n = _fft_resolution(R, oversample)
    if kmax > n // 4:
        raise QuadratureError(
            f"kmax {kmax} too close to Nyquist of the n = {n} grid; "
            "raise the oversampling factor")
    width = 2 * kmax + 1
    rows = 2 * max(1, _STRIP_POINTS // (2 * n))
    _check_memory(n, width, rows, refine)
    idx = np.arange(-kmax, kmax + 1)
    fine = np.empty((n, width), dtype=complex)
    coarse = np.empty((n // 2, width), dtype=complex) if refine else None
    for start in range(0, n, rows):
        strip = slice(start, start + rows)
        h = kernel.gamma * kernel.tail_integral(R * set_.distance_grid(n, rows=strip))
        fine[strip] = _row_fft(h, idx)
        if refine:
            # the n/2 grid point (i, j) is the n grid point (2i, 2j), bitwise
            coarse[start // 2:(start + rows) // 2] = _row_fft(h[::2, ::2], idx)
    block = _column_fft(fine, idx)
    if refine:
        err = np.abs(block - _column_fft(coarse, idx)) + 1e-15 * kernel.gamma
    else:
        err = np.full(block.shape, np.nan)
    return HCoefficientTable(R=float(R), kmax=kmax, grid_n=n, block=block, err=err)


def _row_fft(strip: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Columns `idx` (mod m) of the DFT along the rows of a strip of an m x m grid."""
    return np.fft.fft(strip, axis=1)[:, idx % strip.shape[1]]


def _column_fft(cols: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Finish the 2-d DFT of an m x m grid whose kept columns are `cols`."""
    m = len(cols)
    return np.fft.fft(cols, axis=0)[idx % m] / (m * m)


def _check_memory(n: int, width: int, rows: int, refine: bool) -> None:
    """Raise ConfigError if the table's arrays would not fit in physical memory."""
    kept = (n + n // 2 if refine else n) + n   # kept columns plus one column FFT
    estimate = 16 * width * kept + _STRIP_BYTES_PER_POINT * rows * n
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if estimate > physical:
        raise ConfigError(
            f"H-table on the {n} x {n} grid needs about {estimate / 2**30:.1f} GiB, "
            f"more than the {physical / 2**30:.1f} GiB of physical memory")


def h_zero_by_coarea(ball: Ball, kernel: KernelTable, R: float, *, n: int = 20001) -> float:
    """H_R-hat(0) for a ball via the coarea (shell) disintegration.

    Stieltjes sum of gamma I(R t) against the exact shell measure mu{dist < t};
    independent of the FFT route, used as a cross-check.
    """
    r = ball.radius
    t_top = max(r, np.sqrt(ball.dimension) / 2.0)
    t = np.linspace(0.0, t_top, n)
    mu = ball.shell_measure(t)
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
        # psi(R dist) = 4 H_{R/2}
        table = h_coefficient_table(set_, kernel, R / 2.0, kmax=int(np.ceil(R)),
                                    oversample=oversample, refine=False)
        inner = integer_ball(R, d)
        vals = 4.0 * np.abs(table.values(inner))
        inner_norms = np.sqrt((inner.astype(float) ** 2).sum(1))
        c_k = float(np.max(vals * inner_norms ** alpha)) if len(inner) else 0.0
        c_0 = float(4.0 * abs(table.zero) * R ** beta)
        layer_parts.append((float(R), c_k, c_0))

    value = max([c_chi] + [max(ck, c0) for _, ck, c0 in layer_parts])
    return FConstantReport(alpha=float(alpha), beta=float(beta), value=value,
                           indicator_part=c_chi, layer_parts=tuple(layer_parts),
                           k_max=int(k_max), r_grid=tuple(float(R) for R in r_grid))
