"""Periodized trigonometric majorant/minorant pair around an indicator.

For a torus set with coefficients chi-hat and the boundary layer H_R, the
degree-R polynomials

    A, B (x) = sum_{|k| < R} khat(k/R) (chi-hat(k) -/+ H_R-hat(k)) e^{2 pi i k x}

satisfy A <= indicator <= B and B - A <= psi(R dist(x, boundary)) pointwise.
Numerically the inequalities hold up to an explicit budget assembled from the
coefficient error estimates; the budget is computed and reported, never
silently tolerated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frequencies import integer_ball
from .geometry import TorusSet
from .hfourier import HCoefficientTable, h_coefficient_table, h_function_grid
from .kernel import KernelTable

# bytes per grid point a sandwich run holds at once. By tracemalloc at grid_n
# 1024, building one R's grids peaks at 38 for a ball, 49 for a box and 56 for
# a quadrilateral (a synthesis, the real inverse FFT, at 24 over the grids
# before it; the box's and the quadrilateral's distance grids at more); the
# grids then hold 32, the report's temporaries add 32, to 64, and
# `sandwich_csv` one block of _CSV_BLOCK_POINTS value lists, to 38. Each R's
# grids go before the next R's are built.
SANDWICH_BYTES_PER_POINT = 72
# grid points per block of `sandwich_csv`'s value lists (about 200 bytes each)
_CSV_BLOCK_POINTS = 1 << 14


@dataclass(frozen=True)
class TrigPolynomial:
    """Sparse real trigonometric polynomial with spectrum inside |k| < degree."""

    dimension: int
    degree: float
    freqs: np.ndarray       # (N, d) integers, includes k = 0, freqs[::-1] == -freqs
    coeffs: np.ndarray      # (N,) complex, Hermitian: coeffs[::-1] == conj coeffs

    def __post_init__(self):
        norms2 = (self.freqs.astype(float) ** 2).sum(1)
        if np.any(norms2 >= self.degree ** 2):
            raise ValueError("coefficient outside the degree ball")

    def grid_synthesis(self, n: int) -> np.ndarray:
        """Values on the n x n grid (i/n, j/n) by a real inverse FFT of the
        k2 >= 0 coefficients; needs n > 2 degree and freqs[::-1] == -freqs."""
        if self.dimension != 2:
            raise ValueError("grid synthesis implemented on T^2")
        if n <= 2 * self.degree:
            raise ValueError("synthesis grid must exceed twice the degree")
        if not np.array_equal(self.freqs[::-1], -self.freqs):
            raise ValueError("synthesis needs antisymmetric freqs: freqs[::-1] == -freqs")
        half = self.freqs[:, 1] >= 0
        spectrum = np.zeros((n, n // 2 + 1), dtype=complex)
        spectrum[self.freqs[half, 0] % n, self.freqs[half, 1]] = self.coeffs[half]
        out = np.fft.irfft2(spectrum, s=(n, n)) * (n * n)
        # a bound on the imaginary part that a complex synthesis would show
        imag = 0.5 * np.sum(np.abs(self.coeffs - np.conj(self.coeffs[::-1])))
        if imag > 1e-8 * max(1.0, np.max(np.abs(out))):
            raise ValueError("synthesis lost realness: coefficients not Hermitian")
        return out


@dataclass(frozen=True)
class MajorantPair:
    """Minorant/majorant polynomials with the coefficient error budget."""

    lower: TrigPolynomial
    upper: TrigPolynomial
    h_table: HCoefficientTable
    budget: float


def majorant_pair(set_: TorusSet, kernel: KernelTable, R: float, *,
                  oversample: int = 4) -> MajorantPair:
    """Assemble the degree-R sandwich polynomials for a torus set."""
    if R < 4:
        raise ValueError("R must be >= 4")
    if set_.dimension != kernel.dimension:
        raise ValueError("set and kernel dimensions differ")
    h_table = h_coefficient_table(set_, kernel, R, oversample=oversample)

    freqs = integer_ball(R, set_.dimension, include_zero=True)
    chi = set_.fourier_coefficients(freqs)
    h_vals = h_table.values(freqs)
    h_errs = h_table.errors(freqs)
    norms = np.sqrt((freqs.astype(float) ** 2).sum(1))
    weights = kernel.khat_value(norms / R)

    lower = TrigPolynomial(set_.dimension, float(R), freqs, weights * (chi - h_vals))
    upper = TrigPolynomial(set_.dimension, float(R), freqs, weights * (chi + h_vals))

    budget = float(np.sum(weights * h_errs)
                   + kernel.khat_accuracy * np.sum(np.abs(chi) + np.abs(h_vals))
                   + 1e-12 * kernel.gamma)
    return MajorantPair(lower=lower, upper=upper, h_table=h_table, budget=budget)


@dataclass(frozen=True)
class SandwichReport:
    """Worst-case violations of the sandwich inequalities on a uniform grid."""

    R: float
    grid_n: int
    budget: float
    lower_violation: float        # max(A - indicator)
    lower_violation_fraction: float
    upper_violation: float        # max(indicator - B)
    upper_violation_fraction: float
    width_violation: float        # max(B - A - psi(R dist))
    width_violation_fraction: float
    max_width: float
    observed_width_ratio: float   # sup (B - A) / psi(R dist), diagnostic only


def sandwich_grids(pair: MajorantPair, set_: TorusSet, kernel: KernelTable,
                   grid_n: int) -> tuple:
    """(A, B, chi, psi(R dist)) on the n x n grid (i/n, j/n), R the pair's degree.

    Built once per R, they feed both `sandwich_report` and `sandwich_csv`.
    psi(R dist) is taken as 4 H_{R/2} = 4 gamma I(R dist / 2), equal bitwise to
    psi(kernel, R * dist): scaling by 2 and 4 is exact.
    """
    R = pair.lower.degree
    if grid_n < 4 * R:
        raise ValueError("grid_n must be at least 4 R per axis")
    return (pair.lower.grid_synthesis(grid_n), pair.upper.grid_synthesis(grid_n),
            set_.indicator_grid(grid_n), 4.0 * h_function_grid(set_, kernel, R / 2.0, grid_n))


def sandwich_report(pair: MajorantPair, grids: tuple) -> SandwichReport:
    """Evaluate A <= chi <= B and B - A <= psi(R dist) on the grids of `sandwich_grids`."""
    A, B, chi, bound = grids
    grid_n = len(chi)
    lower = A - chi
    upper = chi - B
    width = (B - A) - bound
    npts = grid_n * grid_n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.max((B - A) / bound)
    return SandwichReport(
        R=pair.lower.degree, grid_n=grid_n, budget=pair.budget,
        lower_violation=float(lower.max()),
        lower_violation_fraction=float(np.count_nonzero(lower > 0) / npts),
        upper_violation=float(upper.max()),
        upper_violation_fraction=float(np.count_nonzero(upper > 0) / npts),
        width_violation=float(width.max()),
        width_violation_fraction=float(np.count_nonzero(width > 0) / npts),
        max_width=float((B - A).max()),
        observed_width_ratio=float(ratio),
    )


def sandwich_csv(grids: tuple, path) -> None:
    """Per-grid-point dump of the grids of `sandwich_grids`: x1, x2, chi, A, B, psi bound.

    The value lists are formatted one block of grid rows at a time, so the
    text never holds more than _CSV_BLOCK_POINTS grid points.
    """
    A, B, chi, bound = grids
    grid_n = len(chi)
    axis = np.arange(grid_n) / grid_n
    block = max(1, _CSV_BLOCK_POINTS // grid_n)
    with open(path, "w", newline="") as fh:
        fh.write("x1,x2,chi,A,B,psi_bound\r\n")
        for i in range(0, grid_n, block):
            rows = slice(i, i + block)
            x1 = axis[rows]
            columns = (np.repeat(x1, grid_n), np.tile(axis, len(x1)),
                       chi[rows], A[rows], B[rows], bound[rows])
            # the bytes of csv.writer's excel dialect: no value needs quoting, rows end in CRLF
            values = zip(*(map(repr, np.ravel(c).tolist()) for c in columns))
            fh.writelines(",".join(row) + "\r\n" for row in values)
