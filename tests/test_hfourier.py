"""Boundary-layer coefficient tables and the empirical decay constant."""

import threading
import tracemalloc

import numpy as np
import pytest
from oracles import (
    f_constant,
    full_grid_block,
    full_grid_block_fft2,
    h_table_by_strips,
    h_zero_by_coarea,
    minkowski_content,
)

from discrepancy_forge import hfourier, parallel
from discrepancy_forge.errors import ConfigError, require_memory
from discrepancy_forge.frequencies import integer_ball
from discrepancy_forge.geometry import Ball, Box, ConvexPolytope
from discrepancy_forge.hfourier import _fft_resolution, h_coefficient_table, h_function_grid

BALL = Ball((0.5, 0.5), 0.25)
QUAD = ConvexPolytope(((0.3, 0.25), (0.75, 0.35), (0.7, 0.7), (0.25, 0.6)), epsilon=0.3)


def h_coefficient(set_, kernel, R, k, *, oversample) -> complex:
    """Single coefficient H_R-hat(k), read from the smallest whole-grid block that covers it."""
    k = np.asarray(k, dtype=np.int64)
    kmax = int(np.max(np.abs(k))) or 1
    block = full_grid_block(set_, kernel, R, _fft_resolution(R, oversample), kmax)
    return complex(block[k[0] + kmax, k[1] + kmax])


def whole_block(table):
    """(values, errors) of a table at every frequency of its block, index
    [k1 + kmax, k2 + kmax]."""
    axis = np.arange(-table.kmax, table.kmax + 1)
    freqs = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    shape = (len(axis), len(axis))
    return table.values(freqs).reshape(shape), table.errors(freqs).reshape(shape)


@pytest.fixture(scope="module")
def table16(kernel2):
    return h_coefficient_table(BALL, kernel2, 16.0, oversample=4)


def test_hermitian_symmetry(table16):
    # the k2 < 0 half, and k1 < 0 on k2 = 0, are read as the conjugate at -k, exactly
    freqs = integer_ball(10, 2)
    assert np.array_equal(table16.values(freqs), np.conj(table16.values(-freqs)))
    assert np.array_equal(table16.errors(freqs), table16.errors(-freqs))


def test_table_keeps_the_k2_nonnegative_half(table16):
    # the stored half is read as it is where k2 > 0, or k2 = 0 <= k1, and
    # every other frequency is the conjugate of its mirror image
    kmax = table16.kmax
    assert table16.block.shape == table16.err.shape == (2 * kmax + 1, kmax + 1)
    values, errors = whole_block(table16)
    assert np.array_equal(values[:, kmax + 1:], table16.block[:, 1:])
    assert np.array_equal(values[kmax:, kmax], table16.block[kmax:, 0])
    assert np.array_equal(values[:, :kmax], np.conj(values[::-1, :kmax:-1]))
    assert np.array_equal(values[:kmax, kmax], np.conj(values[:kmax:-1, kmax]))
    assert np.array_equal(errors[:, :kmax], errors[::-1, :kmax:-1])
    assert np.array_equal(errors[:kmax, kmax], errors[:kmax:-1, kmax])
    assert table16.zero == values[kmax, kmax]
    assert table16.zero_error == errors[kmax, kmax]


@pytest.mark.parametrize("k", [(-17, 0), (17, 0), (0, -17), (3, 17), (-17, -17)])
@pytest.mark.parametrize("read", ["values", "errors"])
def test_frequency_outside_the_block_is_rejected(table16, read, k):
    # a negative index would wrap to the other edge of the block
    with pytest.raises(ValueError, match="outside tabulated block"):
        getattr(table16, read)(np.array([[0, 0], k]))


def test_refinement_agreement(kernel2, table16):
    # doubling the grid moves H-hat(1,0) by less than 1e-5
    doubled = h_coefficient_table(BALL, kernel2, 16.0, oversample=8)
    k = np.array([[1, 0]])
    assert abs(table16.values(k)[0] - doubled.values(k)[0]) < 1e-5
    assert table16.errors(k)[0] < 1e-5


def test_zero_coefficient_against_coarea(kernel2, table16):
    coarea = h_zero_by_coarea(BALL, kernel2, 16.0)
    assert abs(table16.zero.real - coarea) < 1e-4
    assert abs(table16.zero.imag) < 1e-12


def test_zero_coefficient_remark_inequality(kernel2):
    # H_R-hat(0) <= c M(alpha) R^-alpha with one fitted c across the R grid
    M = minkowski_content(BALL, 1.0).value
    rs = np.array([8.0, 16.0, 32.0, 64.0])
    zeros = np.array([h_coefficient_table(BALL, kernel2, R, oversample=2).zero.real
                      for R in rs])
    c_fit = float(np.max(zeros * rs / M))
    assert np.isfinite(c_fit) and c_fit > 0
    assert np.all(zeros <= c_fit * M / rs + 1e-12)
    # decay is genuinely ~ R^-1: fitted c stable within a factor 2 across R
    ratios = zeros * rs / M
    assert ratios.max() / ratios.min() < 2


def test_single_coefficient_wrapper(kernel2, table16):
    val = h_coefficient(BALL, kernel2, 16.0, (1, 0), oversample=4)
    assert val == pytest.approx(complex(table16.values(np.array([[1, 0]]))[0]), abs=1e-12)


ON_GRID = Ball((0.51171875, 0.43359375), 0.25)   # centre on the 1/512 grid, n/2 + 1 classes
OFF_GRID = Ball((0.3, 0.7), 0.25)                  # no two grid indices share a class
BOX = Box((0.1, 0.2), (0.6, 0.55))
TABLE_CASES = {
    **{f"{name}-{R}-{oversample}": (set_, R, oversample)
       for name, set_ in (("ball", BALL), ("quad", QUAD))
       for R in (8.0, 64.0) for oversample in (2, 8)},
    "centre-0": (Ball((0.0, 0.0), 0.25), 8.0, 2),
    "centre-1-minus-1/n": (Ball((1 - 1 / 512, 1 - 1 / 512), 0.25), 8.0, 2),
    "radius-0.01": (Ball((0.5, 0.5), 0.01), 16.0, 2),
    "radius-0.49": (Ball((0.5, 0.5), 0.49), 16.0, 2),
    "off-grid": (OFF_GRID, 16.0, 2),
    "one-axis-on-grid": (Ball((0.5, 0.3), 0.25), 16.0, 2),
    "oversample-3": (ON_GRID, 32.0, 3),   # a / n inexact: more classes than n/2 + 1
    "box": (BOX, 16.0, 2),
}


@pytest.mark.parametrize("set_, R, oversample", TABLE_CASES.values(), ids=TABLE_CASES.keys())
def test_strip_table_matches_full_grid_fft(kernel2, set_, R, oversample):
    # oracle: fft2 of H on the whole fine grid, and on a separately
    # evaluated n/2 grid for the refinement estimate; the table evaluates H
    # once per class pair and takes the n/2 grid's row transforms from its
    # fine rows' transforms
    n = _fft_resolution(R, oversample)
    kmax = int(np.ceil(R))
    fine = full_grid_block(set_, kernel2, R, n, kmax)
    coarse = full_grid_block(set_, kernel2, R, n // 2, kmax)
    err = np.abs(fine - coarse) + 1e-15 * kernel2.gamma
    table = h_coefficient_table(set_, kernel2, R, oversample=oversample)
    assert table.grid_n == n
    values, errors = whole_block(table)
    # both routes evaluate the same distances and the same 1-d transforms
    assert np.array_equal(values, fine)
    # the n/2 row transforms differ from the oracle's in rounding only
    assert np.all(np.abs(errors - err) <= 1e-15 * kernel2.gamma)


@pytest.mark.parametrize("n", [256, 512, 768])
def test_even_columns_transform_is_the_folded_row_transform(n):
    # for a real row with rfft X, the DFT of its even columns is
    # (X(k) + conj X(n/2 - k)) / 2 for k = 0 ... n/4
    rows = np.random.default_rng(n).standard_normal((5, n))
    x = np.fft.rfft(rows, axis=1)
    k = np.arange(n // 4 + 1)
    folded = (x[:, k] + x[:, n // 2 - k].conj()) / 2
    direct = np.fft.rfft(rows[:, ::2], axis=1)[:, k]
    assert np.allclose(folded, direct, rtol=0, atol=1e-13 * np.abs(direct).max())


@pytest.mark.parametrize("case", ["ball-8.0-2", "off-grid", "one-axis-on-grid", "quad-8.0-2",
                                  "box"])
def test_real_transform_matches_complex_fft2(kernel2, case):
    # the complex fft2 of the whole grid, Hermitian only to rounding
    set_, R, oversample = TABLE_CASES[case]
    n = _fft_resolution(R, oversample)
    kmax = int(np.ceil(R))
    table = h_coefficient_table(set_, kernel2, R, oversample=oversample)
    complex_block = full_grid_block_fft2(set_, kernel2, R, n, kmax)
    values, errors = whole_block(table)
    gap = np.abs(values - complex_block)
    assert np.all(gap <= 1e-15 * np.abs(complex_block).max())
    assert np.all(gap <= 1e-3 * errors)


@pytest.mark.parametrize("n", [512, 768])
@pytest.mark.parametrize("set_", [BALL, ON_GRID, Ball((0.0, 0.0), 0.49),
                                  Ball((1 - 1 / 512, 1 - 1 / 512), 0.01), OFF_GRID,
                                  Ball((0.5, 0.3), 0.25), QUAD, BOX],
                         ids=["ball", "on-grid", "centre-0", "centre-1-minus-1/n",
                              "off-grid", "one-axis-on-grid", "quad", "box"])
def test_function_grid_matches_full_evaluation(kernel2, set_, n):
    expected = kernel2.gamma * kernel2.tail_integral(5.0 * set_.distance_grid(n))
    assert np.array_equal(h_function_grid(set_, kernel2, 5.0, n), expected)


@pytest.mark.parametrize("set_", [ON_GRID, OFF_GRID, BOX], ids=["on-grid", "off-grid", "box"])
def test_function_grid_frees_the_class_grid_before_taking_columns(kernel2, set_):
    # at most the row-gathered grid (n rows of the column classes) and the whole
    # grid at once, and 2 bytes per point of the evaluation's scratch; with the
    # class grid held as well the peaks were 14.0, 24.0 and 24.0 bytes per point
    n = 1024
    columns = len(set_.grid_classes(n)[1][0])
    tracemalloc.start()
    try:
        h_function_grid(set_, kernel2, 16.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * (n + columns) + 2 * n * n


def test_table_memory_is_strip_bounded(kernel2):
    # R = 256 at oversample 2 is a 4096 x 4096 grid: 128 MB per real copy
    tracemalloc.start()
    try:
        h_coefficient_table(BALL, kernel2, 256.0, oversample=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2 ** 20


@pytest.mark.parametrize("set_", [ON_GRID, OFF_GRID, BOX, QUAD],
                         ids=["on-grid", "off-grid", "box", "quad"])
def test_table_memory_stays_within_its_estimate(kernel2, set_, monkeypatch):
    # R = 256 at oversample 1 is a 2048 x 2048 grid with 513 kept columns
    estimates = []

    def recording(estimate, what):
        estimates.append(estimate)
        return require_memory(estimate, what)

    monkeypatch.setattr(hfourier, "require_memory", recording)
    for workers in (1, 2):   # tracemalloc sees every worker's strip
        monkeypatch.setattr(parallel, "WORKERS", workers)
        estimates.clear()
        tracemalloc.start()
        try:
            table = h_coefficient_table(set_, kernel2, 256.0, oversample=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.grid_n == 2048 and len(estimates) == 1
        assert peak <= estimates[0]


# (set, R, oversample, strips with 1, 2 and 3 workers)
WORKER_CASES = {
    "on-grid-one-strip": (ON_GRID, 16.0, 1, [1, 1, 1]),
    "on-grid": (ON_GRID, 64.0, 2, [3, 5, 7]),
    # the centre's grid row is odd, so no strip starts on a row of the n/2 grid
    "odd-centre-row": (Ball((0.5 + 1 / 1024, 0.5 + 3 / 1024), 0.25), 64.0, 2, [3, 5, 7]),
    "off-grid": (OFF_GRID, 64.0, 2, [4, 8, 13]),
    "box": (BOX, 64.0, 2, [4, 8, 13]),
    "quad": (QUAD, 64.0, 2, [4, 8, 13]),
    "on-grid-odd-strips": (ON_GRID, 256.0, 2, [33, 65, 103]),
}


@pytest.mark.parametrize("set_, R, oversample, strips", WORKER_CASES.values(),
                         ids=WORKER_CASES.keys())
def test_table_does_not_depend_on_the_worker_count(kernel2, set_, R, oversample, strips,
                                                   monkeypatch):
    # every row class is evaluated by exactly one strip, and never more
    # workers run than there are strips
    evaluated = []
    h_values = hfourier._h_values

    def spy(*args):
        evaluated.append((args[4], threading.current_thread()))
        return h_values(*args)

    monkeypatch.setattr(hfourier, "_h_values", spy)
    reps = np.sort(set_.grid_classes(_fft_resolution(R, oversample))[0][0])
    tables = []
    for workers, count in zip((1, 2, 3), strips):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        evaluated.clear()
        tables.append(h_coefficient_table(set_, kernel2, R, oversample=oversample))
        assert len(evaluated) == count
        assert len({thread for _, thread in evaluated}) == min(workers, count)
        assert np.array_equal(np.sort(np.concatenate([rows for rows, _ in evaluated])), reps)
    for table in tables[1:]:
        assert np.array_equal(table.block, tables[0].block)
        assert np.array_equal(table.err, tables[0].err)


# (R, oversample) by what the table's partition shows: one strip at every
# worker count, odd strip counts, and k2 chunks that fill the last one
PARTITION_CASES = {"one-strip": (16.0, 1), "odd-strips": (64.0, 2), "whole-chunks": (63.0, 2)}


@pytest.mark.parametrize("case", PARTITION_CASES)
@pytest.mark.parametrize("set_", [ON_GRID, OFF_GRID, BOX, QUAD],
                         ids=["on-grid", "off-grid", "box", "quad"])
def test_table_equals_the_strip_by_strip_oracle(kernel2, set_, case, monkeypatch):
    # the oracle puts the row transforms in grid order on one thread and
    # transforms the n x (kmax + 1) array along its columns; the table deals
    # strips and chunks of k2 columns to the workers' reused buffers
    R, oversample = PARTITION_CASES[case]
    block, err = h_table_by_strips(set_, kernel2, R, oversample)
    classes = len(set_.grid_classes(_fft_resolution(R, oversample))[0][0])
    strips = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        strips.append(-(-classes // hfourier.check_table_memory(R, oversample)[2]))
        table = h_coefficient_table(set_, kernel2, R, oversample=oversample)
        assert np.array_equal(table.block, block)
        assert np.array_equal(table.err, err)
    chunks_fill = (int(np.ceil(R)) + 1) % hfourier._COLUMN_CHUNK == 0
    assert chunks_fill == (case == "whole-chunks")
    assert (strips == [1, 1, 1]) == (case == "one-strip")
    assert any(count % 2 for count in strips)


@pytest.mark.parametrize("oversample", [2, 3])
@pytest.mark.parametrize("R", [8.0, 33.0, 64.0])
@pytest.mark.parametrize("set_", [BALL, OFF_GRID, BOX, QUAD],
                         ids=["on-grid", "off-grid", "box", "quad"])
def test_zero_coefficient_matches_the_table(kernel2, set_, R, oversample, monkeypatch):
    # a kmax = 0 table, as a bound whose Weyl spectrum vanishes builds, holds
    # the full table's H_R-hat(0) and its error, and any smaller kmax its
    # centre block, bitwise: every row and every column is transformed alone
    # at its full length, whatever the strip height each worker count gives
    full = h_coefficient_table(set_, kernel2, R, oversample=oversample)
    heights = set()
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "WORKERS", workers)
        heights.add(hfourier.check_table_memory(R, oversample)[2])
        for kmax in sorted({0, 1, 17, full.kmax - 1} & set(range(full.kmax + 1))):
            table = h_coefficient_table(set_, kernel2, R, oversample=oversample, kmax=kmax)
            centre = slice(full.kmax - kmax, full.kmax + kmax + 1), slice(kmax + 1)
            assert (table.kmax, table.grid_n) == (kmax, full.grid_n)
            assert np.array_equal(table.block, full.block[centre])
            assert np.array_equal(table.err, full.err[centre])
            assert table.zero == full.zero and table.zero_error == full.zero_error
    assert len(heights) == 3


@pytest.mark.parametrize("kmax", [-1, 17])
def test_kmax_outside_the_block_raises_before_allocating(kernel2, kmax):
    # ceil(R) = 16 is the largest block at R = 16
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="kmax"):
            h_coefficient_table(BALL, kernel2, 16.0, oversample=2, kmax=kmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_memory_guard_raises_before_allocating(kernel2):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="GiB"):
            h_coefficient_table(BALL, kernel2, 2.0 ** 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("oversample", [0, -1])
def test_oversample_below_one_is_rejected(kernel2, oversample):
    with pytest.raises(ValueError, match="oversample"):
        h_coefficient_table(BALL, kernel2, 16.0, oversample=oversample)


def test_f_constant_ball_smooth_decay(kernel2):
    # positive curvature: the (d+1)/2 = 3/2 exponent gives a finite constant
    report = f_constant(BALL, kernel2, alpha=1.5, beta=1.0, k_max=32, r_grid=(8.0, 16.0))
    assert np.isfinite(report.value) and report.value > 0
    assert report.indicator_part <= report.value


def test_f_constant_alpha_zero_is_measure_bound(kernel2):
    report = f_constant(BALL, kernel2, alpha=0.0, beta=0.0, k_max=16, r_grid=(8.0,))
    assert report.indicator_part <= BALL.measure() + 1e-12


def test_f_constant_box_alpha_one_vs_shell_content(kernel2):
    # |chi-hat(k)| |k| <= 2^-2 M(1) from the shell-translation chain
    box = Box((0.1, 0.2), (0.6, 0.55))
    report = f_constant(box, kernel2, alpha=1.0, beta=1.0, k_max=32, r_grid=(8.0,))
    M = minkowski_content(box, 1.0).value
    assert report.indicator_part <= 0.25 * M + 1e-9


def test_f_constant_validates_ranges(kernel2):
    with pytest.raises(ValueError):
        f_constant(BALL, kernel2, alpha=2.0, beta=1.0, k_max=8, r_grid=(8.0,))
    with pytest.raises(ValueError):
        f_constant(BALL, kernel2, alpha=1.0, beta=2.0, k_max=8, r_grid=(8.0,))
