"""Sandwich polynomials: degree, means, pointwise inequalities, proof chain."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    evaluate_polynomial,
    inscribed_polygon,
    sandwich_csv_per_row,
    within_budget,
)

from discrepancy_forge import majorant
from discrepancy_forge.frequencies import integer_ball
from discrepancy_forge.geometry import Ball, Box, ConvexPolytope
from discrepancy_forge.kernel import psi
from discrepancy_forge.majorant import (
    TrigPolynomial,
    majorant_pair,
    sandwich_csv,
    sandwich_grids,
    sandwich_report,
)

BALL = Ball((0.5, 0.5), 0.25)


@pytest.fixture(scope="module")
def pair16(kernel2):
    return majorant_pair(BALL, kernel2, 16.0, oversample=4)


def test_mean_ordering(pair16):
    # a polynomial's mean is its k = 0 coefficient
    lower, upper = (float(poly.coeffs[np.all(poly.freqs == 0, axis=1)][0].real)
                    for poly in (pair16.lower, pair16.upper))
    assert upper - lower == pytest.approx(2 * pair16.h_table.zero.real, rel=1e-12)
    assert upper - lower >= 0
    assert lower <= BALL.measure() <= upper


def test_degree_constraint(pair16):
    norms2 = (pair16.lower.freqs.astype(float) ** 2).sum(1)
    assert np.all(norms2 < 16.0 ** 2)
    with pytest.raises(ValueError):
        TrigPolynomial(2, 4.0, np.array([[4, 0]]), np.array([1.0 + 0j]))


def test_coefficients_hermitian(pair16):
    # exactly: the synthesis reads coeffs[::-1] as the coefficients at -k
    for poly in (pair16.lower, pair16.upper):
        assert np.array_equal(poly.freqs[::-1], -poly.freqs)
        assert np.array_equal(poly.coeffs[::-1], np.conj(poly.coeffs))


def test_evaluation_matches_direct_sum(pair16):
    rng = np.random.default_rng(2)
    pts = rng.random((20, 2))
    poly = pair16.upper
    direct = np.array([
        np.real(np.sum(poly.coeffs * np.exp(2j * np.pi * (poly.freqs @ x))))
        for x in pts])
    assert np.max(np.abs(evaluate_polynomial(poly, pts) - direct)) < 1e-10


def test_synthesis_matches_evaluation(pair16):
    n = 128
    grid_vals = pair16.lower.grid_synthesis(n)
    check = [(0, 0), (5, 17), (64, 100)]
    for i, j in check:
        x = np.array([i / n, j / n])
        direct = float(evaluate_polynomial(pair16.lower, x)[0])
        assert grid_vals[i, j] == pytest.approx(direct, abs=1e-9)


def test_synthesis_rejects_non_hermitian_coefficients():
    # real coefficients, even in k, give a real polynomial; an imaginary part
    # of 1e-3 on one pair k, -k does not
    freqs = integer_ball(4, 2, include_zero=True)
    coeffs = np.random.default_rng(5).standard_normal(len(freqs))
    coeffs = coeffs + coeffs[::-1] + 0j
    TrigPolynomial(2, 4.0, freqs, coeffs).grid_synthesis(16)
    coeffs[3] += 1e-3j
    with pytest.raises(ValueError, match="not Hermitian"):
        TrigPolynomial(2, 4.0, freqs, coeffs).grid_synthesis(16)


def test_synthesis_needs_antisymmetric_frequency_order():
    # coeffs[::-1] must be the values at -k: the order of integer_ball
    freqs = integer_ball(4, 2, include_zero=True)
    swapped = freqs[[1, 0, *range(2, len(freqs))]]
    with pytest.raises(ValueError, match="antisymmetric"):
        TrigPolynomial(2, 4.0, swapped, np.ones(len(freqs), dtype=complex)).grid_synthesis(16)


def test_sandwich_within_budget(kernel2, pair16):
    report = sandwich_report(pair16, sandwich_grids(pair16, BALL, kernel2, 512))
    assert within_budget(report)
    assert report.lower_violation <= report.budget
    assert report.upper_violation <= report.budget
    assert report.width_violation <= report.budget
    assert report.budget < 1e-3


@pytest.mark.parametrize("set_", [
    BALL, ConvexPolytope(((0.3, 0.25), (0.75, 0.35), (0.7, 0.7), (0.25, 0.6)), epsilon=0.3),
], ids=["ball", "quad"])
def test_sandwich_csv_equals_per_row_writer(tmp_path, kernel2, set_):
    pair = majorant_pair(set_, kernel2, 8.0, oversample=1)
    grids = sandwich_grids(pair, set_, kernel2, 64)
    sandwich_csv(grids, tmp_path / "columns.csv")
    sandwich_csv_per_row(grids, tmp_path / "rows.csv")
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_sandwich_csv_blocks_equal_per_row_writer(tmp_path, kernel2, monkeypatch):
    # blocks of 5 grid rows: 12 full blocks and a last one of 4 rows
    monkeypatch.setattr(majorant, "_CSV_BLOCK_POINTS", 5 * 64 + 7)
    pair = majorant_pair(BALL, kernel2, 8.0, oversample=1)
    grids = sandwich_grids(pair, BALL, kernel2, 64)
    sandwich_csv(grids, tmp_path / "blocks.csv")
    sandwich_csv_per_row(grids, tmp_path / "rows.csv")
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_sandwich_csv_memory_is_block_bounded(tmp_path, kernel2):
    # 512 x 512 grid points; the values of all of them as text would take 54 MB
    pair = majorant_pair(BALL, kernel2, 8.0, oversample=1)
    grids = sandwich_grids(pair, BALL, kernel2, 512)
    tracemalloc.start()
    try:
        sandwich_csv(grids, tmp_path / "grid.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20


@pytest.mark.parametrize("set_, csv", [
    (BALL, True), (Box((0.1, 0.2), (0.6, 0.55)), False),
    (ConvexPolytope(((0.3, 0.25), (0.75, 0.35), (0.7, 0.7), (0.25, 0.6)), epsilon=0.3), False),
], ids=["ball", "box", "quad"])
def test_sandwich_memory_stays_within_its_estimate(tmp_path, kernel2, set_, csv):
    # one R of a sandwich run: its grids, its report and its CSV. The CSV
    # reads only the four grids, so its peak is the same for every set; it
    # takes about 17 s under tracemalloc on a 2-core box, so one set writes it
    n = 1024
    pair = majorant_pair(set_, kernel2, 8.0, oversample=1)
    tracemalloc.start()
    try:
        grids = sandwich_grids(pair, set_, kernel2, n)
        sandwich_report(pair, grids)
        if csv:
            sandwich_csv(grids, tmp_path / "grid.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= majorant.SANDWICH_BYTES_PER_POINT * n * n


def test_far_field_width(kernel2):
    # at dist >= 8/R the gap is below psi(8), by monotone decay
    R, n = 32.0, 256
    pair = majorant_pair(BALL, kernel2, R, oversample=4)
    A = pair.lower.grid_synthesis(n)
    B = pair.upper.grid_synthesis(n)
    dist = BALL.distance_grid(n)
    far = dist >= 8.0 / R
    assert far.any()
    assert np.max((B - A)[far]) <= psi(kernel2, 8.0) + pair.budget


def test_observed_width_ratio_below_one(kernel2, pair16):
    report = sandwich_report(pair16, sandwich_grids(pair16, BALL, kernel2, 512))
    assert report.observed_width_ratio < 1.0
    assert report.max_width > 1.0  # the bound is loose but the width is real


def test_proof_chain_smoothing_inequality(kernel2):
    # |chi - K_R * chi|(x) <= I(R dist(x, boundary)) + budget, 100 random x
    # per set variant
    R = 16.0
    freqs = integer_ball(R, 2, include_zero=True)
    weights = kernel2.khat_value(np.sqrt((freqs.astype(float) ** 2).sum(1)) / R)
    rng = np.random.default_rng(4)
    sets = [BALL, Box((0.1, 0.2), (0.6, 0.55)),
            ConvexPolytope(((0.1, 0.1), (0.45, 0.2), (0.2, 0.5)), epsilon=0.4)]
    for set_ in sets:
        smooth = TrigPolynomial(2, R, freqs, weights * set_.fourier_coefficients(freqs))
        pts = rng.random((100, 2))
        lhs = np.abs(set_.contains(pts).astype(float) - evaluate_polynomial(smooth, pts))
        rhs = kernel2.tail_integral(R * set_.boundary_distances(pts))
        assert np.all(lhs <= rhs + 1e-6)


def test_majorant_requires_degree_four(kernel2):
    with pytest.raises(ValueError):
        majorant_pair(BALL, kernel2, 2.0)


_unit = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def torus_sets(draw):
    """A ball, or a strictly convex polygon inscribed in a circle of radius
    <= 0.45, so its diameter stays below 0.9 < 1 - epsilon."""
    center = (draw(_unit), draw(_unit))
    radius = draw(st.floats(0.05, 0.45))
    if draw(st.booleans()):
        return Ball(center, radius)
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=3, max_size=7)))
    return inscribed_polygon(center, radius, gaps, draw(_unit))


@settings(derandomize=True, max_examples=10, deadline=None)
@given(set_=torus_sets())
def test_sandwich_holds_on_random_sets(kernel2, set_):
    # A <= chi <= B and B - A <= psi(R dist) at R = 8, within the computed budget
    pair = majorant_pair(set_, kernel2, 8.0)
    report = sandwich_report(pair, sandwich_grids(pair, set_, kernel2, 64))
    worst = max(report.lower_violation, report.upper_violation, report.width_violation)
    assert worst <= pair.budget
