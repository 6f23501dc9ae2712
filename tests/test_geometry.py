"""Torus set models: distances, measures, Fourier coefficients, shells."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    box_distances_by_where,
    indicator_grid_by_points,
    inscribed_polygon,
    minkowski_content,
    polygon_contains_by_translates,
    polygon_distances_by_images,
    polygon_distances_by_segments,
    shell_measure,
    shell_measure_mc,
)
from scipy.integrate import dblquad, quad
from scipy.special import j0

from discrepancy_forge.geometry import Ball, Box, ConvexPolytope, set_from_json


def random_convex_polygon(rng, n_sides):
    """Random strictly convex polygon, centroid in the unit cell, diam <= 0.7."""
    while True:
        pts = rng.random((n_sides, 2)) * 0.5
        center = pts.mean(axis=0)
        angles = np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0])
        pts = pts[np.argsort(angles)]
        try:
            return ConvexPolytope(tuple(map(tuple, pts + rng.random(2) * 0.3)), epsilon=0.25)
        except ValueError:
            continue


# -- boundary distance -------------------------------------------------------

def test_ball_center_distance():
    ball = Ball((0.5, 0.5), 0.25)
    assert ball.boundary_distance((0.5, 0.5)) == pytest.approx(0.25)


def test_box_interior_midpoint():
    box = Box((0, 0), (0.5, 0.5))
    assert box.boundary_distance((0.25, 0.25)) == pytest.approx(0.25)


def test_triangle_distance_matches_boundary_sampling():
    tri = ConvexPolytope(((0, 0), (0.25, 0), (0, 0.25)), epsilon=0.5)
    x = np.array([0.5, 0.5])
    ts = np.linspace(0.0, 1.0, 33334)
    verts = np.asarray(tri.vertices)
    segs = [(verts[i], verts[(i + 1) % 3]) for i in range(3)]
    pts = np.concatenate([p[None] + ts[:, None] * (q - p)[None] for p, q in segs])
    best = np.inf
    for sx in (-1, 0, 1):
        for sy in (-1, 0, 1):
            best = min(best, np.min(np.hypot(pts[:, 0] + sx - x[0], pts[:, 1] + sy - x[1])))
    assert abs(tri.boundary_distance(x) - best) < 1e-3


def test_periodic_distance_uses_nearest_copy():
    ball = Ball((0.1, 0.1), 0.2)
    # the copy at (1, 1) is nearer to (0.95, 0.95) than the base copy
    d = ball.boundary_distance((0.95, 0.95))
    assert d == pytest.approx(abs(np.hypot(0.15, 0.15) - 0.2))


def test_fat_box_distance_against_brute_force():
    box = Box((0.05, 0.1), (0.95, 0.8))
    rng = np.random.default_rng(3)
    pts = rng.random((200, 2))
    d = box.boundary_distances(pts)
    # brute force over a dense sample of the box boundary and all 9 shifts
    ts = np.linspace(0, 1, 20001)
    a, b = np.array(box.a), np.array(box.b)
    corners = [a, np.array([b[0], a[1]]), b, np.array([a[0], b[1]])]
    edge_pts = np.concatenate([
        corners[i][None] + ts[:, None] * (corners[(i + 1) % 4] - corners[i])[None]
        for i in range(4)])
    best = np.full(len(pts), np.inf)
    for sx in (-1, 0, 1):
        for sy in (-1, 0, 1):
            shifted = edge_pts + np.array([sx, sy])
            for i, x in enumerate(pts):
                best[i] = min(best[i], np.min(np.hypot(*(shifted - x).T)))
    assert np.max(np.abs(d - best)) < 1e-3


@pytest.mark.parametrize("box", [Box((0.2,), (0.65,)), Box((0.1, 0.3), (0.45, 0.95)),
                                 Box((0.0, 0.2, 0.5), (0.3, 0.9, 0.99))], ids=["d1", "d2", "d3"])
def test_box_distance_in_buffers_is_bitwise_the_per_shift_arrays(box):
    rng = np.random.default_rng(11)
    d = box.dimension
    pts = np.concatenate([rng.random((5000, d)), rng.integers(0, 64, (1000, d)) / 64,
                          rng.random((500, d)) * 4 - 2])
    assert np.array_equal(box.boundary_distances(pts), box_distances_by_where(box, pts))


def test_box_distance_strip_holds_at_most_28_bytes_per_point():
    # one 256 x 4096 strip of an H-table grid: three buffers and the result
    box = Box((0.1, 0.3), (0.45, 0.95))
    tracemalloc.start()
    try:
        box.distance_grid(4096, slice(0, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * 256 * 4096


def test_polygon_distance_strip_holds_at_most_26_bytes_per_point():
    # one 128 x 2048 strip of an H-table grid, the one whose secondary images
    # are densest: the running minimum and the two buffers every edge's
    # projection reuses; with each edge's own arrays it peaked at 32.4
    tracemalloc.start()
    try:
        ConvexPolytope(QUAD, epsilon=0.3).distance_grid(2048, slice(0, 128))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * 128 * 2048


@pytest.mark.parametrize("set_", [
    Box((0.05, 0.1), (0.95, 0.8)),
    Box((0.6, 0.0), (0.9, 0.3)),
    Ball((0.5, 0.5), 0.25),
    Ball((0.1, 0.93), 0.3),
    ConvexPolytope(((0.3, 0.25), (0.75, 0.35), (0.7, 0.7), (0.25, 0.6)), epsilon=0.3),
    random_convex_polygon(np.random.default_rng(11), 6),
], ids=["fat-box", "edge-box", "ball", "wrapped-ball", "quad", "hexagon"])
def test_grid_distances_match_per_point_distances(set_):
    # the grid path broadcasts grid axes through the same formula that
    # boundary_distances applies to the columns of a point array
    n = 96
    axis = np.arange(n) / n
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    per_point = set_.boundary_distances(np.stack([X.ravel(), Y.ravel()], axis=1))
    grid = set_.distance_grid(n)
    assert grid.shape == (n, n)
    assert np.max(np.abs(grid - per_point.reshape(n, n))) <= 2e-16
    assert np.array_equal(set_.distance_grid(n, rows=slice(30, 64)), grid[30:64])


def test_polygon_distance_matches_per_point_segment_loop():
    # independent route: every point against every edge segment and 3 x 3
    # translate, with vector dot products
    poly = ConvexPolytope(((0.05, 0.05), (0.7, 0.1), (0.1, 0.7)), epsilon=0.1)
    pts = np.random.default_rng(6).random((4000, 2))
    best = polygon_distances_by_segments(poly, pts)
    assert np.max(np.abs(poly.boundary_distances(pts) - best)) <= 1e-15


_unit = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def inscribed_polygons(draw):
    """Strictly convex polygons inscribed in a circle centred in [0, 1)^2,
    with epsilon from 0.01 to 0.3 and the largest radius it allows: vertices
    lie within 0.495 of the unit square."""
    center = (draw(_unit), draw(_unit))
    epsilon = draw(st.floats(0.01, 0.3))
    radius = draw(st.floats(0.05, (1 - epsilon) / 2))
    gaps = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=3, max_size=7)))
    return inscribed_polygon(center, radius, gaps, draw(_unit), epsilon=epsilon)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(poly=inscribed_polygons(), start=st.integers(0, 63), count=st.integers(1, 64))
def test_polygon_grid_rows_match_per_point_and_segment_distances(poly, start, count):
    # the grid rows and the point array reach the same pruned image search
    # through different shapes: a column and a row, or two columns
    n = 64
    axis = np.arange(n) / n
    rows = slice(start, start + count)
    X, Y = np.meshgrid(axis[rows], axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    per_point = poly.boundary_distances(pts)
    assert np.array_equal(poly.distance_grid(n, rows=rows).ravel(), per_point)
    assert np.max(np.abs(per_point - polygon_distances_by_segments(poly, pts))) <= 1e-12


def _grids_and_points(n, rows, rng):
    """Per-axis coordinates of the whole n x n grid, of its rows `rows`, and of
    5,000 points in [-2, 2)^2."""
    axis = np.arange(n) / n
    return [(axis[:, None], axis[None, :]), (axis[rows, None], axis[None, :]),
            tuple((rng.random((5000, 2)) * 4 - 2).T)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(poly=inscribed_polygons(), start=st.integers(0, 95), count=st.integers(1, 96),
       seed=st.integers(0, 2 ** 32 - 1))
def test_polygon_distances_are_bitwise_the_nine_image_minimum(poly, start, count, seed):
    for coords in _grids_and_points(96, slice(start, start + count),
                                    np.random.default_rng(seed)):
        assert np.array_equal(poly._distance(coords), polygon_distances_by_images(poly, coords))


QUAD = ((0.3, 0.25), (0.75, 0.35), (0.7, 0.7), (0.25, 0.6))


@pytest.mark.parametrize("poly", [
    ConvexPolytope(QUAD, epsilon=0.3),
    ConvexPolytope(tuple((x + 0.59375, y + 0.8125) for x, y in QUAD), epsilon=0.3),
    random_convex_polygon(np.random.default_rng(11), 6),
    # diameter near 0.99: the long edges' half-vectors are nearly 1/2 on one axis
    ConvexPolytope(((0.0, 0.0), (0.99, 0.0), (0.98, 0.01), (0.01, 0.01)), epsilon=0.01),
    ConvexPolytope(((0.3, -0.2), (0.31, -0.2), (0.31, 0.785), (0.3, 0.785)), epsilon=0.01),
], ids=["quad", "shifted-quad", "hexagon", "long-x", "long-y"])
def test_polygon_grid_and_point_distances_are_the_nine_image_minimum(poly):
    for coords in _grids_and_points(256, slice(77, 141), np.random.default_rng(4)):
        assert np.array_equal(poly._distance(coords), polygon_distances_by_images(poly, coords))
    # on the wrap lines y = -1/2 of every edge, on the edges and at the vertices
    p, q = poly.edges()
    mid = 0.5 * (p + q)
    along = (p + np.linspace(0.0, 1.0, 41)[:, None, None] * (q - p)).reshape(-1, 2)
    u = np.linspace(-1.0, 1.0, 41)[:, None]
    wrap_x = np.stack(np.broadcast_arrays(mid[:, 0] - 0.5, mid[:, 1] + u), axis=-1)
    wrap_y = np.stack(np.broadcast_arrays(mid[:, 0] + u, mid[:, 1] - 0.5), axis=-1)
    for pts in (along, along + 1.0, along - [1.0, 0.0], wrap_x.reshape(-1, 2),
                wrap_y.reshape(-1, 2), p):
        coords = tuple(pts.T)
        assert np.array_equal(poly._distance(coords), polygon_distances_by_images(poly, coords))


def _segment_distance2(z, half) -> float:
    """Squared distance from the point z to the segment [-half, half]."""
    t = min(1.0, max(-1.0, float(z @ half) / float(half @ half)))
    return float(np.sum((z - t * half) ** 2))


_half = st.floats(-0.495, 0.495)
_offset = st.floats(-0.5, 0.5, exclude_max=True)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(hx=_half, hy=_half, yx=_offset, yy=_offset, axis=st.integers(0, 1),
       other=st.sampled_from([-1.0, 0.0, 1.0]))
def test_far_image_is_never_nearer_than_image_zero(hx, hy, yx, yy, axis, other):
    # the two-image lemma: with |h| < 1/2 per axis and y in [-1/2, 1/2)^2,
    # image -sign(y) on an axis is farther than image 0 by at least 1 - 2|h|
    # in squared distance, whatever the other axis's shift
    half = np.array([hx, hy])
    assume(half @ half > 0)
    y = np.array([yx, yy])
    near, far = np.zeros(2), np.zeros(2)
    near[1 - axis] = far[1 - axis] = other
    far[axis] = -1.0 if y[axis] >= 0 else 1.0
    gap = _segment_distance2(y - far, half) - _segment_distance2(y - near, half)
    assert gap >= 1 - 2 * abs(half[axis]) - 1e-12


# -- measure and Fourier coefficients ----------------------------------------

def test_box_fourier_modulus():
    box = Box((0, 0), (0.5, 0.5))
    assert abs(box.fourier_coefficient((1, 0))) == pytest.approx(1 / (2 * np.pi), rel=1e-12)
    # closed-form 1-d oracle for the same coefficient
    re, _ = quad(lambda x: np.cos(2 * np.pi * x), 0, 0.5)
    im, _ = quad(lambda x: -np.sin(2 * np.pi * x), 0, 0.5)
    assert box.fourier_coefficient((1, 0)) == pytest.approx(0.5 * complex(re, im), abs=1e-12)


@pytest.mark.parametrize("set_", [
    Box((0.1, 0.2), (0.6, 0.55)),
    Ball((0.5, 0.5), 0.25),
    ConvexPolytope(((0, 0), (0.25, 0), (0, 0.25)), epsilon=0.5),
])
def test_zero_coefficient_is_measure(set_):
    assert set_.fourier_coefficient((0, 0)) == pytest.approx(set_.measure(), rel=1e-12)


def test_triangle_fourier_matches_adaptive_quadrature():
    tri = ConvexPolytope(((0, 0), (0.25, 0), (0, 0.25)), epsilon=0.5)
    val = tri.fourier_coefficient((3, 2))
    re, _ = dblquad(lambda y, x: np.cos(2 * np.pi * (3 * x + 2 * y)),
                    0, 0.25, 0, lambda x: 0.25 - x, epsabs=1e-13)
    im, _ = dblquad(lambda y, x: -np.sin(2 * np.pi * (3 * x + 2 * y)),
                    0, 0.25, 0, lambda x: 0.25 - x, epsabs=1e-13)
    assert abs(val - complex(re, im)) < 1e-8


def test_ball_fourier_matches_radial_quadrature():
    ball = Ball((0.5, 0.5), 0.25)
    k = np.array([3, 2])
    nk = np.hypot(*k)
    radial, _ = quad(lambda rho: 2 * np.pi * j0(2 * np.pi * nk * rho) * rho, 0, 0.25,
                     epsabs=1e-14)
    oracle = np.exp(-2j * np.pi * (k @ np.array([0.5, 0.5]))) * radial
    assert abs(ball.fourier_coefficient(k) - oracle) < 1e-12


def test_hermitian_symmetry():
    rng = np.random.default_rng(11)
    poly = random_convex_polygon(rng, 4)
    for set_ in [poly, Ball((0.3, 0.7), 0.2), Box((0.1, 0.3), (0.4, 0.9))]:
        freqs = rng.integers(-20, 21, size=(50, 2))
        vals = set_.fourier_coefficients(freqs)
        conj = set_.fourier_coefficients(-freqs)
        assert np.allclose(vals, np.conj(conj), atol=1e-13)


def test_parseval_partial_sums_monotone_bounded():
    ball = Ball((0.5, 0.5), 0.25)
    mu = ball.measure()
    sums = []
    for kmax in (4, 8, 16, 32):
        ks = np.arange(-kmax, kmax + 1)
        K1, K2 = np.meshgrid(ks, ks, indexing="ij")
        freqs = np.stack([K1.ravel(), K2.ravel()], axis=1)
        keep = (freqs ** 2).sum(1) <= kmax ** 2
        vals = ball.fourier_coefficients(freqs[keep])
        sums.append(np.sum(np.abs(vals) ** 2))
    assert np.all(np.diff(sums) >= 0)
    assert sums[-1] <= mu
    assert sums[-1] > 0.9 * mu


def test_polygon_fallback_matches_main_path():
    # at real frequencies just above the threshold both branches must agree
    tri = ConvexPolytope(((0.1, 0.1), (0.4, 0.15), (0.2, 0.45)), epsilon=0.4)
    xi = np.array([[0.5, 0.31], [0.9, -0.2]])
    main = tri.fourier_coefficients(xi)
    direct = tri._fourier_by_quadrature(xi)
    assert np.allclose(main, direct, atol=1e-10)


# -- shells and Minkowski content --------------------------------------------

def test_ball_shell_small_t_annulus():
    ball = Ball((0.5, 0.5), 0.25)
    t = 1e-3
    assert shell_measure(ball, t) / t == pytest.approx(4 * np.pi * 0.25, rel=1e-3)


def test_minkowski_alpha_zero_saturates():
    ball = Ball((0.5, 0.5), 0.25)
    mk = minkowski_content(ball, 0.0)
    assert mk.value == pytest.approx(1.0)


def test_minkowski_ball_alpha_one():
    mk = minkowski_content(Ball((0.5, 0.5), 0.25), 1.0)
    assert mk.value == pytest.approx(np.pi, rel=1e-6)


def test_remark_coefficient_bound_from_shells():
    # |chi-hat(k)| <= 2^(-alpha-1) M(alpha) |k|^-alpha for the ball, alpha = 1
    ball = Ball((0.5, 0.5), 0.25)
    M = minkowski_content(ball, 1.0).value
    ks = np.arange(-64, 65)
    K1, K2 = np.meshgrid(ks, ks, indexing="ij")
    freqs = np.stack([K1.ravel(), K2.ravel()], axis=1)
    norm2 = (freqs ** 2).sum(1)
    keep = (norm2 > 0) & (norm2 <= 64 ** 2)
    freqs = freqs[keep]
    vals = np.abs(ball.fourier_coefficients(freqs))
    norms = np.sqrt((freqs ** 2).sum(1))
    assert np.all(vals <= 0.25 * M / norms + 1e-12)


def test_box_shell_against_monte_carlo():
    box = Box((0.2, 0.1), (0.7, 0.8))
    t = np.array([0.02, 0.08, 0.2, 0.5])
    exact = shell_measure(box, t)
    mc, se = shell_measure_mc(box, t, samples=400000, seed=5)
    assert np.all(np.abs(exact - mc) < 5 * np.maximum(se, 1e-4))


def test_polytope_shell_is_monte_carlo_with_se():
    tri = ConvexPolytope(((0.1, 0.1), (0.5, 0.2), (0.2, 0.5)), epsilon=0.4)
    assert shell_measure(tri, np.array([0.1])) is None
    mk = minkowski_content(tri, 1.0, mc_samples=200000, seed=2)
    assert mk.method == "monte-carlo"
    assert mk.standard_error > 0
    # perimeter-based small-t content: both one-sided shells
    perim = sum(np.hypot(*(np.roll(np.asarray(tri.vertices), -1, axis=0) - tri.vertices).T))
    assert mk.value == pytest.approx(2 * perim, rel=0.1)


# -- validation and JSON ------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ValueError):
        Box((0.2,), (0.1,))
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0, 0.5))       # wraps in axis 0
    with pytest.raises(ValueError):
        Ball((0.5, 0.5), 0.5)
    with pytest.raises(ValueError):
        ConvexPolytope(((0, 0), (0.9, 0), (0, 0.9)), epsilon=0.5)  # diameter too big
    with pytest.raises(ValueError):
        ConvexPolytope(((0, 0), (0.2, 0), (0.4, 0)), epsilon=0.5)  # degenerate
    with pytest.raises(ValueError):
        ConvexPolytope(((0, 0), (0.2, 0), (0.2, 0.2)), epsilon=0.0)  # epsilon required


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: Box((NAN, 0.2), (0.6, 0.55)),
    lambda: Box((0.1, 0.2), (0.6, NAN)),
    lambda: Box((0.1, -INF), (0.6, 0.55)),
    lambda: Box((0.1, 0.2), (INF, 0.55)),
    lambda: Ball((NAN, 0.5), 0.25),
    lambda: Ball((0.5, INF), 0.25),
    lambda: Ball((0.5, 0.5, -INF), 0.25),
    lambda: ConvexPolytope(((0.3, 0.25), (NAN, 0.35), (0.7, 0.7)), epsilon=0.3),
    lambda: ConvexPolytope(((0.3, 0.25), (0.75, 0.35), (0.7, INF)), epsilon=0.3),
], ids=["box-a-nan", "box-b-nan", "box-a-minus-inf", "box-b-inf", "ball-nan", "ball-inf",
        "ball-3d-minus-inf", "polygon-nan", "polygon-inf"])
def test_non_finite_coordinates_are_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_json_round_trip():
    sets = [
        Box((0.1, 0.2), (0.6, 0.55)),
        Ball((0.3, 0.7), 0.2),
        ConvexPolytope(((0, 0), (0.25, 0), (0, 0.25)), epsilon=0.5),
    ]
    for s in sets:
        again = set_from_json(s.to_json())
        assert again == s

    with pytest.raises(ValueError):
        set_from_json({"variant": "banana"})


def _grid_points(n):
    axis = np.arange(n) / n
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=1)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(poly=inscribed_polygons(), seed=st.integers(0, 2 ** 32 - 1))
def test_polygon_membership_is_bitwise_the_nine_translate_test(poly, seed):
    # two images per axis, on per-axis coordinates, against all 9 translates
    # through (N, 2) point arrays
    pts = np.random.default_rng(seed).random((5000, 2)) * 4 - 2
    assert np.array_equal(poly.contains(pts), polygon_contains_by_translates(poly, pts))
    grid = polygon_contains_by_translates(poly, _grid_points(96)).reshape(96, 96)
    assert np.array_equal(poly.indicator_grid(96), grid.astype(float))


@pytest.mark.parametrize("poly", [
    ConvexPolytope(QUAD, epsilon=0.3),
    ConvexPolytope(tuple((x + 0.59375, y + 0.8125) for x, y in QUAD), epsilon=0.3),
    random_convex_polygon(np.random.default_rng(11), 6),
    ConvexPolytope(((0.0, 0.0), (0.99, 0.0), (0.98, 0.01), (0.01, 0.01)), epsilon=0.01),
    ConvexPolytope(((0.3, -0.2), (0.31, -0.2), (0.31, 0.785), (0.3, 0.785)), epsilon=0.01),
    ConvexPolytope(((0.9, 0.9), (1.15, 0.9), (0.9, 1.15)), epsilon=0.5),
    # the vertex (0, 0) lies beyond 1/2 of the centroid on both axes, so the
    # points near it are held by the diagonal image (sign(y_x), sign(y_y))
    ConvexPolytope(((0.0, 0.0), (0.7, 0.68), (0.7, 0.7), (0.68, 0.7)), epsilon=0.01),
], ids=["quad", "shifted-quad", "hexagon", "long-x", "long-y", "sticking-out", "kite"])
def test_polygon_membership_on_edges_vertices_and_wrap_lines(poly):
    # on the edges and their translates, at the vertices, and on the lines
    # x = c_x + 1/2 and y = c_y + 1/2 where the offsets from the centroid c wrap
    p, q = poly.edges()
    c = poly.centroid
    along = (p + np.linspace(0.0, 1.0, 41)[:, None, None] * (q - p)).reshape(-1, 2)
    u = np.linspace(-1.0, 1.0, 401)
    wraps = [np.stack(np.broadcast_arrays(c[0] + h, c[1] + u), axis=-1) for h in (-0.5, 0.5)]
    wraps += [np.stack(np.broadcast_arrays(c[0] + u, c[1] + h), axis=-1) for h in (-0.5, 0.5)]
    for pts in (along, along + 1.0, along - [1.0, 0.0], p, p + [0.0, -1.0], *wraps,
                _grid_points(256)):
        assert np.array_equal(poly.contains(pts), polygon_contains_by_translates(poly, pts))
    assert poly.contains(p).all() and poly.contains(along).all()


@pytest.mark.parametrize("set_", [Ball((0.5, 0.5), 0.25), Ball((0.98, 0.01), 0.3),
                                  Box((0.1, 0.2), (0.6, 0.55)), Box((0.0, 0.5), (1.0 - 1e-9, 1.0)),
                                  ConvexPolytope(QUAD, epsilon=0.3)],
                         ids=["ball", "wrapped-ball", "box", "edge-box", "quad"])
def test_indicator_grid_is_the_membership_of_the_grid_points(set_):
    for n in (96, 512):
        assert np.array_equal(set_.indicator_grid(n), indicator_grid_by_points(set_, n))


def test_membership_conventions():
    box = Box((0, 0), (0.5, 0.5))
    assert box.contains(np.array([[0.0, 0.0]]))[0]       # closed at lower edge
    assert not box.contains(np.array([[0.5, 0.25]]))[0]  # open at upper edge
    ball = Ball((0.5, 0.5), 0.25)
    assert ball.contains(np.array([[0.75, 0.5]]))[0]     # closed
    tri = ConvexPolytope(((0, 0), (0.25, 0), (0, 0.25)), epsilon=0.5)
    assert tri.contains(np.array([[0.1, 0.0]]))[0]       # closed
    # membership through a periodic copy: base body sticks out of the cell
    tri2 = ConvexPolytope(((0.9, 0.9), (1.15, 0.9), (0.9, 1.15)), epsilon=0.5)
    assert tri2.contains(np.array([[0.05, 0.95]]))[0]    # via the (-1, 0) copy
    assert not tri2.contains(np.array([[0.5, 0.5]]))[0]
