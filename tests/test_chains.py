"""Chain systems, the chain functional, and the per-polytope Fourier bound."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from oracles import (
    chain_count,
    chain_system_from_polytope,
    half_ball_chain_sum,
    per_row_chain_sum,
    phi_per_chain,
    polytope_ft_bound,
    stripe_phi_chain_sum,
    stripe_rows,
)

from discrepancy_forge import chains as chains_module
from discrepancy_forge.chains import (
    ChainSystem,
    chain_sum,
    check_chain_sum,
    phi,
    symmetry_order,
)
from discrepancy_forge.frequencies import integer_ball, stripe_bounds
from discrepancy_forge.geometry import ConvexPolytope

TWO_PI = 2 * np.pi


@pytest.mark.parametrize("d,expected", [(2, 2), (3, 6)])
def test_coordinate_chain_count_is_factorial(d, expected):
    assert chain_count(ChainSystem.coordinate(d)) == expected


def test_phi_at_zero_counts_chains():
    cs = ChainSystem.coordinate(2)
    assert phi(cs, (0.0, 0.0)) == pytest.approx(chain_count(cs))
    cs3 = ChainSystem.coordinate(3)
    assert phi(cs3, (0.0, 0.0, 0.0)) == pytest.approx(6.0)


def test_phi_axis_frequency_manual_expansion():
    # chains for coordinate axes in d=2: (R^2, x-axis) and (R^2, y-axis);
    # at xi=(k,0) the products are (2 pi k)^-2 and (2 pi k)^-1 * 1
    cs = ChainSystem.coordinate(2)
    for k in (3.0, 7.0, 40.0):
        expected = (TWO_PI * k) ** -2 + (TWO_PI * k) ** -1
        assert phi(cs, (k, 0.0)) == pytest.approx(expected, rel=1e-14)


def test_chain_sum_log_power_ratio_bounded():
    cs = ChainSystem.coordinate(2)
    ratios = []
    for R in (16, 64, 256):
        ratios.append(chain_sum(cs, R) / np.log(2 + R) ** 2)
    assert max(ratios) / min(ratios) < 4


def test_triangle_chain_system():
    tri = ConvexPolytope(((0.1, 0.1), (0.4, 0.15), (0.2, 0.45)), epsilon=0.4)
    cs = chain_system_from_polytope(tri)
    assert chain_count(cs) == 3  # one chain per edge direction


def test_polytope_bound_at_zero():
    sq = ConvexPolytope(((0.2, 0.2), (0.6, 0.2), (0.6, 0.6), (0.2, 0.6)), epsilon=0.3)
    lam = sq.diameter
    assert polytope_ft_bound(sq, (0.0, 0.0)) == pytest.approx(2 * 4 * lam ** 2)


def test_polytope_bound_dominates_transform():
    rng = np.random.default_rng(23)
    sq = ConvexPolytope(((0.2, 0.2), (0.6, 0.25), (0.55, 0.6), (0.15, 0.5)), epsilon=0.3)
    xi = rng.uniform(-60, 60, size=(10 ** 4, 2))
    ft = np.abs(sq.fourier_coefficients(xi))
    bound = polytope_ft_bound(sq, xi)
    assert np.all(ft <= bound + 1e-12)


def test_square_bound_decays_like_inverse_frequency():
    sq = ConvexPolytope(((0.2, 0.2), (0.6, 0.2), (0.6, 0.6), (0.2, 0.6)), epsilon=0.3)
    t = np.geomspace(10, 10 ** 4, 25)
    vals = polytope_ft_bound(sq, np.stack([t, np.zeros_like(t)], axis=1))
    slope, _ = np.polyfit(np.log(t), np.log(vals), 1)
    assert abs(slope + 1.0) < 0.05


def test_general_normals_chain_containment():
    normals = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cs = ChainSystem.from_normals(normals)
    # three admissible lines, one chain each
    assert chain_count(cs) == 3
    for chain in cs.chains:
        assert len(chain) == 2
        top, line = (cs.subspaces[i] for i in chain)
        assert top.shape == (2, 2) and line.shape == (1, 2)
    # each subspace is stored once: R^2, shared by every chain, and the three lines
    assert len(cs.subspaces) == 4 and {chain[0] for chain in cs.chains} == {0}


_FAMILIES = {"coordinate-1": ChainSystem.coordinate(1),
             "coordinate-2": ChainSystem.coordinate(2),
             "coordinate-3": ChainSystem.coordinate(3),
             "four-normals-2": ChainSystem.from_normals([[1, 0], [0, 1], [1, 1], [1, -2]])}


@pytest.mark.parametrize("name", list(_FAMILIES))
def test_phi_bitwise_equals_per_chain_oracle(name):
    # shared subspace factors are computed once, but each chain product keeps its order
    cs = _FAMILIES[name]
    d = cs.dimension
    rng = np.random.default_rng(5)
    xi = np.concatenate([integer_ball(12 if d == 3 else 40, d, include_zero=True),
                         rng.normal(scale=20.0, size=(500, d))])
    assert np.array_equal(phi(cs, xi), phi_per_chain(cs, xi))
    assert phi(cs, xi[7]) == phi_per_chain(cs, xi[7])[0]


@pytest.mark.parametrize("d, radii", [(2, (16, 64, 256, 1024)), (3, (4, 8, 16, 24))])
def test_chain_sum_half_ball_matches_full_ball_oracle(d, radii):
    # chain_sum folds the ball by the signed-permutation wedge; the oracle sums
    # the per-chain Phi over the whole ball |k| <= R, exactly rounded
    cs = ChainSystem.coordinate(d)
    for R in radii:
        ball = integer_ball(R, d, include_boundary=True).astype(float)
        expected = math.fsum(phi_per_chain(cs, ball))
        assert chain_sum(cs, R) == pytest.approx(expected, rel=1e-13, abs=0.0)


def domain_chunks(R, d, *, signed_permutations=False) -> list:
    """(rows, weights) chunks of the domain `chain_sum` sums over: the stripe
    bounds expanded into rows, the prefix repeated beside the last coordinate."""
    chunks = []
    for prefix, start, stop, weights in stripe_bounds(
            R, d, signed_permutations=signed_permutations):
        rows = np.empty((stop - start, d), dtype=np.int64)
        rows[:, :-1] = prefix
        rows[:, -1] = np.arange(start, stop)
        chunks.append((rows, weights))
    return chunks


@pytest.mark.parametrize("d, R", [(1, 9), (2, 13), (3, 5)])
def test_positive_half_and_its_negation_tile_the_ball(d, R):
    ball = integer_ball(R, d, include_boundary=True)
    chunks = domain_chunks(R, d)
    assert all(weight == 2.0 for _, weight in chunks)
    half = np.concatenate([rows for rows, _ in chunks])
    assert np.array_equal(half, ball[len(ball) // 2:])
    assert np.array_equal(-half[::-1], ball[:len(ball) // 2])


def _signed_permutation_matrices(d: int) -> np.ndarray:
    """All 2^d d! signed permutation matrices of Z^d."""
    eye = np.eye(d, dtype=np.int64)
    return np.array([eye[list(perm)] * np.array(signs)[:, None]
                     for perm in itertools.permutations(range(d))
                     for signs in itertools.product((1, -1), repeat=d)])


def _codes(points: np.ndarray, R: float) -> np.ndarray:
    """Integer vectors of the ball |k| <= R, one integer each (last axis)."""
    side = 2 * int(R) + 1
    return ((points + int(R)) * side ** np.arange(points.shape[-1])[::-1]).sum(-1)


@pytest.mark.parametrize("R", [1, 2, 13, 13.5, 50])
def test_wedge_orbits_tile_the_ball_with_their_sizes_as_weights(R):
    for d in (1, 2, 3):
        ball = integer_ball(R, d, include_boundary=True)
        chunks = domain_chunks(R, d, signed_permutations=True)
        assert max(len(rows) for rows, _ in chunks) <= int(R) + 1  # one stripe per chunk
        rows = np.concatenate([rows for rows, _ in chunks])
        weights = np.concatenate([np.broadcast_to(w, len(r)) for r, w in chunks])
        assert np.all(rows[:, -1] >= 0) and np.all(np.diff(rows, axis=1) <= 0)
        # each row's orbit by brute force: its images under every signed
        # permutation, counted distinct
        images = np.sort(_codes(np.einsum("gij,nj->gni", _signed_permutation_matrices(d), rows), R),
                         axis=0)
        assert np.array_equal(weights, 1 + np.count_nonzero(np.diff(images, axis=0), axis=0))
        assert math.fsum(weights) == len(ball)
        assert np.array_equal(np.unique(images), np.sort(_codes(ball, R)))


_DIAGONALS = ChainSystem.from_normals([[1, 0], [0, 1], [1, 1], [1, -1]])
_OBLIQUE_3 = ChainSystem.from_normals([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
_FALLBACK = {"coordinate-1": ChainSystem.coordinate(1),
             "one-diagonal-2": ChainSystem.from_normals([[1, 0], [0, 1], [1, 1]]),
             "four-normals-2": _FAMILIES["four-normals-2"]}


def test_symmetry_order_is_8_only_when_every_signed_permutation_keeps_the_lines():
    # 2^d d! in d = 2 and 3; in d = 1 that group is {I, -I}, of order 2
    assert symmetry_order(ChainSystem.coordinate(2)) == 8
    assert symmetry_order(_DIAGONALS) == 8
    # normal lines, not normals: -e1 and (-2, 2) name the same lines as e1 and (1, -1)
    assert symmetry_order(ChainSystem.from_normals([[-1, 0], [0, 1], [1, 1], [-2, 2]])) == 8
    assert symmetry_order(ChainSystem.coordinate(3)) == 48
    for cs in [*_FALLBACK.values(), _OBLIQUE_3]:
        assert symmetry_order(cs) == 2


def test_wedge_chain_sum_of_diagonal_system_matches_full_ball_oracle():
    # Phi of e1, e2 and both diagonals is swap-invariant only up to rounding
    for R in (16, 64, 256, 1024):
        ball = integer_ball(R, 2, include_boundary=True).astype(float)
        expected = math.fsum(phi_per_chain(_DIAGONALS, ball))
        assert chain_sum(_DIAGONALS, R) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", list(_FALLBACK))
def test_chain_sum_without_the_wedge_equals_half_ball_formula_bitwise(name):
    cs = _FALLBACK[name]
    for R in (3, 9.5, 40, 300):
        assert chain_sum(cs, R) == half_ball_chain_sum(cs, R)


@pytest.mark.parametrize("cs", [ChainSystem.coordinate(3), _OBLIQUE_3],
                         ids=["coordinate-3", "oblique-3"])
def test_d3_chain_sum_matches_per_chain_fsum_oracle(cs):
    # the wedge (coordinate) and the half (oblique) stream stripes of k3, so
    # they sum in another order than the whole ball
    for R in (1, 3, 9.5, 24):
        ball = integer_ball(R, 3, include_boundary=True).astype(float)
        expected = math.fsum(phi_per_chain(cs, ball))
        assert chain_sum(cs, R) == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_d3_chain_sum_streams_its_stripes():
    # the (2R + 1)^3 cube at R = 128 would hold 1.7e7 rows, about 400 MB as floats
    tracemalloc.start()
    try:
        chain_sum(ChainSystem.coordinate(3), 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("d", [1, 2, 3])
def test_coordinate_chain_sum_equals_phi_on_each_stripe_bitwise(d):
    # the axis tables and the exact squared norms give phi's factors bitwise
    cs = ChainSystem.coordinate(d)
    for R in [1, 1.5, 3, 9.5, 24, 64] + ([] if d == 3 else [300, 1024]):
        assert chain_sum(cs, R) == stripe_phi_chain_sum(cs, R)


def test_coordinate_chain_sum_projects_no_rows(monkeypatch):
    # the coordinate planes of R^3 take exact squared norms, not one _factor per stripe
    calls = []
    factor = chains_module._factor

    def counted(X, basis):
        calls.append(len(X))
        return factor(X, basis)

    monkeypatch.setattr(chains_module, "_factor", counted)
    chain_sum(ChainSystem.coordinate(3), 64)
    assert len(calls) == 3     # one table per coordinate axis


_D2_SYSTEMS = {"coordinate-2": ChainSystem.coordinate(2),
               "diagonals-2": _DIAGONALS,
               "one-diagonal-2": _FALLBACK["one-diagonal-2"],
               "four-normals-2": _FALLBACK["four-normals-2"]}


@pytest.mark.parametrize("name", list(_D2_SYSTEMS))
def test_stripe_tables_equal_per_row_phi_sum_bitwise(name):
    # axis-aligned subspaces read per-stripe tables, oblique ones project the rows
    cs = _D2_SYSTEMS[name]
    radii = [1, 1.5, 2, 3, 9.5, 13.5, 16, 40, 64, 256, 300, 1024]
    for R in radii + ([4096] if name == "coordinate-2" else []):
        assert chain_sum(cs, R) == per_row_chain_sum(cs, R)


@pytest.mark.parametrize("name", list(_D2_SYSTEMS))
def test_d2_chain_sum_does_not_call_phi(name, monkeypatch):
    def no_rows(*args):
        raise AssertionError("chain_sum evaluated phi on rows")

    expected = chain_sum(_D2_SYSTEMS[name], 40)
    monkeypatch.setattr(chains_module, "phi", no_rows)
    assert chain_sum(_D2_SYSTEMS[name], 40) == expected


def test_chain_sum_work_is_capped():
    # (2 floor(R) + 1)^d / symmetry_order rows at most 1e9
    for cs in [*_D2_SYSTEMS.values(), ChainSystem.from_normals([[3, 0], [0, -2]])]:
        check_chain_sum(cs, 4096)
    check_chain_sum(ChainSystem.coordinate(3), 1024)
    for cs, R in [(ChainSystem.coordinate(3), 2048), (_OBLIQUE_3, 1024),
                  (ChainSystem.coordinate(1), 1e9), (ChainSystem.coordinate(2), 1e300)]:
        with pytest.raises(ValueError, match="chain sum infeasible"):
            check_chain_sum(cs, R)
        with pytest.raises(ValueError, match="chain sum infeasible"):
            chain_sum(cs, R)


@pytest.mark.parametrize("signed_permutations", [False, True])
def test_stripe_bounds_are_the_per_row_stripes(signed_permutations):
    # exact integer bounds against the float norm filter, radii on and off the lattice norms
    for R in (0.5, 1, 1.5, 2 ** 0.5, 2, 5, 5 + 1e-12, 5 - 1e-12, 13.5, 50, 99.99):
        bounds = list(stripe_bounds(R, 2, signed_permutations=signed_permutations))
        rows = list(stripe_rows(R, signed_permutations=signed_permutations))
        assert len(bounds) == len(rows)
        for (prefix, start, stop, weights), (expected, expected_weights) in zip(bounds, rows):
            assert np.array_equal(expected[:, 0], np.full(stop - start, *prefix))
            assert np.array_equal(expected[:, 1], np.arange(start, stop))
            assert np.array_equal(weights, expected_weights)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("include_boundary", [False, True])
@pytest.mark.parametrize("include_zero", [False, True])
def test_integer_ball_order_is_antisymmetric(d, include_boundary, include_zero):
    # row -1 - i is -k for row i; the origin keeps its lexicographic place, the
    # middle row (index 10 of 21 at radius 2.5 in d = 2)
    for radius in (1, 2.5, 5, 7.3):
        ball = integer_ball(radius, d, include_boundary=include_boundary,
                            include_zero=include_zero)
        assert np.array_equal(ball[::-1], -ball)
        if include_zero:
            punctured = integer_ball(radius, d, include_boundary=include_boundary)
            assert np.array_equal(np.delete(ball, len(ball) // 2, axis=0), punctured)
            assert not ball[len(ball) // 2].any()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", [0, -1.0, np.nan, np.inf, -np.inf])
def test_nonpositive_radius_is_rejected_in_every_dimension(d, radius):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        integer_ball(radius, d)
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        next(stripe_bounds(radius, d))
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        chain_sum(ChainSystem.coordinate(d), radius)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_normal_is_rejected_by_name(bad):
    with pytest.raises(ValueError, match=r"normal \[1\.0, (nan|inf|-inf)\] has a non-finite entry"):
        ChainSystem.from_normals([[1, 0], [0, 1], [1, bad]])


def test_normal_scale_does_not_change_the_system():
    unit = ChainSystem.from_normals([[1, 0], [0, 1], [1, 1]])
    for scale in (1e308, 1e-320, 3.0):
        # once the squared norm overflowed to inf (or underflowed to 0)
        scaled = ChainSystem.from_normals([[1, 0], [0, 1], [scale, scale]])
        np.testing.assert_allclose(scaled.normals, unit.normals, rtol=1e-15, atol=0.0)
        assert chain_count(scaled) == 3
    # ordinary normals keep the plain n / |n| bitwise: the prescaling is by a power of two
    raw = np.array([[1.0, 0.0], [3.0, 5.0], [1.0, -2.0], [0.1, 0.7]])
    plain = raw / np.sqrt((raw ** 2).sum(1))[:, None]
    assert ChainSystem.from_normals(raw).normals == tuple(map(tuple, plain.tolist()))
