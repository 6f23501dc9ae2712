"""Chain systems, the chain functional, and the per-polytope Fourier bound."""

import math

import numpy as np
import pytest
from oracles import chain_count, chain_system_from_polytope, phi_per_chain, polytope_ft_bound

from discrepancy_forge.chains import ChainSystem, chain_sum, phi
from discrepancy_forge.frequencies import integer_ball, positive_half_chunked
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
    for chain in cs.chain_bases:
        assert len(chain) == 2
        top, line = np.asarray(chain[0]), np.asarray(chain[1])
        assert top.shape == (2, 2) and line.shape == (1, 2)


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
    # chain_sum doubles the lexicographically positive half; the oracle sums the
    # per-chain Phi over the whole ball |k| <= R, exactly rounded
    cs = ChainSystem.coordinate(d)
    for R in radii:
        ball = integer_ball(R, d, include_boundary=True).astype(float)
        expected = math.fsum(phi_per_chain(cs, ball))
        assert chain_sum(cs, R) == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("d, R", [(1, 9), (2, 13), (3, 5)])
def test_positive_half_and_its_negation_tile_the_ball(d, R):
    ball = integer_ball(R, d, include_boundary=True)
    half = np.concatenate(list(positive_half_chunked(R, d)))
    assert np.array_equal(half, ball[len(ball) // 2:])
    assert np.array_equal(-half[::-1], ball[:len(ball) // 2])
