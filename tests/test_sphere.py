"""Rotation words, orbits, Wigner blocks, truncated spectral radius, cap bounds."""

import numpy as np
import pytest
from oracles import CapUnion, all_distinct, row_multiset, words_depth_first

from discrepancy_forge.sphere import (
    LETTERS,
    Cap,
    ball_rho_hat,
    enumerate_words,
    hecke_ball_sum,
    hecke_block,
    lps_generators,
    orbit,
    rho_hat,
    set_discrepancy,
    sphere_bound,
    wigner_d_matrix,
    word_count,
)

THETA = np.arccos(-3.0 / 5.0)


@pytest.fixture(scope="module")
def words1():
    return enumerate_words(1)


@pytest.fixture(scope="module")
def words3():
    return enumerate_words(3)


def test_generators_exact_orthogonal():
    gens = lps_generators()
    assert gens.shape == (6, 3, 3)
    ints = np.rint(5 * gens).astype(np.int64)
    assert np.array_equal(ints / 5, gens)
    for i, n in enumerate(ints):
        assert np.array_equal(n @ n.T, 25 * np.eye(3, dtype=np.int64))
        det = int(round(np.linalg.det(n)))
        assert det == 125  # det(matrix) = 1 exactly after the 5^3 denominator
        assert np.array_equal(n @ ints[i ^ 1], 25 * np.eye(3, dtype=np.int64))  # inverses
    # positive sine branch: cos = -3/5, sin = +4/5 about z
    a = gens[LETTERS.index("a")]
    assert a[0, 0] == pytest.approx(-3 / 5)
    assert a[1, 0] == pytest.approx(4 / 5)


def test_generator_trace_identity():
    for matrix in lps_generators():
        assert np.trace(matrix) == pytest.approx(1 + 2 * np.cos(THETA))
        assert np.trace(matrix) == pytest.approx(-1 / 5)


@pytest.mark.parametrize("k,m", [(0, 1), (1, 7), (2, 37), (3, 187), (6, 23437)])
def test_word_counts(k, m):
    assert word_count(k) == m
    assert len(enumerate_words(k)) == m


def test_words_distinct_exact(words3):
    assert all_distinct(words3, 3)
    words5 = enumerate_words(5)
    assert len(words5) == word_count(5)
    assert all_distinct(words5, 5)


@pytest.mark.parametrize("k", range(0, 7))
def test_words_bitwise_equal_depth_first_oracle(k):
    # the integer layers give each word's matrix bitwise, in another order
    oracle = words_depth_first(k)
    words = enumerate_words(k)
    assert words.shape == (word_count(k), 3, 3)
    assert row_multiset(words) == row_multiset(np.stack([w.matrix for w in oracle]))
    rng = np.random.default_rng(k)
    for _ in range(3):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert row_multiset(orbit(x, words)) == row_multiset(
            np.stack([w.matrix @ x for w in oracle]))


def test_words_run_by_length():
    # the words of length <= n are the first word_count(n) rows, in their own order
    words = enumerate_words(5)
    for n in range(0, 5):
        assert np.array_equal(words[:word_count(n)], enumerate_words(n))


def test_pole_orbit_hemisphere_count(words1):
    # images of the north pole: 3 copies of the pole (identity and the two
    # z-rotations) plus four points at height -3/5
    orb = orbit((0.0, 0.0, 1.0), words1)
    assert orb.shape == (7, 3)
    heights = np.sort(orb[:, 2])
    assert np.allclose(heights[:4], -0.6)
    assert np.allclose(heights[4:], 1.0)
    cap = Cap((0, 0, 1), np.pi / 2)
    assert set_discrepancy(orb, cap) == pytest.approx(abs(0.5 - 3 / 7))


def test_whole_sphere_cap(words3):
    orb = orbit((0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)), words3)
    cap = Cap((0, 0, 1), np.pi)
    assert cap.measure() == pytest.approx(1.0)
    assert set_discrepancy(orb, cap) == pytest.approx(0.0)


def test_cap_measure_formula():
    for theta in (np.pi / 6, np.pi / 3, np.pi / 2, 2.0):
        assert Cap((0, 0, 1), theta).measure() == pytest.approx((1 - np.cos(theta)) / 2)


def test_cap_union_disjointness():
    a = Cap((0, 0, 1), np.pi / 8)
    b = Cap((0, 0, -1), np.pi / 8)
    union = CapUnion((a, b))
    assert union.measure() == pytest.approx(a.measure() + b.measure())
    with pytest.raises(ValueError):
        CapUnion((a, Cap((0, 0, 1), np.pi / 8)))


def test_degree_zero_block_is_identity(words1):
    block = hecke_block(words1, 0)
    assert block.matrix.shape == (1, 1)
    assert block.matrix[0, 0] == pytest.approx(1.0)
    assert block.norm == pytest.approx(1.0)


def test_character_formula(words1):
    gens = dict(zip(LETTERS, lps_generators()))
    for ell in range(0, 11):
        char = np.sum(np.exp(1j * np.arange(-ell, ell + 1) * THETA)).real
        for letter in ("a", "b", "c"):
            D = wigner_d_matrix(ell, gens[letter])
            assert abs(np.trace(D).real - char) < 1e-8
            assert abs(np.trace(D).imag) < 1e-8


def test_representation_is_homomorphism(words3):
    rng = np.random.default_rng(12)
    for _ in range(4):
        i, j = rng.integers(0, len(words3), 2)
        for ell in (1, 3, 8):
            D1 = wigner_d_matrix(ell, words3[i])
            D2 = wigner_d_matrix(ell, words3[j])
            D12 = wigner_d_matrix(ell, words3[i] @ words3[j])
            assert np.max(np.abs(D1 @ D2 - D12)) < 1e-9


def test_block_trace_identities(words1):
    # independent validation: tr(T_l) and tr(T_l^2) from rotation angles only
    mats = list(words1)

    def character(ell, M):
        c = np.clip((np.trace(M) - 1) / 2, -1, 1)
        return np.sum(np.exp(1j * np.arange(-ell, ell + 1) * np.arccos(c))).real

    for ell in (2, 17):
        lam = np.linalg.eigvalsh(hecke_block(words1, ell).matrix)
        tr1 = np.mean([character(ell, M) for M in mats])
        tr2 = np.mean([character(ell, A @ B) for A in mats for B in mats])
        assert lam.sum() == pytest.approx(tr1, abs=1e-9)
        assert (lam ** 2).sum() == pytest.approx(tr2, abs=1e-9)


def test_block_norm_at_degree_one(words1):
    # sum of the six generator rotations at l = 1 is -(2/5) I, so the
    # averaging block has the single eigenvalue (1 - 2/5)/7 = 3/35
    block = hecke_block(words1, 1)
    assert block.norm == pytest.approx(3 / 35, abs=1e-12)


def test_blocks_hermitian_with_norm_at_most_one(words3):
    for ell in (1, 5, 12):
        block = hecke_block(words3, ell)
        assert np.max(np.abs(block.matrix - block.matrix.conj().T)) < 1e-10
        assert block.norm <= 1 + 1e-12


def test_ball_rho_hat_above_generator_threshold(words1):
    # criterion 9d holds 2 sqrt(5)/6 to the six-generator average; the ball
    # average includes the identity, which shifts the spectrum up past it
    ball_value = rho_hat(words1, 20).value
    assert ball_value == pytest.approx(0.751538, abs=1e-4)
    assert ball_value > 2 * np.sqrt(5) / 6


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_ball_rho_hat_matches_word_average(k):
    # the Hecke recurrence against the average of D^l over the enumerated ball
    fast = ball_rho_hat(k, 20)
    oracle = rho_hat(enumerate_words(k), 20)
    assert fast.L == oracle.L == 20
    assert np.max(np.abs(np.subtract(fast.per_degree, oracle.per_degree))) <= 1e-12
    assert abs(fast.value - oracle.value) <= 1e-12


def test_hecke_ball_sum_counts_words_at_trivial_degree():
    # S_1 acts as 6 on constants, and S_n as the number of words of length n
    for k in range(0, 13):
        assert hecke_ball_sum(6.0, k) == word_count(k)


def test_rho_hat_decreasing_in_k():
    values = [rho_hat(enumerate_words(k), 20).value for k in (1, 2, 3)]
    assert values[0] > values[1] > values[2]


def test_ordering_independence(words1):
    rng = np.random.default_rng(7)
    shuffled = words1[rng.permutation(len(words1))]
    for ell in (3, 9):
        a = hecke_block(words1, ell).matrix
        b = hecke_block(shuffled, ell).matrix
        assert np.max(np.abs(a - b)) < 1e-12


def test_sphere_bound_formula_choice():
    m = 187
    report = sphere_bound(m, Cap((0, 0, 1), np.pi / 3), delta=1.0, rho=0.25)
    expected_R = m ** (1 / 3) * np.log(m) ** (-2 / 3)
    assert report.formula_R == pytest.approx(expected_R)
    assert report.grid_min <= report.formula_value


def test_sphere_bound_validity_with_fitted_constant(words3):
    # one fitted constant covers all caps and base points measured
    rng = np.random.default_rng(42)
    rho = rho_hat(words3, 12).value
    caps = [Cap((0, 0, 1), th) for th in (np.pi / 6, np.pi / 3, np.pi / 2)]
    ratios = []
    for _ in range(3):
        v = rng.normal(size=3)
        orb = orbit(v / np.linalg.norm(v), words3)
        for cap in caps:
            measured = set_discrepancy(orb, cap)
            bound = sphere_bound(len(orb), cap, delta=1.0, rho=rho).grid_min
            ratios.append(measured / bound)
    c_fit = max(ratios)
    assert np.isfinite(c_fit) and c_fit > 0
    for r in ratios:
        assert r <= c_fit


def test_validation():
    with pytest.raises(ValueError):
        enumerate_words(-1)
    with pytest.raises(ValueError):
        orbit((0, 0, 2.0), enumerate_words(0))
    with pytest.raises(ValueError):
        Cap((0, 0, 1), 4.0)
    with pytest.raises(ValueError):
        sphere_bound(100, Cap((0, 0, 1), 1.0), delta=2.0, rho=0.5)
