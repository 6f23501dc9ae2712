"""Good-lattice-point search: congruence sums, averaging, exhaustive table."""

from dataclasses import asdict

import numpy as np
import pytest
from oracles import exhaustive_table, phi_per_chain, search_per_candidate

from discrepancy_forge import glp
from discrepancy_forge.chains import ChainSystem, phi
from discrepancy_forge.frequencies import integer_ball
from discrepancy_forge.glp import (
    PhiBall,
    _sorted_class_sums,
    congruence_sum,
    search,
)

CS2 = ChainSystem.coordinate(2)
CHAINS = {"coordinate": CS2,
          "four-normal": ChainSystem.from_normals([[1, 0], [0, 1], [1, 1], [1, -1]]),
          "coordinate-3d": ChainSystem.coordinate(3)}


@pytest.fixture(scope="module")
def ball_of():
    """Each (chain system, m) Phi ball built once for the module; read-only."""
    balls = {}

    def get(name, m):
        if (name, m) not in balls:
            balls[name, m] = PhiBall.build(CHAINS[name], m)
        return balls[name, m]
    return get


def brute_force_sum(g, m):
    total = 0.0
    for k in integer_ball(m, 2):
        if (g[0] * k[0] + g[1] * k[1]) % m == 0:
            total += phi(CS2, k.astype(float))
    return total


def test_congruence_sum_matches_manual_enumeration():
    assert congruence_sum((1, 1), 5, CS2) == pytest.approx(brute_force_sum((1, 1), 5),
                                                           rel=1e-12)


def test_generator_and_negation_agree():
    # the congruence set is symmetric under k -> -k, so g and m - g coincide
    for g in [(1, 2), (2, 3), (4, 1)]:
        neg = (5 - g[0], 5 - g[1])
        assert congruence_sum(g, 5, CS2) == pytest.approx(
            congruence_sum(neg, 5, CS2), rel=1e-12)


def test_exhaustive_table_matches_double_loop():
    table = exhaustive_table(5, CS2)
    assert len(table) == 16
    for g, val in table.items():
        assert val == pytest.approx(brute_force_sum(g, 5), rel=1e-12, abs=1e-15)


def test_exhaustive_certificate_beats_average():
    cert = search(101, CS2, "exhaustive")
    assert cert.value <= cert.average
    assert cert.value <= cert.exact_mean <= cert.average
    assert cert.searched == 100 ** 2
    assert congruence_sum(cert.g, 101, CS2) == pytest.approx(cert.value, rel=1e-12)


def test_averaging_identity_exact_counts():
    # mean over g of the congruence sum = sum_k Phi(k) N(k) / (m-1)^2, with
    # N(k) counted in integer arithmetic; verified exactly for m = 5 and 7
    for m in (5, 7):
        ball = PhiBall.build(CS2, m)
        cert = search(m, CS2, "exhaustive", phi_ball=ball)
        total = 0.0
        for k, v in zip(ball.freqs, ball.values):
            count = sum(1 for g1 in range(1, m) for g2 in range(1, m)
                        if (g1 * int(k[0]) + g2 * int(k[1])) % m == 0)
            # structure from the unique-completion argument
            if int(k[0]) % m != 0 and int(k[1]) % m != 0:
                assert count == m - 1
            elif int(k[0]) % m == 0 and int(k[1]) % m == 0:
                assert count == (m - 1) ** 2
            else:
                assert count == 0
            total += v * count
        assert cert.exact_mean == pytest.approx(total / (m - 1) ** 2, rel=1e-12)


def test_random_strategy_not_better_than_exhaustive():
    ball = PhiBall.build(CS2, 101)
    best = search(101, CS2, "exhaustive", phi_ball=ball)
    rand = search(101, CS2, "random", n_samples=64, seed=3, phi_ball=ball)
    assert best.value <= rand.value
    assert rand.value <= rand.average * 10  # sane magnitude


def test_korobov_rank1_strategy():
    ball = PhiBall.build(CS2, 101)
    cert = search(101, CS2, "korobov-rank1", phi_ball=ball)
    assert cert.g[0] == 1
    assert cert.searched == 100
    best = search(101, CS2, "exhaustive", phi_ball=ball)
    assert best.value <= cert.value + 1e-15


def test_chain_sum_log_growth_constant_stable():
    # the whole-ball sum grows like log^2(2+m) with a stable constant
    cs = []
    for m in (101, 211, 401):
        ball = PhiBall.build(CS2, m)
        cs.append(ball.total / np.log(2 + m) ** 2)
    assert max(cs) / min(cs) < 2


def test_validation():
    with pytest.raises(ValueError):
        congruence_sum((1, 1), 6, CS2)          # not prime
    with pytest.raises(ValueError):
        congruence_sum((0, 1), 5, CS2)          # generator out of range
    with pytest.raises(ValueError):
        search(6, CS2)
    with pytest.raises(ValueError):
        search(3571, CS2, "exhaustive")          # (m-1)^2 > 1e7
    with pytest.raises(ValueError, match="n_samples"):
        search(101, CS2, "random", n_samples=0)  # no candidate to pick
    cs3 = ChainSystem.coordinate(3)
    with pytest.raises(ValueError):
        search(101, cs3, "exhaustive")           # d = 2 only for exhaustive


def test_certificate_serialization():
    cert = search(7, CS2, "exhaustive")
    doc = asdict(cert)
    assert doc["m"] == 7 and len(doc["g"]) == 2
    assert doc["value"] <= doc["average"]


def test_phi_ball_bitwise_equals_per_chain_oracle():
    # phi shares subspace factors across chains; the values must not move
    for cs in (CS2, ChainSystem.from_normals([[1, 0], [0, 1], [1, 1]])):
        ball = PhiBall.build(cs, 101)
        assert np.array_equal(ball.freqs, integer_ball(101, 2))
        assert np.array_equal(ball.values, phi_per_chain(cs, ball.freqs.astype(float)))


@pytest.mark.parametrize("name", ["coordinate", "four-normal"])
@pytest.mark.parametrize("m", [5, 31, 101, 401])
def test_sorted_class_table_bitwise_equals_congruence_sum(m, name, ball_of):
    # class a holds the generator (m - a, 1): -g1 * g2^-1 = a (mod m)
    ball = ball_of(name, m)
    table = _sorted_class_sums(ball)
    assert len(table) == m
    for a in range(1, m):
        assert table[a] == congruence_sum((m - a, 1), m, CHAINS[name], phi_ball=ball), a


@pytest.mark.parametrize("name, m, strategy, seed", [
    *[(name, m, "korobov-rank1", 0) for name in ("coordinate", "four-normal")
      for m in (101, 401)],
    *[(name, 101, "random", seed) for name in ("coordinate", "four-normal")
      for seed in range(4)],
    ("coordinate-3d", 31, "korobov-rank1", 0),
    ("coordinate-3d", 31, "random", 1),
])
def test_search_matches_per_candidate_loop(name, m, strategy, seed, ball_of):
    # d = 2 looks candidates up in the class table; d = 3 sums each one
    ball = ball_of(name, m)
    cert = search(m, CHAINS[name], strategy, seed=seed, phi_ball=ball)
    assert (cert.g, cert.value) == search_per_candidate(m, CHAINS[name], strategy,
                                                        seed=seed, phi_ball=ball)


@pytest.mark.parametrize("strategy", ["korobov-rank1", "random"])
def test_d2_search_computes_one_congruence_sum(strategy, monkeypatch, ball_of):
    # candidates are class-table lookups; only the winner's value is recomputed
    calls = []
    original = glp.congruence_sum

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(glp, "congruence_sum", counting)
    cert = search(101, CS2, strategy, phi_ball=ball_of("coordinate", 101))
    assert len(calls) == 1
    assert tuple(int(v) for v in calls[0]) == cert.g
