"""Bound assembly, R selection rules, and the polyhedra-family bound."""

import numpy as np
import pytest

from discrepancy_forge import erdos_turan
from discrepancy_forge.chains import ChainSystem
from discrepancy_forge.erdos_turan import (
    et_bound,
    et_bound_r_search,
    optimal_R,
    polytope_family_bound,
)
from discrepancy_forge.geometry import Ball
from discrepancy_forge.glp import search
from discrepancy_forge.pointsets import (
    PointSet,
    korobov,
    lattice,
    weyl_spectrum,
)

BALL = Ball((0.5, 0.5), 0.25)


def test_lattice_bound_reduces_to_zero_term(kernel2):
    # R at the lattice spacing: no resonant frequency inside |k| < R
    rep = et_bound(BALL, lattice(256, d=2), kernel2, 16.0)
    assert rep.sum_term == 0.0
    assert rep.bound == pytest.approx(rep.zero_term)
    assert rep.valid


def test_lattice_bound_shape_with_resonances(kernel2):
    # push R past the lattice spacing: exactly the k in nZ^2 contribute
    rep = et_bound(BALL, lattice(256, d=2), kernel2, 40.0)
    freqs = weyl_spectrum(lattice(256, d=2), 40.0)
    resonant = int(np.count_nonzero(freqs.values))
    # 16 (a, b) with a^2 + b^2 < (40/16)^2 = 6.25, excluding the origin
    assert resonant == 20
    assert rep.sum_term > 0
    assert rep.valid


def test_validity_against_true_discrepancy(kernel2):
    rep = et_bound(BALL, lattice(4096, d=2), kernel2, 64.0)
    assert rep.true_discrepancy is not None
    assert rep.bound + rep.uncertainty >= rep.true_discrepancy


def test_validity_with_explicit_random_points(kernel2):
    rng = np.random.default_rng(9)
    pts = PointSet(rng.random((200, 2)), {"kind": "explicit"})
    rep = et_bound(BALL, pts, kernel2, 16.0)
    assert rep.valid


def test_optimal_r_formulas():
    assert optimal_R("lattice", 4096, 2, 1.0, 1.0) == pytest.approx(64.0)
    m, eps = 1000, 0.1
    expected = m ** (2.0 / 3.0) * np.log(m) ** (-3.1 * (2.0 / 3.0))
    assert optimal_R("kronecker", m, 2, 1.5, 1.0, eps=eps) == pytest.approx(expected)
    with pytest.raises(ValueError):
        optimal_R("lattice", 100, 2, 3.5, 1.0)
    with pytest.raises(ValueError):
        optimal_R("banana", 100, 2, 1.0, 1.0)


def test_grid_search_never_worse_than_formula(kernel2, monkeypatch):
    monkeypatch.setattr(erdos_turan, "R_SEARCH_CAP", 128)
    ps = lattice(1024, d=2)
    formula_R = optimal_R("lattice", 1024, 2, 1.0, 1.0)
    best, table, _, _ = et_bound_r_search(BALL, ps, kernel2, formula_R=formula_R)
    formula_bound = [b for r, b in table if r == formula_R]
    assert formula_bound and best.bound <= formula_bound[0]


def test_r_search_builds_each_R_once(kernel2, monkeypatch):
    # the formula R = 16 is already a power-of-two candidate
    monkeypatch.setattr(erdos_turan, "R_SEARCH_CAP", 32)
    _, table, _, _ = et_bound_r_search(BALL, lattice(256, d=2), kernel2, formula_R=16.0)
    assert [r for r, _ in table] == [4.0, 8.0, 16.0, 32.0]


def test_polytope_family_bound_korobov_restriction():
    cs = ChainSystem.coordinate(2)
    ps = korobov((1, 33), 101)
    spec = weyl_spectrum(ps, 101.0)
    fam = polytope_family_bound(cs, spec, 101.0)
    # only congruence-satisfying k contribute, so the sum is small but positive
    assert fam.r_term == pytest.approx(1 / 101)
    assert 0 < fam.sum_term < np.sum(np.sort(
        np.asarray(spec.values)))  # strict restriction
    resonant = (spec.freqs @ np.array([1, 33])) % 101 == 0
    assert fam.sum_term <= np.count_nonzero(resonant)


def test_polytope_family_bound_empty_spectrum():
    cs = ChainSystem.coordinate(2)
    ps = lattice(256, d=2)
    spec = weyl_spectrum(ps, 16.0)  # all Psi = 0 below the lattice spacing
    fam = polytope_family_bound(cs, spec, 16.0)
    assert fam.value == pytest.approx(1 / 16.0)


def test_family_bound_constant_stable_across_primes():
    # searched-generator family bound scales like m^-1 log^2(m) with the
    # normalized constant stable within +-50% of its mean
    cs = ChainSystem.coordinate(2)
    constants = []
    for m in (101, 211, 401, 809):
        cert = search(m, cs, "exhaustive")
        spec = weyl_spectrum(korobov(cert.g, m), float(m))
        fam = polytope_family_bound(cs, spec, float(m))
        constants.append(fam.value * m / np.log(m) ** 2)
    constants = np.asarray(constants)
    assert np.max(np.abs(constants - constants.mean())) <= 0.5 * constants.mean()


def test_searched_generator_beats_average_certificate():
    cs = ChainSystem.coordinate(2)
    m = 101
    cert = search(m, cs, "exhaustive")
    ps = korobov(cert.g, m)
    spec = weyl_spectrum(ps, float(m))
    fam = polytope_family_bound(cs, spec, float(m))
    assert fam.value <= 1.0 / m + cert.average + 1e-12


def test_r_precondition(kernel2):
    with pytest.raises(ValueError):
        et_bound(BALL, lattice(256, d=2), kernel2, 2.0)


def test_report_serialization(kernel2):
    rep = et_bound(BALL, lattice(256, d=2), kernel2, 16.0,
                   exponents={"alpha": 1.0, "beta": 1.0})
    doc = rep.to_json()
    assert doc["valid"] is True
    assert doc["set"]["variant"] == "ball"
    assert doc["exponents"]["alpha"] == 1.0
