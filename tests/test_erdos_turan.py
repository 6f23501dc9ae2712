"""Bound assembly, R selection rules, and the polyhedra-family bound."""

import numpy as np
import pytest

from discrepancy_forge import erdos_turan
from discrepancy_forge.chains import ChainSystem, phi
from discrepancy_forge.erdos_turan import (
    et_bound,
    et_bound_r_search,
    optimal_R,
    polytope_family_bound,
    r_search_candidates,
)
from discrepancy_forge.geometry import Ball
from discrepancy_forge.hfourier import h_coefficient_table
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


@pytest.mark.parametrize("m", [1024, 4096, 16384, 65536])
def test_lattice_scaling_bound_is_its_zero_term(kernel2, m):
    # lattice-scaling's rule at alpha = beta = 1 is R = sqrt(m), and the full
    # lattice's Weyl sums vanish on 0 < |k| < R: the bound is |H_R(0)| alone
    # (BALL is perfbench's ball before its seed's shift)
    R = optimal_R("lattice", m, 2, 1.0, 1.0)
    assert R == np.sqrt(m)
    rep = et_bound(BALL, lattice(m, d=2), kernel2, R)
    assert rep.sum_term == 0.0
    assert rep.bound == rep.zero_term
    assert rep.valid


def test_vanishing_spectrum_bound_tabulates_only_the_zero_coefficient(kernel2, monkeypatch):
    # the punctured spectrum is zero, so the bound reads H_R-hat(0) alone: its
    # table holds kmax = 0, no set coefficient is evaluated, and the report is
    # bitwise the one the full table gives
    m, R = 4096, 64.0
    full = h_coefficient_table(BALL, kernel2, R, oversample=erdos_turan.H_OVERSAMPLE)
    with_full = et_bound(BALL, lattice(m, d=2), kernel2, R, h_table=full)
    tables, evaluated = [], []

    def recording_table(*args, **kwargs):
        tables.append(h_coefficient_table(*args, **kwargs))
        return tables[-1]

    fourier_coefficients = Ball.fourier_coefficients

    def recording_coefficients(self, freqs):
        evaluated.append(len(freqs))
        return fourier_coefficients(self, freqs)

    monkeypatch.setattr(erdos_turan, "h_coefficient_table", recording_table)
    monkeypatch.setattr(Ball, "fourier_coefficients", recording_coefficients)
    rep = et_bound(BALL, lattice(m, d=2), kernel2, R)
    assert [table.kmax for table in tables] == [0]
    assert sum(evaluated) == 0
    assert rep == with_full
    assert rep.sum_term == 0.0 and rep.bound == rep.zero_term == abs(full.zero)
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
    best, table, _, _ = et_bound_r_search(BALL, ps, kernel2, r_search_candidates(formula_R))
    formula_bound = [b for r, b in table if r == formula_R]
    assert formula_bound and best.bound <= formula_bound[0]


def test_r_search_builds_each_R_once(kernel2, monkeypatch):
    # the formula R = 16 is already a power-of-two candidate
    monkeypatch.setattr(erdos_turan, "R_SEARCH_CAP", 32)
    _, table, _, _ = et_bound_r_search(BALL, lattice(256, d=2), kernel2,
                                       r_search_candidates(16.0))
    assert [r for r, _ in table] == [4.0, 8.0, 16.0, 32.0]


def test_polytope_family_bound_korobov_restriction():
    cs = ChainSystem.coordinate(2)
    ps = korobov((1, 33), 101)
    spec = weyl_spectrum(ps, 101.0)
    fam = polytope_family_bound(phi(cs, spec.freqs), spec)
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
    fam = polytope_family_bound(phi(cs, spec.freqs), spec)
    assert fam.value == pytest.approx(1 / 16.0)


def test_polytope_family_bound_needs_phi_on_every_frequency():
    cs = ChainSystem.coordinate(2)
    spec = weyl_spectrum(korobov((1, 33), 101), 101.0)
    phis = phi(cs, spec.freqs)
    for short in (phis[:-1], phis[:, None], np.append(phis, 1.0)):
        with pytest.raises(ValueError, match="cover"):
            polytope_family_bound(short, spec)


def test_family_bound_constant_stable_across_primes():
    # searched-generator family bound scales like m^-1 log^2(m) with the
    # normalized constant stable within +-50% of its mean
    cs = ChainSystem.coordinate(2)
    constants = []
    for m in (101, 211, 401, 809):
        cert = search(m, cs, "exhaustive")
        spec = weyl_spectrum(korobov(cert.g, m), float(m))
        fam = polytope_family_bound(phi(cs, spec.freqs), spec)
        constants.append(fam.value * m / np.log(m) ** 2)
    constants = np.asarray(constants)
    assert np.max(np.abs(constants - constants.mean())) <= 0.5 * constants.mean()


def test_searched_generator_beats_average_certificate():
    cs = ChainSystem.coordinate(2)
    m = 101
    cert = search(m, cs, "exhaustive")
    ps = korobov(cert.g, m)
    spec = weyl_spectrum(ps, float(m))
    fam = polytope_family_bound(phi(cs, spec.freqs), spec)
    assert fam.value <= 1.0 / m + cert.average + 1e-12


def test_r_precondition(kernel2):
    with pytest.raises(ValueError):
        et_bound(BALL, lattice(256, d=2), kernel2, 2.0)


def test_report_serialization(kernel2):
    rep = et_bound(BALL, lattice(256, d=2), kernel2, 16.0)
    doc = rep.to_json()
    assert doc["valid"] is True
    assert doc["set"]["variant"] == "ball"
