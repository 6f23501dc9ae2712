"""Point families, Weyl spectra, true discrepancy, Schmidt sums."""

import numpy as np
import pytest

from discrepancy_forge.errors import ResonanceError
from discrepancy_forge.geometry import Ball, Box
from discrepancy_forge.pointsets import (
    PointSet,
    korobov,
    kronecker,
    lattice,
    pointset_from_descriptor,
    schmidt_sum,
    true_discrepancy,
    weyl_spectrum,
)

SQRT2M1 = np.sqrt(2) - 1
SQRT3M1 = np.sqrt(3) - 1


def test_lattice_sixteen_points():
    ps = lattice(16, d=2)
    expected = {(i / 4, j / 4) for i in range(4) for j in range(4)}
    assert {tuple(p) for p in ps.points} == expected


def test_lattice_requires_perfect_power():
    with pytest.raises(ValueError):
        lattice(15, d=2)


@pytest.mark.parametrize("make", [lambda: lattice(0, d=2),
                                  lambda: kronecker((SQRT2M1, SQRT3M1), 0),
                                  lambda: PointSet(np.empty((0, 2)), {"kind": "explicit"})],
                         ids=["lattice", "kronecker", "explicit"])
def test_empty_point_set_is_rejected(make):
    with pytest.raises(ValueError, match="at least one point"):
        make()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # inf mod 1 is NaN
@pytest.mark.parametrize("x", [(np.nan, 0.5), (0.41, np.inf)], ids=["nan", "inf"])
def test_non_finite_kronecker_vector_is_rejected(x):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        kronecker(x, 4)


def test_korobov_definition():
    ps = korobov((1, 3), 5)
    expected = {(j / 5 % 1, 3 * j / 5 % 1) for j in range(1, 6)}
    assert {tuple(np.round(p, 12)) for p in ps.points} == {
        tuple(np.round(e, 12)) for e in expected}


def test_korobov_validation():
    with pytest.raises(ValueError):
        korobov((1, 3), 6)     # not prime
    with pytest.raises(ValueError):
        korobov((0, 3), 5)     # out of range


def test_kronecker_points_distinct():
    ps = kronecker((SQRT2M1, SQRT3M1), 100)
    assert ps.size == 100
    assert len({tuple(p) for p in ps.points}) == 100


def test_tiny_negative_kronecker_coordinate_is_the_torus_point_zero():
    # np.mod(-1e-20, 1.0) rounds to 1.0, outside [0, 1); on the torus it is 0
    ps = kronecker((-1e-20, 0.3), 10)
    assert np.array_equal(ps.points[:, 0], np.zeros(10))
    assert np.array_equal(ps.points[:, 1], np.mod(np.arange(1, 11) * 0.3, 1.0))


def test_lattice_weyl_dichotomy():
    ps = lattice(16, d=2)
    spec = weyl_spectrum(ps, 9.0)
    assert spec.exact
    resonant = np.all(spec.freqs % 4 == 0, axis=1)
    assert np.all(spec.values[resonant] == 1.0)
    assert np.all(spec.values[~resonant] == 0.0)
    # float summation agrees with the congruence characterization
    explicit = PointSet(ps.points, {"kind": "explicit"})
    direct = weyl_spectrum(explicit, 9.0)
    assert np.allclose(direct.values, spec.values, atol=1e-12)


def test_korobov_weyl_dichotomy():
    ps = korobov((1, 3), 5)
    spec = weyl_spectrum(ps, 4.9)
    resonant = (spec.freqs @ np.array([1, 3])) % 5 == 0
    assert np.all(spec.values[resonant] == 1.0)
    assert np.all(spec.values[~resonant] == 0.0)


def test_weyl_symmetry_under_negation():
    spec = weyl_spectrum(kronecker((SQRT2M1, SQRT3M1), 32), 12.0)
    index = {tuple(k): v for k, v in zip(map(tuple, spec.freqs), spec.values)}
    for k, v in index.items():
        assert v == pytest.approx(index[tuple(-np.asarray(k))], abs=1e-12)
        assert 0.0 <= v <= 1.0


def test_kronecker_weyl_diophantine_bound():
    x = np.array([SQRT2M1, SQRT3M1])
    ps = kronecker(x, 64)
    spec = weyl_spectrum(ps, 20.0)
    theta = spec.freqs @ x
    dist = np.abs(theta - np.round(theta))
    bound = np.minimum(1.0, 1.0 / (2 * 64 * dist))
    assert np.all(spec.values <= bound + 1e-9)
    # closed form agrees with direct summation
    explicit = PointSet(ps.points, {"kind": "explicit"})
    direct = weyl_spectrum(explicit, 20.0)
    assert np.allclose(direct.values, spec.values, atol=1e-10)


def test_true_discrepancy_halfopen_box_on_lattice():
    assert true_discrepancy(lattice(16, d=2), Box((0, 0), (0.5, 0.5))) == 0.0


def test_true_discrepancy_extremes():
    ball = Ball((0.5, 0.5), 0.25)
    inside = PointSet(np.full((10, 2), 0.5), {"kind": "explicit"})
    assert true_discrepancy(inside, ball) == pytest.approx(1 - ball.measure())


def test_true_discrepancy_matches_bruteforce_loop():
    ball = Ball((0.5, 0.5), 0.25)
    ps = lattice(1024, d=2)
    count = 0
    for p in ps.points:
        dx = min(abs(p[0] - 0.5), 1 - abs(p[0] - 0.5))
        dy = min(abs(p[1] - 0.5), 1 - abs(p[1] - 0.5))
        if np.hypot(dx, dy) <= 0.25:
            count += 1
    assert true_discrepancy(ps, ball) == pytest.approx(
        abs(ball.measure() - count / 1024), abs=0)


def test_discrepancy_range_bound():
    rng = np.random.default_rng(0)
    ball = Ball((0.3, 0.6), 0.2)
    for _ in range(5):
        pts = PointSet(rng.random((50, 2)), {"kind": "explicit"})
        disc = true_discrepancy(pts, ball)
        assert 0 <= disc <= max(ball.measure(), 1 - ball.measure())


def test_lattice_refinement_shrinks_ball_discrepancy():
    # slope in log m at most -(1/2)(1 - 0.15) for a generic ball
    ball = Ball((0.51, 0.53), 0.25)
    ms = [256, 1024, 4096]
    discs = [true_discrepancy(lattice(m, d=2), ball) for m in ms]
    slope = np.polyfit(np.log(ms), np.log(discs), 1)[0]
    assert slope <= -0.5 * (1 - 0.15)


def test_schmidt_resonance_detected():
    with pytest.raises(ResonanceError):
        schmidt_sum((0.5,), 3.0)


def test_schmidt_sum_monotone_and_log_bounded():
    x = (SQRT2M1, SQRT3M1)
    vals = [schmidt_sum(x, R) for R in (64, 128, 256, 512)]
    assert np.all(np.diff(vals) >= 0)
    ratios = [v / np.log(1 + R) ** 3 for v, R in zip(vals, (64, 128, 256, 512))]
    assert max(ratios) / min(ratios) < 4


def test_descriptor_round_trip():
    for ps in (lattice(16, d=2), kronecker((SQRT2M1, SQRT3M1), 10), korobov((1, 3), 5)):
        again = pointset_from_descriptor(ps.descriptor)
        assert np.allclose(again.points, ps.points)

