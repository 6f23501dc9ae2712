"""The numpy J1 against mpmath, and its coefficients against their generator."""

import importlib.util
from pathlib import Path

import mpmath as mp
import numpy as np

from discrepancy_forge import bessel

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "bessel_coefficients.py"


def test_j1_matches_mpmath_within_2e_15_of_its_envelope():
    rng = np.random.default_rng(0)
    x = np.concatenate([[0.0, 1e-300, np.nextafter(8.0, 0.0), 8.0, np.nextafter(8.0, 9.0), 5000.0],
                        rng.uniform(0.0, 16.0, 1000), rng.uniform(0.0, 5000.0, 1000)])
    with mp.workdps(30):
        expected = np.array([float(mp.besselj(1, mp.mpf(v))) for v in x])
    envelope = np.minimum(1.0, np.where(x > 0, x, 1.0) ** -0.5)
    assert np.all(np.abs(bessel.j1(x) - expected) <= 2e-15 * envelope)
    assert bessel.j1(np.array([0.0]))[0] == 0.0


def test_coefficients_are_the_generator_output():
    spec = importlib.util.spec_from_file_location("bessel_coefficients", GENERATOR)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    coefficients = generator.coefficients()
    assert coefficients == {"SMALL": bessel._J1_SMALL, "P": bessel._J1_P, "Q": bessel._J1_Q}
