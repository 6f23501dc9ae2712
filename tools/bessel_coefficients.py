"""Generate the Chebyshev coefficients of `discrepancy_forge.bessel`.

    python3 tools/bessel_coefficients.py

prints the three coefficient tuples as Python literals. Each series is
interpolated at the 40 Chebyshev nodes of its variable t in [-1, 1], with
J1 and Y1 from mpmath at 40 significant digits, then truncated and rounded
to the nearest double:

- SMALL, J1(x) / x for 0 <= x <= 8, in t = 2 (x/8)^2 - 1;
- P and Q, for x > 8, in t = 2 (8/x)^2 - 1. With the Hankel form
  J1(x) + i Y1(x) = (2 / (pi x))^(1/2) (P + i Q / x) exp(i (x - 3 pi / 4)),
  P tends to 1 and Q to 3/8 as x grows.

TERMS keeps each series up to its first coefficient below 1e-18 (1e-19 for
SMALL, whose sum is multiplied by x <= 8). tests/test_bessel.py re-runs this
script and compares the committed literals exactly.
"""

from __future__ import annotations

import mpmath as mp

NODES = 40
TERMS = {"SMALL": 17, "P": 14, "Q": 16}


def _chebyshev_series(f, terms: int) -> list:
    """The first `terms` Chebyshev coefficients of f on [-1, 1], by
    interpolation at the NODES Chebyshev points (coefficient 0 halved)."""
    angles = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    values = [f(mp.cos(a)) for a in angles]
    coeffs = [2 * mp.fsum(v * mp.cos(k * a) for v, a in zip(values, angles)) / NODES
              for k in range(terms)]
    coeffs[0] /= 2
    return coeffs


def _small(t):
    x = 8 * mp.sqrt((t + 1) / 2)
    return mp.besselj(1, x) / x


def _hankel(t):
    """P + i Q at x = 8 / ((t + 1) / 2)^(1/2)."""
    x = 8 / mp.sqrt((t + 1) / 2)
    h = (mp.besselj(1, x) + 1j * mp.bessely(1, x)) * mp.sqrt(mp.pi * x / 2) \
        * mp.exp(-1j * (x - 3 * mp.pi / 4))
    return mp.mpc(h.real, h.imag * x)


def coefficients() -> dict:
    """{"SMALL", "P", "Q"} -> tuple of float Chebyshev coefficients."""
    with mp.workdps(40):
        series = {"SMALL": _chebyshev_series(_small, TERMS["SMALL"]),
                  "P": _chebyshev_series(lambda t: _hankel(t).real, TERMS["P"]),
                  "Q": _chebyshev_series(lambda t: _hankel(t).imag, TERMS["Q"])}
    return {name: tuple(float(c) for c in cs) for name, cs in series.items()}


def main() -> None:
    for name, coeffs in coefficients().items():
        print(f"_J1_{name} = (")
        for c in coeffs:
            print(f"    {c!r},")
        print(")")


if __name__ == "__main__":
    main()
