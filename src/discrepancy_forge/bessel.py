"""The Bessel function J1 with numpy alone, for the disc's Fourier transform.

A ball of radius r in T^2 has coefficients r J1(2 pi r |k|) / |k|, so every
bound or sandwich on a ball needs J1 at a few hundred thousand points. This
module gives it without importing scipy, in Cephes's split (Moshier 1989)
with Chebyshev series in place of its rational fits:

- for x <= 8, J1(x) = x sum_k c_k T_k(t) with t = 2 (x/8)^2 - 1;
- for x > 8, J1(x) = (pi x)^(-1/2) (P (sin x - cos x) + (Q / x) (sin x + cos x)),
  P and Q Chebyshev series in t = 2 (8/x)^2 - 1. These are cos(x - 3 pi / 4)
  and sin(x - 3 pi / 4) of the Hankel form, written through sin x and cos x
  so that no rounded x - 3 pi / 4 enters.

The 17 + 14 + 16 coefficients are literals generated with mpmath at 40
digits by tools/bessel_coefficients.py. On [0, 5000] the error is within
1e-15 min(1, x^(-1/2)) of mpmath (scipy's j1 reaches about 1e-13 at large x).

The d = 2 kernel build keeps scipy.special's j0 and j1. It needs about 11M
J0 values, which this module does not give, and scipy is loaded for them
anyway; its 2.6M J1 values are faster there, and its tables stay bitwise
those of the cache format. The two implementations share no code and serve
different workloads.
"""

from __future__ import annotations

import numpy as np

# Chebyshev coefficients from tools/bessel_coefficients.py: J1(x) / x for x <= 8,
# and the Hankel factors P and Q for x > 8
_J1_SMALL = (
    0.08104484632565812,
    -0.1489751450676521,
    0.1609992623572097,
    -0.08268049176681791,
    0.022213639654966037,
    -0.003646940600769276,
    0.0004050337728354822,
    -3.255554866857259e-05,
    1.9858774049915165e-06,
    -9.521984756750436e-08,
    3.687133759097148e-09,
    -1.178026622695885e-10,
    3.160154580348003e-12,
    -7.221755239651773e-14,
    1.4232144003513942e-15,
    -2.4441972916190464e-17,
    3.6912682997929334e-19,
)
_J1_P = (
    1.0009030408600137,
    0.0008989898330859408,
    -3.987284300488908e-06,
    6.177633960644299e-08,
    -1.8718907491063067e-09,
    8.816898659582339e-11,
    -5.704863640395645e-12,
    4.699195515230542e-13,
    -4.6842237839904895e-14,
    5.452674896044717e-15,
    -7.221180842274018e-16,
    1.0667689114335412e-16,
    -1.7312313216116335e-17,
    3.0492991197665872e-18,
)
_J1_Q = (
    0.3742222965562826,
    -0.0007702178839325664,
    7.3108922063643636e-06,
    -1.676782510726674e-07,
    6.583354662120443e-09,
    -3.749090950541556e-10,
    2.8121750359748866e-11,
    -2.61145253946232e-12,
    2.8774212663332235e-13,
    -3.649001916061838e-14,
    5.206626366226707e-15,
    -8.215318025458595e-16,
    1.4141084390211833e-16,
    -2.626761589838529e-17,
    5.2192649196714085e-18,
    -1.101261718787959e-18,
)


def _chebyshev(coeffs: tuple, t: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] T_k(t), by Clenshaw's recurrence."""
    t2 = 2.0 * t
    b1 = b2 = np.zeros_like(t)
    for c in coeffs[:0:-1]:
        b1, b2 = c + t2 * b1 - b2, b1
    return coeffs[0] + t * b1 - b2


def j1(x) -> np.ndarray:
    """J1(x) for finite x >= 0, elementwise."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x <= 8.0
    xs = x[small]
    out[small] = xs * _chebyshev(_J1_SMALL, xs * xs / 32.0 - 1.0)
    xl = x[~small]
    t = 128.0 / (xl * xl) - 1.0
    sin, cos = np.sin(xl), np.cos(xl)
    out[~small] = (_chebyshev(_J1_P, t) * (sin - cos)
                   + _chebyshev(_J1_Q, t) / xl * (sin + cos)) / np.sqrt(np.pi * xl)
    return out
