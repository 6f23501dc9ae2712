"""Composite Gauss-Legendre nodes.

Small shared layer: the kernel build panelizes [a, b] with 16-point
Gauss-Legendre panels, and the polygon's low-frequency transform uses the
plain rule. A caller that needs an error estimate (the bump normalization,
the autocorrelation) compares two panel counts itself and raises
QuadratureError when they disagree beyond its tolerance.
"""

from __future__ import annotations

import numpy as np

# points per panel of `panel_nodes`
PANEL_ORDER = 16

_LEGENDRE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1], cached per order."""
    if order not in _LEGENDRE_CACHE:
        _LEGENDRE_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _LEGENDRE_CACHE[order]


def panel_nodes(a: float, b: float, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite rule with `panels` equal panels on [a, b]."""
    x, w = gauss_nodes(PANEL_ORDER)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    nodes = (mid[:, None] + half * x[None, :]).ravel()
    weights = np.broadcast_to(half * w, (panels, PANEL_ORDER)).ravel()
    return nodes, weights
