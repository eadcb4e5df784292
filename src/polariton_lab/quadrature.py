"""Composite Gauss-Legendre quadrature on grid-aligned panels.

Panels coincide with the uniform grid bins; a partial panel is one more
pair of edges.  Eight nodes per panel keeps the smooth oscillatory
Bessel-product integrands of the sampled output maps (kernels.py,
spectral.py) well below 1e-10 relative error at the reference grids, with
fully deterministic node placement.  The closed-form variance needs no grid
and uses its own tensor rule (variance.py).
"""

from __future__ import annotations

import numpy as np

__all__ = ["PanelRule", "panel_nodes", "prefix_integrals"]

DEFAULT_ORDER = 8


class PanelRule:
    """Cached Gauss-Legendre nodes/weights on [-1, 1] of a given order."""

    _cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __new__(cls, order: int = DEFAULT_ORDER):
        if order < 4:
            raise ValueError(f"panel order must be >= 4, got {order}")
        if order not in cls._cache:
            cls._cache[order] = np.polynomial.legendre.leggauss(order)
        rule = object.__new__(cls)
        rule.x, rule.w = cls._cache[order]
        rule.order = order
        return rule


def panel_nodes(edges: np.ndarray, rule: PanelRule) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for panels defined by consecutive ``edges``.

    Returns arrays of shape (n_panels, order).
    """
    lo = edges[:-1, None]
    hi = edges[1:, None]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return mid + half * rule.x[None, :], half * rule.w[None, :]


def prefix_integrals(f, edges: np.ndarray, rule: PanelRule | None = None) -> np.ndarray:
    """Cumulative integral of ``f`` from edges[0] to every edge.

    Returns an array c with c[k] = integral over [edges[0], edges[k]];
    c[0] = 0.  Used to evaluate convolution filters in O(1) per point.
    """
    rule = rule or PanelRule()
    x, w = panel_nodes(edges, rule)
    per_panel = np.sum(w * f(x), axis=1)
    out = np.empty(edges.size)
    out[0] = 0.0
    np.cumsum(per_panel, out=out[1:])
    return out
