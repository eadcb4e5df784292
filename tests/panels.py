"""Reference integrals by composite Gauss-Legendre panels cut at grid edges."""

import numpy as np

from polariton_lab.quadrature import PanelRule, panel_nodes


def integrate_panels(f, a: float, b: float, grid_edges: np.ndarray,
                     rule: PanelRule | None = None) -> float:
    """Integrate callable ``f`` over [a, b] with panels cut at grid edges."""
    if b <= a:
        return 0.0
    rule = rule or PanelRule()
    inner = grid_edges[(grid_edges > a) & (grid_edges < b)]
    edges = np.concatenate([[a], inner, [b]])
    x, w = panel_nodes(edges, rule)
    return float(np.sum(w * f(x)))
