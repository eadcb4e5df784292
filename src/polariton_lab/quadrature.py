"""Composite Gauss-Legendre quadrature on grid-aligned panels.

Panels coincide with the uniform grid bins; a partial panel is one more
pair of edges.  Eight nodes per panel carry the Laplace transforms of the
test suite's identity check (tests/oracles.py), with fully deterministic
node placement.  The closed-form output maps (kernels.py) and variance
(variance.py) need no grid: each takes one m-point rule mapped to [0, 1] on
the one order ladder, ``_resolve``, doubling m from 16 until two orders
agree; each consumer gives it only its evaluation and its agreement test.

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

Orders 16 and 32 are tabulated: every closed-form point takes both, since
the ladder starts at 16 and resolves a point only when two orders agree, and
building them costs a cold scan about 650 small numpy calls, a quarter of
its run.  The table holds each rule's nonnegative half as the shortest float
literals that round-trip, printed with repr from _gauss_legendre(m), so the
rules keep its bits; it is regenerated that way, never edited by hand.  Every
other order (8 for the identity check's panels, 64 to 1024 at strong
coupling) is built on first use.  Every rule is read-only, since the cache is
shared by every later call in the process.
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
    return _mirrored(m, x, w)


def _mirrored(m: int, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The m-point rule on [-1, 1], ascending and read-only, from its
    nonnegative nodes x, descending, and their weights w."""
    # the negative half excludes the middle node of an odd order
    rule = (np.concatenate((-x[:m // 2], x[::-1])),
            np.concatenate((w[:m // 2], w[::-1])))
    for a in rule:
        a.flags.writeable = False
    return rule


# (node, weight) of the nonnegative half of each tabulated order, nodes
# descending: the repr of each pair of zip(x[m // 2:][::-1], w[m // 2:][::-1])
# with x, w = _gauss_legendre(m)
_HALVES = {
    16: ((0.9894009349916499, 0.027152459411754083),
         (0.9445750230732326, 0.0622535239386479),
         (0.8656312023878318, 0.09515851168249286),
         (0.755404408355003, 0.12462897125553384),
         (0.6178762444026438, 0.14959598881657682),
         (0.45801677765722737, 0.16915651939500265),
         (0.2816035507792589, 0.18260341504492356),
         (0.09501250983763744, 0.18945061045506836)),
    32: ((0.9972638618494816, 0.007018610009470115),
         (0.9856115115452683, 0.01627439473090557),
         (0.9647622555875064, 0.025392065309262028),
         (0.9349060759377397, 0.03427386291302128),
         (0.8963211557660521, 0.042835898022226655),
         (0.84936761373257, 0.05099805926237613),
         (0.7944837959679424, 0.05868409347853547),
         (0.7321821187402897, 0.0658222227763619),
         (0.6630442669302152, 0.07234579410884859),
         (0.5877157572407623, 0.0781938957870705),
         (0.5068999089322294, 0.08331192422694676),
         (0.42135127613063533, 0.08765209300440388),
         (0.33186860228212767, 0.09117387869576396),
         (0.23928736225213706, 0.09384439908080454),
         (0.1444719615827965, 0.09563872007927485),
         (0.0483076656877383, 0.09654008851472785)),
}


# Orders m of the closed-form ladder: doubled from the first until the
# results at m and m/2 agree to a relative _RESOLVED_RTOL
_FIRST_ORDER = 16
_MAX_ORDER = 1024
_RESOLVED_RTOL = 1e-10


class UnresolvedError(ValueError):
    """A closed-form result not resolved at Gauss-Legendre order _MAX_ORDER:
    a component of the output map (kernels.py), or a variance point
    (variance.py)."""


def _resolve(kappa_c: list[float], evaluate, agree, what: str) -> tuple[list, dict, dict]:
    """The closed-form ladder over items j of kappa_c[j]: ``evaluate(m,
    pending)`` gives each pending item's value at order m, or the exception
    that fails it; ``agree(j, m, coarse, fine)`` the item's result from its
    values at m/2 and m, or a string saying how they differ.

    Each item keeps the result of the first order that agrees.  A kappa_c
    fails at the first order where one of its items, the first in order,
    fails or is unresolved at _MAX_ORDER; from then on no item of it, or of
    a kappa_c first seen after it, is evaluated.  Returns the results, the
    last order at which each kappa_c was evaluated, and {kappa_c: exception}
    in order of first sight, its first entry being what a caller raises."""
    results, coarse, orders, failures, first = [None] * len(kappa_c), {}, {}, {}, {}
    for j, kc in enumerate(kappa_c):
        first.setdefault(kc, j)
    pending, m = list(range(len(kappa_c))), _FIRST_ORDER
    while pending:
        for j, fine in zip(pending, evaluate(m, pending)):
            kc = kappa_c[j]
            orders[kc] = m
            if kc in failures:
                continue
            if j in coarse and not isinstance(fine, Exception):
                result = agree(j, m, coarse[j], fine)
                if not isinstance(result, str):
                    results[j] = result
                    continue
                if m == _MAX_ORDER:
                    fine = UnresolvedError(f"{what} at kappa_c = {kc:.6g} is not resolved by "
                                           f"Gauss-Legendre order {_MAX_ORDER}: {result}")
            if isinstance(fine, Exception):
                failures[kc] = fine
            coarse[j] = fine
        cut = min((first[kc] for kc in failures), default=len(kappa_c))
        pending = [j for j in pending if results[j] is None and first[kappa_c[j]] < cut]
        m *= 2
    return results, orders, {kc: failures[kc] for kc in first if kc in failures}


class PanelRule:
    """Cached Gauss-Legendre nodes ``x`` (ascending) and weights ``w`` on
    [-1, 1] of a given order, read-only: tabulated in _HALVES or built by
    _gauss_legendre."""

    _cache: dict[int, tuple[np.ndarray, np.ndarray]] = {
        m: _mirrored(m, *np.array(half).T) for m, half in _HALVES.items()}

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
