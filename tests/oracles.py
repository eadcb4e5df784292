"""Checks on a solution, kept beside the tests that run them.

The Laplace-domain identity of the finite-domain solution and the exact
travelling wave of the kappa2 = Omega = 0 system test the closed-form and
lattice routes; neither is part of computing a solution.
"""

from __future__ import annotations

import math

import numpy as np

from polariton_lab.kernels import _output_map
from polariton_lab.lattice import integrate_stacked
from polariton_lab.model import Grid, PhysicalParams, _centers
from polariton_lab.quadrature import PanelRule, panel_nodes


def laplace_identity_residual(params: PhysicalParams, grid: Grid, s: float,
                              xi1_in, jz_in) -> float:
    """Relative residual of the finite-domain Laplace-transformed solution.

    Checks  X(L,s) = exp(-(a/s)L) X(0,s)
                     + (2 beta xi3 / s) Int_0^L exp(-(a/s)(L-z')) Jz_in(z') dz'
    where X(z,s) is evaluated by continuing the kernel solution to t beyond T
    and truncating the transform at s*t >= 40.  Inputs are callables of the
    physical coordinates, compactly supported in (0,T) and (0,L).
    """
    if params.kappa2 != 0.0 or params.omega != 0.0:
        raise ValueError("Laplace identity requires kappa2 = Omega = 0")
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError("s must be real and positive")
    a = params.a_coupling
    if a < 0.0:
        raise ValueError("a < 0 rejected: the time continuation diverges on the blue wing")

    L, T = params.length_L, params.time_T
    kc = a * L * T
    s_sc = s * T
    cb = 2.0 * params.beta * params.xi3_bar * L
    xi_sc = lambda tau: np.asarray(xi1_in(np.asarray(tau) * T), float)
    jz_sc = lambda zeta: np.asarray(jz_in(np.asarray(zeta) * L), float)

    rule = PanelRule()
    t_max = 40.0 / s_sc
    n = grid.n_time
    # transform panels: grid bins up to min(t_max, 1), rounded up to a bin
    # edge (exp(-s*t) < exp(-40) past t_max), then steps of 0.25 to t_max
    n_inside = min(n, math.ceil(t_max * n))
    edges = np.arange(n_inside + 1) / n
    if t_max > 1.0:
        edges = np.concatenate([edges, np.arange(1.0, t_max, 0.25)[1:], [t_max]])
    xo, wo = panel_nodes(edges, rule)
    # the kernel solution continued past t = 1, where the input's support ends
    [field], _, failed = _output_map(xo.ravel(), [kc], lambda x: [xi_sc(x)],
                                     lambda x: [jz_sc(x)], [cb])
    if failed:
        raise failed[kc]
    lhs = float(np.sum(wo.ravel() * np.exp(-s_sc * xo.ravel()) * field))

    edges_in = np.linspace(0.0, 1.0, n + 1)
    xi_nodes, wi = panel_nodes(edges_in, rule)
    xi_nodes = xi_nodes.ravel()
    wi = wi.ravel()
    xin_hat = float(np.sum(wi * np.exp(-s_sc * xi_nodes) * xi_sc(xi_nodes)))
    spin_hat = float(np.sum(
        wi * np.exp(-(kc / s_sc) * (1.0 - xi_nodes)) * jz_sc(xi_nodes)
    ))
    rhs = math.exp(-kc / s_sc) * xin_hat + (cb / s_sc) * spin_hat
    return abs(lhs - rhs) / max(abs(rhs), 1e-300)


def plane_wave_max_error(params: PhysicalParams, grid: Grid,
                         omega: float) -> float:
    """Max output error of the exact traveling wave under the lattice.

    The wave pair Xi1 = cos(qz - omega*t), Jz = (eps*jx/omega) sin(qz - omega*t)
    with q = A/omega solves the kappa2 = Omega = 0 system exactly; the lattice
    solution must reproduce it to O(h^2).
    """
    if params.kappa2 != 0.0 or params.omega != 0.0:
        raise ValueError("plane-wave check requires kappa2 = Omega = 0")
    if omega == 0.0:
        raise ValueError("omega must be nonzero")
    A = -params.a_coupling
    q = A / omega
    amp = params.epsilon * params.jx_bar / omega
    t = _centers(grid.n_time) * params.time_T
    z = _centers(grid.n_space) * params.length_L
    u, w = integrate_stacked(params, grid, np.stack([np.cos(omega * t), np.zeros_like(t)]),
                             np.stack([amp * np.sin(q * z), np.zeros_like(z)]))
    exact_field = np.cos(q * params.length_L - omega * t)
    exact_spin = amp * np.sin(q * z - omega * params.time_T)
    return max(
        float(np.max(np.abs(u[0] - exact_field))),
        float(np.max(np.abs(w[0] - exact_spin))),
    )
