"""Laplace/Fourier mode picture: dispersion, transport, and identity checks.

The temporal Laplace modes (variable s) and spatial Laplace modes (variable
p) of the coupled system are locked by the dispersion law p(s) = A/s with
A = -2*beta*eps*xi3_bar*jx_bar.  On the Fourier section s = -i*omega,
p = i*q this gives q*omega = A and the correlation wavepacket transports at
the group velocity v_g = d omega/d q = -A/q^2, positive on the red wing.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import _output_map
from .lattice import integrate_stacked
from .model import FieldRecord, Grid, PhysicalParams, SpinRecord
from .quadrature import PanelRule, panel_nodes

__all__ = [
    "dispersion_p_of_s",
    "group_velocity",
    "measure_packet_velocity",
    "laplace_identity_residual",
    "plane_wave_max_error",
]


def dispersion_p_of_s(A: float, s: complex) -> complex:
    """Spatial Laplace variable coupled to temporal variable s: p = A/s."""
    if s == 0:
        raise ValueError("dispersion has a pole at s = 0")
    if not (math.isfinite(A) and math.isfinite(abs(s))):
        raise ValueError("non-finite dispersion input")
    return A / s


def group_velocity(A: float, q: float) -> float:
    """Transport speed of the correlation wavepacket, v_g = -A/q^2."""
    if q == 0:
        raise ValueError("group velocity undefined at q = 0")
    if not (math.isfinite(A) and math.isfinite(q)):
        raise ValueError("non-finite group-velocity input")
    return -A / (q * q)


def _bandpass(x: np.ndarray, dt: float, w_lo: float, w_hi: float) -> np.ndarray:
    spec = np.fft.rfft(x)
    w = 2.0 * np.pi * np.fft.rfftfreq(x.size, dt)
    spec[(w < w_lo) | (w > w_hi)] = 0.0
    return np.fft.irfft(spec, n=x.size)


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    """x + i*H[x] for real 1-D x: positive frequencies doubled, negative ones zeroed."""
    n = x.size
    spec = np.fft.fft(x)
    spec[1:(n + 1) // 2] *= 2.0
    spec[n // 2 + 1:] = 0.0
    return np.fft.ifft(spec)


def measure_packet_velocity(params: PhysicalParams, grid: Grid,
                            q0: float, bandwidth: float) -> float:
    """Transport speed of a narrowband spin wavepacket, from the lattice.

    A Gaussian spin packet centered at wavenumber q0 radiates light; the
    light signal is recorded at two probe planes downstream and the group
    delay is read off the envelope peak of their cross-correlation.  The
    lattice is extended internally beyond the sample box so the packet and
    its transit fit; the caller grid sets the spatial sampling density
    (at least 8 points per packet wavelength are required).

    Requires a >= 0 (red wing); returns 0.0 when no signal propagates (a=0).
    """
    if params.kappa2 != 0.0 or params.omega != 0.0:
        raise ValueError("packet transport is measured in the kappa2 = Omega = 0 regime")
    a_phys = params.a_coupling
    if a_phys < 0.0:
        raise ValueError("packet transport measurement requires a >= 0 (red wing)")
    if not q0 or not math.isfinite(q0):
        raise ValueError("q0 must be nonzero and finite")
    if bandwidth <= 0.0 or bandwidth > 0.2 * abs(q0):
        raise ValueError("bandwidth must lie in (0, 0.2*|q0|] for a narrowband packet")

    # scaled problem on the extended domain, lengths in L, times in T
    L, T = params.length_L, params.time_T
    a = a_phys * L * T
    q = abs(q0) * L
    sig_q = bandwidth * L
    lam = 2.0 * math.pi / q
    ppw_user = lam / (1.0 / grid.n_space)
    if ppw_user < 8.0:
        raise ValueError(
            f"packet not resolvable on grid: {ppw_user:.2f} points per wavelength < 8"
        )
    if a == 0.0:
        return 0.0

    sig_z = 1.0 / sig_q
    z0 = 3.5 * sig_z
    v_g = a / (q * q)
    planes = (z0 + 2.5 * sig_z, z0 + 3.5 * sig_z)
    z_run = planes[1] + 0.7 * sig_z
    sig_tau = sig_z / v_g
    t_run = (planes[1] - z0) / v_g + 5.0 * sig_tau
    w_carrier = a / q

    dz = lam / min(48.0, max(8.0, ppw_user))
    # dz <= 2*pi/(8q) and dt <= 2*pi*q/(40a): a*dz*dt <= pi^2/80, a stable cell
    dt = min(2.0 * math.pi / w_carrier / 40.0, sig_tau / 200.0)
    nz = int(math.ceil(z_run / dz))
    nt = int(math.ceil(t_run / dt))
    dz = z_run / nz
    dt = t_run / nt

    run_params = PhysicalParams(
        beta=math.sqrt(a / 2.0), epsilon=math.sqrt(a / 2.0),
        xi3_bar=1.0, jx_bar=1.0, time_T=t_run,
    )
    zc = (np.arange(nz) + 0.5) * dz
    w = np.stack([
        np.cos(q * zc) * np.exp(-((zc - z0) / (math.sqrt(2.0) * sig_z)) ** 2),
        np.zeros(nz),
    ])
    # light at plane p depends only on spin columns <= p, so two chained
    # integrates, over columns [0, p0] and (p0, p1], give the Xi1 rows right
    # after columns p0 and p1
    p0, p1 = (int(zp / dz) for zp in planes)
    u = np.zeros((2, nt))
    signals = []
    for cols in (slice(0, p0 + 1), slice(p0 + 1, p1 + 1)):
        n = cols.stop - cols.start
        u, _ = integrate_stacked(run_params._replace(length_L=n * dz), Grid(nt, n), u, w[:, cols])
        signals.append(u[0])
    s1, s2 = signals
    if max(np.max(np.abs(s1)), np.max(np.abs(s2))) < 1e-12:
        return 0.0
    s1 = _bandpass(s1, dt, 0.55 * w_carrier, 1.55 * w_carrier)
    s2 = _bandpass(s2, dt, 0.55 * w_carrier, 1.55 * w_carrier)
    corr = np.correlate(s2, s1, mode="full")
    env = np.abs(_analytic_signal(corr))
    k = int(np.argmax(env))
    shift = 0.0
    if 0 < k < env.size - 1:
        denom = env[k - 1] - 2.0 * env[k] + env[k + 1]
        if denom != 0.0:
            shift = 0.5 * (env[k - 1] - env[k + 1]) / denom
    lag = (k + shift - (nt - 1)) * dt
    if lag <= 0.0:
        return 0.0
    v_scaled = (p1 - p0) * dz / lag
    return v_scaled * L / T


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
    [field], _ = _output_map(kc, xo.ravel(), [(xi_sc, jz_sc, cb)])
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
    """Max output-record error of the exact traveling wave under the lattice.

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
    xi = FieldRecord.from_functions(
        lambda t: np.cos(omega * t), lambda t: np.zeros_like(t),
        grid.n_time, params.time_T)
    sp = SpinRecord.from_functions(
        lambda z: amp * np.sin(q * z), lambda z: np.zeros_like(z),
        grid.n_space, params.length_L)
    u, w = integrate_stacked(params, grid, np.stack([xi.xi1, xi.xi2]), np.stack([sp.jz, sp.jy]))
    t = (np.arange(grid.n_time) + 0.5) * grid.dt(params.time_T)
    z = (np.arange(grid.n_space) + 0.5) * grid.dz(params.length_L)
    exact_field = np.cos(q * params.length_L - omega * t)
    exact_spin = amp * np.sin(q * z - omega * params.time_T)
    return max(
        float(np.max(np.abs(u[0] - exact_field))),
        float(np.max(np.abs(w[0] - exact_spin))),
    )
