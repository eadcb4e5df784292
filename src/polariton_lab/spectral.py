"""Laplace/Fourier mode picture: the dispersion law and wavepacket transport.

The temporal Laplace modes (variable s) and spatial Laplace modes (variable
p) of the coupled system are locked by the dispersion law p(s) = A/s with
A = -2*beta*eps*xi3_bar*jx_bar.  On the Fourier section s = -i*omega,
p = i*q this gives q*omega = A and the correlation wavepacket transports at
the group velocity v_g = d omega/d q = -A/q^2, positive on the red wing.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import integrate_stacked
from .model import Grid, PhysicalParams

__all__ = [
    "dispersion_p_of_s",
    "group_velocity",
    "measure_packet_velocity",
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
    if q * q == 0.0:
        raise ValueError(f"group velocity undefined at q = {q!r}: q^2 is 0")
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


def measure_packet_velocity(params: PhysicalParams, q0: float, bandwidth: float) -> float:
    """Transport speed of a narrowband spin wavepacket, from the lattice.

    A Gaussian spin packet centered at wavenumber q0 radiates light; the
    light signal is recorded at two probe planes downstream and the group
    delay is read off the envelope peak of their cross-correlation.  The
    lattice is built around the packet and its transit, with a spatial
    step of 1/48 of the packet wavelength.

    Requires a >= 0 (red wing); returns 0.0 when no signal propagates (a=0).
    Raises ValueError when no light reaches the probe planes or the delay
    read off the correlation is not positive.
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
    if q * q == 0.0:
        raise ValueError(f"q0 = {q0!r}: (q0*L)^2 underflows to 0")
    sig_q = bandwidth * L
    lam = 2.0 * math.pi / q
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

    dz = lam / 48.0
    # dz <= 2*pi/(48q) and dt <= 2*pi*q/(40a): a*dz*dt <= pi^2/480, a stable cell
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
    if not (np.any(s1) and np.any(s2)):
        raise ValueError(f"no light signal reaches the probe planes at a = {a_phys:.6g}")
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
    if not lag > 0.0:
        raise ValueError(f"packet delay between the probe planes is not positive: {lag!r}")
    v_scaled = (p1 - p0) * dz / lag
    return v_scaled * L / T
