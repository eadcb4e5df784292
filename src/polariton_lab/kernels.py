"""Closed-form input-output map for the uncoupled-rotation regime.

With zero birefringence and zero precession the coupled light-spin system
reduces to a Goursat problem whose fundamental solution is known in closed
form.  Working in scaled coordinates (zeta, tau) on the unit square with
kappa_c = a*L*T, the self-kernel and cross-kernel are

    a > 0:  K(u) = sqrt(kappa_c/u) * J1(2*sqrt(kappa_c*u)),
            G(x, t) = J0(2*sqrt(kappa_c*x*t))
    a < 0:  J1 -> -I1 and J0 -> I0 with |kappa_c| in the arguments
    a = 0:  K = 0, G = 1 (transparency)

K has a finite limit K(0+) = kappa_c, so all quadratures below are over
smooth integrands.  The output maps are

    Xi1(L,t) = Xi1_in(t) - (K*Xi1_in)(t) + 2*beta*xi3 * Int G(L-z',t) Jz_in(z') dz'
    Xi2(L,t) = Xi2_in(t) - (K*Xi2_in)(t) - 2*eps*xi3  * Int G(L-z',t) Jy_in(z') dz'
    Jz(z,T)  = Jz_in(z) - (K*Jz_in)(z) - eps*jx  * Int G(z,T-t') Xi1_in(t') dt'
    Jy(z,T)  = Jy_in(z) - (K*Jy_in)(z) + beta*jx * Int G(z,T-t') Xi2_in(t') dt'

These forms are validated against the direct lattice integrator in the test
suite before anything downstream relies on them.

The two kernel functions below are the only place Bessel values are
computed, with scipy.special's Cephes routines.  Against a 40-digit oracle
J0 and J1 hold an error below 1e-12 of the amplitude envelope
sqrt(2/(pi*x)) for arguments up to 1e4, and I0 and I1 a relative error
below 1e-12 up to 700.  Domain contract: a non-finite kappa_c raises
ValueError, and a blue-wing argument above ``I_OVERFLOW_X`` raises
OverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .model import Grid, PhysicalParams
from .quadrature import PanelRule, panel_nodes

__all__ = [
    "I_OVERFLOW_X",
    "FieldRecord",
    "SpinRecord",
    "kernel_self_scaled",
    "kernel_cross_scaled",
    "output_field",
    "output_spin",
]

_TINY = 1e-300

# exp(x)/sqrt(2 pi x) crosses the double range just above 713; the margin
# keeps I0/I1 themselves finite.  Products of them can still overflow: the
# variance filters square them, and variance._kernel_breakdown then raises
# OverflowError naming kappa_c.
I_OVERFLOW_X = 709.0


def _check_kappa_c(kappa_c: float) -> None:
    if not math.isfinite(kappa_c):
        raise ValueError(f"kappa_c must be finite, got {kappa_c!r}")


def _check_blue_wing_argument(kappa_c: float, arg: np.ndarray) -> None:
    if arg.size and np.max(arg) > I_OVERFLOW_X:
        raise OverflowError(
            f"modified Bessel argument {np.max(arg):.6g} at kappa_c = {kappa_c:.6g} "
            f"exceeds overflow threshold {I_OVERFLOW_X}"
        )


def kernel_self_scaled(kappa_c: float, u):
    """Scaled self-kernel K(u) on u in [0, 1]; K(0+) = kappa_c exactly."""
    _check_kappa_c(kappa_c)
    u = np.asarray(u, dtype=float)
    if kappa_c == 0.0:
        return np.zeros_like(u)
    mag = abs(kappa_c)
    arg = 2.0 * np.sqrt(mag * np.clip(u, 0.0, None))
    amp = np.sqrt(mag / np.maximum(u, _TINY))
    if kappa_c > 0.0:
        val = amp * _sp.j1(arg)
    else:
        _check_blue_wing_argument(kappa_c, arg)
        val = -amp * _sp.i1(arg)
    return np.where(u <= 0.0, kappa_c, val)


def kernel_cross_scaled(kappa_c: float, x, t):
    """Scaled cross-kernel G(x, t) for x, t in [0, 1]; G = 1 at a = 0."""
    _check_kappa_c(kappa_c)
    prod = np.clip(np.asarray(x, dtype=float) * np.asarray(t, dtype=float), 0.0, None)
    if kappa_c == 0.0:
        return np.ones_like(prod)
    if kappa_c > 0.0:
        return _sp.j0(2.0 * np.sqrt(kappa_c * prod))
    arg = 2.0 * np.sqrt(-kappa_c * prod)
    _check_blue_wing_argument(kappa_c, arg)
    return _sp.i0(arg)


def _centers(n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) / n


def _validate_samples(name: str, arr, n: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite samples")
    return arr


@dataclass(frozen=True)
class FieldRecord:
    """Stokes component samples Xi1(t), Xi2(t) at bin centers, fixed z."""

    xi1: np.ndarray
    xi2: np.ndarray

    def __post_init__(self):
        n = len(self.xi1)
        object.__setattr__(self, "xi1", _validate_samples("xi1", self.xi1, n))
        object.__setattr__(self, "xi2", _validate_samples("xi2", self.xi2, n))

    @property
    def n(self) -> int:
        return self.xi1.size

    @classmethod
    def from_functions(cls, f_xi1, f_xi2, n_time: int, time_T: float = 1.0) -> "FieldRecord":
        t = _centers(n_time) * time_T
        return cls(np.asarray(f_xi1(t), float), np.asarray(f_xi2(t), float))

    @classmethod
    def zeros(cls, n_time: int) -> "FieldRecord":
        return cls(np.zeros(n_time), np.zeros(n_time))


@dataclass(frozen=True)
class SpinRecord:
    """Transverse spin samples Jz(z), Jy(z) at bin centers, fixed t."""

    jz: np.ndarray
    jy: np.ndarray

    def __post_init__(self):
        n = len(self.jz)
        object.__setattr__(self, "jz", _validate_samples("jz", self.jz, n))
        object.__setattr__(self, "jy", _validate_samples("jy", self.jy, n))

    @property
    def n(self) -> int:
        return self.jz.size

    @classmethod
    def from_functions(cls, f_jz, f_jy, n_space: int, length_L: float = 1.0) -> "SpinRecord":
        z = _centers(n_space) * length_L
        return cls(np.asarray(f_jz(z), float), np.asarray(f_jy(z), float))

    @classmethod
    def zeros(cls, n_space: int) -> "SpinRecord":
        return cls(np.zeros(n_space), np.zeros(n_space))


def _interp_uniform_centers(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation of center samples onto scaled points x.

    Center j sits at (j + 1/2)/n.  Four-point stencils are clamped at the
    edges, so points in the outer half-bins are extrapolated at O(h^4).
    """
    n = values.size
    if n < 4:
        # quadrature grids this coarse are rejected upstream; linear fallback
        idx = np.clip(x * n - 0.5, 0.0, n - 1.0)
        lo = np.clip(np.floor(idx).astype(int), 0, n - 2)
        frac = idx - lo
        return values[lo] * (1 - frac) + values[lo + 1] * frac
    p = x * n - 0.5
    base = np.clip(np.floor(p).astype(int) - 1, 0, n - 4)
    s = p - base
    v0 = values[base]
    v1 = values[base + 1]
    v2 = values[base + 2]
    v3 = values[base + 3]
    w0 = -(s - 1) * (s - 2) * (s - 3) / 6.0
    w1 = s * (s - 2) * (s - 3) / 2.0
    w2 = -s * (s - 1) * (s - 3) / 2.0
    w3 = s * (s - 1) * (s - 2) / 6.0
    return w0 * v0 + w1 * v1 + w2 * v2 + w3 * v3


def _causal_self_convolution(kappa_c: float, f, n: int, offsets,
                             rule: PanelRule) -> np.ndarray:
    """(K * f)(tau) = Int_0^tau K(tau - x) f(x) dx at tau = (b + o)/n.

    ``f`` is a callable on scaled coordinates, ``offsets`` the positions o in
    [0, 1) of the outputs inside each of the n bins b; returns shape
    (n, len(offsets)).  Panels are the bins left of b plus one partial panel
    [b/n, tau].  The lag from node k of bin b' to the output is
    (b - b' + o - (1 + x_k)/2)/n, a function of the bin distance alone, so
    the full bins are one causal discrete convolution per (node, offset).
    """
    h = 1.0 / n
    x, w = panel_nodes(np.arange(n + 1) * h, rule)       # (n, order)
    fw = w * f(x)
    frac = 0.5 * (1.0 + rule.x)                          # node positions in a bin
    bins = np.arange(n)
    out = np.empty((n, len(offsets)))
    for i, o in enumerate(offsets):
        # the partial panel [b/n, tau] has lags o*h*(1 - frac) in every bin
        px = (bins[:, None] + o * frac[None, :]) * h
        pw = 0.5 * o * h * rule.w
        acc = f(px) @ (pw * kernel_self_scaled(kappa_c, o * h * (1.0 - frac)))
        for k in range(rule.order):
            lags = kernel_self_scaled(kappa_c, (bins[1:] + (o - frac[k])) * h)
            acc[1:] += np.convolve(fw[:-1, k], lags)[:n - 1]
        out[:, i] = acc
    return out


# kernel values per dense block (4 MiB of float64), whatever the grid: at
# grid 512 a block is 128 rows of 4096 quadrature nodes
_BLOCK_ELEMENTS = 2 ** 19


def _apply_kernel(kernel, a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """out[i] = sum_j kernel(a[i], b[j]) * w[j], built in row blocks of at most
    ``_BLOCK_ELEMENTS`` kernel values; ``kernel`` takes broadcast 2-D arguments."""
    rows = max(1, _BLOCK_ELEMENTS // max(b.size, 1))
    out = np.empty(a.size)
    for lo in range(0, a.size, rows):
        out[lo:lo + rows] = kernel(a[lo:lo + rows, None], b[None, :]) @ w
    return out


def _self_convolution(kappa_c: float, samples: np.ndarray, rule: PanelRule) -> np.ndarray:
    """(K * f)(tau_j) at every bin center tau_j, f the cubic interpolant of samples."""
    f = lambda x: _interp_uniform_centers(samples, x)
    return _causal_self_convolution(kappa_c, f, samples.size, (0.5,), rule)[:, 0]


def _cross_integral(kappa_c: float, source: np.ndarray, n_out: int,
                    rule: PanelRule) -> np.ndarray:
    """Int_0^1 G(1 - node, c_j) * source(node) d(node) at every output center c_j.

    The source lives on its own unit interval (n_source bins); outputs are
    the n_out bin centers of the conjugate axis.
    """
    x, w = panel_nodes(np.arange(source.size + 1) / source.size, rule)
    x = x.ravel()
    wf = w.ravel() * _interp_uniform_centers(source, x)
    return _apply_kernel(lambda t, r: kernel_cross_scaled(kappa_c, r, t),
                         _centers(n_out), 1.0 - x, wf)


def output_field(params: PhysicalParams, grid: Grid, xi_in: FieldRecord,
                 spin_in: SpinRecord) -> FieldRecord:
    """Light record at z = L from input light (z=0) and input spins (t=0)."""
    if xi_in.n != grid.n_time or spin_in.n != grid.n_space:
        raise ValueError("input records do not match the grid")
    rule = PanelRule()
    kc = params.a_coupling * params.length_L * params.time_T
    conv1 = _self_convolution(kc, xi_in.xi1, rule)
    conv2 = _self_convolution(kc, xi_in.xi2, rule)
    crossz = _cross_integral(kc, spin_in.jz, grid.n_time, rule)
    crossy = _cross_integral(kc, spin_in.jy, grid.n_time, rule)
    cb = 2.0 * params.beta * params.xi3_bar * params.length_L
    ce = 2.0 * params.epsilon * params.xi3_bar * params.length_L
    return FieldRecord(
        xi1=xi_in.xi1 - conv1 + cb * crossz,
        xi2=xi_in.xi2 - conv2 - ce * crossy,
    )


def output_spin(params: PhysicalParams, grid: Grid, xi_in: FieldRecord,
                spin_in: SpinRecord) -> SpinRecord:
    """Spin record at t = T from input light (z=0) and input spins (t=0)."""
    if xi_in.n != grid.n_time or spin_in.n != grid.n_space:
        raise ValueError("input records do not match the grid")
    rule = PanelRule()
    kc = params.a_coupling * params.length_L * params.time_T
    conv_z = _self_convolution(kc, spin_in.jz, rule)
    conv_y = _self_convolution(kc, spin_in.jy, rule)
    # G(z, T - t'): residual in the time integral is 1 - tau'
    cross1 = _cross_integral(kc, xi_in.xi1, grid.n_space, rule)
    cross2 = _cross_integral(kc, xi_in.xi2, grid.n_space, rule)
    ce = params.epsilon * params.jx_bar * params.time_T
    cb = params.beta * params.jx_bar * params.time_T
    return SpinRecord(
        jz=spin_in.jz - conv_z - ce * cross1,
        jy=spin_in.jy - conv_y + cb * cross2,
    )
