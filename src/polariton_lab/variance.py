"""SQL-normalized variances of the mode-filtered output observables.

Readout observables are Int_0^T cos(omega*t) Xi_i_out(t) dt; memory
observables are Int_0^L cos(q*z) J_mu_out(z) dz.  Input fluctuations are
white, symmetric-ordered, and uncorrelated between the subsystems
(Poissonian light, coherent-spin-state atoms), which makes every normalized
bin of the transfer-matrix layout carry variance 1/2.  All reported numbers
are ratios to the standard quantum limit, the variance the same filter
produces on the unmodified inputs, so the absolute noise-density convention
cancels.

Two independent routes compute the same quantities:

* the kernel route (kappa2 = Omega = 0 only) uses the closed-form filter
  functions

      f(t') = cos(w t') - Int_{t'}^1 cos(w u) K(u - t') du
      g(z') = Int_0^1 cos(w u) G(1 - z', u) du

  giving v1 = F + 2 r |kappa_c| Gamma and v2 = F + (2/r) |kappa_c| Gamma
  with F = Int f^2 / Int cos^2 and Gamma = Int g^2 / (2 Int cos^2).
  Both filters are the closed-form map of kernels.py applied to the
  reversed cosine c(v) = cos(w (1 - v)): f(1 - x) = c(x) - (K * c)(x) is
  its self part and g(1 - x) = Int_0^1 G(1 - v, x) c(v) dv its cross part.
  So F and Gamma are squared norms of that map's output, as |M^T y|^2 is
  on the matrix route.  With s = x sigma the self part is
  (K * c)(x) = x Int_0^1 K(x (1 - sigma)) c(x sigma) dsigma, and both
  integrands are entire on [0, 1]^2, so one m-point Gauss-Legendre rule in
  each variable gives Int f^2 and Int g^2 with exponential convergence and
  no grid (the rule is symmetric under x -> 1 - x, so nothing is
  reflected).  The order m doubles from 16 until F and Gamma at m and 2m
  agree to a relative 1e-10, and the 2m values are returned; unresolved
  at m = 1024 a point raises kernels.UnresolvedError;

* the transfer-matrix route propagates the diagonal input covariance
  through the lattice map (via the adjoint sweep, so no matrix is built)
  and works for arbitrary kappa2, Omega.

The exchange light <-> spin maps one protocol onto the other exactly, so
the memory engine below mirrors the readout formulas with q in place of
omega and (v_y, v_z) in place of (v1, v2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .kernels import UnresolvedError, kernel_cross_scaled, kernel_self_scaled
from .lattice import _bin_layout, transfer_adjoint_apply
from .model import DimensionlessGroups, Grid, canonical_params
from .quadrature import PanelRule

__all__ = [
    "VarianceBreakdown",
    "Resolution",
    "GeneralVarianceResult",
    "ChannelVariance",
    "readout_variances",
    "memory_variances",
    "general_variances",
    "scan",
    "ScanResult",
    "ScanRow",
]

_MIN_SCAN_GRID = 64

# Orders m of the closed-form variance's tensor Gauss-Legendre rule: doubled
# from the first until F and Gamma at m and 2m agree to a relative
# _RESOLVED_RTOL; a point the largest order does not resolve raises
_FIRST_ORDER = 16
_MAX_ORDER = 1024
_RESOLVED_RTOL = 1e-10


class Resolution(NamedTuple):
    """Evidence of a closed-form point: the final order m of the tensor rule
    and the relative change of F and Gamma from order m/2."""

    order: int
    f_change: float
    gamma_change: float


@dataclass(frozen=True)
class VarianceBreakdown:
    """SQL-normalized variance split for one protocol point.

    f_self : contribution of the observed subsystem's own input fluctuations
             (the F of the readout protocol; F_spin for memory)
    gamma  : shared cross-coupling integral; the conjugate-subsystem
             contributions are 2*r*|kappa_c|*gamma and (2/r)*|kappa_c|*gamma
    v1     : total normalized variance of the beta-coupled observable
             (Xi1_out for readout, Jy_out for memory)
    v2     : total normalized variance of the eps-coupled observable
             (Xi2_out for readout, Jz_out for memory)
    sql    : absolute normalization (mean/2) * Int cos^2 in the run units
    resolution : the closed-form route's Resolution; None on the matrix route
    """

    f_self: float
    gamma: float
    v1: float
    v2: float
    sql: float
    resolution: Resolution | None = None


def _cos_bin_averages(w: float, n: int) -> np.ndarray:
    """Exact bin averages of cos(w*x) on n uniform bins of [0, 1]."""
    edges = np.arange(n + 1) / n
    if w == 0.0:
        return np.ones(n)
    return (np.sin(w * edges[1:]) - np.sin(w * edges[:-1])) * n / w


def _filter_norms(kappa_c: float, w: float, m: int) -> tuple[float, float, float]:
    """F, Gamma and Int cos^2 by the m x m tensor rule: f and g at the nodes
    1 - x from the closed-form map applied to c(v) = cos(w (1 - v))."""
    rule = PanelRule(m)
    # the m-point Gauss-Legendre rule mapped to [0, 1]
    x, wt = 0.5 * (1.0 + rule.x), 0.5 * rule.w
    cx = np.cos(w * (1.0 - x))
    # the filters square I0/I1 values, so the blue wing can leave the double
    # range below the kernels' own argument threshold; that raises here
    with np.errstate(over="ignore", invalid="ignore"):
        # (K * c)(x) = x Int_0^1 K(x (1 - s)) c(x s) ds
        conv = kernel_self_scaled(kappa_c, np.multiply.outer(x, 1.0 - x))
        conv *= np.cos(w * (1.0 - np.multiply.outer(x, x)))
        f = cx - x * (conv @ wt)
        # g(1 - x) = Int_0^1 G(1 - v, x) c(v) dv
        g = kernel_cross_scaled(kappa_c, x[:, None], 1.0 - x[None, :]) @ (wt * cx)
        int_f2 = float(np.sum(wt * f * f))
        int_g2 = float(np.sum(wt * g * g))
    if not (math.isfinite(int_f2) and math.isfinite(int_g2)):
        raise OverflowError(
            f"closed-form variance integrals overflow at kappa_c = {kappa_c:.6g}: "
            f"Int f^2 = {int_f2!r}, Int g^2 = {int_g2!r}"
        )
    # the same weights as Int f^2, so that kappa_c = 0 gives F = 1 exactly
    int_cos2 = float(np.sum(wt * cx * cx))
    return int_f2 / int_cos2, int_g2 / (2.0 * int_cos2), int_cos2


def _kernel_breakdown(kappa_c: float, ratio_r: float, w: float) -> VarianceBreakdown:
    """The closed-form point at the first order m whose F and Gamma agree with
    those of m/2 to _RESOLVED_RTOL; UnresolvedError past _MAX_ORDER."""
    m = _FIRST_ORDER
    f_self, gamma, _ = _filter_norms(kappa_c, w, m)
    while m < _MAX_ORDER:
        m *= 2
        coarse = f_self, gamma
        f_self, gamma, int_cos2 = _filter_norms(kappa_c, w, m)
        f_change = abs(f_self - coarse[0]) / f_self
        gamma_change = abs(gamma - coarse[1]) / gamma
        if max(f_change, gamma_change) <= _RESOLVED_RTOL:
            v1 = f_self + 2.0 * ratio_r * abs(kappa_c) * gamma
            v2 = f_self + (2.0 / ratio_r) * abs(kappa_c) * gamma
            return VarianceBreakdown(f_self=f_self, gamma=gamma, v1=v1, v2=v2,
                                     sql=0.5 * int_cos2,
                                     resolution=Resolution(m, f_change, gamma_change))
    raise UnresolvedError(
        f"closed-form variance at kappa_c = {kappa_c:.6g} is not resolved by "
        f"Gauss-Legendre order {_MAX_ORDER}: F = {coarse[0]!r} at order {m // 2}, "
        f"{f_self!r} at order {m}; Gamma = {coarse[1]!r} at order {m // 2}, "
        f"{gamma!r} at order {m}"
    )


def _validate_scan_args(groups: DimensionlessGroups, grid: Grid) -> None:
    if not (math.isfinite(groups.ratio_r) and groups.ratio_r > 0.0):
        raise ValueError(f"ratio_r must be positive and finite, got {groups.ratio_r}")
    if min(grid.n_time, grid.n_space) < _MIN_SCAN_GRID:
        raise ValueError(
            f"grid coarser than {_MIN_SCAN_GRID} rejected for variance scans"
        )


def _kernel_route(groups: DimensionlessGroups) -> bool:
    """The closed-form kernels cover kappa2 = Omega = 0 only."""
    return groups.kappa2_L == 0.0 and groups.Omega_T == 0.0


def readout_variances(groups: DimensionlessGroups, grid: Grid) -> VarianceBreakdown:
    """Variances of the cos(omega*t)-filtered output Stokes components."""
    _validate_scan_args(groups, grid)
    if _kernel_route(groups):
        return _kernel_breakdown(groups.kappa_c, groups.ratio_r, groups.omega_T)
    return _matrix_breakdown(groups, grid, mode="readout")


def memory_variances(groups: DimensionlessGroups, grid: Grid) -> VarianceBreakdown:
    """Variances of the cos(q*z)-filtered output spin components.

    Same machinery as the readout with the subsystem roles exchanged: the
    filter frequency is q_L, v1 holds the beta-coupled Jy observable and v2
    the eps-coupled Jz observable.
    """
    _validate_scan_args(groups, grid)
    if _kernel_route(groups):
        return _kernel_breakdown(groups.kappa_c, groups.ratio_r, groups.q_L)
    return _matrix_breakdown(groups, grid, mode="memory")


def _channel_ratios(grid: Grid, columns) -> list[tuple[float, float, float]]:
    """For each column (params, channel, weights), |M^T y|^2 over all, light
    and spin input bins, each divided by |w|^2, for y holding ``weights`` on
    that output channel of the bin layout.

    Every input bin and every bin of the unmodified channel carries variance
    1/2, so these ratios are the SQL-normalized variance and its split.
    All columns are one ``transfer_adjoint_apply`` call, which checks every
    params before any sweep and keeps each column bit-identical to applying
    it alone.  A column whose ratios leave the double range (the blue wing
    can, inside the stability limit) raises OverflowError naming its kappa_c.
    """
    nt, ns = grid.n_time, grid.n_space
    layout = _bin_layout(nt, ns)
    y = np.zeros((2 * nt + 2 * ns, len(columns)))
    for c, (_, channel, weights) in enumerate(columns):
        y[layout[channel], c] = weights
    ratios = []
    with np.errstate(over="ignore", invalid="ignore"):
        mty = transfer_adjoint_apply([params for params, _, _ in columns], grid, y)
        for c, (params, channel, weights) in enumerate(columns):
            # a contiguous copy: BLAS sums a strided vector in another order
            col = np.ascontiguousarray(mty[:, c])
            light, spin = col[:2 * nt], col[2 * nt:]
            norm = float(weights @ weights)
            ratio = (float(col @ col) / norm, float(light @ light) / norm,
                     float(spin @ spin) / norm)
            if not all(map(math.isfinite, ratio)):
                raise OverflowError(
                    f"transfer-matrix variance overflows at kappa_c = {params.kappa_c:.6g}: "
                    f"{channel} ratios (all, light, spin) = {ratio!r}"
                )
            ratios.append(ratio)
    return ratios


def _matrix_breakdowns(points, grid: Grid, mode: str) -> list[VarianceBreakdown]:
    """Transfer-matrix covariance route, exact for kappa2, Omega != 0.

    Each point gives two columns: its cosine weights on (Xi1, Xi2) for
    readout or (Jy, Jz) for memory, the beta-coupled observable first.
    """
    params = [canonical_params(g.kappa_c, g.ratio_r, g.kappa2_L, g.Omega_T) for g in points]
    if mode == "readout":
        n, channels = grid.n_time, ("xi1", "xi2")
        weights = [_cos_bin_averages(g.omega_T, n) for g in points]
    else:
        n, channels = grid.n_space, ("jy", "jz")
        weights = [_cos_bin_averages(g.q_L, n) for g in points]
    ratios = _channel_ratios(grid, [(p, channel, cw) for p, cw in zip(params, weights)
                                    for channel in channels])
    out = []
    for g, cw, (v1, light, spin), (v2, _, _) in zip(points, weights,
                                                    ratios[::2], ratios[1::2]):
        f_self = light if mode == "readout" else spin
        coupling = 2.0 * g.ratio_r * abs(g.kappa_c)
        gamma = (v1 - f_self) / coupling if coupling else 0.0
        # canonical embedding has unit means
        out.append(VarianceBreakdown(f_self=f_self, gamma=gamma, v1=v1, v2=v2,
                                     sql=0.5 * float(cw @ cw) / n))
    return out


def _matrix_breakdown(groups: DimensionlessGroups, grid: Grid,
                      mode: str) -> VarianceBreakdown:
    """One point of the transfer-matrix route."""
    return _matrix_breakdowns([groups], grid, mode)[0]


@dataclass(frozen=True)
class ChannelVariance:
    """One observable's absolute and SQL-normalized variance split."""

    channel: str
    normalized: float
    light_part: float
    spin_part: float
    sql: float


@dataclass(frozen=True)
class GeneralVarianceResult:
    channels: tuple[ChannelVariance, ...]

    def __getitem__(self, name: str) -> ChannelVariance:
        for ch in self.channels:
            if ch.channel == name:
                return ch
        raise KeyError(name)


def general_variances(params, grid: Grid, filter_time: np.ndarray,
                      filter_space: np.ndarray) -> GeneralVarianceResult:
    """Quadratic-form variances for arbitrary output filters, all channels.

    filter_time samples a weight on the light output time bins (applied to
    Xi1 and Xi2), filter_space on the spin output space bins (applied to Jz
    and Jy).  With cosine windows and kappa2 = Omega = 0 this reproduces
    readout_variances / memory_variances.
    """
    nt, ns = grid.n_time, grid.n_space
    ft = np.asarray(filter_time, float)
    fs = np.asarray(filter_space, float)
    if ft.shape != (nt,) or fs.shape != (ns,):
        raise ValueError(
            f"filters must have shapes ({nt},) and ({ns},), got {ft.shape}, {fs.shape}"
        )
    for name, f in (("filter_time", ft), ("filter_space", fs)):
        if not np.all(np.isfinite(f)):
            raise ValueError(f"{name} has a non-finite sample")
    # absolute SQL of coherent (Poissonian) inputs under each filter
    light_sql = 0.5 * params.xi3_bar * float(ft @ ft) * grid.dt(params.time_T)
    spin_sql = 0.5 * params.jx_bar * float(fs @ fs) * grid.dz(params.length_L)
    filters = (("xi1", ft, light_sql), ("xi2", ft, light_sql),
               ("jz", fs, spin_sql), ("jy", fs, spin_sql))
    ratios = _channel_ratios(grid, [(params, name, w) for name, w, _ in filters])
    return GeneralVarianceResult(tuple(
        ChannelVariance(channel=name, normalized=normalized, light_part=light,
                        spin_part=spin, sql=sql)
        for (name, _, sql), (normalized, light, spin) in zip(filters, ratios)
    ))


@dataclass(frozen=True)
class ScanRow:
    kappa_c: float
    abscissa: float
    f_self: float
    gamma: float
    v1: float
    v2: float
    sql: float
    resolution: Resolution | None = None


@dataclass(frozen=True)
class ScanResult:
    """One VarianceBreakdown row per abscissa value, deterministic order.

    ``route`` is "kernel" (closed form) or "matrix" (adjoint sweep); only
    kappa_c varies along a scan, so one route serves every row.
    """

    mode: str
    rows: tuple[ScanRow, ...]
    route: str

    HEADERS = {
        "readout": ("kappa_c", "beta_J", "F_light", "Gamma", "v1", "v2", "sql"),
        "memory": ("kappa_c", "beta_xi3_T", "F_spin", "Gamma", "v_y", "v_z", "sql"),
    }

    @property
    def header(self) -> tuple[str, ...]:
        return self.HEADERS[self.mode]

    def as_rows(self) -> list[tuple[float, ...]]:
        return [
            (r.kappa_c, r.abscissa, r.f_self, r.gamma, r.v1, r.v2, r.sql)
            for r in self.rows
        ]


def scan(kappa_c_values, mode: str, groups: DimensionlessGroups, grid: Grid,
         eps_conversion: float = 0.5) -> ScanResult:
    """Variance scan over the composition parameter kappa_c = -A*L*T.

    The second abscissa column re-labels kappa_c as beta_J (readout) or
    beta_xi3_T (memory) through kappa_c = 2*beta_J*(eps*xi3*T) or
    kappa_c = 2*beta_xi3_T*(eps*jx*L); ``eps_conversion`` supplies the
    caller's value of the bracketed product (the default 0.5 makes the
    abscissa coincide numerically with kappa_c).
    """
    if mode not in ("readout", "memory"):
        raise ValueError(f"unknown scan mode {mode!r}")
    kcs = [float(k) for k in kappa_c_values]
    if not kcs:
        raise ValueError("empty scan range")
    points = [
        DimensionlessGroups(
            a_coupling=kc, kappa_c=kc, ratio_r=groups.ratio_r,
            omega_T=groups.omega_T, q_L=groups.q_L,
            kappa2_L=groups.kappa2_L, Omega_T=groups.Omega_T,
            beta_J=math.nan, beta_xi3_T=math.nan,
        )
        for kc in kcs
    ]
    route = "kernel" if _kernel_route(groups) else "matrix"
    if route == "kernel":
        point = readout_variances if mode == "readout" else memory_variances
        breakdowns = [point(g, grid) for g in points]
    else:
        _validate_scan_args(groups, grid)
        breakdowns = _matrix_breakdowns(points, grid, mode)
    rows = tuple(
        ScanRow(kappa_c=kc, abscissa=kc / (2.0 * eps_conversion), f_self=br.f_self,
                gamma=br.gamma, v1=br.v1, v2=br.v2, sql=br.sql,
                resolution=br.resolution)
        for kc, br in zip(kcs, breakdowns)
    )
    return ScanResult(mode=mode, rows=rows, route=route)
