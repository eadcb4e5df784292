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

* the kernel route (kappa2 = Omega = 0 only) evaluates the closed-form
  filter functions by composite Gauss-Legendre quadrature,

      f(t') = cos(w t') - Int_{t'}^1 cos(w u) K(u - t') du
      g(z') = Int_0^1 cos(w u) G(1 - z', u) du

  giving v1 = F + 2 r |kappa_c| Gamma and v2 = F + (2/r) |kappa_c| Gamma
  with F = Int f^2 / Int cos^2 and Gamma = Int g^2 / (2 Int cos^2);

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

import numpy as np

from .kernels import _apply_kernel, kernel_cross_scaled, kernel_self_scaled
from .lattice import transfer_adjoint_apply
from .model import DimensionlessGroups, Grid, canonical_params
from .quadrature import PanelRule, panel_nodes, prefix_integrals

__all__ = [
    "VarianceBreakdown",
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
    """

    f_self: float
    gamma: float
    v1: float
    v2: float
    sql: float


def _cos_bin_averages(w: float, n: int) -> np.ndarray:
    """Exact bin averages of cos(w*x) on n uniform bins of [0, 1]."""
    edges = np.arange(n + 1) / n
    if w == 0.0:
        return np.ones(n)
    return (np.sin(w * edges[1:]) - np.sin(w * edges[:-1])) * n / w


def _filter_self_sq_integral(kappa_c: float, w: float, n: int,
                             rule: PanelRule) -> tuple[float, float]:
    """(Int f^2, Int cos^2) over [0,1] with the same panel rule.

    f(t') = cos(w t')(1 - C(1-t')) + sin(w t') S(1-t') where C, S are the
    cumulative cosine/sine transforms of the self-kernel; both are carried
    on the grid prefix plus one partial panel per evaluation point.
    """
    edges = np.arange(n + 1) / n
    cos_k = lambda u: np.cos(w * u) * kernel_self_scaled(kappa_c, u)
    sin_k = lambda u: np.sin(w * u) * kernel_self_scaled(kappa_c, u)
    pref_c = prefix_integrals(cos_k, edges, rule)
    pref_s = prefix_integrals(sin_k, edges, rule)

    x, wt = panel_nodes(edges, rule)   # outer nodes t'
    x = x.ravel()
    wt = wt.ravel()
    v = 1.0 - x                        # upper limits of the C/S integrals
    bins = np.minimum((v * n).astype(int), n - 1)
    lo = edges[bins]
    # partial panel [lo, v] for each point
    mid = 0.5 * (lo + v)
    half = 0.5 * (v - lo)
    px = mid[:, None] + half[:, None] * rule.x[None, :]
    pw = half[:, None] * rule.w[None, :]
    c_v = pref_c[bins] + np.sum(pw * cos_k(px), axis=1)
    s_v = pref_s[bins] + np.sum(pw * sin_k(px), axis=1)
    f = np.cos(w * x) * (1.0 - c_v) + np.sin(w * x) * s_v
    int_f2 = float(np.sum(wt * f * f))
    cosx = np.cos(w * x)
    int_cos2 = float(np.sum(wt * cosx * cosx))
    return int_f2, int_cos2


def _filter_cross_sq_integral(kappa_c: float, w: float, n: int,
                              rule: PanelRule) -> float:
    """Int_0^1 g(z')^2 dz' with g(z') = Int_0^1 cos(w u) G(1-z', u) du."""
    x, wt = panel_nodes(np.arange(n + 1) / n, rule)
    x = x.ravel()
    wt = wt.ravel()
    g = _apply_kernel(lambda r, u: kernel_cross_scaled(kappa_c, r, u),
                      1.0 - x, x, wt * np.cos(w * x))
    return float(np.sum(wt * g * g))


def _kernel_breakdown(kappa_c: float, ratio_r: float, w: float, n: int,
                      mean_density: float = 1.0) -> VarianceBreakdown:
    rule = PanelRule()
    # the filters square I0/I1 values, so the blue wing can leave the double
    # range below the kernels' own argument threshold; that raises here
    with np.errstate(over="ignore", invalid="ignore"):
        int_f2, int_cos2 = _filter_self_sq_integral(kappa_c, w, n, rule)
        int_g2 = _filter_cross_sq_integral(kappa_c, w, n, rule)
    if not (math.isfinite(int_f2) and math.isfinite(int_g2)):
        raise OverflowError(
            f"closed-form variance integrals overflow at kappa_c = {kappa_c:.6g}: "
            f"Int f^2 = {int_f2!r}, Int g^2 = {int_g2!r}"
        )
    f_self = int_f2 / int_cos2
    gamma = int_g2 / (2.0 * int_cos2)
    coupling = 2.0 * ratio_r * abs(kappa_c)
    v1 = f_self + coupling * gamma
    v2 = f_self + (2.0 / ratio_r) * abs(kappa_c) * gamma
    sql = 0.5 * mean_density * int_cos2
    return VarianceBreakdown(f_self=f_self, gamma=gamma, v1=v1, v2=v2, sql=sql)


def _validate_scan_args(groups: DimensionlessGroups, grid: Grid) -> None:
    if not (math.isfinite(groups.ratio_r) and groups.ratio_r > 0.0):
        raise ValueError(f"ratio_r must be positive and finite, got {groups.ratio_r}")
    if min(grid.n_time, grid.n_space) < _MIN_SCAN_GRID:
        raise ValueError(
            f"grid coarser than {_MIN_SCAN_GRID} rejected for variance scans"
        )


def readout_variances(groups: DimensionlessGroups, grid: Grid) -> VarianceBreakdown:
    """Variances of the cos(omega*t)-filtered output Stokes components."""
    _validate_scan_args(groups, grid)
    if groups.kappa2_L == 0.0 and groups.Omega_T == 0.0:
        return _kernel_breakdown(groups.kappa_c, groups.ratio_r,
                                 groups.omega_T, grid.n_time)
    return _matrix_breakdown(groups, grid, mode="readout")


def memory_variances(groups: DimensionlessGroups, grid: Grid) -> VarianceBreakdown:
    """Variances of the cos(q*z)-filtered output spin components.

    Same machinery as the readout with the subsystem roles exchanged: the
    filter frequency is q_L, v1 holds the beta-coupled Jy observable and v2
    the eps-coupled Jz observable.
    """
    _validate_scan_args(groups, grid)
    if groups.kappa2_L == 0.0 and groups.Omega_T == 0.0:
        return _kernel_breakdown(groups.kappa_c, groups.ratio_r,
                                 groups.q_L, grid.n_space)
    return _matrix_breakdown(groups, grid, mode="memory")


def _matrix_breakdown(groups: DimensionlessGroups, grid: Grid,
                      mode: str) -> VarianceBreakdown:
    """Transfer-matrix covariance route, exact for kappa2, Omega != 0."""
    params = canonical_params(groups.kappa_c, groups.ratio_r,
                              groups.kappa2_L, groups.Omega_T)
    nt, ns = grid.n_time, grid.n_space
    dim = 2 * nt + 2 * ns
    if mode == "readout":
        cw = _cos_bin_averages(groups.omega_T, nt)
        blocks = {"beta": slice(0, nt), "eps": slice(nt, 2 * nt)}
        self_slice = slice(0, 2 * nt)
    else:
        cw = _cos_bin_averages(groups.q_L, ns)
        # Jy is the beta-coupled memory observable
        blocks = {"beta": slice(2 * nt + ns, dim), "eps": slice(2 * nt, 2 * nt + ns)}
        self_slice = slice(2 * nt, dim)
    denom = float(cw @ cw)
    out = {}
    f_self = None
    for name, block in blocks.items():
        y = np.zeros(dim)
        y[block] = cw
        mty = transfer_adjoint_apply(params, grid, y)
        out[name] = float(mty @ mty) / denom
        if name == "beta":
            f_self = float(mty[self_slice] @ mty[self_slice]) / denom
    coupling = 2.0 * groups.ratio_r * abs(groups.kappa_c)
    gamma = (out["beta"] - f_self) / coupling if coupling else 0.0
    mean = 1.0  # canonical embedding has unit means
    int_cos2 = denom / (nt if mode == "readout" else ns)
    return VarianceBreakdown(
        f_self=f_self, gamma=gamma, v1=out["beta"], v2=out["eps"],
        sql=0.5 * mean * int_cos2,
    )


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
    dim = 2 * nt + 2 * ns
    ft = np.asarray(filter_time, float)
    fs = np.asarray(filter_space, float)
    if ft.shape != (nt,) or fs.shape != (ns,):
        raise ValueError(
            f"filters must have shapes ({nt},) and ({ns},), got {ft.shape}, {fs.shape}"
        )
    # coherent (Poissonian) inputs: variance 1/2 in every normalized bin
    diag = np.full(dim, 0.5)
    slices = {
        "xi1": (slice(0, nt), ft),
        "xi2": (slice(nt, 2 * nt), ft),
        "jz": (slice(2 * nt, 2 * nt + ns), fs),
        "jy": (slice(2 * nt + ns, dim), fs),
    }
    light_slice = slice(0, 2 * nt)
    spin_slice = slice(2 * nt, dim)
    dt = grid.dt(params.time_T)
    dz = grid.dz(params.length_L)
    channels = []
    for name, (block, w) in slices.items():
        y = np.zeros(dim)
        y[block] = w
        mty = transfer_adjoint_apply(params, grid, y)
        var = float(mty @ (diag * mty))
        sql_norm = float(w @ (diag[block] * w))
        light = float(mty[light_slice] @ (diag[light_slice] * mty[light_slice]))
        spin = float(mty[spin_slice] @ (diag[spin_slice] * mty[spin_slice]))
        if name.startswith("xi"):
            sql_abs = 0.5 * params.xi3_bar * float(w @ w) * dt
        else:
            sql_abs = 0.5 * params.jx_bar * float(w @ w) * dz
        channels.append(ChannelVariance(
            channel=name,
            normalized=var / sql_norm,
            light_part=light / sql_norm,
            spin_part=spin / sql_norm,
            sql=sql_abs,
        ))
    return GeneralVarianceResult(tuple(channels))


@dataclass(frozen=True)
class ScanRow:
    kappa_c: float
    abscissa: float
    f_self: float
    gamma: float
    v1: float
    v2: float
    sql: float


@dataclass(frozen=True)
class ScanResult:
    """One VarianceBreakdown row per abscissa value, deterministic order."""

    mode: str
    rows: tuple[ScanRow, ...]

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
    rows = []
    for kc in kcs:
        g = DimensionlessGroups(
            a_coupling=kc, kappa_c=kc, ratio_r=groups.ratio_r,
            omega_T=groups.omega_T, q_L=groups.q_L,
            kappa2_L=groups.kappa2_L, Omega_T=groups.Omega_T,
            beta_J=math.nan, beta_xi3_T=math.nan,
        )
        br = readout_variances(g, grid) if mode == "readout" else memory_variances(g, grid)
        rows.append(ScanRow(
            kappa_c=kc,
            abscissa=kc / (2.0 * eps_conversion),
            f_self=br.f_self,
            gamma=br.gamma,
            v1=br.v1,
            v2=br.v2,
            sql=br.sql,
        ))
    return ScanResult(mode=mode, rows=tuple(rows))
