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
  reflected).  The order m doubles from 16, on the ladder the output maps
  take too (quadrature._resolve), until F and Gamma at m and 2m agree to a
  relative 1e-10, and the 2m values are returned; unresolved at m = 1024 a
  point raises quadrature.UnresolvedError.  Gamma also counts as resolved
  when its change is within what rounding alone makes of it at the two
  orders, m eps times the sums of absolute terms of g: at
  w = k pi, Int c vanishes and Gamma sits at round-off.  A scan
  evaluates each order once for all its points still pending, in batches
  of at most max(1, _BLOCK // m^2) points (128 at m = 16, 1 from m = 256
  on), so a batch stays as large as one kernel block; every row keeps the
  bits of its point alone, and a scan raises what its first failing point
  raises alone;

* the transfer-matrix route propagates the diagonal input covariance
  through the lattice map (via the adjoint sweep, so no matrix is built)
  and works for arbitrary kappa2, Omega.

The exchange light <-> spin maps one protocol onto the other exactly, so
the memory engine below mirrors the readout formulas with q in place of
omega and (v_y, v_z) in place of (v1, v2).

``scan`` is the one dispatch to the two routes: ``readout_variances`` and
``memory_variances`` are scans of one point.  ``general_variances`` takes
arbitrary filters on the matrix route.  The module returns variances only;
the CSV columns and headers are runner.py's.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .kernels import (_BLOCK, _check_blue_wing, _check_kappa_c, kernel_cross_scaled,
                      kernel_self_scaled)
from .lattice import _bin_layout, _group_size, check_stability, transfer_adjoint_apply
from .model import DimensionlessGroups, Grid, canonical_params
from .quadrature import _RESOLVED_RTOL, PanelRule, _resolve

__all__ = [
    "VarianceBreakdown",
    "Resolution",
    "ChannelVariance",
    "readout_variances",
    "memory_variances",
    "general_variances",
    "scan",
    "ScanResult",
]

_MIN_SCAN_GRID = 64


class Resolution(NamedTuple):
    """Evidence of a closed-form point: the final order m of the tensor rule,
    the relative change of F and Gamma from order m/2, and the relative
    change of Gamma that rounding alone can make (its floor)."""

    order: int
    f_change: float
    gamma_change: float
    gamma_floor: float


class VarianceBreakdown(NamedTuple):
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
    if math.cos(w) == 1.0:
        # |w| below about 1.05e-8: every exact average rounds to 1, while the
        # sine differences over w lose their digits, or underflow to one bin
        return np.ones(n)
    edges = np.arange(n + 1) / n
    return (np.sin(w * edges[1:]) - np.sin(w * edges[:-1])) * n / w


def _filter_norms(kappa_c: list[float], w: float, m: int) -> tuple[list, float]:
    """F, Gamma and Gamma's rounding bound of each kappa_c by the m x m tensor
    rule, and Int cos^2: f and g at the nodes 1 - x from the closed-form map
    applied to c(v) = cos(w (1 - v)).

    The nodes are built once per order and the cosine window once per batch,
    in the buffer of the kernel's lags; the points go to the kernels in
    batches of at most max(1, _BLOCK // m^2) points; every row is
    bit-identical to its point alone.  A point whose kernels would raise,
    or whose integrals overflow, gets the exception in place of its
    triple."""
    rule = PanelRule(m)
    # the m-point Gauss-Legendre rule mapped to [0, 1]
    x, wt = 0.5 * (1.0 + rule.x), 0.5 * rule.w
    cx = np.cos(w * (1.0 - x))
    wcx = wt * cx
    # the same weights and reduction as Int f^2, so that kappa_c = 0 gives
    # F = 1 exactly
    int_cos2 = float(np.sum(wt * cx * cx))
    # each g value is a sum of m products, so its rounding is within m eps
    # times its sum of absolute terms, spread
    gam = m * float(np.finfo(float).eps)

    # each point checked alone as the kernels check it, at the largest lag
    # x (1 - x') they compute, so that no batch raises
    top = float(x.max() * (1.0 - x).max())
    norms, ok = [None] * len(kappa_c), []
    for i, kc in enumerate(kappa_c):
        try:
            _check_kappa_c(kc)
            _check_blue_wing(kc, abs(kc) * top)
            ok.append(i)
        except (ValueError, OverflowError) as exc:
            norms[i] = exc
    size = max(1, _BLOCK // (m * m))
    for start in range(0, len(ok), size):
        idx = ok[start:start + size]
        p = len(idx)
        kc = np.array([kappa_c[i] for i in idx])[:, None, None]
        # the filters square I0/I1 values, so the blue wing can leave the
        # double range below the kernels' own argument threshold; that
        # is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            # (K * c)(x) = x Int_0^1 K(x (1 - s)) c(x s) ds
            lags = np.multiply.outer(x, 1.0 - x)
            conv = kernel_self_scaled(kc, np.broadcast_to(lags, (p, m, m)))
            # the window cos(w (1 - x s)) in the lags' place: a lone point
            # holds at most two m x m arrays at a time
            window = np.multiply.outer(x, x, out=lags)
            np.subtract(1.0, window, out=window)
            window *= w
            conv *= np.cos(window, out=window)
            f = cx - x * (conv @ wt)
            del lags, window, conv
            # g(1 - x) = Int_0^1 G(1 - v, x) c(v) dv
            gk = kernel_cross_scaled(kc, np.broadcast_to(x[:, None], (p, m, 1)), 1.0 - x)
            g = gk @ wcx
            spread = np.abs(gk, out=gk) @ np.abs(wcx)
            del gk
            int_f2 = np.sum(wt * f * f, axis=-1).tolist()
            int_g2 = np.sum(wt * g * g, axis=-1).tolist()
            int_s2 = np.sum(wt * spread * spread, axis=-1).tolist()
        for i, f2, g2, s2 in zip(idx, int_f2, int_g2, int_s2):
            if not (math.isfinite(f2) and math.isfinite(g2)):
                norms[i] = OverflowError(
                    f"closed-form variance integrals overflow at kappa_c = {kappa_c[i]:.6g}: "
                    f"Int f^2 = {f2!r}, Int g^2 = {g2!r}")
                continue
            # |delta Int g^2| <= 2 gam |g| |spread| + (gam |spread|)^2
            bound = (2.0 * gam * math.sqrt(s2) * math.sqrt(g2) + gam * gam * s2) / (2.0 * int_cos2)
            norms[i] = (f2 / int_cos2, g2 / (2.0 * int_cos2), bound)
    return norms, int_cos2


def _relative(change: float, value: float) -> float:
    """change / |value|; 0 when there is no change, inf when value = 0."""
    if not change:
        return 0.0
    return change / abs(value) if value else math.inf


def _kernel_breakdowns(kcs: list[float], ratio_r: float, w: float) -> list[VarianceBreakdown]:
    """The closed-form point of each kappa_c at the first order m whose F and
    Gamma agree with those of m/2: F to _RESOLVED_RTOL, Gamma to that or to
    the change its rounding at both orders allows.

    Each order is evaluated once for all points still pending; the call
    raises what its first failing point raises alone (UnresolvedError, or
    the OverflowError naming its kappa_c)."""
    def evaluate(m, pending):
        norms, int_cos2 = _filter_norms([kcs[i] for i in pending], w, m)
        return [n if isinstance(n, Exception) else (*n, int_cos2) for n in norms]

    def agree(i, m, coarse, fine):
        f_self, gamma, bound, int_cos2 = fine
        f_change = _relative(abs(f_self - coarse[0]), f_self)
        gamma_change = _relative(abs(gamma - coarse[1]), gamma)
        gamma_floor = _relative(bound + coarse[2], gamma)
        if f_change > _RESOLVED_RTOL or gamma_change > max(_RESOLVED_RTOL, gamma_floor):
            return (f"F = {coarse[0]!r} at order {m // 2}, {f_self!r} at order {m}; "
                    f"Gamma = {coarse[1]!r} at order {m // 2}, {gamma!r} at order {m}")
        v1 = f_self + 2.0 * ratio_r * abs(kcs[i]) * gamma
        v2 = f_self + (2.0 / ratio_r) * abs(kcs[i]) * gamma
        return VarianceBreakdown(f_self=f_self, gamma=gamma, v1=v1, v2=v2, sql=0.5 * int_cos2,
                                 resolution=Resolution(m, f_change, gamma_change, gamma_floor))

    rows, _, failures = _resolve(kcs, evaluate, agree, "closed-form variance")
    if failures:
        raise next(iter(failures.values()))
    return rows


class ScanResult(NamedTuple):
    """The VarianceBreakdown of each kappa_c of a scan, in scan order, and
    the route that computed them: "kernel" (the closed form) or "matrix"
    (the adjoint sweep); only kappa_c varies along a scan, so one route
    serves every row."""

    rows: tuple[VarianceBreakdown, ...]
    route: str


def scan(kappa_c_values, mode: str, groups: DimensionlessGroups, grid: Grid) -> ScanResult:
    """The ``mode`` ("readout" or "memory") breakdown of each kappa_c at the
    other groups of ``groups``: by the closed form when kappa2 = Omega = 0,
    the only case it covers, else by the adjoint sweep on ``grid``."""
    kcs = [float(k) for k in kappa_c_values]
    if mode not in ("readout", "memory"):
        raise ValueError(f"unknown scan mode {mode!r}")
    if not kcs:
        raise ValueError("empty scan range")
    if not (math.isfinite(groups.ratio_r) and groups.ratio_r > 0.0):
        raise ValueError(f"ratio_r must be positive and finite, got {groups.ratio_r}")
    if groups.kappa2_L == 0.0 and groups.Omega_T == 0.0:
        w = groups.omega_T if mode == "readout" else groups.q_L
        return ScanResult(tuple(_kernel_breakdowns(kcs, groups.ratio_r, w)), "kernel")
    if min(grid.n_time, grid.n_space) < _MIN_SCAN_GRID:
        raise ValueError(
            f"grid coarser than {_MIN_SCAN_GRID} rejected for matrix-route scans"
        )
    return ScanResult(tuple(_matrix_breakdowns(kcs, groups, grid, mode)), "matrix")


def readout_variances(groups: DimensionlessGroups, grid: Grid) -> VarianceBreakdown:
    """Variances of the cos(omega*t)-filtered output Stokes components."""
    return scan([groups.kappa_c], "readout", groups, grid).rows[0]


def memory_variances(groups: DimensionlessGroups, grid: Grid) -> VarianceBreakdown:
    """Variances of the cos(q*z)-filtered output spin components.

    Same machinery as the readout with the subsystem roles exchanged: the
    filter frequency is q_L, v1 holds the beta-coupled Jy observable and v2
    the eps-coupled Jz observable.
    """
    return scan([groups.kappa_c], "memory", groups, grid).rows[0]


def _channel_ratios(grid: Grid, columns) -> list[tuple[float, float, float]]:
    """For each column (params, channel, weights), |M^T y|^2 over all, light
    and spin input bins, each divided by |w|^2, for y holding ``weights`` on
    that output channel of the bin layout.

    Every input bin and every bin of the unmodified channel carries variance
    1/2, so these ratios are the SQL-normalized variance and its split.
    Every params is checked for stability before any sweep.  The columns
    then go to ``transfer_adjoint_apply`` one sweep group (``_group_size``)
    at a time, each group reduced to its ratios before the next group's y is
    built, so a long scan holds one group's y and M^T y; each column is
    bit-identical to applying it alone.  A column whose ratios leave the
    double range (the blue wing can, inside the stability limit) raises
    OverflowError naming its kappa_c.
    """
    for params, _, _ in columns:
        check_stability(params, grid)
    size = _group_size(grid)
    with np.errstate(over="ignore", invalid="ignore"):
        return [ratio for start in range(0, len(columns), size)
                for ratio in _group_ratios(grid, columns[start:start + size])]


def _group_ratios(grid: Grid, columns) -> list[tuple[float, float, float]]:
    """``_channel_ratios`` of the columns of one adjoint sweep."""
    nt = grid.n_time
    # y goes straight into the call, which lets it go before the sweep
    mty = transfer_adjoint_apply([params for params, _, _ in columns], grid,
                                 _channel_weights(grid, columns))
    ratios = []
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


def _channel_weights(grid: Grid, columns) -> np.ndarray:
    """y (dim, columns): each column's weights on its channel of the bin layout."""
    layout = _bin_layout(grid.n_time, grid.n_space)
    y = np.zeros((2 * grid.n_time + 2 * grid.n_space, len(columns)))
    for c, (_, channel, weights) in enumerate(columns):
        y[layout[channel], c] = weights
    return y


def _matrix_breakdowns(kappa_c: list[float], groups: DimensionlessGroups, grid: Grid,
                       mode: str) -> list[VarianceBreakdown]:
    """Transfer-matrix covariance route, exact for kappa2, Omega != 0: the
    point of each kappa_c at the other groups of ``groups``.

    Each point gives two columns: the cosine weights on (Xi1, Xi2) for
    readout or (Jy, Jz) for memory, the beta-coupled observable first.
    """
    if mode == "readout":
        n, channels, w = grid.n_time, ("xi1", "xi2"), groups.omega_T
    else:
        n, channels, w = grid.n_space, ("jy", "jz"), groups.q_L
    weights = _cos_bin_averages(w, n)
    # canonical embedding has unit means
    sql = 0.5 * float(weights @ weights) / n
    params = [canonical_params(kc, groups.ratio_r, groups.kappa2_L, groups.Omega_T)
              for kc in kappa_c]
    ratios = _channel_ratios(grid, [(p, channel, weights) for p in params
                                    for channel in channels])
    out = []
    for kc, (v1, light, spin), (v2, _, _) in zip(kappa_c, ratios[::2], ratios[1::2]):
        f_self, cross = (light, spin) if mode == "readout" else (spin, light)
        # the conjugate part of v1 is 2 r |kappa_c| Gamma, free of v1 - F's cancellation
        coupling = 2.0 * groups.ratio_r * abs(kc)
        gamma = cross / coupling if coupling else 0.0
        out.append(VarianceBreakdown(f_self=f_self, gamma=gamma, v1=v1, v2=v2, sql=sql))
    return out


class ChannelVariance(NamedTuple):
    """One observable's absolute and SQL-normalized variance split."""

    channel: str
    normalized: float
    light_part: float
    spin_part: float
    sql: float


def general_variances(params, grid: Grid, filter_time: np.ndarray,
                      filter_space: np.ndarray) -> dict[str, ChannelVariance]:
    """Quadratic-form variances for arbitrary output filters: the
    ChannelVariance of each channel by its name, in the order xi1, xi2, jz,
    jy.

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
    norms = []
    for name, f in (("filter_time", ft), ("filter_space", fs)):
        if not np.all(np.isfinite(f)):
            raise ValueError(f"{name} has a non-finite sample")
        # the squared norm that the channel ratios divide by
        norms.append(float(f @ f))
        if norms[-1] == 0.0:
            raise ValueError(f"{name} is all zero or its squared norm underflows: "
                             "the variances are normalized by its norm")
    # absolute SQL of coherent (Poissonian) inputs under each filter
    light_sql = 0.5 * params.xi3_bar * norms[0] * grid.dt(params.time_T)
    spin_sql = 0.5 * params.jx_bar * norms[1] * grid.dz(params.length_L)
    filters = (("xi1", ft, light_sql), ("xi2", ft, light_sql),
               ("jz", fs, spin_sql), ("jy", fs, spin_sql))
    ratios = _channel_ratios(grid, [(params, name, w) for name, w, _ in filters])
    return {name: ChannelVariance(channel=name, normalized=normalized, light_part=light,
                                  spin_part=spin, sql=sql)
            for (name, _, sql), (normalized, light, spin) in zip(filters, ratios)}
