"""Variance engine: SQL anchors, structure identities, and both routes."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polariton_lab.kernels import UnresolvedError, kernel_cross_scaled, kernel_self_scaled
from polariton_lab.model import DimensionlessGroups, Grid, canonical_params
from polariton_lab.quadrature import PanelRule, panel_nodes
from polariton_lab.variance import (
    _RESOLVED_RTOL,
    _cos_bin_averages,
    _filter_norms,
    _kernel_breakdowns,
    general_variances,
    memory_variances,
    readout_variances,
    scan,
)

from panels import integrate_panels

G256 = Grid(256, 256)


def groups(kappa_c, r=10.0, omega_T=0.5, q_L=0.0, kappa2_L=0.0, Omega_T=0.0):
    return DimensionlessGroups(kappa_c=kappa_c, ratio_r=r, omega_T=omega_T,
                               q_L=q_L, kappa2_L=kappa2_L, Omega_T=Omega_T)


# regression constants frozen from the dual-path engine at grid 512
FROZEN_512 = {
    (2.0, 0.5, 10.0): dict(F=0.18493374926279596, Gamma=0.20376656268430096,
                           v1=8.335596256634835, v2=0.26644037433651635),
    (1.0, 0.5, 10.0): dict(F=0.37726351426195615, Gamma=0.31136824286902187,
                           v1=6.604628371642393, v2=0.4395371628357605),
}


def test_sql_limit_exact():
    br = readout_variances(groups(0.0), G256)
    assert br.v1 == 1.0 and br.v2 == 1.0 and br.f_self == 1.0
    bm = memory_variances(groups(0.0, q_L=0.5), G256)
    assert bm.v1 == 1.0 and bm.v2 == 1.0


# kappa2_L = Omega_T = 0 is the kernel route, any other pair the matrix route
@pytest.mark.parametrize("route", ["kernel", "matrix"])
@settings(max_examples=5)
@given(r=st.floats(0.2, 10.0), x=st.floats(0.1, 5.0), kappa2_L=st.floats(-1.0, 1.0),
       Omega_T=st.floats(-1.0, 1.0), n_time=st.integers(64, 96), n_space=st.integers(64, 96))
def test_sql_limit_on_both_routes(route, r, x, kappa2_L, Omega_T, n_time, n_space):
    # at kappa_c = 0 light and spin decouple, and the Stokes rotation and the
    # precession keep every filtered variance at the SQL
    assume(n_time != n_space)
    if route == "kernel":
        kappa2_L = Omega_T = 0.0
    else:
        assume((kappa2_L, Omega_T) != (0.0, 0.0))
    grid = Grid(n_time, n_space)
    for mode in ("readout", "memory"):
        result = scan([0.0], mode, groups(0.0, r=r, omega_T=x, q_L=x, kappa2_L=kappa2_L,
                                          Omega_T=Omega_T), grid)
        assert result.route == route
        (row,) = result.rows
        for value in (row.f_self, row.v1, row.v2):
            assert abs(value - 1.0) <= 1e-12


@settings(max_examples=5)
@given(kappa_c=st.floats(-200.0, 200.0), r=st.floats(0.2, 10.0), x=st.floats(0.1, 5.0))
def test_readout_memory_exchange_kernel_route(kappa_c, r, x):
    # both modes integrate the same closed-form filters at w = omega_T or q_L
    assert (readout_variances(groups(kappa_c, r=r, omega_T=x), G256)
            == memory_variances(groups(kappa_c, r=r, q_L=x), G256))


@settings(max_examples=5)
@given(kappa_c=st.floats(-200.0, 200.0), r=st.floats(0.2, 10.0), x=st.floats(0.1, 5.0),
       a=st.floats(-1.0, 1.0), b=st.floats(-1.0, 1.0))
def test_readout_memory_exchange_matrix_route(kappa_c, r, x, a, b):
    # on a square grid, exchanging light and spin maps readout at
    # (kappa2_L, Omega_T, omega_T) = (a, b, x) onto memory at (b, a, x)
    assume((a, b) != (0.0, 0.0))
    grid = Grid(64, 64)
    ro = readout_variances(groups(kappa_c, r=r, omega_T=x, kappa2_L=a, Omega_T=b), grid)
    mem = memory_variances(groups(kappa_c, r=r, q_L=x, kappa2_L=b, Omega_T=a), grid)
    for got, want in ((mem.f_self, ro.f_self), (mem.v1, ro.v1), (mem.v2, ro.v2)):
        assert abs(got - want) <= 1e-12 * abs(want)
    # Gamma is (v1 - F) / (2 r |kappa_c|) on the matrix route, so its rounding
    # is v1's over that coupling (= Gamma + F / coupling), which small
    # |kappa_c| magnifies
    coupling = 2.0 * r * abs(kappa_c)
    assert abs(mem.gamma - ro.gamma) <= (1e-12 * ro.v1 / coupling if coupling else 0.0)


def test_frozen_regression_values():
    g512 = Grid(512, 512)
    for (kc, w, r), exp in FROZEN_512.items():
        br = readout_variances(groups(kc, r=r, omega_T=w), g512)
        assert math.isclose(br.f_self, exp["F"], rel_tol=1e-12)
        assert math.isclose(br.gamma, exp["Gamma"], rel_tol=1e-12)
        assert math.isclose(br.v1, exp["v1"], rel_tol=1e-12)
        assert math.isclose(br.v2, exp["v2"], rel_tol=1e-12)


@pytest.mark.parametrize("kappa_c", [0.5, -2.0, 200.0])
@pytest.mark.parametrize("w", [0.5, 3.0])
def test_kernel_breakdown_matches_filter_definitions(kappa_c, w):
    # f(t') and g(z') straight from the module docstring at each outer Gauss
    # node, panels cut at the bin edges: the tensor rule must agree.  At
    # kappa_c = 200 the reference itself needs 32 bins (16 leave 1e-10)
    n, r = 32, 10.0
    edges = np.arange(n + 1) / n
    rule = PanelRule()
    x, wt = (a.ravel() for a in panel_nodes(edges, rule))
    f = np.array([math.cos(w * tp) - integrate_panels(
        lambda u: np.cos(w * u) * kernel_self_scaled(kappa_c, u - tp), tp, 1.0, edges, rule)
        for tp in x])
    g = np.array([integrate_panels(
        lambda u: np.cos(w * u) * kernel_cross_scaled(kappa_c, 1.0 - zp, u), 0.0, 1.0, edges, rule)
        for zp in x])
    int_cos2 = float(np.sum(wt * np.cos(w * x) ** 2))
    (br,) = _kernel_breakdowns([kappa_c], r, w)
    assert math.isclose(br.f_self, float(np.sum(wt * f * f)) / int_cos2, rel_tol=1e-12)
    assert math.isclose(br.gamma, float(np.sum(wt * g * g)) / (2.0 * int_cos2), rel_tol=1e-12)
    assert math.isclose(br.sql, 0.5 * int_cos2, rel_tol=1e-12)


def test_large_coupling_resolved_at_the_coarsest_scan_grid():
    # kappa_c = 1e4 needs order 256, whatever the grid; Gamma's converged
    # value is 4.986669299e-5
    br = readout_variances(groups(1e4, omega_T=0.5), Grid(64, 64))
    ((f_256, gamma_256, _),), _ = _filter_norms([1e4], 0.5, 256)
    assert br.resolution.order == 256
    assert math.isclose(br.gamma, 4.986669299e-5, rel_tol=_RESOLVED_RTOL)
    assert math.isclose(br.f_self, f_256, rel_tol=_RESOLVED_RTOL)
    assert math.isclose(br.gamma, gamma_256, rel_tol=_RESOLVED_RTOL)
    assert max(br.resolution.f_change, br.resolution.gamma_change) <= _RESOLVED_RTOL


def test_strong_coupling_resolved_at_the_largest_order():
    # F and Gamma at orders 512 and 1024 agree to about 1e-12; with weights
    # 1e-9 off at order 1024 they were 5e-11 and 1e-10 apart, and the point
    # raised UnresolvedError
    br = readout_variances(groups(6e4, omega_T=0.5), Grid(64, 64))
    assert br.resolution.order == 1024
    assert br.resolution.f_change <= 1e-11
    assert br.resolution.gamma_change <= 1e-11


def test_unresolved_point_raises_with_both_orders():
    # kappa_c = 1e6 oscillates past what order 1024 resolves
    with pytest.raises(UnresolvedError, match=(
            r"^closed-form variance at kappa_c = 1e\+06 is not resolved by Gauss-Legendre "
            r"order 1024: F = \S+ at order 512, \S+ at order 1024; "
            r"Gamma = \S+ at order 512, \S+ at order 1024$")):
        _kernel_breakdowns([1e6], 10.0, 0.5)


@given(kappa_c=st.floats(-2.0, 2.5), w=st.floats(0.2, 4.0),
       mode=st.sampled_from(["readout", "memory"]))
def test_kernel_route_rows_do_not_depend_on_the_grid(kappa_c, w, mode):
    # the closed form reads no grid, so the matrix route's floor of 64 does
    # not apply to it
    g = groups(0.0, omega_T=w, q_L=w)
    coarse = scan([kappa_c], mode, g, Grid(32, 32))
    fine = scan([kappa_c], mode, g, Grid(512, 512))
    assert coarse.route == "kernel"
    assert coarse.rows == fine.rows


def test_strong_coupling_squeezes_one_quadrature():
    br = readout_variances(groups(2.0), G256)
    assert br.v1 > 1.0
    assert br.v2 < 1.0
    assert br.f_self < 1.0


def test_f_independent_of_r():
    a = readout_variances(groups(1.5, r=3.0), G256)
    b = readout_variances(groups(1.5, r=30.0), G256)
    assert a.f_self == b.f_self
    assert a.gamma == b.gamma


@pytest.mark.parametrize("mode", ["readout", "memory"])
def test_gamma_at_zero_coupling_follows_its_route(mode):
    # the kernel route reports Gamma's kappa_c -> 0 limit; on the matrix
    # route Gamma is the cross part of v1 over 2 r |kappa_c|, 0/0 at
    # kappa_c = 0, and reads 0, while the nearby points approach the limit.
    # v1 and v2 do not depend on Gamma at kappa_c = 0
    kernel = scan([0.0], mode, groups(0.0, omega_T=1.0, q_L=1.0), Grid(64, 64))
    matrix = scan([0.0, 1e-6], mode, groups(0.0, omega_T=1.0, q_L=1.0, kappa2_L=1e-12),
                  Grid(64, 64))
    assert (kernel.route, matrix.route) == ("kernel", "matrix")
    assert kernel.rows[0].gamma == 0.48676591932104124
    assert matrix.rows[0].gamma == 0.0
    assert math.isclose(matrix.rows[1].gamma, 0.48676941112949235, rel_tol=1e-12)
    for row in (kernel.rows[0], matrix.rows[0]):
        assert row.v1 == row.v2 == row.f_self


@pytest.mark.parametrize("mode", ["readout", "memory"])
def test_matrix_gamma_keeps_its_digits_at_tiny_coupling(mode):
    # Gamma is read off the cross part of v1: v1 - F would keep only the
    # 2 r |kappa_c| Gamma / F share of its digits
    g = groups(0.0, omega_T=1.0, q_L=1.0, kappa2_L=0.3)
    ref, tiny = scan([1e-13, 1e-16], mode, g, Grid(64, 64)).rows
    assert math.isclose(tiny.gamma, ref.gamma, rel_tol=1e-12)


@pytest.mark.parametrize("kappa_c", [1e3, 1e4])
def test_strong_coupling_kernel_rows_match_the_extrapolated_lattice(kappa_c):
    # the zero-rotation matrix route on grids 2048 and 4096, extrapolated to
    # h -> 0, is independent evidence for the kernel route's order ladder;
    # the bound is a tenth of the extrapolation's own correction
    w = 0.5
    (kernel,) = scan([kappa_c], "readout", groups(0.0, omega_T=w), Grid(64, 64)).rows
    assert kernel.resolution is not None
    params = canonical_params(kappa_c, 10.0)
    levels = []
    for n in (2048, 4096):
        res = general_variances(params, Grid(n, n), _cos_bin_averages(w, n), np.ones(n))
        levels.append(np.array([res["xi1"].light_part, res["xi1"].normalized,
                                res["xi2"].normalized]))
    coarse, fine = levels
    richardson = fine + (fine - coarse) / 3.0
    got = np.array([kernel.f_self, kernel.v1, kernel.v2])
    assert np.all(np.abs(richardson - got) <= 0.1 * np.abs(fine - coarse) / 3.0)


def test_shared_gamma_product_structure():
    # (v1 - F)(v2 - F) = (2 kappa_c Gamma)^2, r-independent
    for r in (3.0, 10.0):
        br = readout_variances(groups(1.2, r=r), G256)
        lhs = (br.v1 - br.f_self) * (br.v2 - br.f_self)
        rhs = (2.0 * 1.2 * br.gamma) ** 2
        assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_identities_v1_v2():
    br = readout_variances(groups(1.7, r=7.0), G256)
    assert math.isclose(br.v1, br.f_self + 2 * 7.0 * 1.7 * br.gamma, rel_tol=1e-14)
    assert math.isclose(br.v2, br.f_self + (2 / 7.0) * 1.7 * br.gamma, rel_tol=1e-14)


def test_memory_mirrors_readout():
    for x in (0.5, 1.0, 4.0):
        br = readout_variances(groups(2.0, omega_T=x), G256)
        bm = memory_variances(groups(2.0, q_L=x), G256)
        assert abs(bm.v1 - br.v1) <= 1e-8 * abs(br.v1)
        assert abs(bm.v2 - br.v2) <= 1e-8 * abs(br.v2)
        assert abs(bm.f_self - br.f_self) <= 1e-8


def test_dual_path_agreement():
    from polariton_lab.variance import _matrix_breakdowns
    for kc in (0.5, 2.0):
        g = groups(kc)
        kern = readout_variances(g, G256)
        matx = _matrix_breakdowns([kc], g, G256, "readout")[0]
        assert abs(matx.v1 - kern.v1) / kern.v1 <= 5e-3
        assert abs(matx.v2 - kern.v2) / kern.v2 <= 5e-3
        assert abs(matx.f_self - kern.f_self) / kern.f_self <= 5e-3
        gm = groups(kc, q_L=0.5)
        kern_m = memory_variances(gm, G256)
        matx_m = _matrix_breakdowns([kc], gm, G256, "memory")[0]
        assert abs(matx_m.v1 - kern_m.v1) / kern_m.v1 <= 5e-3
        assert abs(matx_m.v2 - kern_m.v2) / kern_m.v2 <= 5e-3


def test_memory_mode_weight_concentration():
    # kappa_c = 2, qL = 0.5 target spin mode draws its light input mostly
    # from omega*T near kappa_c/qL = 4 (the dispersion pairing): project the
    # mean-removed light filter of the memory observable onto cos(w t) and
    # locate the maximum over w.  The windowed DC lobe is removed because the
    # pairing concerns the oscillatory mode content.
    from scipy.integrate import quad
    from scipy.special import j0
    kc, q = 2.0, 0.5
    tau = np.linspace(0.0, 1.0, 1501)
    g = np.array([
        quad(lambda z: math.cos(q * z) * j0(2.0 * math.sqrt(max(kc * z * (1 - tp), 0.0))),
             0.0, 1.0, limit=200)[0]
        for tp in tau
    ])
    g -= np.trapezoid(g, tau)
    ws = np.linspace(0.25, 12.0, 250)
    proj = np.array([abs(np.trapezoid(np.cos(w * tau) * g, tau)) for w in ws])
    w_star = ws[int(np.argmax(proj))]
    assert 2.8 <= w_star <= 5.2
    at = lambda w: proj[int(np.argmin(np.abs(ws - w)))]
    assert at(4.0) > at(1.0) and at(4.0) > at(8.0)


def test_general_variances_identity_channel():
    params = canonical_params(0.0, 1.0)
    grid = Grid(96, 96)
    t = (np.arange(grid.n_time) + 0.5) / grid.n_time
    z = (np.arange(grid.n_space) + 0.5) / grid.n_space
    res = general_variances(params, grid, np.cos(0.5 * t), np.cos(0.5 * z))
    for name in ("xi1", "xi2", "jz", "jy"):
        assert math.isclose(res[name].normalized, 1.0, rel_tol=1e-14)
    # absolute SQL of the light channels: (xi3/2) * Int cos^2 via bin sums
    expected = 0.5 * float(np.cos(0.5 * t) @ np.cos(0.5 * t)) / grid.n_time
    assert math.isclose(res["xi1"].sql, expected, rel_tol=1e-14)


@pytest.mark.parametrize("bad", ["filter_time", "filter_space"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_general_variances_rejects_non_finite_filters(bad, value):
    grid = Grid(16, 12)
    filters = {"filter_time": np.ones(grid.n_time), "filter_space": np.ones(grid.n_space)}
    filters[bad][3] = value
    with pytest.raises(ValueError, match=f"{bad} has a non-finite sample"):
        general_variances(canonical_params(1.0, 3.0), grid, **filters)


@pytest.mark.parametrize("bad", ["filter_time", "filter_space"])
def test_general_variances_rejects_all_zero_filters(bad):
    # the channel variances are normalized by the filter's own SQL
    grid = Grid(16, 12)
    filters = {"filter_time": np.ones(grid.n_time), "filter_space": np.ones(grid.n_space)}
    filters[bad] = np.zeros_like(filters[bad])
    with pytest.raises(ValueError, match=f"{bad} is all zero"):
        general_variances(canonical_params(1.0, 3.0), grid, **filters)


@pytest.mark.parametrize("bad", ["filter_time", "filter_space"])
def test_general_variances_rejects_filters_whose_norm_underflows(bad):
    # not all zero, but the squared norm the ratios divide by is 0
    grid = Grid(16, 12)
    filters = {"filter_time": np.ones(grid.n_time), "filter_space": np.ones(grid.n_space)}
    filters[bad] = np.full_like(filters[bad], 1e-170)
    with pytest.raises(ValueError, match=f"{bad} .*squared norm underflows"):
        general_variances(canonical_params(1.0, 3.0), grid, **filters)


def test_general_variances_reduces_to_protocol_routes():
    grid = Grid(192, 192)
    g = groups(1.5, r=10.0, omega_T=0.5, q_L=0.5)
    params = canonical_params(1.5, 10.0)
    from polariton_lab.variance import _cos_bin_averages
    ft = _cos_bin_averages(0.5, grid.n_time)
    fs = _cos_bin_averages(0.5, grid.n_space)
    res = general_variances(params, grid, ft, fs)
    kern = readout_variances(g, grid)
    kern_m = memory_variances(g, grid)
    assert abs(res["xi1"].normalized - kern.v1) / kern.v1 <= 5e-3
    assert abs(res["xi2"].normalized - kern.v2) / kern.v2 <= 5e-3
    assert abs(res["jy"].normalized - kern_m.v1) / kern_m.v1 <= 5e-3
    assert abs(res["jz"].normalized - kern_m.v2) / kern_m.v2 <= 5e-3


@pytest.mark.parametrize("omega_T, q_L", [(0.7, 1.3), (0.0, 0.0)])
def test_matrix_breakdown_equals_general_variances_channels(omega_T, q_L):
    # one quadratic form serves both: the 1/2 input variance cancels exactly;
    # omega_T = q_L = 0, the config defaults, takes the all-ones filter
    from polariton_lab.variance import _cos_bin_averages, _matrix_breakdowns
    grid = Grid(64, 48)
    g = groups(1.5, r=10.0, omega_T=omega_T, q_L=q_L, kappa2_L=0.3, Omega_T=0.3)
    params = canonical_params(1.5, 10.0, kappa2_L=0.3, Omega_T=0.3)
    res = general_variances(params, grid, _cos_bin_averages(omega_T, grid.n_time),
                            _cos_bin_averages(q_L, grid.n_space))
    ro = _matrix_breakdowns([1.5], g, grid, "readout")[0]
    assert (ro.v1, ro.f_self, ro.v2) == (
        res["xi1"].normalized, res["xi1"].light_part, res["xi2"].normalized)
    mem = _matrix_breakdowns([1.5], g, grid, "memory")[0]
    assert (mem.v1, mem.f_self, mem.v2) == (
        res["jy"].normalized, res["jy"].spin_part, res["jz"].normalized)


@pytest.mark.parametrize("w", [5e-324, 1e-320, 1e-9])
@pytest.mark.parametrize("mode", ["readout", "memory"])
def test_matrix_rows_at_tiny_filter_frequencies_equal_those_at_zero(mode, w):
    # below |w| ~ 1.05e-8 every exact bin average of cos(w x) rounds to 1;
    # the sine differences over w give one bin at 5e-324 and are 2% off at 1e-320
    key = "omega_T" if mode == "readout" else "q_L"
    grid = Grid(64, 64)

    def rows(freq):
        g = groups(1.0, **{key: freq}, kappa2_L=0.3, Omega_T=0.3)
        return scan([0.5, 1.0], mode, g, grid)

    tiny = rows(w)
    assert tiny.route == "matrix" and tiny == rows(0.0)


def _counting_adjoint(monkeypatch):
    """Count the adjoint sweeps the variance layer makes."""
    from polariton_lab import variance
    calls = []
    real = variance.transfer_adjoint_apply

    def counted(params, grid, y):
        calls.append(np.shape(y))
        return real(params, grid, y)

    monkeypatch.setattr(variance, "transfer_adjoint_apply", counted)
    return calls


def _counting_sweeps(monkeypatch):
    """Record the stack size of every lattice sweep."""
    from polariton_lab import lattice
    sizes = []
    real = lattice._sweep

    def counted(tiles, u, w, *args, **kwargs):
        sizes.append(len(tiles))
        return real(tiles, u, w, *args, **kwargs)

    monkeypatch.setattr(lattice, "_sweep", counted)
    return sizes


def test_general_variances_makes_one_sweep(monkeypatch):
    calls = _counting_adjoint(monkeypatch)
    grid = Grid(24, 20)
    general_variances(canonical_params(1.5, 10.0, kappa2_L=0.3, Omega_T=0.3), grid,
                      np.ones(grid.n_time), np.ones(grid.n_space))
    assert calls == [(2 * 24 + 2 * 20, 4)]


def _point_rows(kcs, mode, grid, **kw):
    point = readout_variances if mode == "readout" else memory_variances
    return tuple(point(groups(kc, **kw), grid) for kc in kcs)


@pytest.mark.parametrize("mode", ["readout", "memory"])
def test_matrix_scan_rows_equal_per_point_rows(mode, monkeypatch):
    # the scan's grouped sweep and the one-point calls give the same bits;
    # kappa_c on both wings and at 0, each point with its own cell
    grid = Grid(80, 64)
    kw = dict(omega_T=0.7, q_L=1.3, kappa2_L=0.3, Omega_T=0.3)
    kcs = [-3.0, -0.5, 0.0, 0.7, 2.5]
    expected = _point_rows(kcs, mode, grid, **kw)
    calls = _counting_adjoint(monkeypatch)
    result = scan(kcs, mode, groups(0.0, **kw), grid)
    assert result.route == "matrix"
    assert result.rows == expected
    assert calls == [(2 * 80 + 2 * 64, 2 * len(kcs))]


_KAPPA_C = st.one_of(st.just(0.0), st.floats(-2.0, 2.5), st.floats(-200.0, 200.0))


@settings(max_examples=10, deadline=None)
@given(kcs=st.lists(_KAPPA_C, min_size=1, max_size=6), w=st.floats(0.2, 4.0),
       mode=st.sampled_from(["readout", "memory"]))
@example(kcs=[0.5, 2.0, 0.5], w=1.0, mode="readout")
def test_kernel_scan_rows_equal_per_point_rows(kcs, w, mode):
    # the scan evaluates each Gauss order once for all pending points; each
    # row must keep the bits of its point alone, whether the point takes the
    # series (|kappa_c| up to about 16) or the Bessel regions, on either wing
    kw = dict(omega_T=w, q_L=w)
    result = scan(kcs, mode, groups(0.0, **kw), G256)
    assert result.route == "kernel"
    assert result.rows == _point_rows(kcs, mode, G256, **kw)


def _counting_kernels(monkeypatch):
    """Record (kernel, order, points) of every kernel call of the variance layer."""
    from polariton_lab import variance
    calls = []
    for name in ("kernel_self_scaled", "kernel_cross_scaled"):
        real = getattr(variance, name)

        def counted(kappa_c, *coords, real=real, name=name):
            out = real(kappa_c, *coords)
            calls.append((name, out.shape[-1], out.shape[0]))
            return out

        monkeypatch.setattr(variance, name, counted)
    return calls


def test_kernel_scan_evaluates_each_order_once(monkeypatch):
    calls = _counting_kernels(monkeypatch)
    result = scan(np.linspace(0.0, 2.5, 5), "readout", groups(0.0), G256)
    assert [r.resolution.order for r in result.rows] == [32] * 5
    assert sorted(calls) == sorted((name, m, 5) for m in (16, 32)
                                   for name in ("kernel_self_scaled", "kernel_cross_scaled"))


def test_kernel_scan_takes_both_wings_in_one_call_per_order(monkeypatch):
    # points of both signs and zero share one batch: one call per kernel
    # and order
    calls = _counting_kernels(monkeypatch)
    result = scan([-2.0, -1.0, 0.0, 1.0, 2.0], "readout", groups(0.0), G256)
    assert [r.resolution.order for r in result.rows] == [32] * 5
    assert sorted(calls) == sorted((name, m, 5) for m in (16, 32)
                                   for name in ("kernel_self_scaled", "kernel_cross_scaled"))


def test_kernel_scan_batches_stay_within_a_block(monkeypatch):
    # at most _BLOCK // m^2 points a call: 8 at order 64, 2 at 128, 1 from 256
    from polariton_lab.kernels import _BLOCK
    calls = _counting_kernels(monkeypatch)
    result = scan([8e3, 9e3, 1e4], "readout", groups(0.0), G256)
    assert [r.resolution.order for r in result.rows] == [256] * 3
    assert all(points <= max(1, _BLOCK // (m * m)) for _, m, points in calls)
    assert [points for _, m, points in calls if m == 256] == [1] * 6


def test_kernel_scan_peak_memory_is_that_of_one_point():
    # each order-256 call holds one point, so a 3-point scan peaks where its
    # largest point alone does; unbounded batches peaked about 3x higher
    import tracemalloc

    def peak(kcs):
        tracemalloc.start()
        try:
            scan(kcs, "readout", groups(0.0), G256)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kcs = [8e3, 9e3, 1e4]
    alone = max(peak([kc]) for kc in kcs)
    assert peak(kcs) <= 1.25 * alone


def test_one_point_holds_two_tensor_arrays_at_the_largest_order():
    # the cosine window takes the buffer of the kernel's lags once the lags
    # are used, so a lone point holds two m x m arrays at a time; a window
    # kept for the whole order made it three
    import tracemalloc

    m = 1024
    PanelRule(m)
    tracemalloc.start()
    try:
        _filter_norms([1.0], 0.5, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * 8 * m * m


@pytest.mark.parametrize("kcs, failing", [
    # -1e5 overflows in the squared filters at order 16, -2e5 already in
    # the kernels; the first of them in scan order is what the scan raises
    ([-1e3, -1e5, -2e5], -1e5),
    ([-1e3, -2e5, -1e5], -2e5),
    ([-1e3, -1e5, -1e3, -1e5], -1e5),
])
def test_kernel_scan_raises_its_first_failing_point(kcs, failing):
    with pytest.raises(OverflowError) as alone:
        readout_variances(groups(failing), G256)
    with pytest.raises(OverflowError) as scanned:
        scan(kcs, "readout", groups(0.0), G256)
    assert str(scanned.value) == str(alone.value)


@pytest.mark.parametrize("mode", ["readout", "memory"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_transparency_points_resolve(mode, k):
    # at omega_T (or q_L) = k pi, Int c = sin(w)/w vanishes and Gamma sits at
    # round-off, where its relative change never reaches _RESOLVED_RTOL; the
    # change its rounding allows counts as resolved
    kcs = [0.0, 1e-8, -1e-8, 1e-6, 1e-4, 1e-3]
    w = k * math.pi
    result = scan(kcs, mode, groups(0.0, omega_T=w, q_L=w), G256)
    assert result.route == "kernel"
    for row in result.rows:
        assert all(map(math.isfinite, (row.f_self, row.gamma, row.v1, row.v2)))
        res = row.resolution
        # built-in numbers, as the sidecar records them
        assert all(type(v) is (int if f == "order" else float)
                   for f, v in zip(res._fields, res))
        assert res.f_change <= _RESOLVED_RTOL
        assert res.gamma_change <= max(_RESOLVED_RTOL, res.gamma_floor)
    assert (result.rows[0].f_self, result.rows[0].v1, result.rows[0].v2) == (1.0, 1.0, 1.0)


def test_matrix_scan_spans_two_groups(monkeypatch):
    # 8 points (16 columns) fill one group at grid 64, so 130 points take 17
    # groups; each group builds its tiles in one sweep and marches in another
    grid = Grid(64, 64)
    kw = dict(q_L=0.9, kappa2_L=0.3, Omega_T=0.3)
    kcs = list(np.linspace(-2.0, 4.0, 130))
    expected = _point_rows(kcs, "memory", grid, **kw)
    sweeps = _counting_sweeps(monkeypatch)
    result = scan(kcs, "memory", groups(0.0, **kw), grid)
    assert result.rows == expected
    assert sweeps == [16, 16] * 16 + [4, 4]


def test_scan_checks_stability_before_any_sweep(monkeypatch):
    from polariton_lab.lattice import StabilityError
    sweeps = _counting_sweeps(monkeypatch)
    with pytest.raises(StabilityError, match=(
            r"^kappa_c = 1100: stability precondition violated: "
            r"sqrt\(\|a\|\*dz\*dt\) = 0\.518223 >= 0\.5$")):
        scan([100.0, 600.0, 1100.0], "memory",
             groups(0.0, q_L=0.5, kappa2_L=0.3, Omega_T=0.3), Grid(64, 64))
    assert sweeps == []


def test_general_variances_continuity_in_precession():
    grid = Grid(128, 128)
    base = readout_variances(groups(1.0), grid)
    gaps = []
    for om in (0.4, 0.2, 0.1, 0.05):
        br = readout_variances(groups(1.0, Omega_T=om), grid)
        gaps.append(abs(br.v1 - base.v1))
    assert all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.02 * base.v1


def test_scan_structure_and_aliases():
    g = groups(0.0)
    result = scan(np.linspace(0.0, 2.0, 9), "readout", g, G256)
    rows = result.rows
    assert rows[0].v1 == 1.0 and rows[0].v2 == 1.0 and rows[0].f_self == 1.0
    f_vals = [r.f_self for r in rows]
    assert all(a > b for a, b in zip(f_vals, f_vals[1:]))
    v1_vals = [r.v1 for r in rows]
    assert all(a < b for a, b in zip(v1_vals, v1_vals[1:]))
    assert all(r.v2 < 1.0 for r in rows[1:])
    assert all(r.v1 > r.v2 for r in rows[1:])
    # ratio v1/v2 grows with coupling for r > 1
    ratios = [r.v1 / r.v2 for r in rows[1:]]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_scan_deterministic():
    g = groups(0.0)
    a = scan(np.linspace(0.0, 2.0, 5), "readout", g, G256)
    b = scan(np.linspace(0.0, 2.0, 5), "readout", g, G256)
    assert a == b


def test_blue_wing_enhancement():
    # v1 grows superlinearly; log v1 is convex against log kappa_c
    kcs = np.linspace(0.0, 2.0, 9)
    v1 = np.array([readout_variances(groups(-k), Grid(128, 128)).v1 for k in kcs])
    assert np.all(np.diff(v1) > 0)
    assert np.all(np.diff(v1, 2) > 0)
    kcs_log = np.exp(np.linspace(math.log(0.05), math.log(2.0), 10))
    v1_log = np.array([readout_variances(groups(-k), Grid(128, 128)).v1
                       for k in kcs_log])
    assert np.all(np.diff(np.log(v1_log), 2) > 0)


def test_blue_wing_exceeds_red_wing():
    red = readout_variances(groups(2.0), Grid(128, 128))
    blue = readout_variances(groups(-2.0), Grid(128, 128))
    assert blue.v1 > red.v1
    assert blue.f_self > 1.0 > red.f_self


def test_error_conditions():
    with pytest.raises(ValueError, match="ratio_r"):
        readout_variances(groups(1.0, r=-1.0), G256)
    with pytest.raises(ValueError, match="coarser"):
        readout_variances(groups(1.0, kappa2_L=0.3), Grid(32, 32))
    with pytest.raises(ValueError, match="empty"):
        scan([], "readout", groups(0.0), G256)
    with pytest.raises(ValueError, match="mode"):
        scan([0.0], "teleport", groups(0.0), G256)
    params = canonical_params(1.0, 2.0)
    with pytest.raises(ValueError, match="shapes"):
        general_variances(params, Grid(64, 64), np.ones(64), np.ones(63))


@pytest.mark.parametrize("route, kappa_c, couplings, grid", [
    # kappa_c = -1e5 keeps the I0/I1 argument (632) below the kernels'
    # threshold, but the squared filters leave the double range
    pytest.param(readout_variances, -1e5, {}, Grid(64, 64), id="readout_variances"),
    pytest.param(memory_variances, -1e5, {}, Grid(64, 64), id="memory_variances"),
    # kappa_c = -4e4 is inside the stability limit at grid 512 (0.39 < 0.5),
    # but the adjoint sweep leaves the double range
    pytest.param(readout_variances, -4e4, dict(kappa2_L=0.3, Omega_T=0.3), Grid(512, 512),
                 id="readout-matrix"),
    pytest.param(memory_variances, -4e4, dict(kappa2_L=0.3, Omega_T=0.3), Grid(512, 512),
                 id="memory-matrix"),
])
def test_blue_wing_variance_overflow_raises(route, kappa_c, couplings, grid):
    # a named error, not inf or NaN with a RuntimeWarning
    with pytest.raises(OverflowError, match=rf"kappa_c = {kappa_c:.6g}:"):
        route(groups(kappa_c, q_L=0.5, **couplings), grid)
