"""Variance engine: SQL anchors, structure identities, and both routes."""

import math

import numpy as np
import pytest

from polariton_lab.model import DimensionlessGroups, Grid, canonical_params
from polariton_lab.variance import (
    general_variances,
    memory_variances,
    readout_variances,
    scan,
)

G256 = Grid(256, 256)


def groups(kappa_c, r=10.0, omega_T=0.5, q_L=0.0, kappa2_L=0.0, Omega_T=0.0):
    return DimensionlessGroups(
        a_coupling=kappa_c, kappa_c=kappa_c, ratio_r=r, omega_T=omega_T,
        q_L=q_L, kappa2_L=kappa2_L, Omega_T=Omega_T,
        beta_J=math.nan, beta_xi3_T=math.nan,
    )


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


def test_frozen_regression_values():
    g512 = Grid(512, 512)
    for (kc, w, r), exp in FROZEN_512.items():
        br = readout_variances(groups(kc, r=r, omega_T=w), g512)
        assert math.isclose(br.f_self, exp["F"], rel_tol=1e-12)
        assert math.isclose(br.gamma, exp["Gamma"], rel_tol=1e-12)
        assert math.isclose(br.v1, exp["v1"], rel_tol=1e-12)
        assert math.isclose(br.v2, exp["v2"], rel_tol=1e-12)


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
    from polariton_lab.variance import _matrix_breakdown
    for kc in (0.5, 2.0):
        g = groups(kc)
        kern = readout_variances(g, G256)
        matx = _matrix_breakdown(g, G256, "readout")
        assert abs(matx.v1 - kern.v1) / kern.v1 <= 5e-3
        assert abs(matx.v2 - kern.v2) / kern.v2 <= 5e-3
        assert abs(matx.f_self - kern.f_self) / kern.f_self <= 5e-3
        gm = groups(kc, q_L=0.5)
        kern_m = memory_variances(gm, G256)
        matx_m = _matrix_breakdown(gm, G256, "memory")
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
    # abscissa conversion: default eps_xi3_T = 0.5 makes beta_J = kappa_c
    assert rows[-1].abscissa == rows[-1].kappa_c
    assert result.header[:2] == ("kappa_c", "beta_J")


def test_scan_deterministic():
    g = groups(0.0)
    a = scan(np.linspace(0.0, 2.0, 5), "readout", g, G256)
    b = scan(np.linspace(0.0, 2.0, 5), "readout", g, G256)
    assert a.as_rows() == b.as_rows()


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
        readout_variances(groups(1.0), Grid(32, 32))
    with pytest.raises(ValueError, match="empty"):
        scan([], "readout", groups(0.0), G256)
    with pytest.raises(ValueError, match="mode"):
        scan([0.0], "teleport", groups(0.0), G256)
    params = canonical_params(1.0, 2.0)
    with pytest.raises(ValueError, match="shapes"):
        general_variances(params, Grid(64, 64), np.ones(64), np.ones(63))


@pytest.mark.parametrize("route", [readout_variances, memory_variances])
def test_blue_wing_variance_overflow_raises(route):
    # kappa_c = -1e5 keeps the I0/I1 argument (632) below the kernels'
    # threshold, but the squared filters leave the double range: a named
    # error, not inf with a RuntimeWarning
    with pytest.raises(OverflowError, match=r"kappa_c = -100000\b"):
        route(groups(-1e5, q_L=0.5), Grid(64, 64))
