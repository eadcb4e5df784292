"""Closed-form kernel map: limits, oracles, and structural properties."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from polariton_lab.kernels import (
    FieldRecord,
    SpinRecord,
    _causal_self_convolution,
    _interp_uniform_centers,
    kernel_self_scaled,
    output_field,
    output_spin,
)
from polariton_lab.model import Grid, PhysicalParams, canonical_params
from polariton_lab.quadrature import PanelRule, integrate_panels


GRID = Grid(96, 96)


def _records(n_time, n_space, f1, f2, g1, g2):
    return (FieldRecord.from_functions(f1, f2, n_time),
            SpinRecord.from_functions(g1, g2, n_space))


def test_decoupled_limit_identity():
    params = PhysicalParams(beta=0.0, epsilon=0.0)
    xi, sp = _records(GRID.n_time, GRID.n_space,
                      lambda t: np.sin(2 * t), lambda t: np.cos(t),
                      lambda z: np.zeros_like(z), lambda z: np.zeros_like(z))
    out = output_field(params, GRID, xi, sp)
    np.testing.assert_array_equal(out.xi1, xi.xi1)
    np.testing.assert_array_equal(out.xi2, xi.xi2)
    sp_in = SpinRecord.from_functions(lambda z: z, lambda z: 1 - z, GRID.n_space)
    out_sp = output_spin(params, GRID, FieldRecord.zeros(GRID.n_time), sp_in)
    np.testing.assert_array_equal(out_sp.jz, sp_in.jz)
    np.testing.assert_array_equal(out_sp.jy, sp_in.jy)


def test_constant_spin_against_adaptive_quadrature():
    # xi_in = 0, Jz = const: Xi1(L,t) = 2*beta*xi3*const*Int_0^L J0(2 sqrt(a(L-z')t)) dz'
    params = canonical_params(1.5, 4.0)
    const = 0.8
    xi = FieldRecord.zeros(GRID.n_time)
    sp = SpinRecord(np.full(GRID.n_space, const), np.zeros(GRID.n_space))
    out = output_field(params, GRID, xi, sp)
    a = params.a_coupling
    cb = 2.0 * params.beta * params.xi3_bar
    from scipy.special import j0
    for j in (0, 31, 95):
        t = (j + 0.5) / GRID.n_time
        expected, err = quad(lambda zp: j0(2.0 * math.sqrt(a * (1.0 - zp) * t)),
                             0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        expected *= cb * const
        assert abs(out.xi1[j] - expected) <= 1e-9 + 1e-9 * abs(expected)
        assert err < 1e-10


def test_qnd_limit_beta_zero():
    # beta = 0 makes a = 0 but eps*jx != 0: single-pass accumulation with G = 1
    params = PhysicalParams(beta=0.0, epsilon=0.35, jx_bar=1.7)
    f1 = lambda t: 0.3 + np.sin(3 * t)
    xi, sp = _records(GRID.n_time, GRID.n_space, f1, lambda t: np.zeros_like(t),
                      lambda z: np.cos(z), lambda z: np.zeros_like(z))
    out = output_spin(params, GRID, xi, sp)
    integral, _ = quad(lambda t: 0.3 + math.sin(3 * t), 0.0, 1.0,
                       epsabs=1e-13, epsrel=1e-13)
    expected = sp.jz - params.epsilon * params.jx_bar * integral
    # record inputs are center samples; cubic reconstruction limits the
    # agreement to O(h^4) of the input curvature
    np.testing.assert_allclose(out.jz, expected, rtol=0, atol=2e-8)
    np.testing.assert_array_equal(out.jy, sp.jy)


def test_linearity_machine_precision():
    params = canonical_params(2.0, 10.0)
    rng = np.random.default_rng(3)
    xi_a = FieldRecord(rng.normal(size=GRID.n_time), rng.normal(size=GRID.n_time))
    xi_b = FieldRecord(rng.normal(size=GRID.n_time), rng.normal(size=GRID.n_time))
    sp_a = SpinRecord(rng.normal(size=GRID.n_space), rng.normal(size=GRID.n_space))
    sp_b = SpinRecord(rng.normal(size=GRID.n_space), rng.normal(size=GRID.n_space))
    al, be = 1.25, -0.75
    combo_xi = FieldRecord(al * xi_a.xi1 + be * xi_b.xi1, al * xi_a.xi2 + be * xi_b.xi2)
    combo_sp = SpinRecord(al * sp_a.jz + be * sp_b.jz, al * sp_a.jy + be * sp_b.jy)
    out_combo = output_field(params, GRID, combo_xi, combo_sp)
    out_a = output_field(params, GRID, xi_a, sp_a)
    out_b = output_field(params, GRID, xi_b, sp_b)
    np.testing.assert_allclose(out_combo.xi1, al * out_a.xi1 + be * out_b.xi1,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(out_combo.xi2, al * out_a.xi2 + be * out_b.xi2,
                               rtol=0, atol=1e-12)


def test_time_space_kernel_symmetry():
    # the light self-kernel in time and the spin self-kernel in space are one
    # scaled kernel: with the conjugate input off, Xi1 out from samples f
    # equals Jz out from the same samples, even with L != T
    params = PhysicalParams(beta=0.4, epsilon=0.3, xi3_bar=1.9, jx_bar=0.8,
                            length_L=2.3, time_T=0.7)
    rng = np.random.default_rng(4)
    f = rng.normal(size=GRID.n_time)
    g = rng.normal(size=GRID.n_time)
    field = output_field(params, GRID, FieldRecord(f, g), SpinRecord.zeros(GRID.n_space))
    spin = output_spin(params, GRID, FieldRecord.zeros(GRID.n_time), SpinRecord(f, g))
    np.testing.assert_allclose(field.xi1, spin.jz, rtol=1e-14)
    np.testing.assert_allclose(field.xi2, spin.jy, rtol=1e-14)


@pytest.mark.parametrize("n", [3, 4, 64])
@pytest.mark.parametrize("kappa_c", [0.5, -2.0, 200.0])
@pytest.mark.parametrize("offsets", ["centers", "gauss"])
def test_self_convolution_matches_per_point_quadrature(n, kappa_c, offsets):
    # reference: Int_0^tau K(tau - x) f(x) dx one output at a time, panels
    # cut at the bin edges, f the same interpolant of the samples (n = 3
    # takes its linear fallback)
    rule = PanelRule()
    offs = np.array([0.5]) if offsets == "centers" else 0.5 * (1.0 + rule.x)
    samples = np.random.default_rng(n).normal(size=n)
    f = lambda x: _interp_uniform_centers(samples, x)
    got = _causal_self_convolution(kappa_c, f, n, offs, rule)
    edges = np.arange(n + 1) / n
    ref = np.array([[integrate_panels(lambda x: kernel_self_scaled(kappa_c, tau - x) * f(x),
                                      0.0, tau, edges, rule)
                     for tau in (b + offs) / n] for b in range(n)])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kernel_small_lag_limit_and_integral():
    # scaled K(u) -> kappa_c as u -> 0, so Int_0^delta K = kappa_c*delta to O(kappa_c*delta)
    params = PhysicalParams(beta=0.5, epsilon=0.5, length_L=2.0, time_T=1.5)
    kappa_c = params.a_coupling * params.length_L * params.time_T
    kern = lambda u: kernel_self_scaled(kappa_c, u)
    assert math.isclose(float(kern(1e-14)), kappa_c, rel_tol=1e-6)
    delta = 1e-3
    edges = np.linspace(0.0, delta, 5)
    integral = integrate_panels(kern, 0.0, delta, edges)
    assert abs(integral - kappa_c * delta) <= 2.0 * abs(kappa_c) * delta * (kappa_c * delta)


def test_negative_coupling_outputs_grow_with_extent():
    # blue wing: monotone growth in L and T for constant positive inputs
    const_xi = lambda t: np.ones_like(t)
    const_sp = lambda z: np.ones_like(z)
    prev = None
    for scale in (1.0, 1.5, 2.0):
        params = PhysicalParams(beta=-0.6, epsilon=0.6, length_L=scale, time_T=scale)
        xi = FieldRecord.from_functions(const_xi, const_xi, GRID.n_time, params.time_T)
        sp = SpinRecord.from_functions(const_sp, const_sp, GRID.n_space, params.length_L)
        out = output_field(params, GRID, xi, sp)
        peak = np.max(np.abs(out.xi1))
        if prev is not None:
            assert peak > prev
        prev = peak


def test_zero_branch_uses_exact_limits():
    vals = kernel_self_scaled(0.0, np.linspace(0, 1, 5))
    np.testing.assert_array_equal(vals, np.zeros(5))


def test_record_validation():
    with pytest.raises(ValueError):
        FieldRecord(np.array([1.0, np.nan]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        SpinRecord(np.ones(4), np.ones(5))
    params = canonical_params(1.0, 2.0)
    with pytest.raises(ValueError):
        output_field(params, Grid(8, 8), FieldRecord.zeros(9), SpinRecord.zeros(8))
