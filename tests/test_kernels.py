"""Closed-form kernel map: limits, oracles, and structural properties."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad
from scipy.special import j0

from polariton_lab.kernels import (
    UnresolvedError,
    _output_map,
    kernel_cross_scaled,
    kernel_self_scaled,
    output_maps,
)
from polariton_lab.model import Grid, PhysicalParams, canonical_params
from polariton_lab.quadrature import PanelRule, panel_nodes

from panels import integrate_panels
from profile_sets import function_set


GRID = Grid(96, 96)


def _zero(v):
    return np.zeros_like(np.asarray(v, float))


def _trig(seed):
    """A random low-order trigonometric profile, defined on the whole line."""
    a = np.random.default_rng(seed).normal(size=4)
    return lambda v: a[0] + a[1] * np.cos(np.pi * v) + a[2] * np.sin(2.0 * v) + a[3] * v * v


def _centers(n, unit=1.0):
    return (np.arange(n) + 0.5) / n * unit


def _quad(f):
    return quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def _map(kappa_c, t, components):
    """Each (own, conj, c) of one kappa_c at the outputs t by ``_output_map``,
    and the order its last component needed; raises what the kappa_c fails
    with."""
    owns, conjs, cs = zip(*components)
    values, orders, failures = _output_map(t, [kappa_c] * len(cs),
                                           lambda x: [f(x) for f in owns],
                                           lambda x: [f(x) for f in conjs], list(cs))
    if failures:
        raise failures[kappa_c]
    return values, max(orders)


# quad reports rounding at the requested tolerance where the integral cancels
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@given(kappa_c=st.one_of(st.floats(-1e3, -1e-3), st.floats(1e-3, 1e3)),
       t=st.floats(0.0, 3.0, exclude_min=True),
       c=st.floats(-10.0, 10.0),
       seed=st.integers(0, 2**16))
@example(kappa_c=0.0, t=0.5, c=1.0, seed=0)
@example(kappa_c=0.0, t=2.5, c=-3.0, seed=1)
def test_map_matches_per_point_quadrature(kappa_c, t, c, seed):
    # own(t) - tau Int_0^1 K(t - tau s) own(tau s) ds + c Int_0^1 G(1 - x, t) conj(x) dx,
    # tau = min(t, 1), by adaptive quadrature one output at a time: the
    # causal convolution up to t = 1 and the time continuation past it
    own, conj = _trig(seed), _trig(seed + 1)
    [[got]], _ = _map(kappa_c, np.array([t]), [(own, conj, c)])
    tau = min(t, 1.0)
    conv = tau * _quad(lambda s: float(kernel_self_scaled(kappa_c, t - tau * s)) * own(tau * s))
    cross = c * _quad(lambda x: float(kernel_cross_scaled(kappa_c, 1.0 - x, t)) * conj(x))
    want = own(t) - conv + cross
    scale = max(abs(own(t)), abs(conv), abs(cross))
    assert abs(got - want) <= 1e-10 * scale


def test_decoupled_limit_identity():
    # beta = eps = 0: K = 0 and the cross terms vanish, so every output is
    # its own input at the bin centers, bit for bit
    params = PhysicalParams(beta=0.0, epsilon=0.0, length_L=1.7, time_T=0.6)
    profile = ((lambda t: np.sin(2 * t), np.cos), (lambda z: z, lambda z: 1 - z))
    (light, spin), [order] = output_maps([params], GRID, *function_set([profile]))
    t, z = _centers(GRID.n_time, params.time_T), _centers(GRID.n_space, params.length_L)
    assert light.shape == (1, 2, GRID.n_time) and spin.shape == (1, 2, GRID.n_space)
    np.testing.assert_array_equal(light[0], [np.sin(2 * t), np.cos(t)])
    np.testing.assert_array_equal(spin[0], [z, 1 - z])
    assert order == 32


def test_constant_spin_against_adaptive_quadrature():
    # xi_in = 0, Jz = const: Xi1(L,t) = 2*beta*xi3*const*Int_0^L J0(2 sqrt(a(L-z')t)) dz'
    params = canonical_params(1.5, 4.0)
    const = 0.8
    (light, _), _ = output_maps([params], GRID, *function_set(
        [((_zero, _zero), (lambda z: np.full_like(z, const), _zero))]))
    a = params.a_coupling
    cb = 2.0 * params.beta * params.xi3_bar
    for j in (0, 31, 95):
        t = (j + 0.5) / GRID.n_time
        expected, err = quad(lambda zp: j0(2.0 * math.sqrt(a * (1.0 - zp) * t)),
                             0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        expected *= cb * const
        assert abs(light[0, 0, j] - expected) <= 1e-12 + 1e-12 * abs(expected)
        assert err < 1e-10


def test_qnd_limit_beta_zero():
    # beta = 0 makes a = 0 but eps*jx != 0: single-pass accumulation with G = 1
    params = PhysicalParams(beta=0.0, epsilon=0.35, jx_bar=1.7)
    f1 = lambda t: 0.3 + np.sin(3 * t)
    (_, spin), _ = output_maps([params], GRID, *function_set([((f1, _zero), (np.cos, _zero))]))
    integral, _ = quad(lambda t: 0.3 + math.sin(3 * t), 0.0, 1.0,
                       epsabs=1e-13, epsrel=1e-13)
    z = _centers(GRID.n_space)
    np.testing.assert_allclose(spin[0, 0], np.cos(z) - params.epsilon * params.jx_bar * integral,
                               rtol=0, atol=1e-14)
    np.testing.assert_array_equal(spin[0, 1], np.zeros(GRID.n_space))


def test_linearity_machine_precision():
    params = canonical_params(2.0, 10.0)
    a, b = [((_trig(s), _trig(s + 1)), (_trig(s + 2), _trig(s + 3))) for s in (3, 7)]
    al, be = 1.25, -0.75
    combo = tuple(tuple((lambda v, fa=fa, fb=fb: al * fa(v) + be * fb(v))
                        for fa, fb in zip(pa, pb)) for pa, pb in zip(a, b))
    sides, _ = output_maps([params] * 3, GRID, *function_set([a, b, combo]))
    for out in sides:
        np.testing.assert_allclose(out[2], al * out[0] + be * out[1], rtol=0, atol=1e-12)


def test_time_space_kernel_symmetry():
    # the light self-kernel in time and the spin self-kernel in space are one
    # scaled kernel: with the conjugate input off, Xi1 out from a profile of
    # t/T equals Jz out from the same profile of z/L, even with L != T
    params = PhysicalParams(beta=0.4, epsilon=0.3, xi3_bar=1.9, jx_bar=0.8,
                            length_L=2.3, time_T=0.7)
    f, g = _trig(4), _trig(5)
    T, L = params.time_T, params.length_L
    light = ((lambda t: f(t / T), lambda t: g(t / T)), (_zero, _zero))
    spin = ((_zero, _zero), (lambda z: f(z / L), lambda z: g(z / L)))
    (light_out, spin_out), _ = output_maps([params] * 2, GRID, *function_set([light, spin]))
    np.testing.assert_allclose(light_out[0], spin_out[1], rtol=1e-14)


# a 32-point rule on each panel: the per-point references below stay at
# rounding for every kappa_c drawn here
FINE = PanelRule(32)


def _outputs(n, kind):
    """Output points: n bin centers, the 8 Gauss nodes of each of n bins, or
    8 points past 1 (spectral's time continuation)."""
    return {"centers": _centers(n),
            "gauss": (np.arange(n)[:, None] + 0.5 * (1.0 + PanelRule().x)).ravel() / n,
            "tail": np.linspace(1.0, 3.0, 9)[1:]}[kind]


def _per_point(integrand, t, upper, n):
    """Int_0^upper integrand(t, x) dx at each output t, on panels cut at the
    n bin edges and at the upper limit, and the largest integral of the
    integrand's magnitude: the scale of the rounding in the sums."""
    edges = np.arange(n + 1) / n
    values, scale = [], 0.0
    for ti, b in zip(t, upper):
        values.append(integrate_panels(lambda x: integrand(ti, x), 0.0, b, edges, FINE))
        scale = max(scale, integrate_panels(lambda x: np.abs(integrand(ti, x)), 0.0, b,
                                            edges, FINE))
    return np.array(values), scale


@pytest.mark.parametrize("n", [3, 4, 64])
@pytest.mark.parametrize("kappa_c", [0.5, -2.0, 200.0])
@pytest.mark.parametrize("offsets", ["centers", "gauss"])
def test_self_convolution_matches_per_point_quadrature(n, kappa_c, offsets):
    # own - K * own with the conjugate input off, against
    # Int_0^t K(t - x) own(x) dx one output at a time, panels cut at the
    # bin edges and at t
    own = _trig(n)
    t = _outputs(n, offsets)
    [got], _ = _map(kappa_c, t, [(own, _zero, 0.0)])
    conv, scale = _per_point(lambda ti, x: kernel_self_scaled(kappa_c, ti - x) * own(x),
                             t, t, n)
    assert np.max(np.abs(got - (own(t) - conv))) <= 1e-13 * scale


@pytest.mark.parametrize("n", [3, 64])
def test_self_convolution_columns_equal_lone_calls(n):
    # the K and G values are shared across components; each keeps the bits
    # of its own call, also when another needs a higher order
    t = (np.arange(n)[:, None] + np.array([0.25, 0.5])).ravel() / n
    components = [(_trig(c), _trig(c + 3), 1.5 - c) for c in range(3)]
    components[1] = (lambda v: np.cos(60.0 * v), _trig(4), -0.5)
    got, order = _map(2.0, t, components)
    orders = []
    for component, column in zip(components, got):
        [alone], alone_order = _map(2.0, t, [component])
        np.testing.assert_array_equal(column, alone)
        orders.append(alone_order)
    assert order == max(orders) > min(orders)


@pytest.mark.parametrize("n", [3, 4, 64])
@pytest.mark.parametrize("kappa_c", [0.5, -2.0, 200.0])
@pytest.mark.parametrize("outputs", ["centers", "gauss", "tail"])
def test_cross_integral_matches_per_point_quadrature(n, kappa_c, outputs):
    # the cross part alone against Int_0^1 G(1 - x, t) conj(x) dx one output
    # at a time, panels on n bins; outputs at the bin centers (output maps),
    # the Gauss nodes and past 1 (spectral's Laplace check)
    conj = _trig(n)
    t = _outputs(n, outputs)
    [got], _ = _map(kappa_c, t, [(_zero, conj, 1.0)])
    ref, scale = _per_point(lambda ti, x: kernel_cross_scaled(kappa_c, 1.0 - x, ti) * conj(x),
                            t, np.ones_like(t), n)
    assert np.max(np.abs(got - ref)) <= 1e-13 * scale


@pytest.mark.parametrize("kappa_c", [1e4, -1e4])
def test_cross_integral_resolves_largest_test_coupling(kappa_c):
    n = 512
    c = lambda v: np.cos(1.3 * (1.0 - v))
    t = _centers(n)
    x, wt = panel_nodes(np.arange(65) / 64, FINE)
    x, wt = x.ravel(), wt.ravel()
    ref = kernel_cross_scaled(kappa_c, 1.0 - x[None, :], t[:, None]) @ (wt * c(x))
    [got], _ = _map(kappa_c, t, [(_zero, c, 1.0)])
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kappa_c, conj_scale, message", [
    # the kernels' own argument threshold
    (-2e5, 1.0, r"argument 863\.\d+ at kappa_c = -200000 exceeds overflow threshold"),
    # I0 below its threshold, but the cross sum leaves the double range
    (-1.2e5, 1e30, r"output map overflows at kappa_c = -120000, Gauss-Legendre order 16"),
], ids=["kernel-threshold", "sum-overflow"])
def test_blue_wing_overflow_names_kappa_c(kappa_c, conj_scale, message):
    t = _centers(8)
    with pytest.raises(OverflowError, match=message):
        _map(kappa_c, t, [(np.cos, lambda x: conj_scale * np.cos(x), 1.0)])


def test_unresolved_names_kappa_c_and_both_orders():
    # kappa_c = 1e7 oscillates faster than order 1024 resolves
    with pytest.raises(UnresolvedError, match=r"output map at kappa_c = 1e\+07 is not resolved "
                       r"by Gauss-Legendre order 1024: change \S+ from order 512 to 1024"):
        _map(1e7, _centers(8), [(np.cos, np.cos, 1.0)])


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
    one = np.ones_like
    prev = None
    for scale in (1.0, 1.5, 2.0):
        params = PhysicalParams(beta=-0.6, epsilon=0.6, length_L=scale, time_T=scale)
        (light, _), _ = output_maps([params], GRID, *function_set([((one, one), (one, one))]))
        peak = np.max(np.abs(light[0, 0]))
        if prev is not None:
            assert peak > prev
        prev = peak


def test_zero_branch_uses_exact_limits():
    vals = kernel_self_scaled(0.0, np.linspace(0, 1, 5))
    np.testing.assert_array_equal(vals, np.zeros(5))

