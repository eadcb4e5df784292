"""Parameter reduction identities and invariants."""

import math

import numpy as np
import pytest

from polariton_lab.kernels import output_maps
from polariton_lab.lattice import integrate_extrapolated
from polariton_lab.model import (
    Grid,
    PhysicalParams,
    canonical_params,
    derive_groups,
)

from profile_sets import function_set


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(beta=0.1, epsilon=0.1, length_L=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(beta=0.1, epsilon=0.1, xi3_bar=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(beta=float("nan"), epsilon=0.1)
    # either sign of beta and epsilon is legal
    PhysicalParams(beta=-0.1, epsilon=0.2)
    PhysicalParams(beta=0.1, epsilon=-0.2)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, 64)
    g = Grid(100, 50)
    assert g.dt(2.0) == 0.02
    assert g.dz(5.0) == 0.1


@pytest.mark.parametrize("value", [4.5, 4.0, True, False, "8", None, np.float64(8.0)],
                         ids=repr)
@pytest.mark.parametrize("field", ["n_time", "n_space"])
def test_grid_rejects_non_integer_bin_counts(field, value):
    # a fractional count once built a Grid whose dt was no bin width, and the
    # lattice then failed on range(); a bool is not a count
    with pytest.raises(ValueError) as err:
        Grid(**{"n_time": 8, "n_space": 8, field: value})
    assert str(err.value) == f"{field} must be an integer bin count, got {value!r}"


def test_grid_stores_numpy_integers_as_int():
    g = Grid(np.int64(16), np.array(8, dtype=np.int32))
    assert (g.n_time, g.n_space) == (16, 8)
    assert type(g.n_time) is int and type(g.n_space) is int
    assert g == Grid(16, 8)


def test_groups_kappa_identities_machine_precision():
    p = PhysicalParams(beta=0.7, epsilon=0.05, xi3_bar=3.1, jx_bar=2.4,
                      length_L=1.7, time_T=0.9)
    g = derive_groups(p, omega_T=0.5, q_L=4.0)
    assert g.kappa_c == (2.0 * p.beta * p.epsilon * p.xi3_bar * p.jx_bar) * p.length_L * p.time_T
    # the scan abscissae: kappa_c = 2*beta_J*(eps*xi3*T) = 2*beta_xi3_T*(eps*jx*L)
    beta_J = p.beta * p.jx_bar * p.length_L
    beta_xi3_T = p.beta * p.xi3_bar * p.time_T
    assert math.isclose(g.kappa_c, 2.0 * beta_J * (p.epsilon * p.xi3_bar * p.time_T),
                        rel_tol=1e-15)
    assert math.isclose(g.kappa_c, 2.0 * beta_xi3_T * (p.epsilon * p.jx_bar * p.length_L),
                        rel_tol=1e-15)
    assert math.copysign(1.0, g.kappa_c) == math.copysign(1.0, p.beta * p.epsilon)


def test_groups_scan_edge_kappa_c_two():
    # beta = eps, means chosen so kappa_c = 2 at the right edge of the scan
    p = PhysicalParams(beta=1.0, epsilon=1.0, xi3_bar=1.0, jx_bar=1.0)
    g = derive_groups(p, omega_T=0.5, q_L=4.0)
    assert g.kappa_c == 2.0
    beta_J = p.beta * p.jx_bar * p.length_L
    assert math.isclose(g.kappa_c, 2.0 * beta_J * (p.epsilon * p.xi3_bar * p.time_T),
                        rel_tol=1e-15)


def test_groups_decoupled_and_sign_cases():
    p0 = PhysicalParams(beta=0.0, epsilon=0.3)
    g0 = derive_groups(p0, 0.5, 0.0)
    assert g0.kappa_c == 0.0
    p_blue = PhysicalParams(beta=-0.2, epsilon=0.2)
    g_blue = derive_groups(p_blue, 0.5, 0.0)
    assert g_blue.kappa_c < 0.0


def test_derive_groups_pure():
    p = PhysicalParams(beta=0.3, epsilon=0.1, xi3_bar=2.0, jx_bar=0.5)
    a = derive_groups(p, 0.5, 4.0)
    b = derive_groups(p, 0.5, 4.0)
    assert a == b


def test_scaling_invariance_exact_for_power_of_two():
    p = PhysicalParams(beta=0.3, epsilon=0.11, xi3_bar=1.3, jx_bar=0.7,
                      length_L=1.9, time_T=0.6)
    c = 8.0
    scaled = PhysicalParams(beta=p.beta, epsilon=p.epsilon, xi3_bar=p.xi3_bar,
                           jx_bar=p.jx_bar / c, length_L=p.length_L * c,
                           time_T=p.time_T)
    g0 = derive_groups(p, 0.5, 4.0)
    g1 = derive_groups(scaled, 0.5, 4.0)
    assert g1.kappa_c == g0.kappa_c
    assert g1 == g0


def test_rejects_non_finite_mode_choices():
    p = PhysicalParams(beta=0.1, epsilon=0.1)
    with pytest.raises(ValueError):
        derive_groups(p, float("inf"), 0.0)
    with pytest.raises(ValueError):
        derive_groups(p, 0.5, float("nan"))


def test_canonical_embedding_round_trip():
    for kc, r in [(2.0, 10.0), (0.5, 3.0), (-1.5, 4.0)]:
        p = canonical_params(kc, r)
        g = derive_groups(p, 0.5, 4.0)
        assert math.isclose(g.kappa_c, kc, rel_tol=1e-14, abs_tol=1e-300)
        assert math.isclose(abs(g.ratio_r), r, rel_tol=1e-14)
    with pytest.raises(ValueError):
        canonical_params(1.0, -2.0)


@pytest.mark.parametrize("route", [output_maps, integrate_extrapolated],
                         ids=lambda f: f.__name__)
def test_profile_sets_need_params_on_one_box(route):
    # both routes sample one set of profiles on the box the params share
    one = lambda x: np.ones_like(x)
    light, spin = function_set([((one, one), (one, one))] * 2)
    params = canonical_params(1.0, 3.0)
    with pytest.raises(ValueError, match="no params given"):
        route([], Grid(8, 8), light, spin)
    with pytest.raises(ValueError, match=r"params span 2 boxes \(time_T, length_L\)"):
        route([params, params._replace(length_L=2.0)], Grid(8, 8), light, spin)
