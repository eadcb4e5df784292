"""Panel quadrature helpers against closed-form integrals."""

import math
import random

import mpmath as mp
import numpy as np
import pytest

from polariton_lab import kernels, quadrature
from polariton_lab.kernels import output_maps
from polariton_lab.model import DimensionlessGroups, Grid, canonical_params
from polariton_lab.quadrature import PanelRule, prefix_integrals
from polariton_lab.runner import random_smooth_profiles
from polariton_lab.variance import scan

from panels import integrate_panels


def test_polynomial_exactness():
    edges = np.linspace(0.0, 1.0, 9)
    val = integrate_panels(lambda x: 7 * x ** 6, 0.0, 1.0, edges)
    assert math.isclose(val, 1.0, rel_tol=1e-15)


def test_partial_interval_alignment():
    edges = np.linspace(0.0, 1.0, 17)
    val = integrate_panels(np.cos, 0.13, 0.77, edges)
    assert math.isclose(val, math.sin(0.77) - math.sin(0.13), rel_tol=1e-14)


def test_oscillatory_accuracy():
    edges = np.linspace(0.0, 1.0, 65)
    val = integrate_panels(lambda x: np.cos(12.0 * x), 0.0, 1.0, edges)
    assert math.isclose(val, math.sin(12.0) / 12.0, rel_tol=1e-12)


def test_prefix_matches_direct():
    edges = np.linspace(0.0, 2.0, 33)
    pref = prefix_integrals(lambda x: np.exp(-x), edges)
    for k in (0, 5, 32):
        assert math.isclose(pref[k], 1.0 - math.exp(-edges[k]), rel_tol=1e-13,
                            abs_tol=1e-15)


def test_order_floor():
    with pytest.raises(ValueError):
        PanelRule(order=2)


def test_empty_interval():
    edges = np.linspace(0.0, 1.0, 5)
    assert integrate_panels(np.sin, 0.5, 0.5, edges) == 0.0


def test_gauss_rule_symmetric_and_exact_to_rounding():
    # nodes are the roots of P_8 and weights 2/((1 - x^2) P_8'(x)^2), in
    # 40-digit arithmetic
    rule = PanelRule()
    np.testing.assert_array_equal(rule.x, -rule.x[::-1])
    np.testing.assert_array_equal(rule.w, rule.w[::-1])
    with mp.workdps(40):
        for x, w in zip(rule.x, rule.w):
            root = mp.findroot(lambda t: mp.legendre(rule.order, t), mp.mpf(x))
            slope = mp.diff(lambda t: mp.legendre(rule.order, t), root)
            assert abs(x - root) <= 1e-15
            assert abs(w - 2 / ((1 - root ** 2) * slope ** 2)) <= 1e-15


RULE_ORDERS = (8, 9, 16, 17, 32, 64, 128, 256, 512, 1024)


def _mp_legendre(m, t):
    """P_m(t) and P_m'(t) by their recurrences, in mpmath arithmetic."""
    p_prev, p, dp_prev, dp = mp.mpf(1), t, mp.mpf(0), mp.mpf(1)
    for j in range(2, m + 1):
        dp_prev, dp = dp, dp_prev + (2 * j - 1) * p
        p_prev, p = p, ((2 * j - 1) * t * p - (j - 1) * p_prev) / j
    return p, dp


@pytest.mark.parametrize("m", RULE_ORDERS)
def test_gauss_rule_matches_40_digit_nodes_and_weights(m):
    # both ends, the middle and between, each node polished by Newton in
    # 40-digit arithmetic and its weight 2/((1 - x^2) P_m'(x)^2)
    rule = PanelRule(m)
    weight_rtol = 2e-14 if m <= 32 else 5e-12
    with mp.workdps(40):
        for i in sorted({0, 1, m // 4, m // 2 - 1, m // 2, m - 1 - m // 4, m - 2, m - 1}):
            root = mp.mpf(rule.x[i])
            for _ in range(3):
                p, dp = _mp_legendre(m, root)
                root -= p / dp
            _, dp = _mp_legendre(m, root)
            weight = 2 / ((1 - root ** 2) * dp ** 2)
            assert abs(rule.x[i] - root) <= 2e-16
            assert abs(rule.w[i] - weight) <= weight_rtol * weight


@pytest.mark.parametrize("m", RULE_ORDERS)
def test_gauss_rule_integrates_even_powers_below_2m(m):
    # odd powers vanish by the bitwise symmetry below
    rule = PanelRule(m)
    j = np.arange(m)
    moments = np.sum(rule.w * rule.x ** (2 * j[:, None]), axis=1)
    assert abs(np.sum(rule.w) - 2.0) <= 1e-14
    np.testing.assert_allclose(moments, 2.0 / (2 * j + 1), rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("m", RULE_ORDERS)
def test_gauss_rule_ascending_and_mirror_symmetric(m):
    rule = PanelRule(m)
    assert rule.order == m and rule.x.shape == rule.w.shape == (m,)
    assert np.all(np.diff(rule.x) > 0.0)
    np.testing.assert_array_equal(rule.x, -rule.x[::-1])
    np.testing.assert_array_equal(rule.w, rule.w[::-1])
    if m % 2:
        assert rule.x[m // 2] == 0.0


@pytest.mark.parametrize("m", sorted(quadrature._HALVES))
def test_tabulated_rules_match_the_built_ones(m):
    # the table is printed from _gauss_legendre, bit for bit where it was
    # printed; another platform's libm may move the built rule by an ulp
    x, w = quadrature._gauss_legendre(m)
    rule = PanelRule(m)
    np.testing.assert_array_max_ulp(rule.x, x, maxulp=2)
    np.testing.assert_array_max_ulp(rule.w, w, maxulp=2)


def test_both_first_orders_of_the_closed_form_ladder_are_tabulated():
    assert {kernels._FIRST_ORDER, 2 * kernels._FIRST_ORDER} <= set(quadrature._HALVES)


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_rules_are_read_only(m):
    # the cache is shared by every later call in the process
    rule = PanelRule(m)
    for a in (rule.x, rule.w):
        with pytest.raises(ValueError):
            a[0] = 0.0
        with pytest.raises(ValueError):
            a *= 2.0


@pytest.fixture
def built(monkeypatch):
    """The orders PanelRule builds from now on, from a cache holding the
    tabulated rules alone."""
    orders = []
    build = quadrature._gauss_legendre

    def spy(m):
        orders.append(m)
        return build(m)

    monkeypatch.setattr(quadrature, "_gauss_legendre", spy)
    monkeypatch.setattr(PanelRule, "_cache",
                        {m: PanelRule._cache[m] for m in quadrature._HALVES})
    return orders


@pytest.mark.parametrize("omega_T", [0.2, 1.0, 3.0])
def test_readout_scans_at_weak_coupling_build_no_rule(built, omega_T):
    # the benchmark's readout window: kappa_c in [0, 2.5], omega_T in [0.2, 3]
    g = DimensionlessGroups(kappa_c=0.0, ratio_r=10.0, omega_T=omega_T, q_L=0.0,
                            kappa2_L=0.0, Omega_T=0.0)
    result = scan(np.linspace(0.0, 2.5, 26), "readout", g, Grid(512, 512))
    assert {br.resolution.order for br in result.rows} == {32}
    assert built == []


def test_oracle_compare_maps_build_no_rule(built):
    # the default oracle-compare run: kappa_c in {0.5, 1, 2} at grid 512
    rng = random.Random(0)
    profiles = random_smooth_profiles(rng, 6)
    params = [canonical_params(kc, 10.0) for kc in (0.5, 1.0, 2.0) for _ in range(2)]
    _, orders = output_maps(params, Grid(512, 512), profiles.light, profiles.spin)
    assert orders == [32] * 6
    assert built == []


def test_strong_coupling_still_builds_its_orders_from_64_up(built):
    g = DimensionlessGroups(kappa_c=1e4, ratio_r=10.0, omega_T=0.5, q_L=0.0,
                            kappa2_L=0.0, Omega_T=0.0)
    order = scan([1e4], "readout", g, Grid(64, 64)).rows[0].resolution.order
    assert order >= 64
    assert built == [2 ** k for k in range(6, order.bit_length())]
