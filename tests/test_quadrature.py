"""Panel quadrature helpers against closed-form integrals."""

import math

import mpmath as mp
import numpy as np
import pytest

from polariton_lab.quadrature import PanelRule, prefix_integrals

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
