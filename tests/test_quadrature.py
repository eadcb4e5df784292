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
