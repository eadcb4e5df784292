"""Bessel accuracy of the kernel functions against an extended-precision oracle.

The kernels are the only place Bessel values are computed.  At unit lag
they read the Bessel functions directly: with kappa_c = x^2/4,
G(1, 1) = J0(x) and K(1) = sqrt(kappa_c) * J1(x); with kappa_c = -x^2/4,
G(1, 1) = I0(x) and K(1) = -sqrt(|kappa_c|) * I1(x).

The frozen constants below were produced by `_series_oracle`, a direct
Maclaurin/asymptotic-free summation in 40-digit mpmath arithmetic; rerun it
to regenerate them.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from polariton_lab.kernels import I_OVERFLOW_X, kernel_cross_scaled, kernel_self_scaled

mp.mp.dps = 40


def _bessel(kind: str, order: int, x: float) -> tuple[float, float]:
    """(value, argument) of J or I of order 0/1 at x, read off the kernels.

    The argument is the float64 2*sqrt(|kappa_c|) the kernel forms, which
    can differ from x by rounding; oracles are evaluated there.
    """
    sign = 1.0 if kind == "J" else -1.0
    kappa_c = sign * x * x / 4.0
    amp = math.sqrt(abs(kappa_c))
    arg = 2.0 * amp
    if order == 0:
        return float(kernel_cross_scaled(kappa_c, 1.0, 1.0)), arg
    return sign * float(kernel_self_scaled(kappa_c, 1.0)) / amp, arg


def bessel_j0(x):
    return _bessel("J", 0, x)[0]


def bessel_j1(x):
    return _bessel("J", 1, x)[0]


def bessel_i0(x):
    return _bessel("I", 0, x)[0]


def bessel_i1(x):
    return _bessel("I", 1, x)[0]


def _series_oracle(kind: str, order: int, x: float) -> float:
    """Power series sum_k (+/-1)^k (x/2)^(2k+order) / (k! (k+order)!)."""
    sign = -1 if kind == "J" else 1
    xh = mp.mpf(x) / 2
    total = mp.mpf(0)
    term_k = 0
    while True:
        term = (sign ** term_k) * xh ** (2 * term_k + order) / (
            mp.factorial(term_k) * mp.factorial(term_k + order)
        )
        total += term
        if abs(term) < mp.mpf(10) ** (-38) * max(abs(total), mp.mpf(1)):
            break
        term_k += 1
        if term_k > 500:
            raise RuntimeError("series did not converge")
    return float(total)


# oracle values frozen from _series_oracle
J0_AT_1 = 0.7651976865579665514497175261026632209093
J1_AT_1 = 0.4400505857449335159596822037189149131274
I0_AT_1 = 1.2660658777520083355982446252147175376077
I1_AT_1 = 0.5651591039924850272076960276098633073289


def test_oracle_reproduces_frozen_values():
    assert math.isclose(_series_oracle("J", 0, 1.0), J0_AT_1, rel_tol=1e-15)
    assert math.isclose(_series_oracle("J", 1, 1.0), J1_AT_1, rel_tol=1e-15)
    assert math.isclose(_series_oracle("I", 0, 1.0), I0_AT_1, rel_tol=1e-15)
    assert math.isclose(_series_oracle("I", 1, 1.0), I1_AT_1, rel_tol=1e-15)


def test_series_leading_terms():
    # J0(0) = I0(0) = 1 and J1(x)/(x/2), I1(x)/(x/2) -> 1: G(0, t) = 1 and
    # K(0+) = kappa_c on both wings
    for kc in (0.7, -0.7):
        assert kernel_cross_scaled(kc, 0.0, 1.0) == 1.0
        assert kernel_self_scaled(kc, 0.0) == kc
        assert math.isclose(float(kernel_self_scaled(kc, 1e-30)), kc, rel_tol=1e-15)


def test_derived_reference_points():
    assert math.isclose(bessel_j0(1.0), J0_AT_1, rel_tol=1e-14)
    assert math.isclose(bessel_j1(1.0), J1_AT_1, rel_tol=1e-14)
    assert math.isclose(bessel_i0(1.0), I0_AT_1, rel_tol=1e-14)
    assert math.isclose(bessel_i1(1.0), I1_AT_1, rel_tol=1e-14)


@pytest.mark.parametrize("x", [0.25, 1.0, 3.5, 7.0, 11.5])
def test_small_argument_accuracy_vs_oracle(x):
    for kind in ("J", "I"):
        for order in (0, 1):
            value, arg = _bessel(kind, order, x)
            ref = _series_oracle(kind, order, arg)
            abs_tol = 1e-14 if kind == "J" else 0.0
            assert math.isclose(value, ref, rel_tol=1e-13, abs_tol=abs_tol)


def test_envelope_relative_accuracy_large_arguments():
    rng = np.random.default_rng(11)
    xs = np.concatenate([rng.uniform(12, 100, 40), rng.uniform(100, 1e4, 40)])
    for x in xs:
        j0, arg = _bessel("J", 0, x)
        j1, _ = _bessel("J", 1, x)
        envelope = math.sqrt(2.0 / (math.pi * arg))
        assert abs(j0 - float(mp.j0(mp.mpf(arg)))) <= 1e-12 * envelope
        assert abs(j1 - float(mp.j1(mp.mpf(arg)))) <= 1e-12 * envelope


def test_modified_accuracy_to_700():
    rng = np.random.default_rng(12)
    for x in rng.uniform(1.0, 700.0, 40):
        i0, arg = _bessel("I", 0, x)
        i1, _ = _bessel("I", 1, x)
        assert abs(i0 / float(mp.besseli(0, mp.mpf(arg))) - 1.0) <= 1e-12
        assert abs(i1 / float(mp.besseli(1, mp.mpf(arg))) - 1.0) <= 1e-12


def test_recurrence_identity():
    # J0(x) + J2(x) = 2 J1(x)/x, with J2 from an independent backend routine
    from scipy.special import jn
    xs = np.linspace(0.1, 30.0, 200)
    lhs = np.array([bessel_j0(x) + jn(2, x) for x in xs])
    rhs = np.array([2.0 * bessel_j1(x) / x for x in xs])
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_derivative_identity_central_difference():
    step = 1e-5
    for x in np.linspace(0.2, 20.0, 60):
        approx = (bessel_j0(x + step) - bessel_j0(x - step)) / (2 * step)
        assert abs(approx + bessel_j1(x)) <= 1e-7


def test_i0_monotone_and_bounded_below():
    xs = np.linspace(0.0, 50.0, 400)
    vals = np.array([bessel_i0(x) for x in xs])
    assert np.all(vals >= 1.0)
    assert np.all(np.diff(vals) > 0.0)


def test_overflow_distinct_from_domain_error():
    # blue wing: kappa_c = -(x/2)^2 puts the argument x at unit lag
    over = -(((I_OVERFLOW_X + 5.0) / 2.0) ** 2)
    with pytest.raises(OverflowError):
        kernel_cross_scaled(over, 1.0, 1.0)
    with pytest.raises(OverflowError):
        kernel_self_scaled(-(800.0 / 2.0) ** 2, np.linspace(0.0, 1.0, 9))
    # only the largest argument decides: below the threshold nothing raises,
    # and the red wing, where J0/J1 stay bounded, never does
    assert np.all(np.isfinite(kernel_cross_scaled(over, np.linspace(0.0, 0.98, 9), 1.0)))
    assert np.all(np.isfinite(kernel_self_scaled(-over, np.linspace(0.0, 1.0, 9))))
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            kernel_cross_scaled(bad, 1.0, 1.0)
        with pytest.raises(ValueError):
            kernel_self_scaled(bad, 1.0)
