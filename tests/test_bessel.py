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
from hypothesis import given, strategies as st
from scipy import special

from polariton_lab.kernels import (
    _BLOCK,
    _HANKEL_MIN_X,
    _SERIES_MAX_Y,
    I_OVERFLOW_X,
    kernel_cross_scaled,
    kernel_self_scaled,
)

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


# --- the kernels' Bessel values against scipy.special, an independent
# implementation (Cephes); the package itself imports no scipy

SERIES_EDGE_X = 2.0 * math.sqrt(_SERIES_MAX_Y)
REGION_EDGES = (SERIES_EDGE_X, _HANKEL_MIN_X)


def _kernel_bessel(kind: str, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order-0 values, order-1 values, arguments) of J or I at the arguments
    x, read off one call of G and one of K on a kappa_c whose unit lag sits
    at max(x, 2).  The arguments are the float64 2*sqrt(|kappa_c| u) the
    kernels work at; the references are taken there."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    sign = 1.0 if kind == "J" else -1.0
    mag = max((0.5 * np.max(x)) ** 2, 1.0)
    u = np.minimum((0.5 * x) ** 2 / mag, 1.0)
    arg = 2.0 * np.sqrt(mag * u)
    order0 = kernel_cross_scaled(sign * mag, u, 1.0)
    order1 = sign * kernel_self_scaled(sign * mag, u) * np.sqrt(u / mag)
    return order0, order1, arg


def _assert_matches_scipy(kind: str, x) -> None:
    order0, order1, arg = _kernel_bessel(kind, x)
    if kind == "J":
        # 1e-12 of the envelope sqrt(2/(pi x)), and of 1 below x = 2/pi
        with np.errstate(divide="ignore"):
            tol = 1e-12 * np.minimum(1.0, np.sqrt(2.0 / (np.pi * arg)))
        assert np.all(np.abs(order0 - special.j0(arg)) <= tol)
        assert np.all(np.abs(order1 - special.j1(arg)) <= tol)
    else:
        assert np.all(np.abs(order0 - special.i0(arg)) <= 1e-12 * special.i0(arg))
        assert np.all(np.abs(order1 - special.i1(arg)) <= 1e-12 * special.i1(arg))


@pytest.mark.parametrize("kind, top", [("J", 1e4), ("I", 700.0)])
def test_both_wings_match_scipy_in_one_call(kind, top):
    # one call holds all three regions, from the series at 0 to the top
    _assert_matches_scipy(kind, np.linspace(0.0, top, 20001))


@pytest.mark.parametrize("edge", REGION_EDGES, ids=["series-trapezoid", "trapezoid-hankel"])
@pytest.mark.parametrize("kind", ["J", "I"])
def test_region_edges_match_scipy(kind, edge):
    # densely on either side of the edge, the nearest doubles included; in one
    # call and point by point (a call inside the series region takes its own path)
    near = edge * (1.0 + np.linspace(-1e-2, 1e-2, 401))
    x = np.concatenate([near, [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]])
    _assert_matches_scipy(kind, x)
    for xi in x[::20]:
        _assert_matches_scipy(kind, xi)


@pytest.mark.parametrize("kappa_c", [2.0, 1e4, -2.0, -1e4])
def test_values_do_not_depend_on_blocks(kappa_c):
    # a call over more than two blocks, forwards and backwards: each value
    # comes from its own point and the call's largest argument alone
    u = np.linspace(0.0, 1.0, 2 * _BLOCK + 3)
    for kernel in (lambda v: kernel_cross_scaled(kappa_c, v, 1.0),
                   lambda v: kernel_self_scaled(kappa_c, v)):
        np.testing.assert_array_equal(kernel(u[::-1]), kernel(u)[::-1])


# |kappa_c| whose largest argument on [0, 1] sits in the series, the
# trapezoid or the Hankel region, below the blue wing's overflow threshold
KAPPA_C_MAGNITUDES = st.one_of(
    st.just(0.0),
    st.floats(0.0, _SERIES_MAX_Y),
    st.floats(_SERIES_MAX_Y, (_HANKEL_MIN_X / 2.0) ** 2),
    st.floats((_HANKEL_MIN_X / 2.0) ** 2, 1e5),
)


@given(points=st.lists(st.tuples(st.sampled_from([1.0, -1.0]), KAPPA_C_MAGNITUDES),
                       min_size=1, max_size=6),
       top=st.floats(0.05, 1.0))
def test_batch_points_equal_lone_calls(points, top):
    # a kappa_c array (p, 1, 1), each point of its own sign: each point's
    # values are those of a lone call at it, whichever regions and wings the
    # other points take
    kappa_c = np.array([sign * mag for sign, mag in points])[:, None, None]
    u = top * np.linspace(0.0, 1.0, 24).reshape(4, 6)
    x, t = u[:, :1], top * np.linspace(0.0, 1.0, 5)
    self_k = kernel_self_scaled(kappa_c, u)
    cross_k = kernel_cross_scaled(kappa_c, x, t)
    assert self_k.shape == (len(points), 4, 6)
    assert cross_k.shape == (len(points), 4, 5)
    for i, kc in enumerate(kappa_c[:, 0, 0]):
        np.testing.assert_array_equal(self_k[i], kernel_self_scaled(kc, u))
        np.testing.assert_array_equal(cross_k[i], kernel_cross_scaled(kc, x, t))


@pytest.mark.parametrize("kernel", [lambda kc, u: kernel_self_scaled(kc, u),
                                    lambda kc, u: kernel_cross_scaled(kc, u, 1.0)],
                         ids=["self", "cross"])
def test_mixed_sign_points_equal_lone_calls(kernel):
    # both wings and zero in one call, each point reaching the series, the
    # trapezoid or the Hankel region
    kappa_c = np.array([0.0, 2.0, -2.0, 300.0, -300.0, 1e5, -1e5])
    u = np.linspace(0.0, 1.0, 9)
    batch = kernel(kappa_c[:, None], u)
    for i, kc in enumerate(kappa_c):
        np.testing.assert_array_equal(batch[i], kernel(kc, u))
    # a blue-wing point past the overflow threshold raises what it raises alone
    with pytest.raises(OverflowError) as alone:
        kernel(-2e5, u)
    with pytest.raises(OverflowError) as batched:
        kernel(np.array([1e5, -1e5, -2e5, -3e5])[:, None], u)
    assert str(batched.value) == str(alone.value)


@given(x=st.floats(0.0, 1e4))
def test_j_matches_scipy_at_drawn_arguments(x):
    _assert_matches_scipy("J", x)


@given(x=st.floats(0.0, 700.0))
def test_i_matches_scipy_at_drawn_arguments(x):
    _assert_matches_scipy("I", x)


@pytest.mark.parametrize("kind", ["J", "I"])
def test_region_edges_are_seamless(kind):
    # the constants put every region at double precision where it takes
    # over: within 1e-14 of the 40-digit values on either side of each edge
    x = np.concatenate([edge * (1.0 + np.linspace(-1e-2, 1e-2, 21)) for edge in REGION_EDGES])
    order0, order1, arg = _kernel_bessel(kind, x)
    f = mp.besselj if kind == "J" else mp.besseli
    for order, values in ((0, order0), (1, order1)):
        ref = np.array([float(f(order, mp.mpf(a))) for a in arg])
        scale = np.minimum(1.0, np.sqrt(2.0 / (np.pi * arg))) if kind == "J" else ref
        assert np.all(np.abs(values - ref) <= 1e-14 * scale)
