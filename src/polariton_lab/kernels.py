"""Closed-form input-output map for the uncoupled-rotation regime.

With zero birefringence and zero precession the coupled light-spin system
reduces to a Goursat problem whose fundamental solution is known in closed
form.  Working in scaled coordinates (zeta, tau) on the unit square with
kappa_c = a*L*T, the self-kernel and cross-kernel are

    a > 0:  K(u) = sqrt(kappa_c/u) * J1(2*sqrt(kappa_c*u)),
            G(x, t) = J0(2*sqrt(kappa_c*x*t))
    a < 0:  J1 -> -I1 and J0 -> I0 with |kappa_c| in the arguments
    a = 0:  K = 0, G = 1 (transparency)

K has a finite limit K(0+) = kappa_c, so all quadratures below are over
smooth integrands.  The output maps are

    Xi1(L,t) = Xi1_in(t) - (K*Xi1_in)(t) + 2*beta*xi3 * Int G(L-z',t) Jz_in(z') dz'
    Xi2(L,t) = Xi2_in(t) - (K*Xi2_in)(t) - 2*eps*xi3  * Int G(L-z',t) Jy_in(z') dz'
    Jz(z,T)  = Jz_in(z) - (K*Jz_in)(z) - eps*jx  * Int G(z,T-t') Xi1_in(t') dt'
    Jy(z,T)  = Jy_in(z) - (K*Jy_in)(z) + beta*jx * Int G(z,T-t') Xi2_in(t') dt'

These forms are validated against the direct lattice integrator in the test
suite before anything downstream relies on them.

``output_maps`` evaluates these for a whole set of P input profiles, one
params per profile, and returns the arrays ``lattice.integrate_extrapolated``
returns: light (P, 2, n_time) of (Xi1, Xi2) and spin (P, 2, n_space) of
(Jz, Jy), at the bin centers.  It takes one quadrature: the m-point
Gauss-Legendre rule on [0, 1] in s for the self part
tau Int_0^1 K(t - tau s) own(tau s) ds, tau = min(t, 1), and in z' for the
cross part.  Both integrands are smooth, so the order doubles from 16
until two orders agree, on the ladder the closed-form variance takes too
(quadrature._resolve, beside UnresolvedError and its constants); where
order 1024 does not resolve a component it raises UnresolvedError, a
ValueError naming kappa_c and both orders.  Past t = 1 the same formula is
the time continuation that the test suite's Laplace-identity check
(tests/oracles.py) reads.

The map makes one pass per order for every profile (``_output_map``): the
set is evaluated once at each of the order's point sets, read one profile
at a time so that only one profile's values at the m x n nodes are held,
and K and G are computed once per distinct kappa_c, one kernel call each.
A component still resolves on its own, with the bits of a lone call, and a
kappa_c's order and error are those of a call on its profiles alone.

The two kernel functions below are the only place Bessel values are
computed, with numpy alone.  Both are the one entire function

    E_n(y) = sum_k (-y)^k / (k! (k + n)!),   n = 0, 1   (DLMF 10.8.2, 10.25.2)

at y = kappa_c*x*t for G = E_0 and y = kappa_c*u for K = kappa_c*E_1, so
the sign of y picks the wing and K(0) = kappa_c exactly: with
x = 2*sqrt(|y|), E_n = J_n(x)/(x/2)^n for y > 0 and I_n(x)/(x/2)^n for
y < 0.  Three regions cover it:

    |y| <= 4        the power series by Horner's rule, with as many terms as
                    the largest |y| of the call needs;
    x >= 25         Hankel's expansions, DLMF 10.17.3 for J (written with
                    cos x and sin x, so the phase carries no rounding of a
                    shift) and 10.40.1 for I, 16 terms a_k(n) from 10.17.1;
    in between      the trapezoid rule on Bessel's integrals (DLMF 10.9.1,
                    10.32.3) folded onto a quarter period, 16 nodes; it
                    converges exponentially (Trefethen & Weideman, SIAM Rev.
                    56, 2014), its error about J_64(x) and I_64(x)/I_0(x).

Against a 40-digit oracle J0 and J1 hold an error below 1e-12 of the
amplitude envelope sqrt(2/(pi*x)) for arguments up to 1e4, and I0 and I1 a
relative error below 1e-12 up to 700.  Domain contract: a non-finite
kappa_c raises ValueError, and a blue-wing argument above ``I_OVERFLOW_X``
raises OverflowError.

Both kernel functions take kappa_c as a number or as an array of any
signs that broadcasts against the coordinates, one entry a point: each
point gets the values of a lone call at its kappa_c, bit for bit, and a
point outside the domain raises what a lone call at it raises.
``_reduced_bessel`` is the one evaluation: a lone kappa_c is a batch of one
point, walked in cache-sized blocks.  At kappa_c = 0 the series gives
E_0 = E_1 = 1 exactly, so K = 0 and G = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .model import Grid, _centers, _shared_box
from .quadrature import _RESOLVED_RTOL, PanelRule, UnresolvedError, _resolve

__all__ = [
    "I_OVERFLOW_X",
    "UnresolvedError",
    "kernel_self_scaled",
    "kernel_cross_scaled",
    "output_maps",
]

# exp(x)/sqrt(2 pi x) crosses the double range just above 713; the margin
# keeps I0/I1 themselves finite.  Products of them can still overflow: the
# closed-form variance squares its filters, and its tensor rule raises
# OverflowError naming kappa_c at the first order whose integrals overflow.
I_OVERFLOW_X = 709.0

# Region edges, term and node counts of E_n, fixed by the accuracy tests
_SERIES_MAX_Y = 4.0
_HANKEL_MIN_X = 25.0
_HANKEL_TERMS = 16
_TRAPEZOID_NODES = 16
# Points per block: a block's working arrays (256 KiB each) stay in the L2
# cache; over whole arrays of 2 MiB the series ran at half the speed
_BLOCK = 1 << 15


def _series_table(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (-1)^k/(k!(k+order)!) of E_order, and as bounds[K - 1] the
    largest |y| at which the first term left out, at most y^K/(K!)^2, is
    below eps/4.  Up to |y| = 4 the terms after it add less than 2% to it,
    on either wing."""
    bounds, coeffs = [], []
    while not bounds or bounds[-1] < _SERIES_MAX_Y:
        k = len(coeffs)
        coeffs.append((-1.0) ** k / (math.factorial(k) * math.factorial(k + order)))
        bounds.append((np.finfo(float).eps / 4.0 * math.factorial(k + 1) ** 2) ** (1.0 / (k + 1)))
    return np.array(coeffs), np.array(bounds)


def _hankel_coefficients(order: int) -> np.ndarray:
    """a_k(order) = prod_{j<=k} (4 order^2 - (2j - 1)^2) / (k! 8^k), DLMF 10.17.1."""
    a = [1.0]
    for k in range(1, _HANKEL_TERMS):
        a.append(a[-1] * (4 * order * order - (2 * k - 1) ** 2) / (8 * k))
    return np.array(a)


_SERIES = tuple(_series_table(order) for order in (0, 1))
_HANKEL = tuple(_hankel_coefficients(order) for order in (0, 1))
_HANKEL_BLUE = tuple(a * (-1.0) ** np.arange(a.size) for a in _HANKEL)
# sin of the midpoints of [0, pi/2]: by the symmetries of Bessel's integrands
# the midpoint rule there is the trapezoid rule with 64 points on the period
_NODE_SINES = np.sin((np.arange(_TRAPEZOID_NODES) + 0.5) * (0.5 * np.pi / _TRAPEZOID_NODES))


def _check_kappa_c(kappa_c) -> np.ndarray:
    """kappa_c as a float array, every entry finite."""
    kappa_c = np.asarray(kappa_c, dtype=float)
    finite = np.isfinite(kappa_c)
    if not finite.all():
        raise ValueError(f"kappa_c must be finite, got {float(kappa_c[~finite][0])!r}")
    return kappa_c


def _check_blue_wing(kappa_c: float, y_max: float) -> None:
    if kappa_c < 0.0 and 2.0 * math.sqrt(y_max) > I_OVERFLOW_X:
        raise OverflowError(
            f"modified Bessel argument {2.0 * math.sqrt(y_max):.6g} at kappa_c = "
            f"{kappa_c:.6g} exceeds overflow threshold {I_OVERFLOW_X}"
        )


def _horner(coeffs, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] * z^k; a coefficient may be an array that broadcasts
    against z."""
    acc = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    return acc


def _trapezoid(order: int, x: np.ndarray, red: bool) -> np.ndarray:
    """J_order(x) (red) or I_order(x): the mean over the nodes s of
    cos(x s), s sin(x s), cosh(x s) or s sinh(x s).

    Written with t = tan(x s/2) and e = exp(x s), numpy's float64 tan and exp
    being vectorized loops and its cos, sin, cosh and sinh several times
    slower; in place, so that a block's few arrays stay in the cache."""
    acc = np.zeros_like(x)
    v = np.empty_like(x)
    w = np.empty_like(x)
    for s in _NODE_SINES:
        if red:
            # 1/(1 + t^2) = (1 + cos)/2 and t/(1 + t^2) = sin/2
            np.tan(np.multiply(x, 0.5 * s, out=v), out=v)
            np.multiply(v, v, out=w)
            w += 1.0
            np.divide(v if order else 1.0, w, out=v)
        else:
            # e +/- 1/e = 2 cosh, 2 sinh
            np.exp(np.multiply(x, s, out=v), out=v)
            np.divide(1.0, v, out=w)
            (np.subtract if order else np.add)(v, w, out=v)
        if order:
            v *= s
        acc += v
    acc *= (2.0 if red else 0.5) / _TRAPEZOID_NODES
    if red and not order:
        acc -= 1.0
    return acc


def _hankel(order: int, x: np.ndarray, red: bool) -> np.ndarray:
    """J_order(x) (red) or I_order(x) from their expansions in 1/x, in place
    as in ``_trapezoid``."""
    w = np.divide(1.0, x)
    if not red:
        out = _horner(_HANKEL_BLUE[order], w)
        out *= np.exp(x, out=w)
        out /= np.sqrt(np.multiply(x, 2.0 * np.pi, out=w), out=w)
        return out
    a = _HANKEL[order]
    z = np.multiply(w, w)
    np.negative(z, out=z)
    p = _horner(a[0::2], z)
    q = _horner(a[1::2], z)
    q *= w
    # cos x = d - 1 and sin x = t d with t = tan(x/2), d = 2/(1 + t^2)
    t = np.tan(np.multiply(x, 0.5, out=z), out=z)
    d = np.multiply(t, t, out=w)
    d += 1.0
    np.divide(2.0, d, out=d)
    sin = np.multiply(t, d, out=t)
    cos = np.subtract(d, 1.0, out=d)
    # (cos x + sin x) and (sin x - cos x) are sqrt(2) times the cos and sin
    # of x - pi/4, and (sin x - cos x) and -(cos x + sin x) those of x - 3pi/4
    cps = np.add(cos, sin)
    smc = np.subtract(sin, cos, out=sin)
    if order == 0:
        cps *= p
        smc *= q
        cps -= smc
        out = cps
    else:
        smc *= p
        cps *= q
        smc += cps
        out = smc
    out /= np.sqrt(np.multiply(x, np.pi, out=d), out=d)
    return out


def _reduced_bessel(order: int, kappa_c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """E_order(kappa_c * s) for an array kappa_c, s >= 0 C-contiguous of the
    shape kappa_c broadcasts to, in place in s; every entry of kappa_c (a
    point), of either sign, gets the values of a lone call at it.

    Each point's largest |y| sets what it takes: the series with as many
    terms as that needs, or the elementwise regions; a blue-wing point
    raises OverflowError when its largest argument passes ``I_OVERFLOW_X``.
    The series terms are padded with leading zeros per point, and 0 * y + 0
    = 0 exactly, so each point's sum starts where its own would (no terms
    for the points of the regions).  A lone kappa_c goes through in
    ``_BLOCK``-value slices of the flat array, a batch as one block, so
    callers keep batches near ``_BLOCK`` values."""
    kc = kappa_c.reshape((1,) * (s.ndim - kappa_c.ndim) + kappa_c.shape)
    axes = tuple(i for i, n in enumerate(kc.shape) if n == 1)
    y_max = np.abs(kc) * np.max(s, axis=axes, keepdims=True, initial=0.0)
    for k, top in zip(kc.flat, y_max.flat):
        _check_blue_wing(float(k), float(top))
    series = y_max <= _SERIES_MAX_Y
    coeffs, bounds = _SERIES[order]
    # the terms that every point takes are scalars, the others arrays with
    # zeros (+0 or -0, either leaves the point's first true coefficient exact)
    terms = (np.searchsorted(bounds, y_max) + 1) * series
    common = int(terms.min())
    k = np.arange(common, terms.max()).reshape((-1,) + (1,) * kc.ndim)
    padded = [*coeffs[:common], *(coeffs[k] * (k < terms))]
    y = np.multiply(s, kc, out=s)
    flat = y.reshape(-1)
    blocks = [y] if kc.size > 1 else (flat[i:i + _BLOCK] for i in range(0, flat.size, _BLOCK))
    for block in blocks:
        if not series.any():
            _reduced_bessel_regions(order, block)
            continue
        mixed = not series.all()
        if mixed:
            regions = np.broadcast_to(~series, block.shape)
            far = block[regions]
            _reduced_bessel_regions(order, far)
        block[...] = _horner(padded, block)
        if mixed:
            block[regions] = far
    return y


def _reduced_bessel_regions(order: int, y: np.ndarray) -> None:
    """E_order(y) in place, each value by the method of its region, on the
    wing of its sign."""
    near = np.abs(y) <= _SERIES_MAX_Y
    series = _horner(_SERIES[order][0], y[near])
    red = y > 0.0
    wings = ((True, red), (False, ~red))
    x = np.sqrt(np.abs(y, out=y), out=y)
    x *= 2.0
    far = x >= _HANKEL_MIN_X
    mid = ~(near | far)
    y[near] = series
    for region, method in ((far, _hankel), (mid, _trapezoid)):
        for wing, on_wing in wings:
            part = region & on_wing
            xr = x[part]
            if xr.size:
                b = method(order, xr, wing)
                if order:
                    b /= xr
                    b *= 2.0
                y[part] = b


def kernel_self_scaled(kappa_c, u):
    """Scaled self-kernel K(u) on u in [0, 1]; K(0+) = kappa_c exactly.

    ``kappa_c`` is a number or an array that broadcasts against u; each of
    its entries gets the values of a lone call at that kappa_c."""
    kappa_c = _check_kappa_c(kappa_c)
    u = np.asarray(u, dtype=float)
    s = np.clip(u, 0.0, None, out=np.empty(np.broadcast_shapes(u.shape, kappa_c.shape)))
    k = _reduced_bessel(1, kappa_c, s)
    return np.multiply(k, kappa_c, out=k)


def kernel_cross_scaled(kappa_c, x, t):
    """Scaled cross-kernel G(x, t) for x, t in [0, 1]; G = 1 at a = 0.

    ``kappa_c`` is a number or an array that broadcasts against x and t;
    each of its entries gets the values of a lone call at that kappa_c."""
    kappa_c = _check_kappa_c(kappa_c)
    shape = np.broadcast_shapes(np.shape(x), np.shape(t), kappa_c.shape)
    # one buffer for the product, overwritten with G; [()] unwraps the 0-d
    # result of scalar arguments
    s = np.multiply(x, t, dtype=float, out=np.empty(shape))
    return _reduced_bessel(0, kappa_c, np.clip(s, 0.0, None, out=s))[()]


def _output_map(t: np.ndarray, kappa_c: list[float], own, conj,
                coef: list[float]) -> tuple[list[np.ndarray], list[int], dict]:
    """own(t) - tau Int_0^1 K(t - tau s) own(tau s) ds + c Int_0^1 G(1 - x, t) conj(x) dx
    at the points t, with tau = min(t, 1), for each component j: own, conj
    and c its input, the input it couples to and the coupling, K and G
    those of kappa_c[j].  ``own(x)`` and ``conj(x)`` give at an array of
    points x an indexable whose item j is component j's values; each item
    is read once per call, in order within each kappa_c.  Returns every
    component's values, per component the last order at which its kappa_c
    was evaluated, and the failures of the ladder (quadrature._resolve).

    For t <= 1 the self part is the causal convolution (K * own)(t); past 1
    it is the time continuation of an input whose support ends at 1.  Both
    integrals take the m-point Gauss-Legendre rule on [0, 1].  A component
    is resolved when its values at m and m/2 agree to _RESOLVED_RTOL times
    the largest magnitude of its three summands.  Each order reads own and
    conj once at its nodes and computes K and G once per kappa_c still
    pending, so every component has the bits of a lone call.  A component
    fails where its kernels raise or its value is non-finite
    (OverflowError), each naming kappa_c.
    """
    tau = np.minimum(t, 1.0)
    at_t = own(t)
    direct = [np.asarray(at_t[j], dtype=float) for j in range(len(kappa_c))]
    del at_t

    def evaluate(m, pending):
        rule = PanelRule(m)
        s, w = 0.5 * (1.0 + rule.x), 0.5 * rule.w
        ts = np.multiply.outer(tau, s)
        at_ts, at_s = own(ts), conj(s)
        lag = t[:, None] - ts
        by_kc, fine = {}, {}
        for j in pending:
            by_kc.setdefault(kappa_c[j], []).append(j)
        # one kappa_c's kernel values at a time
        for kc, items in by_kc.items():
            try:
                k = kernel_self_scaled(kc, lag)
                g = kernel_cross_scaled(kc, 1.0 - s, t[:, None])
            except (ValueError, OverflowError) as exc:
                fine.update(dict.fromkeys(items, exc))
                continue
            for j in items:
                # blue-wing products can leave the double range below the
                # kernels' own argument threshold
                with np.errstate(over="ignore", invalid="ignore"):
                    conv = tau * ((k * np.asarray(at_ts[j], dtype=float)) @ w)
                    cross = coef[j] * (g @ (w * np.asarray(at_s[j], dtype=float)))
                    value = direct[j] - conv + cross
                fine[j] = (value, conv, cross) if np.all(np.isfinite(value)) else OverflowError(
                    f"output map overflows at kappa_c = {kc:.6g}, Gauss-Legendre order {m}")
            del k, g
        return [fine[j] for j in pending]

    def agree(j, m, coarse, fine):
        value, conv, cross = fine
        change = float(np.max(np.abs(value - coarse[0])))
        scale = max(float(np.max(np.abs(part))) for part in (direct[j], conv, cross))
        if change <= _RESOLVED_RTOL * scale:
            return value
        return (f"change {change:.3g} from order {m // 2} to {m}, "
                f"against largest summand {scale:.3g}")

    values, orders, failures = _resolve(kappa_c, evaluate, agree, "output map")
    return values, [orders[kc] for kc in kappa_c], failures


class _Components:
    """The inputs of the components index[j] = (p, side, i) of ``output_maps``
    at the points x: item j is item i of profile p's pair in
    sets[side](x * units[side]).  A set is called when first read, and a
    profile's pair is read once when its components are read in turn."""

    __slots__ = ("_sets", "_units", "_index", "_x", "_samples", "_pair")

    def __init__(self, sets, units, index, x):
        self._sets, self._units, self._index, self._x = sets, units, index, x
        self._samples = [None] * len(sets)
        self._pair = None, None

    def __getitem__(self, j: int):
        p, side, i = self._index[j]
        if self._pair[0] != (p, side):
            self._pair = None, None
            if self._samples[side] is None:
                self._samples[side] = self._sets[side](self._x * self._units[side])
            self._pair = (p, side), self._samples[side][p]
        return self._pair[1][i]


def output_maps(params, grid: Grid, light, spin) -> tuple[tuple[np.ndarray, np.ndarray],
                                                          list[int]]:
    """The light at z = L and the spin at t = T, at the bin centers, of every
    input profile of a set, and per profile the largest Gauss-Legendre order
    that any component of its kappa_c needed.  The light is a (P, 2, n_time)
    array of (Xi1, Xi2) and the spin a (P, 2, n_space) array of (Jz, Jy),
    profile first.

    ``params`` holds one PhysicalParams per profile, all on one box (time_T,
    length_L).  ``light(t)`` gives, at an array t of physical times, the
    profiles' light inputs at z = 0 (item p is profile p's (Xi1, Xi2), two
    arrays of t's shape, so an array (P, 2, *t.shape) will do), and
    ``spin(z)`` their spin inputs at t = 0 the same way.  Each result is
    read profile by profile, so a set may compute a profile's values when
    they are read.

    Profile p's Xi1 and Xi2 outputs take its Xi1 and Xi2 inputs as own and
    its Jz and Jy as conj, and its Jz and Jy outputs the reverse, each with
    the coupling of the map above.  The light outputs are at the time
    centers and the spin outputs at the space centers: with n_time = n_space
    they share one ``_output_map`` pass per order, in which the set is
    evaluated once at each point set and K and G once per distinct kappa_c.
    Each component has the bits of a lone call.  A failing kappa_c raises
    what a call on its profiles alone raises, its time-center outputs first;
    of several, the first in ``params`` raises.
    """
    params = list(params)
    time_T, length_L = _shared_box(params)
    sets, units = (light, spin), (time_T, length_L)
    # the coupling of each (side, component) of profile p, side 0 the light
    coef = [((2.0 * q.beta * q.xi3_bar * length_L, -2.0 * q.epsilon * q.xi3_bar * length_L),
             (-q.epsilon * q.jx_bar * time_T, q.beta * q.jx_bar * time_T)) for q in params]
    grids = {}
    for side, n in enumerate((grid.n_time, grid.n_space)):
        grids.setdefault(n, []).append(side)
    out, orders, failures = {}, [0] * len(params), []
    for n, sides in grids.items():
        index = [(p, side, i) for p in range(len(params)) for side in sides for i in range(2)]
        conj = [(p, 1 - side, i) for p, side, i in index]
        values, reached, failed = _output_map(
            _centers(n), [params[p].kappa_c for p, _, _ in index],
            lambda x: _Components(sets, units, index, x),
            lambda x: _Components(sets, units, conj, x),
            [coef[p][side][i] for p, side, i in index])
        out.update(zip(index, values))
        for (p, _, _), m in zip(index, reached):
            orders[p] = max(orders[p], m)
        failures.append(failed)
    for q in params:
        for failed in failures:
            if q.kappa_c in failed:
                raise failed[q.kappa_c]
    return tuple(np.array([[out[p, side, 0], out[p, side, 1]] for p in range(len(params))])
                 for side in (0, 1)), orders

