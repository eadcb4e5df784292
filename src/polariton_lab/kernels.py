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
suite before anything downstream relies on them.  Their sample records,
``FieldRecord`` and ``SpinRecord``, are defined in model.py.

G depends on x*t only, so the G integrals are smooth in the output variable
and of low numerical rank.  ``_apply_kernel`` sums the kernel against the
source only at Chebyshev-Lobatto points of the output interval and
interpolates those sums onto the outputs.  The degree is chosen at run time:
it doubles from 16 until the Chebyshev coefficients of the sums reach their
round-off plateau (chebfun's standardChop rule) and twice that degree
confirms it.  Where degree 1024 does not resolve them (red-wing kappa_c from
about 1.5e5 on; the blue wing overflows first) it raises UnresolvedError, a
ValueError naming kappa_c, the output interval and the last two coefficient
tails.

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

Both kernel functions take kappa_c as a number or as an array of one sign
(zeros join either) that broadcasts against the coordinates, one entry a
point: each point gets the values of a lone call at its kappa_c, bit for
bit, and a point outside the domain raises what a lone call at it raises.
``_reduced_bessel`` is the one evaluation: a lone kappa_c is a batch of one
point, walked in cache-sized blocks.  At kappa_c = 0 the series gives
E_0 = E_1 = 1 exactly, so K = 0 and G = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .model import FieldRecord, Grid, PhysicalParams, SpinRecord, _centers
from .quadrature import PanelRule, panel_nodes

__all__ = [
    "I_OVERFLOW_X",
    "UnresolvedError",
    "kernel_self_scaled",
    "kernel_cross_scaled",
    "output_field",
    "output_spin",
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
    """kappa_c as a float array: finite, and of one sign (zeros join either)."""
    kappa_c = np.asarray(kappa_c, dtype=float)
    lo, hi = float(kappa_c.min()), float(kappa_c.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        bad = float(kappa_c[~np.isfinite(kappa_c)][0])
        raise ValueError(f"kappa_c must be finite, got {bad!r}")
    if lo < 0.0 < hi:
        raise ValueError("kappa_c entries of one call must share one sign")
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
    """E_order(kappa_c * s) for an array kappa_c of one sign, s >= 0 C-contiguous
    of the shape kappa_c broadcasts to, in place in s; every entry of kappa_c
    (a point) gets the values of a lone call at it.

    Each point's largest |y| sets what it takes: the series with as many
    terms as that needs, or the elementwise regions; on the blue wing it
    raises OverflowError when its largest argument passes ``I_OVERFLOW_X``.
    The series terms are padded with leading zeros per point, and 0 * y + 0
    = 0 exactly, so each point's sum starts where its own would (no terms
    for the points of the regions).  A lone kappa_c goes through in
    ``_BLOCK``-value slices of the flat array, a batch as one block, so
    callers keep batches near ``_BLOCK`` values."""
    kc = kappa_c.reshape((1,) * (s.ndim - kappa_c.ndim) + kappa_c.shape)
    axes = tuple(i for i, n in enumerate(kc.shape) if n == 1)
    y_max = np.abs(kc) * np.max(s, axis=axes, keepdims=True, initial=0.0)
    red = kc.max() > 0.0
    if not red:
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
            _reduced_bessel_regions(order, red, block)
            continue
        mixed = not series.all()
        if mixed:
            regions = np.broadcast_to(~series, block.shape)
            far = block[regions]
            _reduced_bessel_regions(order, red, far)
        block[...] = _horner(padded, block)
        if mixed:
            block[regions] = far
    return y


def _reduced_bessel_regions(order: int, red: bool, y: np.ndarray) -> None:
    """E_order(y) in place, each point by the method of its region."""
    near = y <= _SERIES_MAX_Y if red else y >= -_SERIES_MAX_Y
    series = _horner(_SERIES[order][0], y[near])
    x = np.sqrt(np.abs(y, out=y), out=y)
    x *= 2.0
    far = x >= _HANKEL_MIN_X
    mid = ~(near | far)
    y[near] = series
    for region, method in ((far, _hankel), (mid, _trapezoid)):
        xr = x[region]
        if xr.size:
            b = method(order, xr, red)
            if order:
                b /= xr
                b *= 2.0
            y[region] = b


def kernel_self_scaled(kappa_c, u):
    """Scaled self-kernel K(u) on u in [0, 1]; K(0+) = kappa_c exactly.

    ``kappa_c`` is a number or an array of one sign that broadcasts against
    u; each of its entries gets the values of a lone call at that kappa_c."""
    kappa_c = _check_kappa_c(kappa_c)
    u = np.asarray(u, dtype=float)
    s = np.clip(u, 0.0, None, out=np.empty(np.broadcast_shapes(u.shape, kappa_c.shape)))
    k = _reduced_bessel(1, kappa_c, s)
    return np.multiply(k, kappa_c, out=k)


def kernel_cross_scaled(kappa_c, x, t):
    """Scaled cross-kernel G(x, t) for x, t in [0, 1]; G = 1 at a = 0.

    ``kappa_c`` is a number or an array of one sign that broadcasts against
    x and t; each of its entries gets the values of a lone call at that
    kappa_c."""
    kappa_c = _check_kappa_c(kappa_c)
    shape = np.broadcast_shapes(np.shape(x), np.shape(t), kappa_c.shape)
    # one buffer for the product, overwritten with G; [()] unwraps the 0-d
    # result of scalar arguments
    s = np.multiply(x, t, dtype=float, out=np.empty(shape))
    return _reduced_bessel(0, kappa_c, np.clip(s, 0.0, None, out=s))[()]


def _interp_uniform_centers(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation of center samples onto scaled points x.

    Center j sits at (j + 1/2)/n.  Four-point stencils are clamped at the
    edges, so points in the outer half-bins are extrapolated at O(h^4).
    ``values`` (n, ...) may hold columns of samples; the result is then
    (x.shape, ...), each column as if interpolated alone.
    """
    n = values.shape[0]
    # weights broadcast over the columns
    cols = (1,) * (values.ndim - 1)
    if n < 4:
        # 2 or 3 bins (Grid allows them; the output maps take them) have no
        # four-point stencil: linear interpolation, clamped at the ends
        idx = np.clip(x * n - 0.5, 0.0, n - 1.0)
        lo = np.clip(np.floor(idx).astype(int), 0, n - 2)
        frac = (idx - lo).reshape(x.shape + cols)
        return values[lo] * (1 - frac) + values[lo + 1] * frac
    p = x * n - 0.5
    base = np.clip(np.floor(p).astype(int) - 1, 0, n - 4)
    s = (p - base).reshape(x.shape + cols)
    weights = (-(s - 1) * (s - 2) * (s - 3) / 6.0, s * (s - 2) * (s - 3) / 2.0,
               -s * (s - 1) * (s - 3) / 2.0, s * (s - 1) * (s - 2) / 6.0)
    # summed in place, in the order of w0*v0 + w1*v1 + w2*v2 + w3*v3, so
    # that a block of columns holds one stencil value at a time
    out = weights[0] * values[base]
    for k in (1, 2, 3):
        out += weights[k] * values[base + k]
    return out


def _causal_self_convolution(kappa_c: float, f, n: int, offsets) -> np.ndarray:
    """(K * f)(tau) = Int_0^tau K(tau - x) f(x) dx at tau = (b + o)/n.

    ``f`` is a callable on scaled coordinates, ``offsets`` the positions o in
    [0, 1) of the outputs inside each of the n bins b; returns shape
    (n, len(offsets)).  Panels are the bins left of b plus one partial panel
    [b/n, tau].  The lag from node k of bin b' to the output is
    (b - b' + o - (1 + x_k)/2)/n, a function of the bin distance alone, so
    the full bins are one causal discrete convolution per (node, offset),
    summed over the nodes as one product of real FFTs per (offset, column).
    f(x) may return (x.shape, C) columns, giving (n, len(offsets), C): the
    K values of each offset are evaluated once for all columns, and each
    column is convolved as if alone.
    """
    rule = PanelRule()
    h = 1.0 / n
    x, w = panel_nodes(np.arange(n + 1) * h, rule)       # (n, order)
    fx = f(x)
    cols = fx.shape[2:]
    fw = (w.reshape(w.shape + (1,) * len(cols)) * fx).reshape(n, rule.order, -1)
    frac = 0.5 * (1.0 + rule.x)                          # node positions in a bin
    bins = np.arange(n)
    # the linear convolutions of n - 1 terms have 2n - 3 terms, so a power of
    # two past that keeps the circular wrap-around off the n - 1 we keep
    size = 1 << (2 * n - 3).bit_length()
    fw_spec = [np.fft.rfft(fw[:-1, :, c].T, size) for c in range(fw.shape[2])]
    out = np.empty((n, len(offsets), fw.shape[2]))
    for i, o in enumerate(offsets):
        # the partial panel [b/n, tau] has lags o*h*(1 - frac) in every bin
        px = (bins[:, None] + o * frac[None, :]) * h
        partial = 0.5 * o * h * rule.w * kernel_self_scaled(kappa_c, o * h * (1.0 - frac))
        lags = kernel_self_scaled(kappa_c, (bins[None, 1:] + (o - frac[:, None])) * h)
        lag_spec = np.fft.rfft(lags, size)
        fpx = f(px).reshape(n, rule.order, -1)
        for c in range(fw.shape[2]):
            # a contiguous (n, order) block, multiplied as a lone f(px) is
            acc = np.ascontiguousarray(fpx[:, :, c]) @ partial
            acc[1:] += np.fft.irfft((fw_spec[c] * lag_spec).sum(axis=0), size)[:n - 1]
            out[:, i, c] = acc
    return out.reshape((n, len(offsets)) + cols)


# Chebyshev degrees of the low-rank apply: doubled from the first on nested
# Lobatto points; a kernel the cap does not resolve raises UnresolvedError
_FIRST_DEGREE = 16
_MAX_DEGREE = 1024


class UnresolvedError(ValueError):
    """A closed-form result not resolved at its largest order: a kernel apply
    at the largest Chebyshev degree, or a variance point at the largest Gauss
    order of variance.py."""


def _lobatto(degree: int) -> np.ndarray:
    """Chebyshev-Lobatto points cos(pi k/degree), k = 0..degree, on [-1, 1].

    Written as sines of exact multiples so that the points of a degree are
    bit for bit the even-indexed points of twice that degree."""
    return np.sin(np.pi * np.arange(degree, -degree - 1, -2) / (2 * degree))


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients of the interpolant through values at ``_lobatto`` points,
    along axis 0 for each column, relative to the column's largest value
    (blue-wing sums can sit near the double range)."""
    degree = values.shape[0] - 1
    top = np.max(np.abs(values), axis=0)
    values = values / np.where(top > 0.0, top, 1.0)
    c = np.fft.rfft(np.concatenate([values, values[-2:0:-1]]), axis=0).real / degree
    c[0] *= 0.5
    c[-1] *= 0.5
    return c


def _chop(coeffs: np.ndarray) -> int | None:
    """Number of Chebyshev coefficients before their round-off plateau, or None
    when there is no plateau yet: chebfun's standardChop at tol = eps
    (Aurentz & Trefethen, ACM TOMS 43, 2017)."""
    tol = np.finfo(float).eps
    n = coeffs.size
    if n < 17:
        return None
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    for j in range(2, n + 1):
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return None
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - math.log(e1) / math.log(tol)):
            break
    if e1 == 0.0:
        return j - 1
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.sum(env >= floor))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    with np.errstate(divide="ignore"):
        biased = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(biased)), 1)


def _tail(coeffs: np.ndarray) -> float:
    """Largest coefficient of the upper half relative to the largest one."""
    top = np.max(np.abs(coeffs))
    return float(np.max(np.abs(coeffs[coeffs.size // 2:])) / top) if top else 0.0


def _columns(coeffs: np.ndarray) -> np.ndarray:
    """Each column's coefficients as one row: (C, n) for (n, C), (1, n) for (n,)."""
    return coeffs.reshape(coeffs.shape[0], -1).T


def _barycentric(nodes: np.ndarray, values: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The interpolant through values at Lobatto ``nodes`` (descending,
    any interval), evaluated at a; a point on a node takes its value."""
    bary = np.where(np.arange(nodes.size) % 2, -1.0, 1.0)
    bary[[0, -1]] *= 0.5
    interp = np.subtract.outer(a, nodes)
    rows, cols = np.nonzero(interp == 0.0)
    interp[rows, cols] = 1.0
    np.divide(bary, interp, out=interp)
    # normalized before the product, so that it stays in range for sums near
    # the double range; a row with every node on its point sums to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        interp /= interp.sum(axis=1, keepdims=True)
    rows, first = np.unique(rows, return_index=True)
    interp[rows] = 0.0
    interp[rows, cols[first]] = 1.0
    return interp @ values


def _apply_kernel(kernel, a: np.ndarray, b: np.ndarray, w: np.ndarray,
                  kappa_c: float) -> np.ndarray:
    """out[i] = sum_j kernel(a[i], b[j]) * w[j] for a kernel smooth in a.

    The sums are taken only at Chebyshev-Lobatto points spanning
    [min a, max a] and carried to every a[i] by barycentric interpolation,
    so the kernel is evaluated on (degree + 1) x b.size points, not
    a.size x b.size.  The ends of the interval are nodes, so the kernel
    sees the extreme arguments of the outputs.  The degree doubles from
    ``_FIRST_DEGREE`` until the coefficients of the sums reach their
    round-off plateau (``_chop``) and the next degree confirms it, its own
    plateau starting within the smaller degree; the larger degree's points
    are used.  Unresolved at ``_MAX_DEGREE``, it raises UnresolvedError
    naming kappa_c.  ``kernel`` takes broadcast 2-D arguments.

    ``w`` may be (b.size, C), C columns of weights, giving out (a.size, C):
    the kernel is evaluated once per degree for all of them, each column is
    resolved by its own plateau, and all are interpolated from the degree
    that resolves the last one.
    """
    if a.size == 0:
        return np.empty((0,) + w.shape[1:])
    lo, hi = float(np.min(a)), float(np.max(a))

    def points(x):
        t = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
        t[x == 1.0] = hi
        t[x == -1.0] = lo
        return t

    degree = _FIRST_DEGREE
    s = kernel(points(_lobatto(degree))[:, None], b[None, :]) @ w
    coeffs = _columns(_chebyshev_coefficients(s))
    cuts = [_chop(c) for c in coeffs]
    resolved = [False] * len(cuts)
    tail = max(_tail(c) for c in coeffs)
    while degree < _MAX_DEGREE:
        degree *= 2
        finer = np.empty((degree + 1,) + w.shape[1:])
        finer[0::2] = s
        finer[1::2] = kernel(points(_lobatto(degree)[1::2])[:, None], b[None, :]) @ w
        s = finer
        coeffs = _columns(_chebyshev_coefficients(s))
        last_cuts, cuts = cuts, [_chop(c) for c in coeffs]
        resolved = [done or (last is not None and cut is not None and cut <= degree // 2 + 1)
                    for done, last, cut in zip(resolved, last_cuts, cuts)]
        last_tail, tail = tail, max(_tail(c) for c in coeffs)
        if all(resolved):
            return _barycentric(points(_lobatto(degree)), s, a)
    raise UnresolvedError(
        f"kernel apply at kappa_c = {kappa_c:.6g} is not resolved on outputs "
        f"[{lo:.6g}, {hi:.6g}] by Chebyshev degree {_MAX_DEGREE}: relative "
        f"coefficient tail {last_tail:.3g} at degree {degree // 2}, "
        f"{tail:.3g} at degree {degree}"
    )


def _cross_integral(kappa_c: float, f, n_src: int, t: np.ndarray) -> np.ndarray:
    """Int_0^1 G(1 - x, t_i) f(x) dx at every output t_i.

    ``f`` is a callable on the source's unit interval, integrated with
    panels on its ``n_src`` bins; f(x) may return (x.size, C) columns, one
    apply giving (t.size, C).  G depends on (1 - x)*t only, so an output
    may lie past 1 (the time continuation in spectral.py).
    """
    x, w = panel_nodes(np.arange(n_src + 1) / n_src, PanelRule())
    x = x.ravel()
    fx = f(x)
    fx = w.reshape((-1,) + (1,) * (fx.ndim - 1)) * fx
    return _apply_kernel(lambda t, r: kernel_cross_scaled(kappa_c, r, t),
                         t, 1.0 - x, fx, kappa_c)


def _output_components(kappa_c: float, components) -> list[np.ndarray]:
    """own - K*own + c * Int_0^1 G(1 - x, t) conj(x) dx at own's bin centers
    t, one array per (own, conj, c) triple; the samples enter through their
    cubic interpolant.  The triples whose own and conj sizes agree share one
    self-convolution, their owns its columns, and one kernel apply, their
    conjs its columns."""
    by_size = {}
    for i, (a, b, _) in enumerate(components):
        by_size.setdefault((a.size, b.size), []).append(i)
    out = [None] * len(components)
    for (n_out, n_src), group in by_size.items():
        own, conj = (np.stack([components[i][part] for i in group], axis=1) for part in (0, 1))
        conv = _causal_self_convolution(
            kappa_c, lambda x: _interp_uniform_centers(own, x), n_out, (0.5,))[:, 0]
        cross = _cross_integral(kappa_c, lambda x: _interp_uniform_centers(conj, x),
                                n_src, _centers(n_out))
        for k, i in enumerate(group):
            out[i] = own[:, k] - conv[:, k] + components[i][2] * cross[:, k]
    return out


def _components(params: PhysicalParams, grid: Grid, xi_in: FieldRecord,
                spin_in: SpinRecord) -> tuple[list, list]:
    """The (own, conj, c) triples of output_field (Xi1, Xi2) and of
    output_spin (Jz, Jy)."""
    if xi_in.n != grid.n_time or spin_in.n != grid.n_space:
        raise ValueError("input records do not match the grid")
    field_cb = 2.0 * params.beta * params.xi3_bar * params.length_L
    field_ce = 2.0 * params.epsilon * params.xi3_bar * params.length_L
    spin_ce = params.epsilon * params.jx_bar * params.time_T
    spin_cb = params.beta * params.jx_bar * params.time_T
    return ([(xi_in.xi1, spin_in.jz, field_cb), (xi_in.xi2, spin_in.jy, -field_ce)],
            [(spin_in.jz, xi_in.xi1, -spin_ce), (spin_in.jy, xi_in.xi2, spin_cb)])


def output_field(params: PhysicalParams, grid: Grid, xi_in: FieldRecord,
                 spin_in: SpinRecord) -> FieldRecord:
    """Light record at z = L from input light (z=0) and input spins (t=0)."""
    field, _ = _components(params, grid, xi_in, spin_in)
    return FieldRecord(*_output_components(params.kappa_c, field))


def output_spin(params: PhysicalParams, grid: Grid, xi_in: FieldRecord,
                spin_in: SpinRecord) -> SpinRecord:
    """Spin record at t = T from input light (z=0) and input spins (t=0).

    The light <-> spin mirror of output_field: G(z, T - t') has the
    residual 1 - tau' in the time integral.
    """
    _, spin = _components(params, grid, xi_in, spin_in)
    return SpinRecord(*_output_components(params.kappa_c, spin))


def output_maps(params: PhysicalParams, grid: Grid,
                records) -> list[tuple[FieldRecord, SpinRecord]]:
    """output_field and output_spin of every (xi_in, spin_in) pair of
    ``records``, at one params.

    The cross integrals of all pairs that share source and output sizes are
    the columns of one kernel apply: with n_time = n_space, all four of
    every pair.
    """
    components = []
    for xi_in, spin_in in records:
        field, spin = _components(params, grid, xi_in, spin_in)
        components += field + spin
    out = _output_components(params.kappa_c, components)
    return [(FieldRecord(*out[i:i + 2]), SpinRecord(*out[i + 2:i + 4]))
            for i in range(0, len(out), 4)]
