"""Characteristic-lattice integrator for the full coupled system.

The hyperbolic system (retardation dropped)

    d/dz Xi1 = -kappa2*Xi2 + 2*beta*xi3*Jz      d/dt Jz =  Omega*Jy - eps*jx*Xi1
    d/dz Xi2 =  kappa2*Xi1 - 2*eps*xi3*Jy       d/dt Jy = -Omega*Jz + beta*jx*Xi2

is marched on the unit lattice cell: light bins advance in z along each time
row, spin bins advance in t along each space column, coupled by the implicit
midpoint (trapezoid/Cayley) rule solved exactly per cell.  The per-cell map
is a constant 4x4 matrix, so one sweep costs O(n_space * n_time) with the
time axis fully vectorized through an eigen-decomposition of the spin
propagation block.

The Cayley cell map is exactly canonical: it preserves the weighted
antisymmetric form pairing (Xi1, Xi2) bins with weight +1 and (Jz, Jy) bins
with weight SPIN_BLOCK_SIGN in the normalized bin convention below, so the
discrete input-output matrix is symplectic to rounding, not merely to O(h^2).

Normalized bins: light samples scale by sqrt(dt / (2*xi3_bar)), spin samples
by sqrt(dz / jx_bar).  Coherent/Poissonian inputs then have variance 1/2 in
every bin, and the transfer matrix reduces to the identity when all
couplings vanish.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import FieldRecord, SpinRecord
from .model import Grid, PhysicalParams

__all__ = [
    "StabilityError",
    "SPIN_BLOCK_SIGN",
    "cell_matrix",
    "check_stability",
    "integrate",
    "integrate_stacked",
    "integrate_extrapolated",
    "build_transfer_matrix",
    "transfer_adjoint_apply",
    "TransferMatrix",
    "symplectic_form",
    "symplectic_residual",
]

# Relative sign of the (Jz, Jy) pairing in the preserved antisymmetric form,
# calibrated at kappa_c = 0.01 by trying both signs (the test suite repeats
# the calibration); the light pairing carries +1.
SPIN_BLOCK_SIGN = -1.0

_STABILITY_LIMIT = 0.5


class StabilityError(ValueError):
    """Grid too coarse for the requested couplings."""


def check_stability(params: PhysicalParams, grid: Grid) -> None:
    dz = grid.dz(params.length_L)
    dt = grid.dt(params.time_T)
    terms = {
        "|kappa2|*dz": abs(params.kappa2) * dz,
        "|Omega|*dt": abs(params.omega) * dt,
        "sqrt(|a|*dz*dt)": float(np.sqrt(abs(params.a_coupling) * dz * dt)),
    }
    name, value = max(terms.items(), key=lambda kv: kv[1])
    if value >= _STABILITY_LIMIT:
        raise StabilityError(
            f"stability precondition violated: {name} = {value:.6g} >= {_STABILITY_LIMIT}"
        )


def cell_matrix(params: PhysicalParams, dz: float, dt: float) -> np.ndarray:
    """Cayley map of one lattice cell on (Xi1, Xi2, Jz, Jy) bin averages."""
    k2 = params.kappa2 * dz
    om = params.omega * dt
    cb = 2.0 * params.beta * params.xi3_bar * dz
    ce = 2.0 * params.epsilon * params.xi3_bar * dz
    gz = params.epsilon * params.jx_bar * dt
    gy = params.beta * params.jx_bar * dt
    gen = np.array([
        [0.0, -k2, cb, 0.0],
        [k2, 0.0, 0.0, -ce],
        [-gz, 0.0, 0.0, om],
        [0.0, gy, -om, 0.0],
    ])
    eye = np.eye(4)
    return np.linalg.solve(eye - 0.5 * gen, eye + 0.5 * gen)


def _spin_propagators(S: np.ndarray, n_time: int):
    """Eigen factorization of the 2x2 spin block plus ready-made powers.

    Returns None if S is too close to defective, signalling the sequential
    fallback.
    """
    lam, V = np.linalg.eig(S)
    try:
        cond = np.linalg.cond(V)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(cond) or cond > 1e8:
        return None
    Vinv = np.linalg.inv(V)
    j = np.arange(n_time) + 1.0
    lam_pow = lam[:, None] ** j[None, :]       # lam^(j+1)
    lam_inv = lam[:, None] ** (-j[None, :])    # lam^-(j+1)
    if not (np.all(np.isfinite(lam_pow)) and np.all(np.isfinite(lam_inv))):
        return None
    return V, Vinv, lam_pow, lam_inv


def _sweep(cell: np.ndarray, u: np.ndarray, w: np.ndarray,
           probes: tuple[int, ...] = ()) -> tuple[np.ndarray, np.ndarray, dict]:
    """March light u (2, n_time, ...) through all space steps.

    w has shape (2, n_space, ...).  Returns the advanced copies plus probe
    snapshots of the Xi1 row taken right after the requested space steps.
    """
    u = np.array(u, dtype=float, copy=True)
    w = np.array(w, dtype=float, copy=True)
    n_time = u.shape[1]
    n_space = w.shape[1]
    P, Q = cell[:2, :2], cell[:2, 2:]
    R, S = cell[2:, :2], cell[2:, 2:]
    captured = {}
    fact = _spin_propagators(S, n_time)
    if fact is None:
        for i in range(n_space):
            s = w[:, i].copy()
            for j in range(n_time):
                uj = u[:, j]
                new_u = np.tensordot(P, uj, axes=1) + np.tensordot(Q, s, axes=1)
                s = np.tensordot(R, uj, axes=1) + np.tensordot(S, s, axes=1)
                u[:, j] = new_u
            w[:, i] = s
            if i in probes:
                captured[i] = u[0].copy()
        return u, w, captured
    V, Vinv, lam_pow, lam_inv = fact
    trail = u.shape[2:]
    shape_bc = (2, n_time) + (1,) * len(trail)
    lam_pow_b = lam_pow.reshape(shape_bc)
    lam_inv_b = lam_inv.reshape(shape_bc)
    for i in range(n_space):
        f = np.einsum("ab,bj...->aj...", Vinv @ R, u)
        w0 = np.einsum("ab,b...->a...", Vinv, w[:, i])
        pref = np.cumsum(lam_inv_b * f, axis=1)
        after = lam_pow_b * (w0[:, None] + pref)
        enter = np.empty_like(after)
        enter[:, 0] = w0
        enter[:, 1:] = after[:, :-1]
        u = (
            np.einsum("ab,bj...->aj...", P, u)
            + np.einsum("ab,bj...->aj...", Q @ V, enter).real
        )
        w[:, i] = np.einsum("ab,b...->a...", V, after[:, -1]).real
        if i in probes:
            captured[i] = u[0].copy()
    return u, w, captured


def integrate_stacked(params: PhysicalParams, grid: Grid,
                      u: np.ndarray, w: np.ndarray,
                      probes: tuple[int, ...] = ()):
    """Raw-array integrate: u (2, n_time, ...) light, w (2, n_space, ...) spin."""
    check_stability(params, grid)
    cell = cell_matrix(params, grid.dz(params.length_L), grid.dt(params.time_T))
    return _sweep(cell, u, w, probes)


def integrate(params: PhysicalParams, grid: Grid, xi_in: FieldRecord,
              spin_in: SpinRecord) -> tuple[FieldRecord, SpinRecord]:
    """Second-order solution: light record at z=L and spin record at t=T."""
    if xi_in.n != grid.n_time or spin_in.n != grid.n_space:
        raise ValueError("input records do not match the grid")
    u = np.stack([xi_in.xi1, xi_in.xi2])
    w = np.stack([spin_in.jz, spin_in.jy])
    u, w, _ = integrate_stacked(params, grid, u, w)
    return FieldRecord(u[0], u[1]), SpinRecord(w[0], w[1])


def integrate_extrapolated(params: PhysicalParams, grid: Grid, field_fns,
                           spin_fns) -> tuple[FieldRecord, SpinRecord]:
    """High-accuracy oracle reference: Richardson pair of integrate() runs.

    Combines the second-order solution at the given grid with a 3x refined
    companion run (center sub-bins align exactly, so no resampling error)
    as (9*fine - coarse)/8, cancelling the leading h^2 term.  Inputs are
    callables of the physical coordinates.
    """
    f1, f2 = field_fns
    g1, g2 = spin_fns
    fine = Grid(3 * grid.n_time, 3 * grid.n_space)
    out = []
    for g in (grid, fine):
        xi = FieldRecord.from_functions(f1, f2, g.n_time, params.time_T)
        sp = SpinRecord.from_functions(g1, g2, g.n_space, params.length_L)
        out.append(integrate(params, g, xi, sp))
    (fc, sc), (ff, sf) = out
    pick_t = slice(1, None, 3)
    pick_z = slice(1, None, 3)
    field = FieldRecord(
        (9.0 * ff.xi1[pick_t] - fc.xi1) / 8.0,
        (9.0 * ff.xi2[pick_t] - fc.xi2) / 8.0,
    )
    spin = SpinRecord(
        (9.0 * sf.jz[pick_z] - sc.jz) / 8.0,
        (9.0 * sf.jy[pick_z] - sc.jy) / 8.0,
    )
    return field, spin


def _norms(params: PhysicalParams, grid: Grid) -> tuple[float, float]:
    nl = float(np.sqrt(grid.dt(params.time_T) / (2.0 * params.xi3_bar)))
    ns = float(np.sqrt(grid.dz(params.length_L) / params.jx_bar))
    return nl, ns


@dataclass(frozen=True)
class TransferMatrix:
    """Discrete input-output map on normalized noise bins.

    Row/column layout: [Xi1 bins (n_time), Xi2 bins (n_time),
    Jz bins (n_space), Jy bins (n_space)].
    """

    matrix: np.ndarray
    n_time: int
    n_space: int

    @property
    def dim(self) -> int:
        return 2 * self.n_time + 2 * self.n_space


def build_transfer_matrix(params: PhysicalParams, grid: Grid,
                          chunk: int = 512) -> TransferMatrix:
    """Columns are integrate() responses to unit normalized bin impulses.

    Column batches propagate through a single stacked sweep each, so the
    assembly order (hence the matrix) is bit-reproducible.
    """
    check_stability(params, grid)
    nt, ns = grid.n_time, grid.n_space
    dim = 2 * nt + 2 * ns
    nl, nsp = _norms(params, grid)
    cell = cell_matrix(params, grid.dz(params.length_L), grid.dt(params.time_T))
    out = np.empty((dim, dim))
    for lo in range(0, dim, chunk):
        hi = min(lo + chunk, dim)
        k = hi - lo
        u = np.zeros((2, nt, k))
        w = np.zeros((2, ns, k))
        for c, col in enumerate(range(lo, hi)):
            if col < nt:
                u[0, col, c] = 1.0 / nl
            elif col < 2 * nt:
                u[1, col - nt, c] = 1.0 / nl
            elif col < 2 * nt + ns:
                w[0, col - 2 * nt, c] = 1.0 / nsp
            else:
                w[1, col - 2 * nt - ns, c] = 1.0 / nsp
        u, w, _ = _sweep(cell, u, w)
        out[:nt, lo:hi] = u[0] * nl
        out[nt:2 * nt, lo:hi] = u[1] * nl
        out[2 * nt:2 * nt + ns, lo:hi] = w[0] * nsp
        out[2 * nt + ns:, lo:hi] = w[1] * nsp
    return TransferMatrix(out, nt, ns)


def transfer_adjoint_apply(params: PhysicalParams, grid: Grid,
                           y: np.ndarray) -> np.ndarray:
    """M^T y without building M, via the reversed sweep with transposed cells.

    The forward map is an ordered product of identical 4x4 cell maps; its
    transpose is the reversed product of transposed cells, which is the same
    sweep run with both lattice axes flipped.
    """
    check_stability(params, grid)
    nt, ns = grid.n_time, grid.n_space
    dim = 2 * nt + 2 * ns
    y = np.asarray(y, dtype=float)
    if y.shape[0] != dim:
        raise ValueError(f"vector length {y.shape[0]} does not match layout dim {dim}")
    nl, nsp = _norms(params, grid)
    cell = cell_matrix(params, grid.dz(params.length_L), grid.dt(params.time_T))
    adj = np.empty_like(cell)
    adj[:2, :2] = cell[:2, :2].T
    adj[:2, 2:] = cell[2:, :2].T
    adj[2:, :2] = cell[:2, 2:].T
    adj[2:, 2:] = cell[2:, 2:].T
    trail = y.shape[1:]
    u = np.empty((2, nt) + trail)
    w = np.empty((2, ns) + trail)
    u[0] = y[:nt][::-1] * nl
    u[1] = y[nt:2 * nt][::-1] * nl
    w[0] = y[2 * nt:2 * nt + ns][::-1] * nsp
    w[1] = y[2 * nt + ns:][::-1] * nsp
    u, w, _ = _sweep(adj, u, w)
    out = np.empty_like(y)
    out[:nt] = u[0][::-1] / nl
    out[nt:2 * nt] = u[1][::-1] / nl
    out[2 * nt:2 * nt + ns] = w[0][::-1] / nsp
    out[2 * nt + ns:] = w[1][::-1] / nsp
    return out


def symplectic_form(n_time: int, n_space: int,
                    spin_sign: float = SPIN_BLOCK_SIGN) -> np.ndarray:
    """Antisymmetric block form paired (Xi1,Xi2) and (Jz,Jy) bin by bin."""
    dim = 2 * n_time + 2 * n_space
    omega = np.zeros((dim, dim))
    it = np.eye(n_time)
    iz = np.eye(n_space)
    omega[:n_time, n_time:2 * n_time] = it
    omega[n_time:2 * n_time, :n_time] = -it
    omega[2 * n_time:2 * n_time + n_space, 2 * n_time + n_space:] = spin_sign * iz
    omega[2 * n_time + n_space:, 2 * n_time:2 * n_time + n_space] = -spin_sign * iz
    return omega


def symplectic_residual(tm: TransferMatrix,
                        spin_sign: float = SPIN_BLOCK_SIGN) -> float:
    """max |M Omega M^T - Omega| / max |Omega|."""
    omega = symplectic_form(tm.n_time, tm.n_space, spin_sign)
    delta = tm.matrix @ omega @ tm.matrix.T - omega
    return float(np.max(np.abs(delta)) / np.max(np.abs(omega)))
