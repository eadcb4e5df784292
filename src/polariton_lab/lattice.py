"""Characteristic-lattice integrator for the full coupled system.

The hyperbolic system (retardation dropped)

    d/dz Xi1 = -kappa2*Xi2 + 2*beta*xi3*Jz      d/dt Jz =  Omega*Jy - eps*jx*Xi1
    d/dz Xi2 =  kappa2*Xi1 - 2*eps*xi3*Jy       d/dt Jy = -Omega*Jz + beta*jx*Xi2

is marched on the unit lattice cell: light bins advance in z along each time
row, spin bins advance in t along each space column, coupled by the implicit
midpoint (trapezoid/Cayley) rule solved exactly per cell.  The per-cell map
is a constant 4x4 matrix.

Because the cell is constant the lattice is translation-invariant, and its
impulse responses are the lattice Green's (Riemann) function of the Goursat
problem.  The map of any b_t x b_s block of cells, a tile of
2*b_t + 2*b_s rows and columns, is assembled from the responses to the unit
impulses on one block's inputs, swept once cell by cell, and every block has
the same tile.  The transfer matrix is assembled the same way from one tiled
sweep of the impulses on tile (0, 0)'s inputs; the adjoint is the forward
sweep reversed.  The light and spin that each sweep step emits are written
straight into the matrix's cross blocks, so beside the matrix a build holds
only the sweep's state.

The sweep marches tiles.  Tile (i, j), at tile column i and tile row j,
needs only tiles (i-1, j) and (i, j-1), so the tiles of one anti-diagonal
i + j = d are independent: one sweep applies the tile to each anti-diagonal
as a single block, in O(n_space * n_time) work and n_space/b_s +
n_time/b_t - 1 steps.  A square tile costs 16*b^2 multiply-adds per
right-hand side, as many as its cells, but in dense products of 4*b rows in
place of 4, which cuts the steps and the per-step cost; a b_t x b_s tile
costs (b_t + b_s)^2 / (4*b_t*b_s) times its cells.  The
tile sides come from the grid alone (``_tile_sides``): per axis the largest
power of two up to 16 that divides it, so a prime axis marches cell by cell
and the 1x1 tile is the cell itself.  The same sweep marches a stack of
tiles, one per parameter point, with two matmuls per anti-diagonal for the
whole stack, one for the light rows of the tiles and one for the spin rows.
They read the anti-diagonal in place from one of two state buffers and write
straight into the other, so a step moves no data besides the products and
one tile of light in and one out, and a stack of P points costs far less
than P sweeps: the Python cost of a step is paid once for the stack.  Two
callers march stacks: the matrix-route variance scans apply the adjoint that
way, and the oracle-compare batch integrates every (kappa_c, profile) pair
forward as one stack entry at each of its two grid levels
(``integrate_extrapolated``, which returns the light (P, 2, n_time) and the
spin (P, 2, n_space) at the bin centers, profile first).  Both hand over
the whole stack: ``integrate_stacked`` and ``transfer_adjoint_apply`` check
every point's stability before any sweep, and march the stack in sweeps of
at most one step budget (``_group_size``) each, building each sweep's tiles
first.  The transfer matrix's sweep marches the same tiles.

At kappa2 = Omega = 0 the system is two independent channels, (Xi1, Jz)
coupled by beta and (Xi2, Jy) by eps, and the Cayley solve leaves exact
zeros between them, so the cell and every tile built from it are
block-diagonal.  ``_march`` marches each entry whose cell is block-diagonal
as two one-component entries, with the halves of its tile, of side
b_t + b_s: half the multiply-adds, none of them on the zeros.  The halves
are cut from the dense tile and made C-contiguous.  Cut by fancy indexing
alone, their strides followed the stack size, BLAS rounded an entry of a
stack unlike the same entry alone, and the oracle-compare batch stopped
matching its one-profile calls.  The choice is each entry's, so its bits
never depend on its stack-mates; rotating cells, the memory scans' adjoint
with kappa2 or Omega and the transfer matrix's build march all four
components as before.

The Cayley cell map is exactly canonical: it preserves the weighted
antisymmetric form pairing (Xi1, Xi2) bins with weight +1 and (Jz, Jy) bins
with weight SPIN_BLOCK_SIGN in the normalized bin convention below, so the
discrete input-output matrix is symplectic to rounding, not merely to O(h^2).
The form and the residual know this one sign; the test suite's calibration
(tests/test_lattice.py) builds the form of each sign as a dense matrix and
finds the other sign off by many orders of magnitude.

Normalized bins: light samples scale by sqrt(dt / (2*xi3_bar)), spin samples
by sqrt(dz / jx_bar).  Coherent/Poissonian inputs then have variance 1/2 in
every bin, and the transfer matrix reduces to the identity when all
couplings vanish.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from .model import Grid, PhysicalParams, _centers, _Record, _shared_box

__all__ = [
    "StabilityError",
    "SPIN_BLOCK_SIGN",
    "cell_matrix",
    "check_stability",
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
# the calibration on dense forms); the light pairing carries +1.
SPIN_BLOCK_SIGN = -1.0

_STABILITY_LIMIT = 0.5

# Largest tile side: each axis is marched in tiles of the largest power of two
# up to this that divides its bin count (``_tile_sides``), so a prime axis
# gets 1-wide tiles.
_TILE_SIDE = 16

# Stack entries per sweep: as many as keep both the longest anti-diagonal one
# sweep step reads (entries x D rows x min(m_t, m_s) tiles x right-hand sides,
# D = 2*b_t + 2*b_s) and the entries' tile matrices (entries x D^2) within
# 0.5 MiB of doubles, the measured knee of the sweep time per entry; the step
# writes as much again into the other state buffer.  Counting the tiles keeps
# a big stack on a small grid bounded.  At grid 1024 with one right-hand side
# that is 16 entries.
_GROUP_STEP_DOUBLES = 1 << 16

# Panel height of the symplectic residual: each panel of this many rows of M
# makes one product with M's rows from the panel on.  The shuffled panel and
# its product each reuse one buffer of this many rows, so beside M the
# residual holds those two.
_RESIDUAL_TILE = 128

# The entries of a (4, 4) cell that couple channel (Xi1, Jz), bins 0 and 2,
# to channel (Xi2, Jy), bins 1 and 3
_CROSS_CHANNEL = np.add.outer(np.arange(4), np.arange(4)) % 2 == 1


def _tile_sides(n_time: int, n_space: int) -> tuple[int, int]:
    """Tile sides (b_t, b_s): per axis, the largest power of two up to ``_TILE_SIDE``
    that divides the count; counts, not a Grid, as a tile's axis may be 1 bin."""
    return math.gcd(n_time, _TILE_SIDE), math.gcd(n_space, _TILE_SIDE)


def _group_size(grid: Grid, nrhs: int = 1) -> int:
    """Stack entries of ``nrhs`` right-hand sides each that one sweep marches."""
    b_t, b_s = _tile_sides(grid.n_time, grid.n_space)
    rows = 2 * b_t + 2 * b_s
    step = rows * min(grid.n_time // b_t, grid.n_space // b_s) * nrhs
    return max(1, _GROUP_STEP_DOUBLES // max(step, rows * rows))


class StabilityError(ValueError):
    """Grid too coarse for the requested couplings."""


def check_stability(params: PhysicalParams, grid: Grid) -> None:
    """Raise StabilityError, led by the params' kappa_c, for a grid too coarse."""
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
            f"kappa_c = {params.kappa_c:.6g}: stability precondition violated: "
            f"{name} = {value:.6g} >= {_STABILITY_LIMIT}"
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


def _stack_cells(params: PhysicalParams | Sequence[PhysicalParams],
                 grid: Grid) -> tuple[list[PhysicalParams], np.ndarray]:
    """One params or a sequence of them as a non-empty list and its (P, 4, 4)
    stack of cells; every params is checked for stability before any cell
    is built."""
    stack = [params] if isinstance(params, PhysicalParams) else list(params)
    if not stack:
        raise ValueError("no params given")
    for p in stack:
        check_stability(p, grid)
    return stack, np.stack([cell_matrix(p, grid.dz(p.length_L), grid.dt(p.time_T))
                            for p in stack])


def _sweep(tiles: np.ndarray, u: np.ndarray, w: np.ndarray, sides: tuple[int, int],
           record: Callable[[int, int, np.ndarray, np.ndarray], None] | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """March light u and spin w across the lattice by one tile or a stack of tiles.

    A tile is the map of a b_t x b_s block of cells, ``sides = (b_t, b_s)``:
    a square matrix of D = c*b_t + c*b_s rows whose rows and columns are the
    bins of a b_t x b_s grid in the ``_bin_layout`` order, the c light
    components over b_t time bins, then the c spin components over b_s space
    bins.  The component count c is that of the inputs: 2 for the dense map,
    Xi1 and Xi2 then Jz and Jy, whose 1x1 tile is the (4, 4) cell, and 1 for
    one channel of a split cell (``_march``).  ``tiles`` is one (D, D) tile,
    marching light u (c, n_time, ...) and spin w (c, n_space, ...), or a
    stack (P, D, D) marching u (P, c, n_time, ...) and w (P, c, n_space,
    ...), stack entry p by tile p.  b_t divides n_time and b_s divides
    n_space.  The trailing axes are right-hand sides.  Returns the light
    after the last space step and the spin after the last time step, in the
    input shapes.

    The tiles form an m_t x m_s lattice, m_t = n_time / b_t and
    m_s = n_space / b_s, swept like the cells of a 1x1 lattice in
    m_t + m_s - 1 anti-diagonal steps.  Each stack entry's state lives in
    two (D, (m_s + 1)*R) buffers, R right-hand sides per column, read and
    written in turn.  Column c = m_s - i holds the spin of tile column i in
    rows 2*b_t:D and, in rows 0:2*b_t, the light that enters tile (i, j)
    next, so the tiles of one anti-diagonal read one column range
    [c0*R:c1*R].  A step applies the light and spin rows of the tiles to
    that range with two matmuls straight into the other buffer: spin to the
    same columns, light one column left, where its next tile's spin column
    is.  Besides them a step copies only the light entering at column m_s
    from u and the light leaving at column 0 back to u.  Tile column i's
    spin ends in the buffer of parity m_t + i, and is read back from there.

    ``record``, if given, is called after every step as
    ``record(k0, j0, light, spin)``.  The step's n tiles are
    (m_s - 1 - k0 - t, j0 + t), t < n; ``light`` (..., c, b_t, n, R) is the
    light that leaves them in space and ``spin`` (..., c, b_s, n, R) the
    spin that leaves them in time, with the stack axes first.  Both are
    views of the state that the next step overwrites.
    """
    tiles = np.asarray(tiles, dtype=float)
    lead = tiles.shape[:-2]
    axis = len(lead) + 1
    shape_u, shape_w = np.shape(u), np.shape(w)
    comps = shape_u[axis - 1]
    b_t, b_s = sides
    m_t, m_s = shape_u[axis] // b_t, shape_w[axis] // b_s
    nrhs = math.prod(shape_u[axis + 1:])
    light_rows = comps * b_t
    # light leaves into the copy it entered from, kept in the input's bin
    # order: tile row j's light is u_tiles[..., :, j, :, :].  Rebinding u and
    # deleting w let a caller's temporary inputs go before the march
    u = np.array(u, dtype=float, order="C")
    u_tiles = u.reshape(lead + (comps, m_t, b_t, nrhs))
    state = np.empty((2,) + lead + (light_rows + comps * b_s, m_s + 1, nrhs))
    # views of the rows of a column as (c, b_t) light and (c, b_s) spin bins:
    # splitting an axis never copies.  The light enters at column m_s
    # and leaves at column 0
    light_in = state[..., :light_rows, m_s, :].reshape((2,) + lead + (comps, b_t, nrhs))
    light_out = state[..., :light_rows, 0, :].reshape((2,) + lead + (comps, b_t, nrhs))
    spin_state = state[..., light_rows:, :, :].reshape(
        (2,) + lead + (comps, b_s, m_s + 1, nrhs))
    spin_state[..., 1:, :] = np.reshape(
        w, lead + (comps, m_s, b_s, nrhs))[..., ::-1, :, :].swapaxes(-3, -2)
    del w
    buffers = state.reshape((2,) + lead + (light_rows + comps * b_s, (m_s + 1) * nrhs))
    light_tiles, spin_tiles = tiles[..., :light_rows, :], tiles[..., light_rows:, :]
    # with no space column, column 0 would both take and give the light
    for d in range(m_t + m_s - 1 if m_t and m_s else 0):
        src, dst = buffers[d % 2], buffers[1 - d % 2]
        j0, j1 = max(0, d - m_s + 1), min(d, m_t - 1) + 1
        c0 = m_s - d + j0
        c1 = c0 + j1 - j0
        if d < m_t:
            light_in[d % 2] = u_tiles[..., :, d, :, :]
        diagonal = src[..., c0 * nrhs:c1 * nrhs]
        light = np.matmul(light_tiles, diagonal,
                          out=dst[..., :light_rows, (c0 - 1) * nrhs:(c1 - 1) * nrhs])
        spin = np.matmul(spin_tiles, diagonal, out=dst[..., light_rows:, c0 * nrhs:c1 * nrhs])
        if c0 == 1:
            u_tiles[..., :, j0, :, :] = light_out[1 - d % 2]
        if record is not None:
            record(c0 - 1, j0, light.reshape(lead + (comps, b_t, j1 - j0, nrhs)),
                   spin.reshape(lead + (comps, b_s, j1 - j0, nrhs)))
    w = np.empty(lead + (comps, m_s, b_s, nrhs))
    w[..., 0::2, :, :] = spin_state[m_t % 2, ..., m_s:0:-2, :].swapaxes(-3, -2)
    w[..., 1::2, :, :] = spin_state[1 - m_t % 2, ..., m_s - 1:0:-2, :].swapaxes(-3, -2)
    return u.reshape(shape_u), w.reshape(shape_w)


def _channel_bins(b_t: int, b_s: int) -> np.ndarray:
    """The rows of a dense b_t x b_s tile that belong to channel (Xi1, Jz),
    row 0, and to (Xi2, Jy), row 1, each in its one-component tile's order."""
    light, spin = np.arange(b_t), 2 * b_t + np.arange(b_s)
    return np.stack([np.concatenate((light + c * b_t, spin + c * b_s)) for c in range(2)])


def _march(cells: np.ndarray, grid: Grid, u: np.ndarray, w: np.ndarray,
           out_u: np.ndarray, out_w: np.ndarray) -> None:
    """Sweep light u (P, 2, n_time, ...) and spin w (P, 2, n_space, ...),
    entry p by cells[p], into out_u and out_w of the same shapes, which may
    be u and w themselves: a sweep copies its group's input before the
    group's output is written.

    The entries ride stacked sweeps of up to ``_group_size`` entries, in
    tiles of ``_tile_sides``: each sweep first builds its entries'
    tiles from their cells by ``_green_matrix``.  Each is its own stack
    entry, so it is marched at the width of a sweep of it alone: BLAS rounds
    a block product differently at other widths, and this keeps every entry
    bit-identical to sweeping it alone, in any group.

    An entry whose cell couples neither channel to the other, as at
    kappa2 = Omega = 0, marches as two one-component entries: its dense
    tile is then block-diagonal in (Xi1, Jz) + (Xi2, Jy), and each half is
    cut from it and made C-contiguous, so its products have the strides of
    a lone entry's whatever the group (a fancy-indexed cut has strides that
    follow the stack size, and BLAS rounds those differently).  The choice
    is the cell's alone, and each maximal run of split or of dense entries
    is sliced into groups on its own, so a group holds one kind.
    """
    sides = _tile_sides(grid.n_time, grid.n_space)
    size = _group_size(grid, math.prod(u.shape[3:]))
    split = ~np.any(cells[:, _CROSS_CHANNEL], axis=-1)
    # slices of up to ``size`` entries, each within one run of one kind
    edges = [0, *(np.flatnonzero(split[1:] != split[:-1]) + 1).tolist(), len(cells)]
    groups = [slice(start, min(start + size, end))
              for run, end in zip(edges, edges[1:]) for start in range(run, end, size)]
    for group in groups:
        tiles = _green_matrix(cells[group], *sides)
        if not split[group.start]:
            out_u[group], out_w[group] = _sweep(tiles, u[group], w[group], sides)
            continue
        # (k, 2, D/2, D/2): entry p's channel c rides stack entry (p, c),
        # marching u[p, c] and w[p, c] as one-component inputs
        rows = _channel_bins(*sides)
        half = np.ascontiguousarray(tiles[:, rows[:, :, None], rows[:, None, :]])
        del tiles
        one_u, one_w = _sweep(half, u[group][:, :, None], w[group][:, :, None], sides)
        out_u[group], out_w[group] = one_u[:, :, 0], one_w[:, :, 0]


def integrate_stacked(params: PhysicalParams | Sequence[PhysicalParams], grid: Grid,
                      u: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw-array integrate: light u at z = L and spin w at t = T.

    ``params`` is one PhysicalParams, with light u (2, n_time, ...) and spin
    w (2, n_space, ...), or a sequence of P of them, with u (2, n_time, P,
    ...) and w (2, n_space, P, ...): entry p is then marched by the cell of
    params[p].  Trailing axes are right-hand sides.  Every params is checked
    for stability before any sweep, and the stack is marched by ``_march``;
    one params is a one-entry stack.
    """
    single = isinstance(params, PhysicalParams)
    stack, cells = _stack_cells(params, grid)
    u, w = np.asarray(u), np.asarray(w)
    if (u.shape[:2] != (2, grid.n_time) or w.shape[:2] != (2, grid.n_space)
            or u.shape[2:] != w.shape[2:]):
        raise ValueError(
            f"light {u.shape} and spin {w.shape} do not match grid "
            f"(2, {grid.n_time}, ...) and (2, {grid.n_space}, ...) with equal trailing shapes"
        )
    if single:
        u, w = u[:, :, None], w[:, :, None]
    elif u.ndim < 3 or u.shape[2] != len(stack):
        raise ValueError(f"light {u.shape} does not hold one entry per params: "
                         f"expected (2, {grid.n_time}, {len(stack)}, ...)")
    out_u, out_w = np.empty(u.shape), np.empty(w.shape)
    # (P, 2, n, ...) views: the stack axis first, as _sweep takes it
    _march(cells, grid, *(np.moveaxis(x, 2, 0) for x in (u, w, out_u, out_w)))
    return (out_u[:, :, 0], out_w[:, :, 0]) if single else (out_u, out_w)


def _sampled(values, count: int, n: int, name: str) -> np.ndarray:
    """A profile set's values (count, 2, n) at n bin centers, as a (2, n,
    count) view; each entry finite."""
    values = np.asarray(values, dtype=float)
    if values.shape != (count, 2, n):
        raise ValueError(f"{name} values of shape {values.shape}: expected ({count}, 2, {n})")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} values contain non-finite samples")
    return np.moveaxis(values, 0, 2)


def integrate_extrapolated(params: Sequence[PhysicalParams], grid: Grid, light: Callable,
                           spin: Callable) -> tuple[np.ndarray, np.ndarray]:
    """High-accuracy oracle reference: Richardson pair of lattice integrates.

    Combines the second-order solution at the given grid with a 3x refined
    companion run (center sub-bins align exactly, so no resampling error)
    as (9*fine - coarse)/8, cancelling the leading h^2 term.

    ``params`` is a sequence of P PhysicalParams that share one time_T and
    length_L, and ``light`` and ``spin`` a set of P input profiles, as
    ``output_maps`` takes them: ``light(t)`` gives profile p's (Xi1, Xi2) at
    the physical times t as item p, ``spin(z)`` its (Jz, Jy) at the
    positions z.  Both grid levels are sampled from the set at their bin
    centers.  Returns the light at z = L, a (P, 2, n_time) array of (Xi1,
    Xi2), and the spin at t = T, a (P, 2, n_space) array of (Jz, Jy), at
    the bin centers, profile first as ``output_maps`` returns them.  Each
    grid level is one ``integrate_stacked`` call with every entry its own
    stack entry, so entry p is bit-identical to a one-entry call on it.
    """
    time_T, length_L = _shared_box(params)
    levels = []
    for g in (grid, Grid(3 * grid.n_time, 3 * grid.n_space)):
        u = _sampled(light(_centers(g.n_time) * time_T), len(params), g.n_time, "light")
        w = _sampled(spin(_centers(g.n_space) * length_L), len(params), g.n_space, "spin")
        levels.append(integrate_stacked(params, g, u, w))
    (uc, wc), (uf, wf) = levels
    # the centre sub-bin of every coarse bin
    u = (9.0 * uf[:, 1::3] - uc) / 8.0
    w = (9.0 * wf[:, 1::3] - wc) / 8.0
    return np.moveaxis(u, 2, 0), np.moveaxis(w, 2, 0)


def _norms(params: PhysicalParams, grid: Grid) -> tuple[float, float]:
    nl = float(np.sqrt(grid.dt(params.time_T) / (2.0 * params.xi3_bar)))
    ns = float(np.sqrt(grid.dz(params.length_L) / params.jx_bar))
    return nl, ns


def _bin_layout(n_time: int, n_space: int) -> dict[str, slice]:
    """Row/column blocks of the normalized-bin layout [Xi1, Xi2, Jz, Jy]."""
    return {
        "xi1": slice(0, n_time),
        "xi2": slice(n_time, 2 * n_time),
        "jz": slice(2 * n_time, 2 * n_time + n_space),
        "jy": slice(2 * n_time + n_space, 2 * n_time + 2 * n_space),
    }


class TransferMatrix(_Record):
    """Discrete input-output map on normalized noise bins.

    Rows and columns follow ``_bin_layout``: ``matrix`` is square, of side
    2*n_time + 2*n_space.
    """

    __slots__ = ("matrix", "n_time", "n_space")

    def __init__(self, matrix: np.ndarray, n_time: int, n_space: int):
        dim = 2 * n_time + 2 * n_space
        if np.shape(matrix) != (dim, dim):
            raise ValueError(
                f"matrix of shape {np.shape(matrix)} does not match the layout of "
                f"n_time = {n_time}, n_space = {n_space}: expected ({dim}, {dim})"
            )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "n_time", n_time)
        object.__setattr__(self, "n_space", n_space)


def _lower_toeplitz(col: np.ndarray) -> np.ndarray:
    """Read-only lower-triangular Toeplitz views of the last axis:
    [..., j, j0] = col[..., j - j0], 0 above."""
    n = col.shape[-1]
    padded = np.concatenate((col[..., ::-1], np.zeros(col.shape[:-1] + (n - 1,))), axis=-1)
    return np.lib.stride_tricks.sliding_window_view(padded, n, axis=-1)[..., ::-1, :]


def _green_matrix(cells: np.ndarray, n_time: int, n_space: int,
                  nl: float = 1.0, nsp: float = 1.0) -> np.ndarray:
    """The n_time x n_space lattice's input-output matrix, in the
    ``_bin_layout`` order, for one (4, 4) cell or each cell of a (P, 4, 4)
    stack, on light bins scaled by nl and spin bins by nsp.

    The cell is constant, so the lattice is translation-invariant and every
    block is a slice of the responses to the D = 2*b_t + 2*b_s unit scaled
    impulses on the input bins of tile (0, 0), swept together as D
    right-hand sides.  The tile sides are ``_tile_sides(n_time, n_space)``; the
    tile is built by this function from the cell, and a grid of one tile is
    marched cell by cell (b_t = b_s = 1, D = 4), so every tile of a march
    is its own cell-by-cell build.  Light->light and spin->spin blocks are
    lower-triangular Toeplitz in the final light and spin of the impulses at
    time bin 0 and space column 0.  Spin->light blocks are the light that
    the spin impulses emit: the light of an impulse at column i0 = k*b_s + s
    leaves the lattice as the light that leaves tile column m_s - 1 - k for
    the impulse at column s.  Light->spin blocks are the spin that the light
    impulses emit, the same way.  The sweep hands over each step's emitted
    light and spin, which are written straight into M's cross blocks and
    then scaled there, so beside M the build holds only the sweep's state.
    With unit scales this is the raw map of a block of cells, the tile of a
    sweep.
    """
    lead = cells.shape[:-2]
    b_t, b_s = _tile_sides(n_time, n_space)
    if (b_t, b_s) == (n_time, n_space):
        tiles, b_t, b_s = cells, 1, 1
    else:
        tiles = _green_matrix(cells, b_t, b_s)
    m_t, m_s = n_time // b_t, n_space // b_s
    light_rows, rows = 2 * b_t, 2 * b_t + 2 * b_s
    dim = 2 * n_time + 2 * n_space
    out = np.empty(lead + (dim, dim))
    # views of M's spin->light block as [o, r, q, i, s], at row (o, j*b_t + r)
    # and column (i, k*b_s + s) for q = j*b_t*dim + k*b_s, and of its
    # light->spin block as [o, s, q, i, r], at row (o, (m_s - 1 - k)*b_s + s)
    # and column (i, (m_t - 1 - j)*b_t + r) for q = k*b_s*dim + j*b_t.  The q
    # axes step one element, overlapping the others, so the tiles
    # (m_s - 1 - k0 - t, j0 + t) of a sweep step are one strided run of q.
    # np.ndarray checks that every index lies in out
    item, lead_strides = out.itemsize, out.strides[:-2]
    to_light = np.ndarray(
        lead + (2, b_t, (m_t - 1) * b_t * dim + (m_s - 1) * b_s + 1, 2, b_s), float, out,
        2 * n_time * item,
        lead_strides + (n_time * dim * item, dim * item, item, n_space * item, item))
    to_spin = np.ndarray(
        lead + (2, b_s, (m_s - 1) * b_s * dim + (m_t - 1) * b_t + 1, 2, b_t), float, out,
        ((dim - n_space - b_s) * dim + n_time - b_t) * item,
        lead_strides + (n_space * dim * item, dim * item, -item, n_time * item, item))
    light_step, spin_step = b_t * dim + b_s, b_s * dim + b_t

    def record(k0, j0, light, spin):
        n = light.shape[-2]
        q = j0 * b_t * dim + k0 * b_s
        to_light[..., q:q + n * light_step:light_step, :, :] = light[..., light_rows:].reshape(
            lead + (2, b_t, n, 2, b_s))
        q = k0 * b_s * dim + j0 * b_t
        to_spin[..., q:q + n * spin_step:spin_step, :, :] = spin[..., :light_rows].reshape(
            lead + (2, b_s, n, 2, b_t))

    # right-hand side q is the unit impulse on bin q of tile (0, 0)
    u = np.zeros(lead + (2, n_time, rows))
    w = np.zeros(lead + (2, n_space, rows))
    u[..., :b_t, :light_rows] = np.eye(light_rows).reshape(2, b_t, light_rows) / nl
    w[..., :b_s, light_rows:] = np.eye(2 * b_s).reshape(2, b_s, 2 * b_s) / nsp
    u, w = _sweep(tiles, u, w, (b_t, b_s), record)
    out[..., :2 * n_time, 2 * n_time:] *= nl
    out[..., 2 * n_time:, :2 * n_time] *= nsp
    b = _bin_layout(n_time, n_space)
    light, spin = (b["xi1"], b["xi2"]), (b["jz"], b["jy"])
    for o in range(2):
        for i in range(2):
            out[..., light[o], light[i]] = _lower_toeplitz(u[..., o, :, i * b_t] * nl)
            out[..., spin[o], spin[i]] = _lower_toeplitz(w[..., o, :, light_rows + i * b_s] * nsp)
    return out


def build_transfer_matrix(params: PhysicalParams, grid: Grid) -> TransferMatrix:
    """M from the lattice Green's function: the impulse responses of one
    tile's inputs, one tiled sweep (``_green_matrix`` on the normalized bins)."""
    check_stability(params, grid)
    cell = cell_matrix(params, grid.dz(params.length_L), grid.dt(params.time_T))
    return TransferMatrix(_green_matrix(cell, grid.n_time, grid.n_space, *_norms(params, grid)),
                          grid.n_time, grid.n_space)


def _reversed_halves(x: np.ndarray, n_time: int,
                     n_space: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of layout rows x (dim, P, ...) as light (P, 2, n_time, ...) and
    spin (P, 2, n_space, ...), both with their bins reversed."""
    light = x[:2 * n_time].reshape((2, n_time) + x.shape[1:])
    spin = x[2 * n_time:].reshape((2, n_space) + x.shape[1:])
    return np.moveaxis(light, 2, 0)[:, :, ::-1], np.moveaxis(spin, 2, 0)[:, :, ::-1]


def transfer_adjoint_apply(params: PhysicalParams | Sequence[PhysicalParams], grid: Grid,
                           y: np.ndarray) -> np.ndarray:
    """M^T y without building M, via the reversed sweep with transposed cells.

    The forward map is an ordered product of identical 4x4 cell maps; its
    transpose is the reversed product of transposed cells, which is the same
    sweep run with both lattice axes flipped.

    ``params`` is one PhysicalParams, with y (dim, ...), or a sequence of P
    of them, with y (dim, P, ...): column p is then applied with the map of
    params[p].  Every params is checked for stability before any sweep, and
    the columns are marched as a stack of cells by ``_march``.
    """
    single = isinstance(params, PhysicalParams)
    stack, cells = _stack_cells(params, grid)
    nt, ns = grid.n_time, grid.n_space
    dim = 2 * nt + 2 * ns
    y = np.asarray(y, dtype=float)
    if y.shape[0] != dim:
        raise ValueError(f"vector length {y.shape[0]} does not match layout dim {dim}")
    if single:
        y = y[:, None]
    elif y.ndim < 2 or y.shape[1] != len(stack):
        raise ValueError(f"y {y.shape} does not hold one column per params: "
                         f"expected ({dim}, {len(stack)}, ...)")
    # each (P, 1, ...): one scale per stack entry, broadcast over (2, n, ...)
    nl, nsp = np.array([_norms(p, grid) for p in stack]).T.reshape(
        (2, len(stack)) + (1,) * y.ndim)
    out = np.empty(y.shape)
    light, spin = _reversed_halves(out, nt, ns)
    y_light, y_spin = _reversed_halves(y, nt, ns)
    np.multiply(y_light, nl, out=light)
    np.multiply(y_spin, nsp, out=spin)
    # a caller's temporary y goes before the march
    del y, y_light, y_spin
    _march(cells.transpose(0, 2, 1), grid, light, spin, light, spin)
    light /= nl
    spin /= nsp
    return out[:, 0] if single else out


def symplectic_form(n_time: int, n_space: int) -> np.ndarray:
    """Antisymmetric block form paired (Xi1,Xi2) and (Jz,Jy) bin by bin."""
    dim = 2 * n_time + 2 * n_space
    b = _bin_layout(n_time, n_space)
    omega = np.zeros((dim, dim))
    it = np.eye(n_time)
    iz = np.eye(n_space)
    omega[b["xi1"], b["xi2"]] = it
    omega[b["xi2"], b["xi1"]] = -it
    omega[b["jz"], b["jy"]] = SPIN_BLOCK_SIGN * iz
    omega[b["jy"], b["jz"]] = -SPIN_BLOCK_SIGN * iz
    return omega


def symplectic_residual(tm: TransferMatrix) -> float:
    """max |M Omega M^T - Omega| / max |Omega|, without building Omega.

    Omega pairs each bin with its conjugate bin: row r holds its one entry,
    +-1, at the column of r's conjugate.  So a panel of M's rows times Omega
    is the panel with its column blocks swapped and signed, four slice
    copies.  Delta = M Omega M^T - Omega is antisymmetric, so its
    upper block triangle holds its largest entry: each ``_RESIDUAL_TILE``-row
    panel is multiplied by M's rows from the panel on, and Omega's entries
    in that block are subtracted.  No array of M's size is made.  The panel
    maxima are reduced by numpy, which keeps NaN, so a non-finite M gives a
    non-finite residual (and no warning).
    """
    m = tm.matrix
    nt, ns = tm.n_time, tm.n_space
    b = _bin_layout(nt, ns)
    dim = len(m)
    conj = np.r_[b["xi2"], b["xi1"], b["jy"], b["jz"]]
    form = np.repeat([1.0, -1.0, SPIN_BLOCK_SIGN, -SPIN_BLOCK_SIGN], [nt, nt, ns, ns])
    shuffled = np.empty((min(_RESIDUAL_TILE, dim), dim))
    # each panel's product is a contiguous prefix of one buffer
    products = np.empty(shuffled.size)
    worst = []
    # an infinite entry of M makes inf * 0 and inf - inf: NaN, not a warning.
    # For the strided signed copies a ufunc allocates two buffers of the ufunc
    # buffer size, 64 KiB each by default, which operands of one dtype never
    # use; the smallest size all but drops them
    with np.errstate(invalid="ignore"):
        bufsize = np.setbufsize(16)
        try:
            for i in range(0, dim, _RESIDUAL_TILE):
                panel = m[i:i + _RESIDUAL_TILE]
                n = len(panel)
                w = shuffled[:n]
                np.negative(panel[:, b["xi2"]], out=w[:, b["xi1"]])
                w[:, b["xi2"]] = panel[:, b["xi1"]]
                np.multiply(panel[:, b["jy"]], -SPIN_BLOCK_SIGN, out=w[:, b["jz"]])
                np.multiply(panel[:, b["jz"]], SPIN_BLOCK_SIGN, out=w[:, b["jy"]])
                delta = np.matmul(w, m[i:].T, out=products[:n * (dim - i)].reshape(n, dim - i))
                rows = np.arange(i, i + n)
                rows = rows[conj[rows] >= i]
                delta[rows - i, conj[rows] - i] -= form[rows]
                worst.append(np.max(np.abs(delta, out=delta)))
        finally:
            np.setbufsize(bufsize)
    return float(np.max(worst))
