"""Lattice integrator: exact limits, convergence, and canonical structure."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polariton_lab import lattice
from polariton_lab.kernels import (
    kernel_cross_scaled,
    kernel_self_scaled,
    output_maps,
)
from polariton_lab.lattice import (
    SPIN_BLOCK_SIGN,
    StabilityError,
    TransferMatrix,
    build_transfer_matrix,
    integrate_stacked,
    symplectic_form,
    symplectic_residual,
    transfer_adjoint_apply,
)
from polariton_lab.model import Grid, PhysicalParams, _centers, canonical_params

from profile_sets import function_set


def _calibrate_spin_block_sign():
    """Pick the spin-block sign empirically at weak coupling (kappa_c = 0.01).

    Both sign choices are tested; the preserved one wins by many orders of
    magnitude.
    """
    params = canonical_params(kappa_c=0.01, ratio_r=3.0)
    tm = build_transfer_matrix(params, Grid(32, 32))
    res = {s: _dense_residual(tm, _dense_form(32, 32, s)) for s in (+1.0, -1.0)}
    return min(res, key=res.get)


def _dense_form(n_time, n_space, spin_sign):
    """``symplectic_form`` with its (Jz, Jy) pairing scaled to weight ``spin_sign``."""
    omega = symplectic_form(n_time, n_space)
    spin = slice(2 * n_time, None)
    omega[spin, spin] *= spin_sign / SPIN_BLOCK_SIGN
    return omega


def _dense_residual(tm, omega):
    """max |M Omega M^T - Omega| / max |Omega| by dense products."""
    return np.max(np.abs(tm.matrix @ omega @ tm.matrix.T - omega)) / np.max(np.abs(omega))


def test_pure_stokes_rotation():
    # beta = eps = Omega = 0, kappa2 != 0, no spins: rigid Stokes rotation
    params = PhysicalParams(beta=0.0, epsilon=0.0, kappa2=0.9)
    grid = Grid(64, 64)
    f1 = lambda t: np.cos(2 * t)
    f2 = lambda t: 0.3 + np.sin(t)
    t = _centers(grid.n_time)
    xi1, xi2 = f1(t), f2(t)
    u, _ = integrate_stacked(params, grid, np.stack([xi1, xi2]), np.zeros((2, grid.n_space)))
    ang = params.kappa2 * params.length_L
    np.testing.assert_allclose(u[0], math.cos(ang) * xi1 - math.sin(ang) * xi2,
                               rtol=0, atol=5e-5)
    np.testing.assert_allclose(u[1], math.sin(ang) * xi1 + math.cos(ang) * xi2,
                               rtol=0, atol=5e-5)


def test_pure_precession():
    params = PhysicalParams(beta=0.0, epsilon=0.0, omega0=0.45, omega2=0.15)
    grid = Grid(64, 64)
    z = _centers(grid.n_space)
    jz, jy = np.sin(z), np.cos(2 * z)
    _, w = integrate_stacked(params, grid, np.zeros((2, grid.n_time)), np.stack([jz, jy]))
    ang = params.omega * params.time_T
    np.testing.assert_allclose(w[0], math.cos(ang) * jz + math.sin(ang) * jy,
                               rtol=0, atol=5e-5)
    np.testing.assert_allclose(w[1], -math.sin(ang) * jz + math.cos(ang) * jy,
                               rtol=0, atol=5e-5)


def test_rotation_exact_under_refinement():
    # second-order self-convergence on the pure rotation
    params = PhysicalParams(beta=0.0, epsilon=0.0, kappa2=0.9)
    errs = []
    for n in (32, 64):
        u = np.zeros((2, n))
        u[0] = 1.0
        u, _ = integrate_stacked(params, Grid(n, n), u, np.zeros((2, n)))
        errs.append(abs(float(u[0, 0]) - math.cos(0.9)))
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_identity_when_all_couplings_vanish():
    params = PhysicalParams(beta=0.0, epsilon=0.0)
    tm = build_transfer_matrix(params, Grid(24, 16))
    np.testing.assert_allclose(tm.matrix, np.eye(tm.matrix.shape[0]), rtol=0, atol=1e-15)


def test_matrix_reproduces_integrate_linearity():
    params = canonical_params(1.2, 5.0, kappa2_L=0.25, Omega_T=0.15)
    grid = Grid(24, 20)
    tm = build_transfer_matrix(params, grid)
    rng = np.random.default_rng(5)
    u_in = rng.normal(size=(2, grid.n_time))
    w_in = rng.normal(size=(2, grid.n_space))
    u, w = integrate_stacked(params, grid, u_in, w_in)
    dt = grid.dt(params.time_T)
    dz = grid.dz(params.length_L)
    nl = math.sqrt(dt / (2.0 * params.xi3_bar))
    ns = math.sqrt(dz / params.jx_bar)
    x_out = tm.matrix @ np.concatenate([u_in.ravel() * nl, w_in.ravel() * ns])
    expected = np.concatenate([u.ravel() * nl, w.ravel() * ns])
    np.testing.assert_allclose(x_out, expected, rtol=0, atol=1e-13)


def test_adjoint_is_transpose():
    params = canonical_params(0.8, 3.0, kappa2_L=0.2, Omega_T=0.1)
    grid = Grid(20, 28)
    tm = build_transfer_matrix(params, grid)
    rng = np.random.default_rng(7)
    y = rng.normal(size=tm.matrix.shape[0])
    np.testing.assert_allclose(transfer_adjoint_apply(params, grid, y),
                               tm.matrix.T @ y, rtol=0, atol=1e-12)


def test_symplectic_preservation_machine_precision():
    grid = Grid(48, 48)
    for kc, k2, om in [(0.5, 0.0, 0.0), (2.0, 0.3, 0.3), (1.0, 0.0, 0.3)]:
        params = canonical_params(kc, 10.0, kappa2_L=k2, Omega_T=om)
        tm = build_transfer_matrix(params, grid)
        assert symplectic_residual(tm) <= 1e-12


def test_wrong_form_sign_fails_badly():
    params = canonical_params(1.0, 10.0)
    tm = build_transfer_matrix(params, Grid(32, 32))
    assert _dense_residual(tm, _dense_form(32, 32, -SPIN_BLOCK_SIGN)) > 1e-3
    assert symplectic_residual(tm) <= 1e-12


def test_calibration_matches_persisted_sign():
    assert _calibrate_spin_block_sign() == SPIN_BLOCK_SIGN


def test_causality_strict_triangularity():
    params = canonical_params(1.5, 6.0)
    grid = Grid(24, 24)
    tm = build_transfer_matrix(params, grid)
    nt = grid.n_time
    blocks = lattice._bin_layout(grid.n_time, grid.n_space)
    for out_b in ("xi1", "xi2"):
        for in_b in ("xi1", "xi2"):
            block = tm.matrix[blocks[out_b], blocks[in_b]]
            upper = block[np.triu_indices(nt, k=1)]
            assert np.max(np.abs(upper)) <= 1e-14
    ns = grid.n_space
    for out_b in ("jz", "jy"):
        for in_b in ("jz", "jy"):
            block = tm.matrix[blocks[out_b], blocks[in_b]]
            upper = block[np.triu_indices(ns, k=1)]
            assert np.max(np.abs(upper)) <= 1e-14


def test_matrix_not_symmetric_for_nonzero_coupling():
    params = canonical_params(1.0, 10.0)
    tm = build_transfer_matrix(params, Grid(16, 16))
    assert np.max(np.abs(tm.matrix - tm.matrix.T)) > 1e-3


def test_stability_precondition_reports_offender():
    params = PhysicalParams(beta=0.0, epsilon=0.0, kappa2=80.0)
    with pytest.raises(StabilityError, match=r"kappa2"):
        integrate_stacked(params, Grid(32, 32), np.zeros((2, 32)), np.zeros((2, 32)))
    strong = PhysicalParams(beta=30.0, epsilon=30.0)
    with pytest.raises(StabilityError, match=r"sqrt"):
        integrate_stacked(strong, Grid(8, 8), np.zeros((2, 8)), np.zeros((2, 8)))


def test_self_convergence_second_order_coupled():
    # error measured against the closed-form kernel route, which is exact to
    # its quadrature tolerance, far below the lattice error
    params = canonical_params(2.0, 10.0)
    f = ((lambda t: 1.0 + 0.5 * np.cos(np.pi * t)), (lambda t: 0.5 * np.sin(np.pi * t)))
    s = ((lambda z: np.exp(-((z - 0.5) / 0.4) ** 2)), (lambda z: z * (1 - z)))
    errs = []
    for n in (48, 96):
        grid = Grid(n, n)
        x = _centers(n)
        u, w = integrate_stacked(params, grid, np.stack([fn(x) for fn in f]),
                                 np.stack([fn(x) for fn in s]))
        (k_light, k_spin), _ = output_maps([params], grid, *function_set([(f, s)]))
        err = max(np.max(np.abs(u[0] - k_light[0, 0])),
                  np.max(np.abs(w[1] - k_spin[0, 1])))
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_rectangular_grid_supported():
    params = canonical_params(1.0, 4.0)
    grid = Grid(40, 24)
    rng = np.random.default_rng(9)
    u, w = integrate_stacked(params, grid, rng.normal(size=(2, 40)), rng.normal(size=(2, 24)))
    assert u.shape == (2, 40) and w.shape == (2, 24)


def test_symplectic_form_antisymmetric():
    om = symplectic_form(5, 7)
    np.testing.assert_array_equal(om, -om.T)
    assert np.max(np.abs(om)) == 1.0


# Omega_T at which the spin block's cell[2, 3] changes sign for kappa_c = 20,
# r = 3, kappa2_L = 0.3 on 64 x 64: the 2x2 spin block is defective there
_DEFECTIVE_OMEGA_T = 1.2206964195142969e-04


def _cell_by_cell(cell, u, w):
    """Reference sweep: space column by space column, time bin by time bin."""
    u, w = u.copy(), w.copy()
    for i in range(w.shape[1]):
        for j in range(u.shape[1]):
            x = cell @ np.concatenate((u[:, j], w[:, i]))
            u[:, j], w[:, i] = x[:2], x[2:]
    return u, w


# blue wing near the stability limit on 64 x 64: outputs grow to ~1e24, so
# its bound is taken relative to the largest reference value
_BLUE_WING_KAPPA_C = -0.2 * 64**2


@pytest.mark.parametrize("kappa_c, kappa2_L, Omega_T, grid", [
    (1.0, 0.3, 0.3, Grid(24, 16)),
    (-2.0, 0.0, 0.0, Grid(16, 16)),
    (1.0, 0.2, 0.0, Grid(16, 20)),
    (20.0, 0.3, _DEFECTIVE_OMEGA_T * (1 + 1e-3), Grid(64, 64)),
    (20.0, 0.3, _DEFECTIVE_OMEGA_T * (1 + 1e-7), Grid(64, 64)),
    (20.0, 0.3, _DEFECTIVE_OMEGA_T, Grid(64, 64)),
    (_BLUE_WING_KAPPA_C, 0.3, 0.3, Grid(64, 64)),
])
def test_tiled_sweep_matches_cell_by_cell_reference(kappa_c, kappa2_L, Omega_T, grid):
    # _cell_by_cell is the reference for integrate_stacked, for any cell matrix
    params = canonical_params(kappa_c, 3.0, kappa2_L=kappa2_L, Omega_T=Omega_T)
    rng = np.random.default_rng(13)
    u = rng.normal(size=(2, grid.n_time, 3))
    w = rng.normal(size=(2, grid.n_space, 3))
    fast_u, fast_w = integrate_stacked(params, grid, u, w)
    cell = lattice.cell_matrix(params, grid.dz(params.length_L), grid.dt(params.time_T))
    slow_u, slow_w = _cell_by_cell(cell, u, w)
    atol = 1e-12
    if kappa_c == _BLUE_WING_KAPPA_C:
        atol *= max(np.max(np.abs(slow_u)), np.max(np.abs(slow_w)))
    np.testing.assert_allclose(slow_u, fast_u, rtol=0, atol=atol)
    np.testing.assert_allclose(slow_w, fast_w, rtol=0, atol=atol)


@pytest.mark.parametrize("grid, split", [(Grid(40, 24), 7), (Grid(24, 40), 20)])
def test_split_sweep_equals_one_sweep(grid, split):
    # light at space column p depends only on spin columns <= p
    params = canonical_params(1.0, 3.0, kappa2_L=0.3, Omega_T=0.3)
    cell = lattice.cell_matrix(params, grid.dz(params.length_L), grid.dt(params.time_T))
    rng = np.random.default_rng(5)
    u = rng.normal(size=(2, grid.n_time, 2))
    w = rng.normal(size=(2, grid.n_space, 2))
    whole_u, whole_w = lattice._sweep(cell, u, w, (1, 1))
    head_u, head_w = lattice._sweep(cell, u, w[:, :split], (1, 1))
    tail_u, tail_w = lattice._sweep(cell, head_u, w[:, split:], (1, 1))
    np.testing.assert_allclose(tail_u, whole_u, rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.concatenate((head_w, tail_w), axis=1), whole_w,
                               rtol=0, atol=1e-13)


@pytest.mark.parametrize("n_time, n_space", [(48, 40), (64, 34)])
@settings(max_examples=15)
@given(data=st.data())
def test_chained_integrates_equal_one_integrate(n_time, n_space, data):
    # light at space column p depends only on spin columns <= p, which the
    # packet-velocity probes rely on: integrates over columns [0, p) and
    # [p, n_space), each on its own grid and so with its own tile sides,
    # give the light and spin of one integrate over the whole grid
    split = data.draw(st.integers(2, n_space - 2), label="split")
    params = canonical_params(1.0, 3.0, kappa2_L=0.3, Omega_T=0.3)
    dz = params.length_L / n_space
    rng = np.random.default_rng(n_space)
    u = rng.normal(size=(2, n_time, 2))
    w = rng.normal(size=(2, n_space, 2))
    whole_u, whole_w = integrate_stacked(params, Grid(n_time, n_space), u, w)
    head_u, head_w = integrate_stacked(params._replace(length_L=split * dz),
                                       Grid(n_time, split), u, w[:, :split])
    tail_u, tail_w = integrate_stacked(params._replace(length_L=(n_space - split) * dz),
                                       Grid(n_time, n_space - split), head_u, w[:, split:])
    np.testing.assert_allclose(tail_u, whole_u, rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.concatenate((head_w, tail_w), axis=1), whole_w,
                               rtol=0, atol=1e-13)


# (kappa_c, r, kappa2_L, Omega_T) as fractions of the stability limit, scaled
# to the drawn grid by _stable_params, so that every drawn point is marched
_STABLE_POINT = st.tuples(st.floats(-1.0, 1.0), st.floats(0.2, 10.0),
                          st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


def _stable_params(point, n_time, n_space):
    """canonical_params inside the stability limit 0.5 of an n_time x
    n_space lattice: |kappa2|*dz and |Omega|*dt up to 0.45, and
    sqrt(|kappa_c|*dz*dt) up to sqrt(0.2) = 0.447."""
    qc, r, q2, qo = point
    return canonical_params(0.2 * qc * n_time * n_space, r,
                            kappa2_L=0.45 * q2 * n_space, Omega_T=0.45 * qo * n_time)


@settings(max_examples=40)
@given(n_time=st.integers(1, 12), n_space=st.integers(1, 12),
       points=st.lists(_STABLE_POINT, min_size=1, max_size=4),
       rhs=st.sampled_from([(), (3,)]), data=st.data())
def test_sweep_matches_cell_by_cell_split_and_alone(n_time, n_space, points, rhs, data):
    # 1-bin axes included, as a split can leave them
    # Grid takes 2 bins per axis and up, so the cells are built from dz, dt
    cells = np.stack([lattice.cell_matrix(_stable_params(q, n_time, n_space), 1.0 / n_space,
                                          1.0 / n_time) for q in points])
    rng = np.random.default_rng(n_time * 16 + n_space)
    u = rng.normal(size=(len(cells), 2, n_time) + rhs)
    w = rng.normal(size=(len(cells), 2, n_space) + rhs)
    whole_u, whole_w = lattice._sweep(cells, u, w, (1, 1))
    split = data.draw(st.integers(0, n_space), label="split")
    head_u, head_w = lattice._sweep(cells, u, w[:, :, :split], (1, 1))
    tail_u, tail_w = lattice._sweep(cells, head_u, w[:, :, split:], (1, 1))
    # BLAS rounds the split's narrower products differently, a few ulp of the
    # largest value, which the blue wing grows past 100
    atol = max(1e-13, 1e-15 * max(np.max(np.abs(whole_u)), np.max(np.abs(whole_w))))
    np.testing.assert_allclose(tail_u, whole_u, rtol=0, atol=atol)
    np.testing.assert_allclose(np.concatenate((head_w, tail_w), axis=2), whole_w,
                               rtol=0, atol=atol)
    for p, cell in enumerate(cells):
        alone_u, alone_w = lattice._sweep(cell, u[p], w[p], (1, 1))
        np.testing.assert_array_equal(whole_u[p], alone_u)
        np.testing.assert_array_equal(whole_w[p], alone_w)
        slow_u, slow_w = _cell_by_cell(cell, u[p], w[p])
        np.testing.assert_allclose(whole_u[p], slow_u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(whole_w[p], slow_w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_time, n_space, sides", [
    (512, 512, (16, 16)),
    (1536, 1536, (16, 16)),
    (1000, 1000, (8, 8)),
    (257, 257, (1, 1)),
    (4096, 16, (16, 16)),
    (16, 1, (16, 1)),
])
def test_tile_sides_follow_the_grid(n_time, n_space, sides):
    # per axis the largest power of two up to 16 that divides it; a tile's
    # own axis may be 1 bin, which no Grid holds
    assert lattice._tile_sides(n_time, n_space) == sides


# a prime axis, and axes of different power-of-two factors; the first two sit
# on the blue wing at the stability limit
@example(n_time=47, n_space=32, points=[(-1.0, 3.0, 1.0, -1.0)], rhs=(3,))
@example(n_time=48, n_space=40, points=[(-1.0, 0.5, -1.0, 1.0), (0.5, 3.0, 0.3, 0.2)], rhs=())
@example(n_time=13, n_space=2, points=[(0.7, 2.0, 0.5, 0.5)], rhs=())
@example(n_time=24, n_space=36, points=[(0.2, 1.0, -0.4, 0.9)] * 3, rhs=(3,))
@settings(max_examples=30)
@given(n_time=st.integers(2, 48), n_space=st.integers(2, 48),
       points=st.lists(_STABLE_POINT, min_size=1, max_size=4),
       rhs=st.sampled_from([(), (3,)]))
def test_tiled_march_matches_cell_sweep_and_alone(n_time, n_space, points, rhs):
    # the tiles regroup the cell products, so the march differs from the
    # cell sweep by rounding relative to its largest term; past |out| = 1
    # (the blue wing grows) the bound grows as max|out|
    assume(n_time != n_space)
    grid = Grid(n_time, n_space)
    cells = np.stack([lattice.cell_matrix(_stable_params(q, n_time, n_space), grid.dz(1.0),
                                          grid.dt(1.0)) for q in points])
    rng = np.random.default_rng(n_time * 64 + n_space)
    u = rng.normal(size=(len(cells), 2, n_time) + rhs)
    w = rng.normal(size=(len(cells), 2, n_space) + rhs)
    out_u, out_w = np.empty(u.shape), np.empty(w.shape)
    lattice._march(cells, grid, u, w, out_u, out_w)
    cell_u, cell_w = lattice._sweep(cells, u, w, (1, 1))
    atol = 1e-12 * max(1.0, np.max(np.abs(cell_u)), np.max(np.abs(cell_w)))
    np.testing.assert_allclose(out_u, cell_u, rtol=0, atol=atol)
    np.testing.assert_allclose(out_w, cell_w, rtol=0, atol=atol)
    for p in range(len(cells)):
        alone_u, alone_w = np.empty(u[p:p + 1].shape), np.empty(w[p:p + 1].shape)
        lattice._march(cells[p:p + 1], grid, u[p:p + 1], w[p:p + 1], alone_u, alone_w)
        np.testing.assert_array_equal(out_u[p], alone_u[0])
        np.testing.assert_array_equal(out_w[p], alone_w[0])


def test_tile_is_the_scaled_transfer_matrix_of_its_block():
    # a (16, 8) grid is one tile; the tile maps raw bins, M normalized ones
    grid = Grid(16, 8)
    assert lattice._tile_sides(16, 8) == (16, 8)
    params = [canonical_params(kc, 3.0, kappa2_L=0.3, Omega_T=0.3) for kc in (1.5, -20.0)]
    cells = np.stack([lattice.cell_matrix(p, grid.dz(p.length_L), grid.dt(p.time_T))
                      for p in params])
    tiles = lattice._green_matrix(cells, *lattice._tile_sides(16, 8))
    for tile, p in zip(tiles, params):
        nl, nsp = lattice._norms(p, grid)
        d = np.repeat([nl, nsp], [2 * grid.n_time, 2 * grid.n_space])
        scaled = build_transfer_matrix(p, grid).matrix * d[None, :] / d[:, None]
        np.testing.assert_allclose(tile, scaled, rtol=0, atol=1e-13 * np.max(np.abs(tile)))


@pytest.mark.parametrize("lead, n_time, n_space", [
    ((), 5, 0), ((), 0, 5), ((2,), 4, 0), ((2,), 0, 3),
])
def test_sweep_over_an_empty_axis_returns_its_inputs(lead, n_time, n_space):
    rng = np.random.default_rng(3)
    cells = np.broadcast_to(2.0 * np.eye(4), lead + (4, 4))
    u = rng.normal(size=lead + (2, n_time, 3))
    w = rng.normal(size=lead + (2, n_space, 3))
    out_u, out_w = lattice._sweep(cells, u, w, (1, 1))
    np.testing.assert_array_equal(out_u, u)
    np.testing.assert_array_equal(out_w, w)


@settings(max_examples=25)
@given(n_time=st.integers(2, 12), n_space=st.integers(2, 12), point=_STABLE_POINT)
def test_built_matrix_is_symplectic_at_drawn_points(n_time, n_space, point):
    # the build reads the recorded histories of the sweep.  The residual is
    # the rounding of products of two entries of M, so past |M| = 1 (the
    # blue wing grows) its bound grows as max|M|^2
    assume(n_time != n_space)
    grid = Grid(n_time, n_space)
    tm = build_transfer_matrix(_stable_params(point, n_time, n_space), grid)
    assert symplectic_residual(tm) <= 1e-12 * max(1.0, np.max(np.abs(tm.matrix)) ** 2)


@pytest.mark.parametrize("u_shape, w_shape", [
    ((2, 9), (2, 8)),
    ((2, 8), (2, 9)),
    ((2, 8, 3), (2, 8, 2)),
], ids=["light", "spin", "trailing"])
def test_integrate_stacked_rejects_arrays_off_the_grid(u_shape, w_shape):
    params = canonical_params(1.0, 3.0)
    with pytest.raises(ValueError, match=r"light \(2, .*\) and spin \(2, .*\) do not match"):
        integrate_stacked(params, Grid(8, 8), np.ones(u_shape), np.ones(w_shape))


@pytest.mark.parametrize("n_time, n_space", [(48, 40), (36, 20), (64, 17), (17, 64)],
                         ids=["16x8", "4x4", "16x1", "1x16"])
def test_tiled_green_build_equals_impulse_columns(n_time, n_space):
    # grids of several tiles per axis, in tiles of unequal sides and of one
    # bin on a prime axis: the cross blocks are read from the tiles' emitted
    # light and spin, tile column by tile column
    params = canonical_params(2.0, 3.0, kappa2_L=0.5, Omega_T=-0.7)
    grid = Grid(n_time, n_space)
    assert all(n // b > 1 for n, b in zip((n_time, n_space), lattice._tile_sides(n_time, n_space)))
    tm = build_transfer_matrix(params, grid)
    np.testing.assert_allclose(tm.matrix, _impulse_columns(params, grid), rtol=0,
                               atol=1e-13 * np.max(np.abs(tm.matrix)))
    assert symplectic_residual(tm) <= 1e-12


@pytest.mark.parametrize("n_time, n_space", [(48, 40), (36, 20), (64, 17), (17, 64)],
                         ids=["16x8", "4x4", "16x1", "1x16"])
def test_stacked_green_build_equals_lone_builds(n_time, n_space):
    # the cross blocks of every stack entry are written through M's leading
    # axis, and scaled there as build_transfer_matrix scales them
    grid = Grid(n_time, n_space)
    params = [canonical_params(kc, 3.0, kappa2_L=0.5, Omega_T=-0.7) for kc in (2.0, -1.5, 0.5)]
    cells = np.stack([lattice.cell_matrix(p, grid.dz(p.length_L), grid.dt(p.time_T))
                      for p in params])
    stacked = lattice._green_matrix(cells, n_time, n_space, 0.7, 1.3)
    assert stacked.shape == (3,) + 2 * (2 * n_time + 2 * n_space,)
    for cell, m in zip(cells, stacked):
        np.testing.assert_array_equal(m, lattice._green_matrix(cell, n_time, n_space, 0.7, 1.3))


@pytest.mark.parametrize("shape", [(14, 14), (12, 10), (10, 10)])
def test_transfer_matrix_rejects_a_matrix_off_the_layout(shape):
    # n_time = n_space = 3 lays out 12 bins
    with pytest.raises(ValueError, match=rf"shape \({shape[0]}, {shape[1]}\).*\(12, 12\)"):
        TransferMatrix(np.eye(*shape), 3, 3)


# |kappa_c| < 9 keeps sqrt(|kappa_c|*dz*dt) below the limit on 6 x 6 and up
@settings(max_examples=30)
@given(points=st.lists(st.tuples(st.floats(-8.5, 8.5), st.floats(0.2, 10.0),
                                 st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                       min_size=1, max_size=5),
       rhs=st.sampled_from([(), (2,)]), group=st.integers(1, 5),
       n_time=st.integers(6, 16), n_space=st.integers(6, 16))
def test_stacked_integrate_equals_single_calls_and_is_linear(points, rhs, group,
                                                             n_time, n_space):
    # entry p rides a stack of `group` entries yet matches its own sweep bit
    # for bit, forward and adjoint; the stacked map is linear in (u, w)
    assume(n_time != n_space)
    params = [canonical_params(*p) for p in points]
    grid = Grid(n_time, n_space)
    rng = np.random.default_rng(len(points))
    shape = (len(params),) + rhs
    u1, u2 = rng.normal(size=(2, 2, n_time) + shape)
    w1, w2 = rng.normal(size=(2, 2, n_space) + shape)
    # one entry's share of the budget: the larger of its longest anti-diagonal
    # and its tile matrix
    b_t, b_s = lattice._tile_sides(n_time, n_space)
    rows = 2 * b_t + 2 * b_s
    budget = group * max(rows * min(n_time // b_t, n_space // b_s) * math.prod(rhs),
                         rows * rows)
    with mock.patch.object(lattice, "_GROUP_STEP_DOUBLES", budget):
        assert lattice._group_size(grid, math.prod(rhs)) == group
        u, w = integrate_stacked(params, grid, u1, w1)
        for k, p in enumerate(params):
            single_u, single_w = integrate_stacked(p, grid, u1[:, :, k], w1[:, :, k])
            np.testing.assert_array_equal(u[:, :, k], single_u)
            np.testing.assert_array_equal(w[:, :, k], single_w)
        al, be = 1.25, -0.75
        combo = integrate_stacked(params, grid, al * u1 + be * u2, al * w1 + be * w2)
        other = integrate_stacked(params, grid, u2, w2)
        y = rng.normal(size=(2 * n_time + 2 * n_space,) + shape)
        mty = transfer_adjoint_apply(params, grid, y)
        for k, p in enumerate(params):
            np.testing.assert_array_equal(mty[:, k], transfer_adjoint_apply(p, grid, y[:, k]))
    for got, a, b in zip(combo, (u, w), other):
        want = al * a + be * b
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


def _dense_product(params, grid, u, w):
    """integrate_stacked's outputs for one params by the transfer matrix:
    raw bins to normalized ones, M applied, and back."""
    nt, ns = grid.n_time, grid.n_space
    nl, nsp = lattice._norms(params, grid)
    x = np.concatenate([(u * nl).reshape(2 * nt, -1), (w * nsp).reshape(2 * ns, -1)])
    y = build_transfer_matrix(params, grid).matrix @ x
    return y[:2 * nt].reshape(u.shape) / nl, y[2 * nt:].reshape(w.shape) / nsp


def _sweep_components(monkeypatch):
    """The component count of every _sweep call from now on."""
    seen, real = [], lattice._sweep

    def spy(tiles, u, w, sides, record=None):
        seen.append(np.shape(u)[np.ndim(tiles) - 2])
        return real(tiles, u, w, sides, record)

    monkeypatch.setattr(lattice, "_sweep", spy)
    return seen


# axes with prime bin counts (1-wide tiles) and unequal tile sides; every
# |kappa_c| < 12 stays inside the stability limit on 7 x 7 and up
_AXES = st.sampled_from([7, 11, 12, 16, 24, 40])


@settings(max_examples=60)
@given(kappa_cs=st.lists(st.one_of(st.just(0.0), st.floats(-8.0, 8.0)), min_size=1, max_size=4),
       rotating=st.lists(st.booleans(), min_size=4, max_size=4),
       turn=st.floats(0.05, 0.9) | st.floats(-0.9, -0.05),
       rhs=st.sampled_from([(), (2,), (3,)]), n_time=_AXES, n_space=_AXES)
@example(kappa_cs=[-1.0, 0.0, 2.0], rotating=[False] * 4, turn=0.3, rhs=(), n_time=32,
         n_space=16)
def test_channel_split_matches_dense_map_and_lone_entries(kappa_cs, rotating, turn, rhs,
                                                          n_time, n_space):
    # a cell with kappa2 = Omega = 0 marches as its two channels, each entry
    # on its own; rotating entries (kappa2 or Omega = turn) march dense, in
    # the same stack.  Both match the dense product of the transfer matrix,
    # forward and adjoint, and every entry has the bits of its lone march
    grid = Grid(n_time, n_space)
    params = [canonical_params(kc, 3.0, *((turn, 0.0) if k % 2 else (0.0, turn))
                               if rot else (0.0, 0.0))
              for k, (kc, rot) in enumerate(zip(kappa_cs, rotating))]
    rng = np.random.default_rng(len(params) + n_time)
    shape = (len(params),) + rhs
    u, w = rng.normal(size=(2, n_time) + shape), rng.normal(size=(2, n_space) + shape)
    y = rng.normal(size=(2 * n_time + 2 * n_space,) + shape)
    out_u, out_w = integrate_stacked(params, grid, u, w)
    mty = transfer_adjoint_apply(params, grid, y)
    for k, p in enumerate(params):
        lone_u, lone_w = integrate_stacked(p, grid, u[:, :, k], w[:, :, k])
        np.testing.assert_array_equal(out_u[:, :, k], lone_u)
        np.testing.assert_array_equal(out_w[:, :, k], lone_w)
        np.testing.assert_array_equal(mty[:, k], transfer_adjoint_apply(p, grid, y[:, k]))
        dense_u, dense_w = _dense_product(p, grid, u[:, :, k], w[:, :, k])
        scale = max(np.max(np.abs(dense_u)), np.max(np.abs(dense_w)))
        np.testing.assert_allclose(lone_u, dense_u, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(lone_w, dense_w, rtol=0, atol=1e-13 * scale)
        dense = build_transfer_matrix(p, grid).matrix.T @ y[:, k].reshape(len(y), -1)
        np.testing.assert_allclose(mty[:, k].reshape(dense.shape), dense, rtol=0,
                                   atol=1e-13 * np.max(np.abs(dense)))


def test_march_sweeps_each_run_of_one_kind_in_group_slices(monkeypatch):
    # a run of split (zero-rotation) or of dense entries is sliced into
    # sweeps of _group_size entries on its own, so a stack of one kind keeps
    # the slices of one run
    grid = Grid(16, 16)
    size = lattice._group_size(grid)
    rotating = [False] * (size + 1) + [True] * 2 + [False]
    params = [canonical_params(0.5, 3.0, 0.3 if rot else 0.0, 0.0) for rot in rotating]
    marched, real = [], lattice._sweep

    def spy(tiles, u, w, sides, record=None):
        # the march's sweeps (stack entries, components); tile builds record
        if record is None:
            marched.append((len(tiles), np.shape(u)[np.ndim(tiles) - 2]))
        return real(tiles, u, w, sides, record)

    monkeypatch.setattr(lattice, "_sweep", spy)
    n = len(params)
    integrate_stacked(params, grid, np.ones((2, grid.n_time, n)), np.ones((2, grid.n_space, n)))
    assert marched == [(size, 1), (1, 1), (2, 2), (1, 1)]


@pytest.mark.parametrize("kappa2_L, Omega_T", [(0.0, 0.0), (0.3, 0.0), (0.0, -0.3), (1e-3, 1e-3)])
@pytest.mark.parametrize("grid", [Grid(7, 11), Grid(32, 12)], ids=["prime", "tiled"])
def test_only_zero_rotation_cells_split(monkeypatch, grid, kappa2_L, Omega_T):
    # the split is the cell's: any kappa2 or Omega marches all four components
    params = [canonical_params(kc, 3.0, kappa2_L, Omega_T) for kc in (-1.0, 0.0, 2.0)]
    seen = _sweep_components(monkeypatch)
    integrate_stacked(params, grid, np.ones((2, grid.n_time, 3)), np.ones((2, grid.n_space, 3)))
    transfer_adjoint_apply(params, grid, np.ones((2 * grid.n_time + 2 * grid.n_space, 3)))
    split = kappa2_L == Omega_T == 0.0
    # the tile builds march the dense cells; the marches take one component
    # a channel where the cell splits
    assert (1 in seen) == split
    assert set(seen) <= ({1, 2} if split else {2})


def test_stacked_integrate_rejects_mismatched_entries():
    params = [canonical_params(1.0, 3.0), canonical_params(2.0, 3.0)]
    grid = Grid(8, 6)
    with pytest.raises(ValueError, match=r"one entry per params"):
        integrate_stacked(params, grid, np.ones((2, 8, 3)), np.ones((2, 6, 3)))
    with pytest.raises(ValueError, match=r"no params"):
        integrate_stacked([], grid, np.ones((2, 8, 0)), np.ones((2, 6, 0)))


def _impulse_columns(params, grid):
    """Reference transfer matrix: integrate_stacked on every unit normalized bin."""
    nt, ns = grid.n_time, grid.n_space
    nl, nsp = lattice._norms(params, grid)
    eye = np.eye(2 * nt + 2 * ns)
    u, w = eye[:2 * nt].reshape(2, nt, -1), eye[2 * nt:].reshape(2, ns, -1)
    u, w = integrate_stacked(params, grid, u / nl, w / nsp)
    return np.concatenate([*(u * nl), *(w * nsp)])


# grids of at least 6 x 6 keep every draw below inside the stability limit
@given(kappa_c=st.floats(-4.0, 8.0), ratio_r=st.floats(0.2, 10.0),
       kappa2_L=st.floats(-1.0, 1.0), Omega_T=st.floats(-1.0, 1.0),
       n_time=st.integers(6, 16), n_space=st.integers(6, 16))
def test_green_build_equals_impulse_columns(kappa_c, ratio_r, kappa2_L, Omega_T,
                                            n_time, n_space):
    assume(n_time != n_space)
    params = canonical_params(kappa_c, ratio_r, kappa2_L, Omega_T)
    grid = Grid(n_time, n_space)
    tm = build_transfer_matrix(params, grid)
    np.testing.assert_allclose(tm.matrix, _impulse_columns(params, grid), rtol=0, atol=1e-13)
    assert symplectic_residual(tm) <= 1e-12


# |kappa_c| < 9 keeps sqrt(|kappa_c|*dz*dt) below the limit on 6 x 6 and up
@given(kappa_cs=st.lists(st.floats(-8.5, 8.5), min_size=1, max_size=5),
       kappa2_L=st.floats(-1.0, 1.0), Omega_T=st.floats(-1.0, 1.0),
       rhs=st.integers(1, 3), n_time=st.integers(6, 24), n_space=st.integers(6, 24))
def test_batched_adjoint_equals_single_calls(kappa_cs, kappa2_L, Omega_T, rhs,
                                             n_time, n_space):
    # one sweep over a stack of cells: column p is marched by params[p] alone
    assume(n_time != n_space)
    params = [canonical_params(kc, 3.0, kappa2_L, Omega_T) for kc in kappa_cs]
    grid = Grid(n_time, n_space)
    y = np.random.default_rng(len(kappa_cs)).normal(
        size=(2 * n_time + 2 * n_space, len(params), rhs))
    batched = transfer_adjoint_apply(params, grid, y)
    single = np.stack([transfer_adjoint_apply(p, grid, y[:, i])
                       for i, p in enumerate(params)], axis=1)
    np.testing.assert_allclose(batched, single, rtol=0,
                               atol=1e-13 * np.max(np.abs(single)))


def test_batched_adjoint_rejects_mismatched_columns():
    params = [canonical_params(1.0, 3.0), canonical_params(2.0, 3.0)]
    grid = Grid(8, 6)
    with pytest.raises(ValueError, match=r"one column per params"):
        transfer_adjoint_apply(params, grid, np.ones((28, 3)))
    with pytest.raises(ValueError, match=r"no params"):
        transfer_adjoint_apply([], grid, np.ones((28, 0)))
    with pytest.raises(ValueError, match=r"^vector length 27 does not match layout dim 28$"):
        transfer_adjoint_apply(params[0], grid, np.ones(27))


@pytest.mark.parametrize("kappa_c", [0.5, 2.0, -2.0])
def test_green_function_converges_to_closed_form_kernels(kappa_c):
    # the impulse responses are the lattice Riemann function of the Goursat
    # problem (Courant-Hilbert II, ch. V): with kappa2 = Omega = 0 the
    # Xi1 -> Xi1 column is -h*K(lag*h) and the Jz -> Xi1 block is
    # G(1 - z, t) times the output-map prefactor 2*beta*xi3*L, both to O(h^2)
    params = canonical_params(kappa_c, 3.0)
    self_err, cross_err = [], []
    for n in (32, 64, 128, 256):
        grid = Grid(n, n)
        m = build_transfer_matrix(params, grid).matrix
        b = lattice._bin_layout(n, n)
        h = 1.0 / n
        lags = np.array([n // 4, n // 2, 3 * n // 4])
        self_err.append(np.max(np.abs(m[b["xi1"], b["xi1"]][lags, 0] / h
                                      + kernel_self_scaled(kappa_c, lags * h))))
        nl, nsp = lattice._norms(params, grid)
        prefactor = 2.0 * params.beta * params.xi3_bar * params.length_L * h * nl / nsp
        c = (np.arange(n) + 0.5) * h
        cross = kernel_cross_scaled(kappa_c, 1.0 - c[None, :], c[:, None])
        cross_err.append(np.max(np.abs(m[b["xi1"], b["jz"]] / prefactor - cross)))
    for errs in (self_err, cross_err):
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios


# the one sign the residual takes; test_wrong_form_sign_fails_badly covers
# the other
@pytest.mark.parametrize("spin_sign", [SPIN_BLOCK_SIGN])
def test_residual_equals_dense_form(spin_sign):
    # near the identity (which preserves every form) the residual is small,
    # so a slip in a column sign or in the subtracted form shows as O(1)
    nt, ns = 6, 5
    rng = np.random.default_rng(3)
    dim = 2 * nt + 2 * ns
    tm = TransferMatrix(np.eye(dim) + 0.1 * rng.normal(size=(dim, dim)), nt, ns)
    dense = _dense_residual(tm, _dense_form(nt, ns, spin_sign))
    assert symplectic_residual(tm) == pytest.approx(dense, rel=1e-12, abs=0)


@pytest.mark.parametrize("spin_sign", [SPIN_BLOCK_SIGN])
@pytest.mark.parametrize("nt, ns", [(70, 33), (64, 64)])
def test_tiled_residual_equals_dense_form(nt, ns, spin_sign):
    # dims 206 and 256 span several residual tiles, the first with a partial
    # last tile
    rng = np.random.default_rng(11)
    dim = 2 * nt + 2 * ns
    assert dim > lattice._RESIDUAL_TILE
    tm = TransferMatrix(np.eye(dim) + 0.1 * rng.normal(size=(dim, dim)), nt, ns)
    dense = _dense_residual(tm, _dense_form(nt, ns, spin_sign))
    assert symplectic_residual(tm) == pytest.approx(dense, rel=1e-12, abs=0)


# (p, q) of a planted violation: in the first diagonal tile, in the partial
# tile beside it, and in the last (partial, diagonal) tile
@pytest.mark.parametrize("p, q", [(5, 10), (5, 200), (150, 200)])
def test_residual_reports_a_planted_violation(p, q):
    nt, ns = 70, 33
    tm = build_transfer_matrix(canonical_params(0.8, 3.0, kappa2_L=0.2, Omega_T=0.1),
                               Grid(nt, ns))
    omega = symplectic_form(nt, ns)
    # row p += a * row r, with r the bin paired to q: beside M's own
    # rounding, (I + a E_pr) M Omega M^T (I + a E_rp) - Omega is
    # a * Omega[r, q] * (E_pq - E_qp)
    r = int(np.flatnonzero(omega[:, q])[0])
    a = 0.25
    m = tm.matrix.copy()
    m[p] += a * m[r]
    residual = symplectic_residual(TransferMatrix(m, nt, ns))
    assert residual == pytest.approx(a * abs(omega[r, q]), rel=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("p, q", [(0, 0), (5, 200), (200, 5), (150, 180), (205, 205)])
def test_residual_of_a_non_finite_matrix_is_non_finite(p, q, value):
    # a NaN must survive the reduction of the tile maxima, whichever tile
    # holds it (Python's max(0.0, nan) is 0.0)
    nt, ns = 70, 33
    tm = build_transfer_matrix(canonical_params(0.8, 3.0), Grid(nt, ns))
    m = tm.matrix.copy()
    m[p, q] = value
    assert not math.isfinite(symplectic_residual(TransferMatrix(m, nt, ns)))


def test_residual_holds_less_than_the_matrix():
    # the residual works panel by panel and makes no array of M's size
    tm = build_transfer_matrix(canonical_params(0.8, 3.0, kappa2_L=0.3, Omega_T=0.3),
                               Grid(128, 128))
    tracemalloc.start()
    try:
        symplectic_residual(tm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two panels: the shuffled rows and their products
    assert peak < 2 * lattice._RESIDUAL_TILE * tm.matrix.strides[0] + 64 * 1024


def test_build_holds_little_beside_the_matrix():
    # the sweep writes the cross blocks straight into M, so beside M the
    # build holds the sweep's state and the impulses, both O(n * tile)
    params = canonical_params(0.8, 3.0, kappa2_L=0.3, Omega_T=0.3)
    tracemalloc.start()
    try:
        tm = build_transfer_matrix(params, Grid(256, 256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.4 * tm.matrix.nbytes
