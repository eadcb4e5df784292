"""Lattice integrator: exact limits, convergence, and canonical structure."""

import math

import numpy as np
import pytest

from polariton_lab import lattice
from polariton_lab.kernels import FieldRecord, SpinRecord, output_field, output_spin
from polariton_lab.lattice import (
    SPIN_BLOCK_SIGN,
    StabilityError,
    build_transfer_matrix,
    integrate,
    integrate_stacked,
    symplectic_form,
    symplectic_residual,
    transfer_adjoint_apply,
)
from polariton_lab.model import Grid, PhysicalParams, canonical_params


def _random_records(n_time, n_space, seed=0):
    rng = np.random.default_rng(seed)
    return (FieldRecord(rng.normal(size=n_time), rng.normal(size=n_time)),
            SpinRecord(rng.normal(size=n_space), rng.normal(size=n_space)))


def _block_slices(n_time, n_space):
    """Transfer-matrix row/column blocks: Xi1, Xi2 time bins, then Jz, Jy space bins."""
    return {
        "xi1": slice(0, n_time),
        "xi2": slice(n_time, 2 * n_time),
        "jz": slice(2 * n_time, 2 * n_time + n_space),
        "jy": slice(2 * n_time + n_space, 2 * n_time + 2 * n_space),
    }


def _calibrate_spin_block_sign():
    """Pick the spin-block sign empirically at weak coupling (kappa_c = 0.01).

    Both sign choices are tested; the preserved one wins by many orders of
    magnitude.
    """
    params = canonical_params(kappa_c=0.01, ratio_r=3.0)
    tm = build_transfer_matrix(params, Grid(32, 32))
    res = {s: symplectic_residual(tm, s) for s in (+1.0, -1.0)}
    return min(res, key=res.get)


def test_pure_stokes_rotation():
    # beta = eps = Omega = 0, kappa2 != 0, no spins: rigid Stokes rotation
    params = PhysicalParams(beta=0.0, epsilon=0.0, kappa2=0.9)
    grid = Grid(64, 64)
    f1 = lambda t: np.cos(2 * t)
    f2 = lambda t: 0.3 + np.sin(t)
    xi = FieldRecord.from_functions(f1, f2, grid.n_time)
    field, _ = integrate(params, grid, xi, SpinRecord.zeros(grid.n_space))
    ang = params.kappa2 * params.length_L
    np.testing.assert_allclose(field.xi1, math.cos(ang) * xi.xi1 - math.sin(ang) * xi.xi2,
                               rtol=0, atol=5e-5)
    np.testing.assert_allclose(field.xi2, math.sin(ang) * xi.xi1 + math.cos(ang) * xi.xi2,
                               rtol=0, atol=5e-5)


def test_pure_precession():
    params = PhysicalParams(beta=0.0, epsilon=0.0, omega0=0.45, omega2=0.15)
    grid = Grid(64, 64)
    sp = SpinRecord.from_functions(lambda z: np.sin(z), lambda z: np.cos(2 * z),
                                   grid.n_space)
    _, spin = integrate(params, grid, FieldRecord.zeros(grid.n_time), sp)
    ang = params.omega * params.time_T
    np.testing.assert_allclose(spin.jz, math.cos(ang) * sp.jz + math.sin(ang) * sp.jy,
                               rtol=0, atol=5e-5)
    np.testing.assert_allclose(spin.jy, -math.sin(ang) * sp.jz + math.cos(ang) * sp.jy,
                               rtol=0, atol=5e-5)


def test_rotation_exact_under_refinement():
    # second-order self-convergence on the pure rotation
    params = PhysicalParams(beta=0.0, epsilon=0.0, kappa2=0.9)
    errs = []
    for n in (32, 64):
        grid = Grid(n, n)
        xi = FieldRecord.from_functions(lambda t: np.ones_like(t),
                                        lambda t: np.zeros_like(t), n)
        field, _ = integrate(params, grid, xi, SpinRecord.zeros(n))
        errs.append(abs(float(field.xi1[0]) - math.cos(0.9)))
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_identity_when_all_couplings_vanish():
    params = PhysicalParams(beta=0.0, epsilon=0.0)
    tm = build_transfer_matrix(params, Grid(24, 16))
    np.testing.assert_allclose(tm.matrix, np.eye(tm.dim), rtol=0, atol=1e-15)


def test_matrix_reproduces_integrate_linearity():
    params = canonical_params(1.2, 5.0, kappa2_L=0.25, Omega_T=0.15)
    grid = Grid(24, 20)
    tm = build_transfer_matrix(params, grid)
    xi, sp = _random_records(grid.n_time, grid.n_space, seed=5)
    field, spin = integrate(params, grid, xi, sp)
    dt = grid.dt(params.time_T)
    dz = grid.dz(params.length_L)
    nl = math.sqrt(dt / (2.0 * params.xi3_bar))
    ns = math.sqrt(dz / params.jx_bar)
    x_in = np.concatenate([xi.xi1 * nl, xi.xi2 * nl, sp.jz * ns, sp.jy * ns])
    x_out = tm.matrix @ x_in
    expected = np.concatenate([field.xi1 * nl, field.xi2 * nl,
                               spin.jz * ns, spin.jy * ns])
    np.testing.assert_allclose(x_out, expected, rtol=0, atol=1e-13)


def test_adjoint_is_transpose():
    params = canonical_params(0.8, 3.0, kappa2_L=0.2, Omega_T=0.1)
    grid = Grid(20, 28)
    tm = build_transfer_matrix(params, grid)
    rng = np.random.default_rng(7)
    y = rng.normal(size=tm.dim)
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
    assert symplectic_residual(tm, spin_sign=+1.0) > 1e-3
    assert symplectic_residual(tm, spin_sign=-1.0) <= 1e-12


def test_calibration_matches_persisted_sign():
    assert _calibrate_spin_block_sign() == SPIN_BLOCK_SIGN


def test_causality_strict_triangularity():
    params = canonical_params(1.5, 6.0)
    grid = Grid(24, 24)
    tm = build_transfer_matrix(params, grid)
    nt = grid.n_time
    blocks = _block_slices(grid.n_time, grid.n_space)
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
        integrate(params, Grid(32, 32), FieldRecord.zeros(32), SpinRecord.zeros(32))
    strong = PhysicalParams(beta=30.0, epsilon=30.0)
    with pytest.raises(StabilityError, match=r"sqrt"):
        integrate(strong, Grid(8, 8), FieldRecord.zeros(8), SpinRecord.zeros(8))


def test_self_convergence_second_order_coupled():
    # error measured against the closed-form kernel route, which is exact at
    # the record level up to interpolation noise far below the lattice error
    params = canonical_params(2.0, 10.0)
    f = ((lambda t: 1.0 + 0.5 * np.cos(np.pi * t)), (lambda t: 0.5 * np.sin(np.pi * t)))
    s = ((lambda z: np.exp(-((z - 0.5) / 0.4) ** 2)), (lambda z: z * (1 - z)))
    errs = []
    for n in (48, 96):
        grid = Grid(n, n)
        xi = FieldRecord.from_functions(*f, n)
        sp = SpinRecord.from_functions(*s, n)
        field, spin = integrate(params, grid, xi, sp)
        k_field = output_field(params, grid, xi, sp)
        k_spin = output_spin(params, grid, xi, sp)
        err = max(np.max(np.abs(field.xi1 - k_field.xi1)),
                  np.max(np.abs(spin.jy - k_spin.jy)))
        errs.append(err)
    ratio = errs[0] / errs[1]
    assert 3.2 <= ratio <= 4.8


def test_rectangular_grid_supported():
    params = canonical_params(1.0, 4.0)
    grid = Grid(40, 24)
    xi, sp = _random_records(grid.n_time, grid.n_space, seed=9)
    field, spin = integrate(params, grid, xi, sp)
    assert field.n == 40 and spin.n == 24


def test_symplectic_form_antisymmetric():
    om = symplectic_form(5, 7)
    np.testing.assert_array_equal(om, -om.T)
    assert np.max(np.abs(om)) == 1.0


@pytest.mark.parametrize("kappa_c, kappa2_L, Omega_T, grid", [
    (1.0, 0.3, 0.3, Grid(24, 16)),
    (-2.0, 0.0, 0.0, Grid(16, 16)),
    (1.0, 0.2, 0.0, Grid(16, 20)),
])
def test_sequential_fallback_matches_vectorized_sweep(monkeypatch, kappa_c, kappa2_L,
                                                      Omega_T, grid):
    # the cell-by-cell loop, taken when the spin block is near defective, is
    # the reference for the eigen-vectorized sweep
    params = canonical_params(kappa_c, 3.0, kappa2_L=kappa2_L, Omega_T=Omega_T)
    rng = np.random.default_rng(13)
    u = rng.normal(size=(2, grid.n_time, 3))
    w = rng.normal(size=(2, grid.n_space, 3))
    probes = (0, grid.n_space // 2)
    fast_u, fast_w, fast_probes = integrate_stacked(params, grid, u, w, probes)
    monkeypatch.setattr(lattice, "_spin_propagators", lambda S, n_time: None)
    slow_u, slow_w, slow_probes = integrate_stacked(params, grid, u, w, probes)
    np.testing.assert_allclose(slow_u, fast_u, rtol=0, atol=1e-12)
    np.testing.assert_allclose(slow_w, fast_w, rtol=0, atol=1e-12)
    assert sorted(slow_probes) == sorted(fast_probes) == sorted(probes)
    for i in probes:
        np.testing.assert_allclose(slow_probes[i], fast_probes[i], rtol=0, atol=1e-12)
