"""The oracle-compare batch against its one-profile paths.

The batch integrates every (kappa_c, profile) pair as one stack entry of a
lattice sweep per grid level, and applies the cross integrals of one
kappa_c as the columns of one kernel apply per source and output size.
"""

import numpy as np

from polariton_lab.kernels import _apply_kernel, _interp_uniform_centers, kernel_cross_scaled
from polariton_lab.lattice import integrate_extrapolated
from polariton_lab.model import Grid, canonical_params
from polariton_lab.quadrature import PanelRule, panel_nodes
from polariton_lab.runner import oracle_kernel_deviations, random_smooth_profiles

# n_time != n_space: the field's and the spin's cross integrals have other
# source and output sizes, so each kappa_c takes two applies
GRID = Grid(64, 32)
KAPPA_C = (-1.0, 0.0, 0.5, 2.0)
RATIO_R = 10.0


def _cases(profiles=2, seed=11):
    rng = np.random.default_rng(seed)
    return [(kc, *random_smooth_profiles(rng)) for kc in KAPPA_C for _ in range(profiles)]


def test_batch_lattice_outputs_equal_per_profile_path():
    cases = _cases()
    params = [canonical_params(kc, RATIO_R) for kc, _, _ in cases]
    batch = integrate_extrapolated(params, GRID, [c[1] for c in cases],
                                   [c[2] for c in cases])
    assert len(batch) == len(cases)
    for p, (_, field_fns, spin_fns), (field, spin) in zip(params, cases, batch):
        [(one_field, one_spin)] = integrate_extrapolated([p], GRID, [field_fns], [spin_fns])
        for got, want in ((field.xi1, one_field.xi1), (field.xi2, one_field.xi2),
                          (spin.jz, one_spin.jz), (spin.jy, one_spin.jy)):
            np.testing.assert_array_equal(got, want)


def test_batch_deviations_match_one_profile_calls():
    cases = _cases()
    batch = oracle_kernel_deviations(cases, RATIO_R, GRID)
    assert len(batch) == len(cases)
    for (kc, field_fns, spin_fns), devs in zip(cases, batch):
        (one,) = oracle_kernel_deviations([(kc, field_fns, spin_fns)], RATIO_R, GRID)
        np.testing.assert_allclose(devs, one, rtol=0, atol=1e-14)


def test_apply_kernel_columns_match_separate_applies():
    # the sources of the field's cross integrals at GRID, one column per
    # profile component, one of them many orders smaller than the others
    n_src, n_out = GRID.n_space, GRID.n_time
    x, wt = panel_nodes(np.arange(n_src + 1) / n_src, PanelRule())
    x, wt = x.ravel(), wt.ravel()
    samples = np.random.default_rng(5).normal(size=(n_src, 5))
    samples[:, 2] *= 1e-9
    w = wt[:, None] * _interp_uniform_centers(samples, x)
    t = (np.arange(n_out) + 0.5) / n_out
    for kappa_c in KAPPA_C + (200.0,):
        kernel = lambda a, r: kernel_cross_scaled(kappa_c, r, a)
        got = _apply_kernel(kernel, t, 1.0 - x, w, kappa_c)
        assert got.shape == (n_out, w.shape[1])
        # relative to the summands' magnitudes: the random sources cancel in
        # the sums, and a matrix product adds them in another order than a
        # matrix-vector product
        scale = np.abs(kernel(t[:, None], (1.0 - x)[None, :])) @ np.abs(w)
        for k in range(w.shape[1]):
            want = _apply_kernel(kernel, t, 1.0 - x, w[:, k], kappa_c)
            assert np.max(np.abs(got[:, k] - want)) <= 1e-14 * np.max(scale[:, k])
