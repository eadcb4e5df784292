"""The oracle-compare batch against its one-profile paths.

The batch integrates every (kappa_c, profile) pair as one stack entry of a
lattice sweep per grid level, and maps the profiles of one kappa_c with one
set of kernel values per Gauss-Legendre order and output grid.
"""

import random

import numpy as np

import pytest

from polariton_lab.kernels import output_maps
from polariton_lab.lattice import integrate_extrapolated
from polariton_lab.model import Grid, canonical_params
from polariton_lab.runner import oracle_kernel_deviations, random_smooth_profiles

# n_time != n_space: the field's and the spin's outputs lie on other grids,
# so each kappa_c takes two sets of kernel values per order
GRID = Grid(64, 32)
KAPPA_C = (-1.0, 0.0, 0.5, 2.0)
RATIO_R = 10.0


def _cases(profiles=2, seed=11):
    rng = random.Random(seed)
    return [(kc, *random_smooth_profiles(rng)) for kc in KAPPA_C for _ in range(profiles)]


def test_profile_draw_is_frozen():
    # the oracle's inputs for seed 2024, oracle-compare's default: a change
    # of generator or of the order of its draws changes these
    (xi1, xi2), (jz, jy) = random_smooth_profiles(random.Random(2024))
    x = np.array([0.25, 0.75])
    for fn, frozen in ((xi1, [-0.9510023481469732, -0.18125221391158028]),
                       (xi2, [1.5078587640054575, 2.257579421749326]),
                       (jz, [-1.1720589856744312, -1.7658030338168034]),
                       (jy, [-0.14222542139462815, -0.1466989864466853])):
        np.testing.assert_allclose(fn(x), frozen, rtol=1e-12, atol=0.0)


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
    batch, orders = oracle_kernel_deviations(cases, RATIO_R, GRID)
    assert len(batch) == len(orders) == len(cases)
    for (kc, field_fns, spin_fns), devs, order in zip(cases, batch, orders):
        (one,), (one_order,) = oracle_kernel_deviations([(kc, field_fns, spin_fns)], RATIO_R, GRID)
        assert devs == one
        assert one_order <= order
    # one order per kappa_c, shared by its profiles
    by_kappa_c = {}
    for (kc, _, _), order in zip(cases, orders):
        by_kappa_c.setdefault(kc, set()).add(order)
    assert all(len(shared) == 1 for shared in by_kappa_c.values())


@pytest.mark.parametrize("grid", [GRID, Grid(48, 48)], ids=["rectangular", "square"])
@pytest.mark.parametrize("kappa_c", KAPPA_C + (200.0,))
def test_stacked_profiles_equal_lone_calls(grid, kappa_c):
    # the kernel values are shared across profiles; each component keeps the
    # bits of its own call, also when another profile needs a higher order
    # (the fast light input of the middle one, wherever it couples)
    rng = random.Random(5)
    profiles = [random_smooth_profiles(rng) for _ in range(3)]
    profiles[1] = ((lambda t: np.cos(60.0 * t), profiles[1][0][1]), profiles[1][1])
    params = canonical_params(kappa_c, RATIO_R)
    stacked, order = output_maps(params, grid, profiles)
    lone_orders = []
    for (field, spin), profile in zip(stacked, profiles):
        [(one_field, one_spin)], one_order = output_maps(params, grid, [profile])
        lone_orders.append(one_order)
        for got, want in ((field.xi1, one_field.xi1), (field.xi2, one_field.xi2),
                          (spin.jz, one_spin.jz), (spin.jy, one_spin.jy)):
            np.testing.assert_array_equal(got, want)
    assert order == max(lone_orders)
