"""The oracle-compare batch against its one-profile paths.

The batch integrates every (kappa_c, profile) pair as one stack entry of a
lattice sweep per grid level, and maps all profiles with one set of kernel
values per Gauss-Legendre order, output grid and kappa_c.
"""

import math
import random

import numpy as np

import pytest

from polariton_lab.kernels import UnresolvedError, output_maps
from polariton_lab.lattice import integrate_extrapolated
from polariton_lab.model import Grid, canonical_params
from polariton_lab.runner import (SmoothProfiles, oracle_kernel_deviations,
                                  random_smooth_profiles)

from profile_sets import function_set

# n_time != n_space: the field's and the spin's outputs lie on other grids,
# so each kappa_c takes two sets of kernel values per order
GRID = Grid(64, 32)
KAPPA_C = (-1.0, 0.0, 0.5, 2.0)
RATIO_R = 10.0


def _cases(profiles=2, seed=11):
    kappa_c = [kc for kc in KAPPA_C for _ in range(profiles)]
    return kappa_c, random_smooth_profiles(random.Random(seed), len(kappa_c))


def _one(profiles, k):
    """Profile k of a set, as a set of its own."""
    return SmoothProfiles(profiles._draws[k:k + 1])


def _today(rng):
    """One profile's four closures, drawn from rng as the oracle drew them
    one profile per call: the reference for the set's values."""
    c = [rng.normalvariate(0.0, 1.0) for _ in range(6)]
    centers = [rng.uniform(0.3, 0.7) for _ in range(2)]
    widths = [rng.uniform(0.3, 0.5) for _ in range(2)]
    amps = [rng.normalvariate(0.0, 1.0) for _ in range(2)]
    return (lambda t: c[0] + c[1] * np.cos(np.pi * t) + c[2] * np.sin(np.pi * t),
            lambda t: c[3] + c[4] * np.cos(np.pi * t) + c[5] * np.sin(np.pi * t),
            lambda z: amps[0] * np.exp(-((z - centers[0]) / widths[0]) ** 2),
            lambda z: amps[1] * np.exp(-((z - centers[1]) / widths[1]) ** 2))


def test_profile_draw_is_frozen():
    # the oracle's inputs for seed 2024, oracle-compare's default: a change
    # of generator or of the order of its draws changes these
    profiles = random_smooth_profiles(random.Random(2024), 3)
    x = np.array([0.25, 0.75])
    (xi1, xi2), (jz, jy) = profiles.light(x)[0], profiles.spin(x)[0]
    for got, frozen in ((xi1, [-0.9510023481469732, -0.18125221391158028]),
                        (xi2, [1.5078587640054575, 2.257579421749326]),
                        (jz, [-1.1720589856744312, -1.7658030338168034]),
                        (jy, [-0.14222542139462815, -0.1466989864466853])):
        np.testing.assert_allclose(got, frozen, rtol=1e-12, atol=0.0)
    # every profile of the set has the bits of its own closures, drawn in
    # turn, on any point set
    rng = random.Random(2024)
    x = np.random.default_rng(3).uniform(-0.5, 1.5, size=(7, 5))
    light, spin = np.asarray(profiles.light(x)), np.asarray(profiles.spin(x))
    assert light.shape == spin.shape == (3, 2, 7, 5)
    for p in range(3):
        fns = _today(rng)
        for got, fn in zip((*light[p], *spin[p]), fns):
            np.testing.assert_array_equal(got, fn(x))
        np.testing.assert_array_equal(np.asarray(_one(profiles, p).light(x)), light[p:p + 1])
        np.testing.assert_array_equal(np.asarray(_one(profiles, p).spin(x)), spin[p:p + 1])


def test_batch_lattice_outputs_equal_per_profile_path():
    kappa_c, profiles = _cases()
    params = [canonical_params(kc, RATIO_R) for kc in kappa_c]
    light, spin = integrate_extrapolated(params, GRID, profiles.light, profiles.spin)
    assert light.shape == (len(kappa_c), 2, GRID.n_time)
    assert spin.shape == (len(kappa_c), 2, GRID.n_space)
    for k, p in enumerate(params):
        one = _one(profiles, k)
        one_light, one_spin = integrate_extrapolated([p], GRID, one.light, one.spin)
        np.testing.assert_array_equal(light[k:k + 1], one_light)
        np.testing.assert_array_equal(spin[k:k + 1], one_spin)


@pytest.mark.parametrize("side, short, bad, message", [
    ("light", 0, math.nan, "light values contain non-finite samples"),
    ("light", 1, 0.0, r"light values of shape \(1, 2, 63\): expected \(1, 2, 64\)"),
    ("spin", 0, math.inf, "spin values contain non-finite samples"),
    ("spin", 1, 0.0, r"spin values of shape \(1, 2, 31\): expected \(1, 2, 32\)"),
], ids=["light-nan", "light-shape", "spin-inf", "spin-shape"])
def test_oracle_samples_are_validated(side, short, bad, message):
    # the lattice oracle checks the shape and finiteness of a grid level's
    # samples before any sweep
    def sampled(x):
        out = np.ones((1, 2, x.size - short))
        out[0, 1, 0] = bad
        return out

    def ones(x):
        return np.ones((1, 2, x.size))

    light, spin = (sampled, ones) if side == "light" else (ones, sampled)
    with pytest.raises(ValueError, match=message):
        integrate_extrapolated([canonical_params(1.0, RATIO_R)], GRID, light, spin)


def test_batch_deviations_match_one_profile_calls():
    kappa_c, profiles = _cases()
    batch, orders = oracle_kernel_deviations(kappa_c, profiles, RATIO_R, GRID)
    assert len(batch) == len(orders) == len(kappa_c)
    for k, (kc, devs, order) in enumerate(zip(kappa_c, batch, orders)):
        (one,), (one_order,) = oracle_kernel_deviations([kc], _one(profiles, k), RATIO_R, GRID)
        assert devs == one
        assert one_order <= order
    # one order per kappa_c, shared by its profiles
    by_kappa_c = {}
    for kc, order in zip(kappa_c, orders):
        by_kappa_c.setdefault(kc, set()).add(order)
    assert all(len(shared) == 1 for shared in by_kappa_c.values())


def test_kappa_c_and_profile_counts_must_agree():
    with pytest.raises(ValueError, match="3 kappa_c values for 2 profiles"):
        oracle_kernel_deviations([0.5, 1.0, 2.0], random_smooth_profiles(random.Random(0), 2),
                                 RATIO_R, GRID)


def _fast_middle(profiles):
    """The set as callables, its middle profile's Xi1 replaced by the fast
    cos(60 t) that needs a higher order wherever it couples."""
    fns = []
    for k in range(len(profiles)):
        one = _one(profiles, k)
        fns.append(((lambda t, one=one: one.light(t)[0][0], lambda t, one=one: one.light(t)[0][1]),
                    (lambda z, one=one: one.spin(z)[0][0], lambda z, one=one: one.spin(z)[0][1])))
    fns[len(fns) // 2] = ((lambda t: np.cos(60.0 * t), fns[len(fns) // 2][0][1]),
                          fns[len(fns) // 2][1])
    return fns


@pytest.mark.parametrize("grid", [GRID, Grid(48, 48)], ids=["rectangular", "square"])
@pytest.mark.parametrize("kappa_c", KAPPA_C + (200.0,))
def test_stacked_profiles_equal_lone_calls(grid, kappa_c):
    # the kernel values are shared across profiles; each component keeps the
    # bits of its own call, also when another profile needs a higher order
    # (the fast light input of the middle one, wherever it couples)
    fns = _fast_middle(random_smooth_profiles(random.Random(5), 3))
    params = canonical_params(kappa_c, RATIO_R)
    (light, spin), orders = output_maps([params] * 3, grid, *function_set(fns))
    lone_orders = []
    for p, profile in enumerate(fns):
        (one_light, one_spin), [one_order] = output_maps([params], grid,
                                                         *function_set([profile]))
        lone_orders.append(one_order)
        np.testing.assert_array_equal(light[p:p + 1], one_light)
        np.testing.assert_array_equal(spin[p:p + 1], one_spin)
    assert orders == [max(lone_orders)] * 3


@pytest.mark.parametrize("grid", [Grid(64, 32), Grid(40, 40)], ids=["rectangular", "square"])
def test_one_pass_equals_one_entry_calls(grid):
    # one output_maps call over a mixed list: both wings, kappa_c = 0, a
    # strong coupling, a repeated kappa_c and the fast profile; every entry
    # has the bits of its one-entry call, and each keeps the largest order
    # any component of its kappa_c needed
    kappa_c = [-1.0, 0.0, 0.5, 2.0, 200.0, 0.5, -1.0]
    fns = _fast_middle(random_smooth_profiles(random.Random(8), len(kappa_c)))
    params = [canonical_params(kc, RATIO_R) for kc in kappa_c]
    (light, spin), orders = output_maps(params, grid, *function_set(fns))
    lone = []
    for k, (p, profile) in enumerate(zip(params, fns)):
        (one_light, one_spin), [one_order] = output_maps([p], grid, *function_set([profile]))
        lone.append(one_order)
        np.testing.assert_array_equal(light[k:k + 1], one_light)
        np.testing.assert_array_equal(spin[k:k + 1], one_spin)
    for kc, order in zip(kappa_c, orders):
        assert order == max(o for k, o in zip(kappa_c, lone) if k == kc)
    # the fast profile raises the order of its own kappa_c, and of no other
    assert orders[kappa_c.index(2.0)] > orders[kappa_c.index(0.5)]


@pytest.mark.parametrize("grid", [Grid(64, 32), Grid(40, 40)], ids=["rectangular", "square"])
def test_one_pass_raises_what_the_per_kappa_c_loop_raised_first(grid):
    # kappa_c = 1e7 is unresolved at order 1024 and -2e5 overflows the
    # kernels at order 16; a per-kappa_c loop in order of first appearance
    # raises for the first of them whatever the orders, and so does one pass
    profiles = random_smooth_profiles(random.Random(1), 4)

    def params_at(kc):
        return canonical_params(1.0, RATIO_R)._replace(
            beta=math.sqrt(abs(kc)), epsilon=math.copysign(math.sqrt(abs(kc)), kc) / 2.0)

    unresolved, overflow = params_at(1e7), params_at(-2e5)
    assert math.isclose(unresolved.kappa_c, 1e7) and math.isclose(overflow.kappa_c, -2e5)
    for first, second, error in ((unresolved, overflow, UnresolvedError),
                                 (overflow, unresolved, OverflowError)):
        params = [canonical_params(0.5, RATIO_R), first, second, first]
        with pytest.raises(error) as one_pass:
            output_maps(params, grid, profiles.light, profiles.spin)
        with pytest.raises(error) as lone:
            output_maps([first], grid, _one(profiles, 1).light, _one(profiles, 1).spin)
        assert str(one_pass.value) == str(lone.value)
