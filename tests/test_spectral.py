"""Dispersion law, wavepacket transport, and the Laplace-domain identity."""

import numpy as np
import pytest

from polariton_lab import spectral
from polariton_lab.model import Grid, canonical_params
from polariton_lab.spectral import (
    dispersion_p_of_s,
    group_velocity,
    measure_packet_velocity,
)

from oracles import laplace_identity_residual, plane_wave_max_error


def test_dispersion_paper_anchors_exact():
    # |A|LT = 2: omega*T = 0.5 pairs with |q|L = 4, omega*T = 4 with 0.5
    assert abs(dispersion_p_of_s(2.0, 0.5)) == 4.0
    assert abs(dispersion_p_of_s(2.0, 4.0)) == 0.5


def test_dispersion_zero_coupling():
    for w in (0.3, 1.0, 7.0):
        assert dispersion_p_of_s(0.0, w) == 0.0


def test_dispersion_pole_rejected():
    with pytest.raises(ValueError):
        dispersion_p_of_s(1.0, 0.0)


def test_dispersion_product_one_rounding():
    rng = np.random.default_rng(21)
    A = -1.7
    for _ in range(200):
        s = complex(rng.normal(), rng.normal())
        if s == 0:
            continue
        p = dispersion_p_of_s(A, s)
        assert abs(p * s - A) <= 4.0 * abs(A) * np.finfo(float).eps


def test_spectral_point_parametrization():
    # s = -i*omega with omega = 0.5: p = A/s = -2/(-0.5i) = -4i, so q = -4
    # on the Fourier section p = i*q
    assert dispersion_p_of_s(-2.0, -0.5j) == -4j


def test_group_velocity_values_and_signs():
    # A*LT = -2, qL = -4 in unit box: v_g = 0.125 L/T
    assert group_velocity(-2.0, -4.0) == 0.125
    # blue wing A > 0: negative for any real q
    for q in (-3.0, 0.7, 12.0):
        assert group_velocity(1.3, q) < 0.0
    # even in q
    assert group_velocity(-1.1, 2.5) == group_velocity(-1.1, -2.5)
    with pytest.raises(ValueError):
        group_velocity(1.0, 0.0)
    # nonzero, but its square underflows
    with pytest.raises(ValueError, match="q\\^2 is 0"):
        group_velocity(1.0, 1e-200)


def test_plane_wave_residual_second_order():
    params = canonical_params(2.0, 1.0)
    errs = {n: plane_wave_max_error(params, Grid(n, n), omega=4.0)
            for n in (64, 128)}
    ratio = errs[64] / errs[128]
    assert 3.2 <= ratio <= 4.8
    assert errs[128] <= 1.0 * (1.0 / 128) ** 2 * 40  # C*h^2 with modest C


def test_packet_velocity_contract():
    params = canonical_params(2.0, 1.0)
    q0 = 8.0
    v = measure_packet_velocity(params, q0, 0.1 * q0)
    v_pred = group_velocity(-params.a_coupling, q0)
    assert 0.95 <= v / v_pred <= 1.05
    # an off-by-one probe plane or chunk length moves the value far more
    # than rounding does
    assert v == pytest.approx(0.032113322367784761, rel=1e-12, abs=0.0)


def test_packet_velocity_quarter_on_doubled_wavenumber():
    params = canonical_params(2.0, 1.0)
    v8 = measure_packet_velocity(params, 8.0, 0.8)
    v16 = measure_packet_velocity(params, 16.0, 1.6)
    assert 3.6 <= v8 / v16 <= 4.4


def test_packet_velocity_no_signal_at_zero_coupling():
    params = canonical_params(0.0, 1.0)
    v = measure_packet_velocity(params, 8.0, 0.8)
    assert v == 0.0


@pytest.mark.parametrize("q0_L", [3.0, 8.0, 20.0])
@pytest.mark.parametrize("kappa_c", [1.0, 1e-24, 1e-300])
def test_packet_velocity_is_measured_at_any_coupling(q0_L, kappa_c):
    # the lattice is scaled to the packet, so the measured speed over v_g
    # depends on the bandwidth fraction alone, 1.0276 at 0.1, however small
    # the coupling and so the signals are
    params = canonical_params(kappa_c, 10.0)
    v = measure_packet_velocity(params, q0_L, 0.1 * q0_L)
    assert v / group_velocity(-params.a_coupling, q0_L) == pytest.approx(1.0276263, rel=1e-7)


def test_packet_velocity_without_signal_raises(monkeypatch):
    # a = 0 has no signal by design and measures 0; with a > 0, light that
    # never reaches the probe planes is an error, not a speed of 0
    def dark(params, grid, u, w):
        return np.zeros((2, grid.n_time)), None

    monkeypatch.setattr(spectral, "integrate_stacked", dark)
    with pytest.raises(ValueError, match="no light signal reaches the probe planes"):
        measure_packet_velocity(canonical_params(2.0, 1.0), 8.0, 0.8)


def test_packet_velocity_with_a_non_positive_delay_raises(monkeypatch):
    # an envelope peaking at the first lag reads a negative delay
    monkeypatch.setattr(spectral, "_analytic_signal",
                        lambda x: np.where(np.arange(x.size) == 0, 1.0, 0.5))
    with pytest.raises(ValueError, match="delay between the probe planes is not positive"):
        measure_packet_velocity(canonical_params(2.0, 1.0), 8.0, 0.8)


def test_packet_velocity_preconditions():
    params = canonical_params(2.0, 1.0)
    with pytest.raises(ValueError, match="bandwidth"):
        measure_packet_velocity(params, 8.0, 2.5)
    blue = canonical_params(-1.0, 1.0)
    with pytest.raises(ValueError, match="red wing"):
        measure_packet_velocity(blue, 8.0, 0.8)
    for kappa_c in (2.0, 0.0):
        with pytest.raises(ValueError, match="underflows"):
            measure_packet_velocity(canonical_params(kappa_c, 1.0), 1e-200, 1e-201)


def _compact_inputs(seed=4):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=3)
    d = rng.normal(size=2)

    def xi(t):
        t = np.asarray(t, float)
        w = np.sin(np.pi * np.clip(t, 0.0, 1.0)) ** 2
        return np.where((t > 0) & (t < 1), w * (c[0] + c[1] * t + c[2] * t * t), 0.0)

    def jz(z):
        z = np.asarray(z, float)
        w = np.sin(np.pi * np.clip(z, 0.0, 1.0)) ** 2
        return np.where((z > 0) & (z < 1), w * (d[0] + d[1] * z), 0.0)

    return xi, jz


def test_laplace_identity_transparency():
    params = canonical_params(0.0, 1.0)
    xi, jz = _compact_inputs()
    assert laplace_identity_residual(params, Grid(128, 128), 3.0, xi, jz) <= 1e-10


def test_laplace_identity_random_compact_inputs():
    params = canonical_params(1.0, 1.0)
    for seed in (1, 2, 3):
        xi, jz = _compact_inputs(seed)
        # from 40 on t_max <= 1, and the kernel apply has no outputs
        for sT in (2.0, 5.0, 10.0, 40.0, 80.0, 200.0):
            res = laplace_identity_residual(params, Grid(128, 128), sT, xi, jz)
            assert res <= 1e-5


def test_laplace_identity_spin_free_single_term():
    params = canonical_params(1.0, 1.0)
    xi, _ = _compact_inputs()
    zero = lambda x: np.zeros_like(np.asarray(x, float))
    assert laplace_identity_residual(params, Grid(128, 128), 5.0, xi, zero) <= 1e-6


def test_laplace_rejects_blue_wing_and_bad_s():
    blue = canonical_params(-1.0, 1.0)
    xi, jz = _compact_inputs()
    with pytest.raises(ValueError, match="blue"):
        laplace_identity_residual(blue, Grid(64, 64), 2.0, xi, jz)
    params = canonical_params(1.0, 1.0)
    with pytest.raises(ValueError):
        laplace_identity_residual(params, Grid(64, 64), -1.0, xi, jz)
