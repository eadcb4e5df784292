"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  Criteria with stated runtime budgets assert the measured wall
time as well.
"""

import math
import random
import time

import numpy as np

from polariton_lab.lattice import build_transfer_matrix, symplectic_residual
from polariton_lab.model import DimensionlessGroups, Grid, canonical_params
from polariton_lab.runner import oracle_kernel_deviations, random_smooth_profiles
from polariton_lab.spectral import (
    dispersion_p_of_s,
    group_velocity,
    measure_packet_velocity,
)
from polariton_lab.variance import readout_variances, scan

from oracles import laplace_identity_residual, plane_wave_max_error

G512 = Grid(512, 512)
G256 = Grid(256, 256)


def _groups(kappa_c, r=10.0, omega_T=0.5, q_L=0.0, kappa2_L=0.0, Omega_T=0.0):
    return DimensionlessGroups(kappa_c, r, omega_T, q_L, kappa2_L, Omega_T)


def _report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_sql_limit():
    t0 = time.perf_counter()
    worst = 0.0
    row_r = scan([0.0], "readout", _groups(0.0), G512).rows[0]
    row_m = scan([0.0], "memory", _groups(0.0, q_L=0.5), G512).rows[0]
    for row in (row_r, row_m):
        worst = max(worst, abs(row.v1 - 1.0), abs(row.v2 - 1.0), abs(row.f_self - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, "sql-limit", ok, f"max |v-1| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_kernel_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(20240917)
    kappa_c = [kc for kc in (0.5, 1.0, 2.0) for _ in range(20)]
    deviations, _ = oracle_kernel_deviations(kappa_c, random_smooth_profiles(rng, 60), 10.0, G512)
    worst_dev = max(max(devs) for devs in deviations)
    # dual-path variances: closed-form kernels vs lattice covariance route
    from polariton_lab.variance import _matrix_breakdowns
    worst_var = 0.0
    for kc in (0.5, 1.0, 2.0):
        g = _groups(kc)
        kern = readout_variances(g, G512)
        matx = _matrix_breakdowns([kc], g, G512, "readout")[0]
        worst_var = max(
            worst_var,
            abs(matx.v1 - kern.v1) / kern.v1,
            abs(matx.v2 - kern.v2) / kern.v2,
            abs(matx.f_self - kern.f_self) / kern.f_self,
        )
    elapsed = time.perf_counter() - t0
    ok = worst_dev <= 1e-6 and worst_var <= 5e-3 and elapsed < 120.0
    _report(2, "kernel-oracle-equivalence", ok,
            f"max field/spin dev = {worst_dev:.2e}, "
            f"max variance dev = {worst_var:.2e}, {elapsed:.1f} s")


def test_criterion_03_dispersion_anchors():
    q1 = abs(dispersion_p_of_s(2.0, 0.5))
    q2 = abs(dispersion_p_of_s(2.0, 4.0))
    eps = np.finfo(float).eps
    ok = abs(q1 - 4.0) <= 4.0 * eps * 4.0 and abs(q2 - 0.5) <= 4.0 * eps
    _report(3, "dispersion-anchors", ok, f"|q|L = {q1!r}, {q2!r}")


def test_criterion_04_plane_wave_residual():
    t0 = time.perf_counter()
    params = canonical_params(2.0, 1.0)
    errs = {n: plane_wave_max_error(params, Grid(n, n), omega=4.0)
            for n in (128, 256)}
    ratio = errs[128] / errs[256]
    elapsed = time.perf_counter() - t0
    ok = 3.2 <= ratio <= 4.8 and elapsed < 30.0
    _report(4, "plane-wave-residual", ok,
            f"err(h)/err(h/2) = {ratio:.3f}, err(h/2) = {errs[256]:.2e}, "
            f"{elapsed:.1f} s")


def test_criterion_05_group_velocity():
    params = canonical_params(2.0, 1.0)
    q0 = 8.0
    v = measure_packet_velocity(params, q0, 0.1 * q0)
    v_pred = group_velocity(-params.a_coupling, q0)
    ratio = v / v_pred
    ok = 0.95 <= ratio <= 1.05
    _report(5, "group-velocity", ok,
            f"measured/predicted = {ratio:.4f} (v = {v:.5f})")


def test_criterion_06_symplectic_preservation():
    t0 = time.perf_counter()
    worst = 0.0
    for kc in (0.0, 0.5, 2.0):
        for k2 in (0.0, 0.3):
            for om in (0.0, 0.3):
                params = canonical_params(kc, 10.0, kappa2_L=k2, Omega_T=om)
                tm = build_transfer_matrix(params, G256)
                worst = max(worst, symplectic_residual(tm))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 300.0
    _report(6, "symplectic-preservation", ok,
            f"max residual = {worst:.2e} over 12 parameter sets, {elapsed:.1f} s")


# frozen from the criterion-2 dual-path oracle at grid 512
FROZEN_KC2 = dict(F=0.18493374926279596, Gamma=0.20376656268430096,
                  v1=8.335596256634835, v2=0.26644037433651635)


def test_criterion_07_fig1_qualitative():
    kcs = np.linspace(0.0, 2.0, 21)
    rows = scan(kcs, "readout", _groups(0.0), G512).rows
    f_vals = [r.f_self for r in rows]
    v1_vals = [r.v1 for r in rows]
    checks = {
        "F decreasing from 1": f_vals[0] == 1.0
            and all(a > b for a, b in zip(f_vals, f_vals[1:])),
        "v1 increasing above 1": all(a < b for a, b in zip(v1_vals, v1_vals[1:]))
            and all(r.v1 > 1.0 for r in rows[1:]),
        "v2 < 1 beyond 0.3": all(r.v2 < 1.0 for kc, r in zip(kcs, rows) if kc > 0.3),
        "v1 > v2 for kc > 0": all(r.v1 > r.v2 for r in rows[1:]),
    }
    last = rows[-1]
    frozen_ok = (
        math.isclose(last.f_self, FROZEN_KC2["F"], rel_tol=1e-12)
        and math.isclose(last.gamma, FROZEN_KC2["Gamma"], rel_tol=1e-12)
        and math.isclose(last.v1, FROZEN_KC2["v1"], rel_tol=1e-12)
        and math.isclose(last.v2, FROZEN_KC2["v2"], rel_tol=1e-12)
    )
    checks["frozen regression row"] = frozen_ok
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(7, "fig1-qualitative", ok,
            "all shape checks hold" if ok else f"failed: {failed}")


def test_criterion_08_readout_memory_symmetry():
    kcs = np.linspace(0.0, 2.0, 11)
    worst = 0.0
    for x in (0.5, 4.0):
        r_scan = scan(kcs, "readout", _groups(0.0, omega_T=x), G512)
        m_scan = scan(kcs, "memory", _groups(0.0, q_L=x), G512)
        for a, b in zip(r_scan.rows, m_scan.rows):
            worst = max(worst, abs(a.f_self - b.f_self), abs(a.gamma - b.gamma),
                        abs(a.v1 - b.v1), abs(a.v2 - b.v2))
    ok = worst <= 1e-8
    _report(8, "readout-memory-symmetry", ok, f"max relabeled deviation = {worst:.2e}")


def test_criterion_09_blue_wing_enhancement():
    # log v1 is asymptotically linear in sqrt|kappa_c|, i.e. super-power-law:
    # monotone growth and convexity of v1 on the uniform grid, positive
    # second difference of log v1 against log kappa_c
    kcs = np.linspace(0.0, 2.0, 11)
    v1 = np.array([readout_variances(_groups(-k), G256).v1 for k in kcs])
    mono = bool(np.all(np.diff(v1) > 0))
    convex = bool(np.all(np.diff(v1, 2) > 0))
    kcs_log = np.exp(np.linspace(math.log(0.05), math.log(2.0), 10))
    v1_log = np.array([readout_variances(_groups(-k), G256).v1 for k in kcs_log])
    log_convex = bool(np.all(np.diff(np.log(v1_log), 2) > 0))
    ok = mono and convex and log_convex
    _report(9, "blue-wing-enhancement", ok,
            f"monotone={mono}, convex={convex}, log-log convex={log_convex}, "
            f"v1(2) = {v1[-1]:.2f}")


def test_criterion_10_laplace_identity():
    params = canonical_params(1.0, 1.0)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(3):
        c = rng.normal(size=3)
        d = rng.normal(size=2)

        def xi(t, c=c):
            t = np.asarray(t, float)
            w = np.sin(np.pi * np.clip(t, 0.0, 1.0)) ** 2
            return np.where((t > 0) & (t < 1),
                            w * (c[0] + c[1] * t + c[2] * t * t), 0.0)

        def jz(z, d=d):
            z = np.asarray(z, float)
            w = np.sin(np.pi * np.clip(z, 0.0, 1.0)) ** 2
            return np.where((z > 0) & (z < 1), w * (d[0] + d[1] * z), 0.0)

        for sT in (2.0, 5.0, 10.0):
            worst = max(worst, laplace_identity_residual(params, G256, sT, xi, jz))
    ok = worst <= 1e-5
    _report(10, "laplace-identity", ok, f"max residual = {worst:.2e}")
