"""Run orchestration and deterministic data emission.

Every run writes a CSV with a fixed header plus a sidecar JSON metadata
file recording the config hash, grid, package version and the Python and
numpy versions; a closed-form scan adds each row's resolution evidence.
Numbers are serialized with 17 significant digits so the emitted files
round-trip to the exact binary doubles; identical configs produce
byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .kernels import FieldRecord, SpinRecord, output_maps
from .lattice import (build_transfer_matrix, check_stability, integrate_extrapolated,
                      symplectic_residual)
from .model import Grid, canonical_params
from .spectral import dispersion_p_of_s, group_velocity, measure_packet_velocity
from .variance import scan

__all__ = ["run", "write_csv", "format_number", "random_smooth_profiles"]

SYMPLECTIC_TOLERANCE = 1e-8
ORACLE_TOLERANCE = 1e-6


def format_number(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str | Path, header, rows) -> None:
    """Write header and rows; a non-finite value raises ValueError before any write."""
    lines = [",".join(header)]
    for i, row in enumerate(rows, start=1):
        for name, v in zip(header, row):
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {float(v)!r} in CSV row {i}, "
                                 f"column {name!r}; {path} not written")
        lines.append(",".join(format_number(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_metadata(out_path: Path, config_text: str, config: RunConfig,
                    extra: dict) -> None:
    meta = {
        "config_sha256": hashlib.sha256(config_text.encode("utf-8")).hexdigest(),
        "grid": {"n_time": config.grid.n_time, "n_space": config.grid.n_space},
        "mode": config.mode,
        "version": __version__,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    meta.update(extra)
    out_path.with_suffix(out_path.suffix + ".meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def random_smooth_profiles(rng: np.random.Generator):
    """One draw of smooth light/spin input profiles on the unit box.

    Low-order trigonometric light profiles and wide Gaussian spin bumps:
    smooth, O(1), and free of fine structure the lattice cannot carry.
    """
    c = rng.normal(size=6)
    centers = rng.uniform(0.3, 0.7, size=2)
    widths = rng.uniform(0.3, 0.5, size=2)
    amps = rng.normal(size=2)

    def xi1(t):
        return c[0] + c[1] * np.cos(np.pi * t) + c[2] * np.sin(np.pi * t)

    def xi2(t):
        return c[3] + c[4] * np.cos(np.pi * t) + c[5] * np.sin(np.pi * t)

    def jz(z):
        return amps[0] * np.exp(-((z - centers[0]) / widths[0]) ** 2)

    def jy(z):
        return amps[1] * np.exp(-((z - centers[1]) / widths[1]) ** 2)

    return (xi1, xi2), (jz, jy)


def _relative_deviation(kernel: tuple[np.ndarray, np.ndarray],
                        oracle: tuple[np.ndarray, np.ndarray]) -> float:
    """Sup-norm deviation of two components over the kernel side's sup norm."""
    scale = max(np.max(np.abs(kernel[0])), np.max(np.abs(kernel[1])))
    return float(max(np.max(np.abs(kernel[0] - oracle[0])),
                     np.max(np.abs(kernel[1] - oracle[1]))) / scale)


def oracle_kernel_deviations(cases, ratio_r: float, grid: Grid) -> list[tuple[float, float]]:
    """Sup-norm relative deviation (field, spin) of kernels vs lattice oracle,
    for each (kappa_c, field_fns, spin_fns) of ``cases``.

    The oracle side is the Richardson-extrapolated reference built from two
    second-order lattice runs; the kernel side is the closed-form map applied
    to the same center-sampled records.  Every kappa_c is checked for
    stability at ``grid`` before any sweep or apply, and the error names
    the first that fails.  All cases ride one stacked lattice integrate per
    grid level, each its own stack entry, and the cases of one kappa_c one
    ``output_maps`` call.
    """
    params = [canonical_params(kc, ratio_r) for kc, _, _ in cases]
    for p in params:
        check_stability(p, grid)
    by_kappa_c = {}
    for i, (kc, _, _) in enumerate(cases):
        by_kappa_c.setdefault(kc, []).append(i)
    kernel = [None] * len(cases)
    for group in by_kappa_c.values():
        p = params[group[0]]
        records = [(FieldRecord.from_functions(*cases[i][1], grid.n_time, p.time_T),
                    SpinRecord.from_functions(*cases[i][2], grid.n_space, p.length_L))
                   for i in group]
        for i, out in zip(group, output_maps(p, grid, records)):
            kernel[i] = out
    oracle = integrate_extrapolated(params, grid, [c[1] for c in cases],
                                    [c[2] for c in cases])
    return [(_relative_deviation((kf.xi1, kf.xi2), (of.xi1, of.xi2)),
             _relative_deviation((ks.jz, ks.jy), (os_.jz, os_.jy)))
            for (kf, ks), (of, os_) in zip(kernel, oracle)]


def _run_scan(config: RunConfig, out: Path, config_text: str) -> int:
    lo, hi, points = config.scan_range
    kcs = np.linspace(lo, hi, points)
    result = scan(kcs, config.mode, config.groups, config.grid,
                  eps_conversion=config.eps_conversion)
    write_csv(out, result.header, result.as_rows())
    extra = {"rows": len(result.rows), "route": result.route}
    if result.route == "kernel":
        # per row: the tensor rule's final order and the relative change of
        # F and Gamma from half that order
        res = [r.resolution for r in result.rows]
        extra["resolution"] = {"order": [r.order for r in res],
                               "f_rel_change": [r.f_change for r in res],
                               "gamma_rel_change": [r.gamma_change for r in res]}
    _write_metadata(out, config_text, config, extra)
    print(f"{config.mode} scan: {points} rows -> {out}")
    return 0


def _run_dispersion(config: RunConfig, out: Path, config_text: str) -> int:
    rows = []
    for w in config.dispersion_omega_T:
        q = abs(dispersion_p_of_s(config.dispersion_abs_ALT, w))
        rows.append((w, q))
        print(f"omega_T = {format_number(w)}  ->  |q|L = {format_number(q)}")
    write_csv(out, ("omega_T", "q_L_abs"), rows)
    _write_metadata(out, config_text, config, {"rows": len(rows)})
    return 0


def _run_oracle_compare(config: RunConfig, out: Path, config_text: str) -> int:
    rng = np.random.default_rng(config.compare_seed)
    labels = [(kc, p) for kc in config.compare_kappa_c
              for p in range(config.compare_profiles)]
    cases = [(kc, *random_smooth_profiles(rng)) for kc, _ in labels]
    deviations = oracle_kernel_deviations(cases, config.groups.ratio_r, config.grid)
    rows = [(kc, p, f_dev, s_dev) for (kc, p), (f_dev, s_dev) in zip(labels, deviations)]
    worst = max(max(dev) for dev in deviations)
    write_csv(out, ("kappa_c", "profile", "field_rel_dev", "spin_rel_dev"), rows)
    _write_metadata(out, config_text, config, {"rows": len(rows)})
    status = "PASS" if worst <= ORACLE_TOLERANCE else "FAIL"
    print(f"oracle-compare: worst relative deviation {worst:.3e} "
          f"(tolerance {ORACLE_TOLERANCE:g}) {status}")
    return 0 if worst <= ORACLE_TOLERANCE else 1


def _run_symplectic(config: RunConfig, out: Path, config_text: str) -> int:
    g = config.groups
    params = canonical_params(g.kappa_c, g.ratio_r, g.kappa2_L, g.Omega_T)
    tm = build_transfer_matrix(params, config.grid)
    res = symplectic_residual(tm)
    write_csv(out, ("kappa_c", "kappa2_L", "Omega_T", "residual"),
              [(g.kappa_c, g.kappa2_L, g.Omega_T, res)])
    _write_metadata(out, config_text, config, {"rows": 1})
    status = "PASS" if res <= SYMPLECTIC_TOLERANCE else "FAIL"
    print(f"symplectic-check: max residual {res:.3e} "
          f"(tolerance {SYMPLECTIC_TOLERANCE:g}) {status}")
    return 0 if res <= SYMPLECTIC_TOLERANCE else 1


def _run_packet(config: RunConfig, out: Path, config_text: str) -> int:
    g = config.groups
    params = canonical_params(g.kappa_c, g.ratio_r)
    q0 = config.packet_q0_L / params.length_L
    bandwidth = config.packet_bandwidth_frac * abs(q0)
    v_meas = measure_packet_velocity(params, config.grid, q0, bandwidth)
    v_pred = group_velocity(-params.a_coupling, q0)
    write_csv(out, ("q0", "v_measured", "v_predicted"), [(q0, v_meas, v_pred)])
    _write_metadata(out, config_text, config, {"rows": 1})
    print(f"packet-velocity: measured {format_number(v_meas)}, "
          f"predicted {format_number(v_pred)}")
    return 0


def run(config: RunConfig, out_path: str | Path | None = None,
        config_text: str = "") -> int:
    """Execute one validated run; returns the process exit status."""
    out = Path(out_path or config.output or f"{config.mode}.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        if config.mode in ("readout", "memory"):
            return _run_scan(config, out, config_text)
        if config.mode == "dispersion":
            return _run_dispersion(config, out, config_text)
        if config.mode == "oracle-compare":
            return _run_oracle_compare(config, out, config_text)
        if config.mode == "symplectic-check":
            return _run_symplectic(config, out, config_text)
        if config.mode == "packet-velocity":
            return _run_packet(config, out, config_text)
        raise ValueError(f"unhandled mode {config.mode!r}")
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
