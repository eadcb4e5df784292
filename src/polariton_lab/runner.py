"""Run orchestration and deterministic data emission.

Every run writes a CSV with a fixed header plus a sidecar JSON metadata
file recording the config hash, grid, and library version.  Numbers are
serialized with 17 significant digits so the emitted files round-trip to
the exact binary doubles; identical configs produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig
from .kernels import FieldRecord, SpinRecord, output_field, output_spin
from .lattice import build_transfer_matrix, integrate_extrapolated, symplectic_residual
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


def oracle_kernel_deviation(kappa_c: float, ratio_r: float, grid: Grid,
                            field_fns, spin_fns) -> tuple[float, float]:
    """Sup-norm relative deviation (field, spin) of kernels vs lattice oracle.

    The oracle side is the Richardson-extrapolated reference built from two
    second-order lattice runs; the kernel side is the closed-form map applied
    to the same center-sampled records.
    """
    params = canonical_params(kappa_c, ratio_r)
    xi = FieldRecord.from_functions(*field_fns, grid.n_time, params.time_T)
    sp = SpinRecord.from_functions(*spin_fns, grid.n_space, params.length_L)
    k_field = output_field(params, grid, xi, sp)
    k_spin = output_spin(params, grid, xi, sp)
    o_field, o_spin = integrate_extrapolated(params, grid, field_fns, spin_fns)
    f_scale = max(np.max(np.abs(k_field.xi1)), np.max(np.abs(k_field.xi2)))
    s_scale = max(np.max(np.abs(k_spin.jz)), np.max(np.abs(k_spin.jy)))
    f_dev = max(np.max(np.abs(k_field.xi1 - o_field.xi1)),
                np.max(np.abs(k_field.xi2 - o_field.xi2))) / f_scale
    s_dev = max(np.max(np.abs(k_spin.jz - o_spin.jz)),
                np.max(np.abs(k_spin.jy - o_spin.jy))) / s_scale
    return float(f_dev), float(s_dev)


def _run_scan(config: RunConfig, out: Path, config_text: str) -> int:
    lo, hi, points = config.scan_range
    kcs = np.linspace(lo, hi, points)
    result = scan(kcs, config.mode, config.groups, config.grid,
                  eps_conversion=config.eps_conversion)
    write_csv(out, result.header, result.as_rows())
    _write_metadata(out, config_text, config, {"rows": len(result.rows)})
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
    rows = []
    worst = 0.0
    for kc in config.compare_kappa_c:
        for p in range(config.compare_profiles):
            field_fns, spin_fns = random_smooth_profiles(rng)
            f_dev, s_dev = oracle_kernel_deviation(
                kc, config.groups.ratio_r, config.grid, field_fns, spin_fns)
            worst = max(worst, f_dev, s_dev)
            rows.append((kc, p, f_dev, s_dev))
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
