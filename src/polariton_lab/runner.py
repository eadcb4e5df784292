"""Run orchestration and deterministic data emission.

Every run writes a CSV with a fixed header plus a sidecar JSON metadata
file recording the config hash, grid, package version and the Python and
numpy versions; a closed-form scan and oracle-compare add each row's
resolution evidence.
Numbers are serialized with 17 significant digits so the emitted files
round-trip to the exact binary doubles; identical configs produce
byte-identical output.
"""

from __future__ import annotations

import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

# the builtin SHA-256: hashlib would load OpenSSL (about 3.5 MB of RSS) for
# the sidecar's one digest
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from . import __version__
from .config import RunConfig
from .kernels import output_maps
from .lattice import (build_transfer_matrix, check_stability, integrate_extrapolated,
                      symplectic_residual)
from .model import Grid, canonical_params
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


def _emit(out: Path, config_text: str, config: RunConfig, header, rows, **extra) -> None:
    """Write the CSV, then its sidecar, with the row count and ``extra``."""
    write_csv(out, header, rows)
    meta = {
        "config_sha256": sha256(config_text.encode("utf-8")).hexdigest(),
        "grid": {"n_time": config.grid.n_time, "n_space": config.grid.n_space},
        "mode": config.mode,
        "rows": len(rows),
        "version": __version__,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        **extra,
    }
    out.with_suffix(out.suffix + ".meta.json").write_text(
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


def oracle_kernel_deviations(cases, ratio_r: float,
                             grid: Grid) -> tuple[list[tuple[float, float]], list[int]]:
    """Sup-norm relative deviation (field, spin) of kernels vs lattice oracle,
    for each (kappa_c, field_fns, spin_fns) of ``cases``, and the
    Gauss-Legendre order at which the closed-form map resolved each case's
    kappa_c.

    The oracle side is the Richardson-extrapolated reference built from two
    second-order lattice runs; the kernel side is the closed-form map
    evaluated from the same profile functions at the bin centers.  Every
    kappa_c is checked for stability at ``grid`` before any sweep or map,
    and the error names the first that fails.  All cases ride one stacked
    lattice integrate per grid level, each its own stack entry, and the
    cases of one kappa_c one ``output_maps`` call.
    """
    params = [canonical_params(kc, ratio_r) for kc, _, _ in cases]
    for p in params:
        check_stability(p, grid)
    by_kappa_c = {}
    for i, (kc, _, _) in enumerate(cases):
        by_kappa_c.setdefault(kc, []).append(i)
    kernel, orders = [None] * len(cases), [None] * len(cases)
    for group in by_kappa_c.values():
        records, order = output_maps(params[group[0]], grid, [cases[i][1:] for i in group])
        for i, out in zip(group, records):
            kernel[i], orders[i] = out, order
    oracle = integrate_extrapolated(params, grid, [c[1] for c in cases],
                                    [c[2] for c in cases])
    deviations = [(_relative_deviation((kf.xi1, kf.xi2), (of.xi1, of.xi2)),
                   _relative_deviation((ks.jz, ks.jy), (os_.jz, os_.jy)))
                  for (kf, ks), (of, os_) in zip(kernel, oracle)]
    return deviations, orders


def _run_scan(config: RunConfig, out: Path, config_text: str) -> int:
    lo, hi, points = config.scan_range
    kcs = np.linspace(lo, hi, points)
    result = scan(kcs, config.mode, config.groups, config.grid,
                  eps_conversion=config.eps_conversion)
    extra = {"route": result.route}
    if result.route == "kernel":
        # per row: the tensor rule's final order, the relative change of F
        # and Gamma from half that order, and the change of Gamma that its
        # rounding alone allows
        res = [r.resolution for r in result.rows]
        extra["resolution"] = {"order": [r.order for r in res],
                               "f_rel_change": [r.f_change for r in res],
                               "gamma_rel_change": [r.gamma_change for r in res],
                               "gamma_rel_floor": [r.gamma_floor for r in res]}
    _emit(out, config_text, config, result.header, result.as_rows(), **extra)
    print(f"{config.mode} scan: {points} rows -> {out}")
    return 0


def _run_dispersion(config: RunConfig, out: Path, config_text: str) -> int:
    # spectral is imported by the two modes that use it only
    from .spectral import dispersion_p_of_s

    rows = []
    for w in config.dispersion_omega_T:
        q = abs(dispersion_p_of_s(config.dispersion_abs_ALT, w))
        rows.append((w, q))
        print(f"omega_T = {format_number(w)}  ->  |q|L = {format_number(q)}")
    _emit(out, config_text, config, ("omega_T", "q_L_abs"), rows)
    return 0


def _run_oracle_compare(config: RunConfig, out: Path, config_text: str) -> int:
    rng = np.random.default_rng(config.compare_seed)
    labels = [(kc, p) for kc in config.compare_kappa_c
              for p in range(config.compare_profiles)]
    cases = [(kc, *random_smooth_profiles(rng)) for kc, _ in labels]
    deviations, orders = oracle_kernel_deviations(cases, config.groups.ratio_r, config.grid)
    rows = [(kc, p, f_dev, s_dev) for (kc, p), (f_dev, s_dev) in zip(labels, deviations)]
    worst = max(max(dev) for dev in deviations)
    # per row: the Gauss-Legendre order at which the map resolved its kappa_c
    _emit(out, config_text, config, ("kappa_c", "profile", "field_rel_dev", "spin_rel_dev"), rows,
          resolution={"order": orders})
    status = "PASS" if worst <= ORACLE_TOLERANCE else "FAIL"
    print(f"oracle-compare: worst relative deviation {worst:.3e} "
          f"(tolerance {ORACLE_TOLERANCE:g}) {status}")
    return 0 if worst <= ORACLE_TOLERANCE else 1


def _run_symplectic(config: RunConfig, out: Path, config_text: str) -> int:
    g = config.groups
    params = canonical_params(g.kappa_c, g.ratio_r, g.kappa2_L, g.Omega_T)
    tm = build_transfer_matrix(params, config.grid)
    res = symplectic_residual(tm)
    _emit(out, config_text, config, ("kappa_c", "kappa2_L", "Omega_T", "residual"),
          [(g.kappa_c, g.kappa2_L, g.Omega_T, res)])
    status = "PASS" if res <= SYMPLECTIC_TOLERANCE else "FAIL"
    print(f"symplectic-check: max residual {res:.3e} "
          f"(tolerance {SYMPLECTIC_TOLERANCE:g}) {status}")
    return 0 if res <= SYMPLECTIC_TOLERANCE else 1


def _run_packet(config: RunConfig, out: Path, config_text: str) -> int:
    from .spectral import group_velocity, measure_packet_velocity

    g = config.groups
    params = canonical_params(g.kappa_c, g.ratio_r)
    q0 = config.packet_q0_L / params.length_L
    bandwidth = config.packet_bandwidth_frac * abs(q0)
    v_meas = measure_packet_velocity(params, config.grid, q0, bandwidth)
    v_pred = group_velocity(-params.a_coupling, q0)
    _emit(out, config_text, config, ("q0", "v_measured", "v_predicted"), [(q0, v_meas, v_pred)])
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
