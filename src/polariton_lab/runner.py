"""Run orchestration and deterministic data emission.

Every run writes a CSV under its mode's header plus a sidecar JSON metadata
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
import random
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
# a residual up to this times max(1, max|M|^2) is M's rounding alone (the
# test suite bounds built matrices by it)
SYMPLECTIC_ROUNDING = 1e-12
ORACLE_TOLERANCE = 1e-6

# every mode's CSV header
_HEADERS = {
    "readout": ("kappa_c", "beta_J", "F_light", "Gamma", "v1", "v2", "sql"),
    "memory": ("kappa_c", "beta_xi3_T", "F_spin", "Gamma", "v_y", "v_z", "sql"),
    "dispersion": ("omega_T", "q_L_abs"),
    "oracle-compare": ("kappa_c", "profile", "field_rel_dev", "spin_rel_dev"),
    "symplectic-check": ("kappa_c", "kappa2_L", "Omega_T", "residual"),
    "packet-velocity": ("q0", "v_measured", "v_predicted"),
}


def format_number(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str | Path, header, rows) -> None:
    """Write header and rows, making the file's directory; a non-finite value
    raises ValueError before any write, the directory's included."""
    lines = [",".join(header)]
    for i, row in enumerate(rows, start=1):
        for name, v in zip(header, row):
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {float(v)!r} in CSV row {i}, "
                                 f"column {name!r}; {path} not written")
        lines.append(",".join(format_number(v) for v in row))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _emit(out: Path, config_text: str, config: RunConfig, rows, **extra) -> None:
    """Write the CSV under its mode's header, then its sidecar, with the row
    count and ``extra``; a sidecar that cannot be written takes the CSV
    with it."""
    write_csv(out, _HEADERS[config.mode], rows)
    meta = {
        "config_sha256": sha256(config_text.encode("utf-8")).hexdigest(),
        "grid": (None if config.grid is None
                 else {"n_time": config.grid.n_time, "n_space": config.grid.n_space}),
        "mode": config.mode,
        "rows": len(rows),
        "version": __version__,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
        **extra,
    }
    try:
        out.with_suffix(out.suffix + ".meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    except OSError:
        # no CSV without its sidecar
        out.unlink()
        raise


class _Samples:
    """Every profile's two components at one point set: item k is profile
    k's pair of arrays, made by ``fn`` from its draw when it is read, and
    ``np.asarray`` stacks all of them, (len, 2, *shape)."""

    __slots__ = ("_fn", "_draws", "_shape")

    def __init__(self, fn, draws, shape: tuple[int, ...]):
        self._fn, self._draws, self._shape = fn, draws, shape

    def __getitem__(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        return self._fn(self._draws[k])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = np.empty((len(self._draws), 2) + self._shape, float if dtype is None else dtype)
        for k, draw in enumerate(self._draws):
            out[k] = self._fn(draw)
        return out


class SmoothProfiles:
    """Drawn smooth light/spin input profiles on the unit box, evaluated as a set.

    Profile k has the 12 numbers of its draw: the light components
    xi1(t) = c0 + c1 cos(pi t) + c2 sin(pi t) and xi2(t) = c3 + c4 cos(pi t)
    + c5 sin(pi t), the spin components jz(z) = a0 exp(-((z - z0)/w0)^2) and
    jy(z) = a1 exp(-((z - z1)/w1)^2).  ``light(t)`` and ``spin(z)`` give
    every profile's two components at the points, as ``output_maps`` and
    ``integrate_extrapolated`` read them: item k is profile k's pair of
    arrays, computed when it is read, so a caller can hold one profile's
    values at a time; ``np.asarray`` gives all of them, (len, 2, *shape).
    cos(pi t) and sin(pi t) are computed once per ``light`` call, for every
    profile, and each value comes from its profile's own expression.
    """

    __slots__ = ("_draws",)

    def __init__(self, draws):
        self._draws = tuple(draws)

    def __len__(self) -> int:
        return len(self._draws)

    def light(self, t) -> _Samples:
        arg = np.pi * t
        cos, sin = np.cos(arg), np.sin(arg)

        def components(draw):
            c = draw[0]
            return c[0] + c[1] * cos + c[2] * sin, c[3] + c[4] * cos + c[5] * sin

        return _Samples(components, self._draws, np.shape(t))

    def spin(self, z) -> _Samples:
        def components(draw):
            _, centers, widths, amps = draw
            return tuple(a * np.exp(-((z - c) / w) ** 2) for a, c, w in zip(amps, centers, widths))

        return _Samples(components, self._draws, np.shape(z))


def random_smooth_profiles(rng: random.Random, count: int) -> SmoothProfiles:
    """``count`` draws of smooth light/spin input profiles on the unit box.

    Low-order trigonometric light profiles and wide Gaussian spin bumps:
    smooth, O(1), and free of fine structure the lattice cannot carry.
    Each profile draws its 12 numbers in turn: six trigonometric
    coefficients, two centers, two widths and two amplitudes.  The standard
    library's generator, which numpy already imports, draws them:
    ``numpy.random`` would load 19 modules on first use, OpenSSL among them.
    """
    draws = []
    for _ in range(count):
        c = [rng.normalvariate(0.0, 1.0) for _ in range(6)]
        centers = [rng.uniform(0.3, 0.7) for _ in range(2)]
        widths = [rng.uniform(0.3, 0.5) for _ in range(2)]
        amps = [rng.normalvariate(0.0, 1.0) for _ in range(2)]
        draws.append((c, centers, widths, amps))
    return SmoothProfiles(draws)


def oracle_kernel_deviations(kappa_c, profiles, ratio_r: float,
                             grid: Grid) -> tuple[list[tuple[float, float]], list[int]]:
    """Sup-norm relative deviation (field, spin) of kernels vs lattice oracle
    for profile k of ``profiles`` (a ``SmoothProfiles``, or any set with its
    length, ``light`` and ``spin``) at kappa_c[k], and the largest
    Gauss-Legendre order that any component of kappa_c[k] needed in the
    closed-form map.

    The oracle side is the Richardson-extrapolated reference built from two
    second-order lattice runs; the kernel side is the closed-form map
    evaluated from the same profiles at the bin centers.  Every kappa_c is
    checked for stability at ``grid`` before any sweep or map, and the error
    names the first that fails.  The profiles ride one ``output_maps`` call
    and one stacked lattice integrate per grid level, each its own entry.
    """
    params = [canonical_params(kc, ratio_r) for kc in kappa_c]
    if len(params) != len(profiles):
        raise ValueError(f"{len(params)} kappa_c values for {len(profiles)} profiles")
    for p in params:
        check_stability(p, grid)
    kernel, orders = output_maps(params, grid, profiles.light, profiles.spin)
    oracle = integrate_extrapolated(params, grid, profiles.light, profiles.spin)
    field, spin = (np.max(np.abs(k - o), axis=(1, 2)) / np.max(np.abs(k), axis=(1, 2))
                   for k, o in zip(kernel, oracle))
    return list(zip(field.tolist(), spin.tolist())), orders


def _run_scan(config: RunConfig, out: Path, config_text: str) -> int:
    lo, hi, points = config.scan_range
    kcs = np.linspace(lo, hi, points).tolist()
    result = scan(kcs, config.mode, config.groups, config.grid)
    # the abscissa re-labels kappa_c = 2 beta_J (eps xi3 T) = 2 beta_xi3_T
    # (eps jx L), the bracket being eps_conversion
    rows = [(kc, kc / (2.0 * config.eps_conversion), br.f_self, br.gamma, br.v1, br.v2, br.sql)
            for kc, br in zip(kcs, result.rows)]
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
    _emit(out, config_text, config, rows, **extra)
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
    _emit(out, config_text, config, rows)
    return 0


def _run_oracle_compare(config: RunConfig, out: Path, config_text: str) -> int:
    rng = random.Random(config.compare_seed)
    labels = [(kc, p) for kc in config.compare_kappa_c
              for p in range(config.compare_profiles)]
    profiles = random_smooth_profiles(rng, len(labels))
    deviations, orders = oracle_kernel_deviations([kc for kc, _ in labels], profiles,
                                                  config.groups.ratio_r, config.grid)
    rows = [(kc, p, f_dev, s_dev) for (kc, p), (f_dev, s_dev) in zip(labels, deviations)]
    worst = max(max(dev) for dev in deviations)
    # per row: the largest Gauss-Legendre order any component of its kappa_c
    # needed; and how the input profiles were drawn
    _emit(out, config_text, config, rows, resolution={"order": orders},
          profiles={"generator": "random.Random", "seed": config.compare_seed,
                    "per_kappa_c": config.compare_profiles})
    status = "PASS" if worst <= ORACLE_TOLERANCE else "FAIL"
    print(f"oracle-compare: worst relative deviation {worst:.3e} "
          f"(tolerance {ORACLE_TOLERANCE:g}) {status}")
    return 0 if worst <= ORACLE_TOLERANCE else 1


def _run_symplectic(config: RunConfig, out: Path, config_text: str) -> int:
    g = config.groups
    params = canonical_params(g.kappa_c, g.ratio_r, g.kappa2_L, g.Omega_T)
    tm = build_transfer_matrix(params, config.grid)
    res = symplectic_residual(tm)
    extra = {}
    if res > SYMPLECTIC_TOLERANCE:
        # over the tolerance by rounding alone: not resolvable, not a FAIL
        biggest = float(max(tm.matrix.max(), -tm.matrix.min()))
        floor = SYMPLECTIC_ROUNDING * max(1.0, biggest * biggest)
        if res <= floor:
            raise OverflowError(
                f"symplectic residual {res:.4g} at kappa_c = {g.kappa_c:.6g} is over the "
                f"tolerance {SYMPLECTIC_TOLERANCE:g} but within the rounding floor "
                f"{SYMPLECTIC_ROUNDING:g} * max(1, max|M|^2) = {floor:.4g}, max|M| = "
                f"{biggest:.6g}: not resolvable at this gain")
        extra = {"max_abs_entry": biggest, "rounding_floor": floor}
    _emit(out, config_text, config, [(g.kappa_c, g.kappa2_L, g.Omega_T, res)], **extra)
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
    v_meas = measure_packet_velocity(params, q0, bandwidth)
    v_pred = group_velocity(-params.a_coupling, q0)
    _emit(out, config_text, config, [(q0, v_meas, v_pred)])
    print(f"packet-velocity: measured {format_number(v_meas)}, "
          f"predicted {format_number(v_pred)}")
    return 0


def run(config: RunConfig, out_path: str | Path | None = None,
        config_text: str = "") -> int:
    """Execute one validated run; returns the process exit status."""
    out = Path(out_path or config.output or f"{config.mode}.csv")
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
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
