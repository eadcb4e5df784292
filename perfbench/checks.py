"""Checks that one CLI run's CSV output is correct.

Every value must be finite and each mode's own gate must hold: the oracle
deviation at most 1e-6 and the symplectic residual at most 1e-8.  Scan rows
must match the reference rows stored under ``references/`` for the same
seed to a relative 1e-9.  For a seed with no stored reference, two seeded
rows are recomputed by an independent route and must agree to 5e-3:

* readout-kernel rows (closed-form route) against the lattice route, via
  the public ``general_variances`` with cosine bin-average filters;
* memory-lattice rows (adjoint sweep at the run's grid) against the
  forward transfer matrix at grid 64, built from impulse responses.

The package is imported lazily, only when a spot check needs it.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

ORACLE_TOLERANCE = 1e-6
SYMPLECTIC_TOLERANCE = 1e-8
REFERENCE_REL_TOL = 1e-9
ROUTE_REL_TOL = 5e-3
SPOT_CHECK_GRID = 64
REFERENCE_DIR = Path(__file__).resolve().parent / "references"

HEADERS = {
    "readout": "kappa_c,beta_J,F_light,Gamma,v1,v2,sql",
    "memory": "kappa_c,beta_xi3_T,F_spin,Gamma,v_y,v_z,sql",
    "oracle-compare": "kappa_c,profile,field_rel_dev,spin_rel_dev",
    "symplectic-check": "kappa_c,kappa2_L,Omega_T,residual",
}


def parse_csv(text: str) -> tuple[str, list[list[float]]]:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    return lines[0], [[float(v) for v in line.split(",")] for line in lines[1:]]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int):
    path = reference_path(workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["rows"].get(str(seed))


def _rel_dev(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _cos_bin_averages(w: float, n: int):
    import numpy as np
    edges = np.arange(n + 1) / n
    if w == 0.0:
        return np.ones(n)
    return (np.sin(w * edges[1:]) - np.sin(w * edges[:-1])) * n / w


def _lattice_readout(config: dict, kappa_c: float) -> tuple[float, float, float]:
    """(F, v1, v2) of one readout row from the lattice route."""
    from polariton_lab import Grid, canonical_params, general_variances
    g = config["groups"]
    n = config["grid"]["n_time"]
    filt = _cos_bin_averages(g["omega_T"], n)
    res = general_variances(canonical_params(kappa_c, g["r"]), Grid(n, n), filt, filt)
    return res["xi1"].light_part, res["xi1"].normalized, res["xi2"].normalized


def _forward_memory(config: dict, kappa_c: float) -> tuple[float, float, float]:
    """(F_spin, v_y, v_z) of one memory row from the forward transfer matrix."""
    from polariton_lab import Grid, build_transfer_matrix, canonical_params
    g = config["groups"]
    n = SPOT_CHECK_GRID
    params = canonical_params(kappa_c, g["r"], g["kappa2_L"], g["Omega_T"])
    m = build_transfer_matrix(params, Grid(n, n)).matrix
    c = _cos_bin_averages(g["q_L"], n)
    norm = float(c @ c)
    jz = m[2 * n:3 * n].T @ c    # input weights seen by the filtered Jz output
    jy = m[3 * n:].T @ c
    return (float(jy[2 * n:] @ jy[2 * n:]) / norm, float(jy @ jy) / norm,
            float(jz @ jz) / norm)


def _spot_check(workload: str, config: dict, seed: int, rows) -> list[str]:
    route = _lattice_readout if workload == "readout-kernel" else _forward_memory
    problems = []
    for i in sorted(random.Random(seed).sample(range(len(rows)), min(2, len(rows)))):
        row = rows[i]
        want = route(config, row[0])
        for col, value in zip((2, 4, 5), want):
            dev = _rel_dev(row[col], value)
            if not dev <= ROUTE_REL_TOL:
                problems.append(f"row {i} column {col}: {row[col]!r} vs independent "
                                f"route {value!r} (rel {dev:.2e} > {ROUTE_REL_TOL:g})")
    return problems


def _check_scan(workload: str, config: dict, seed: int, rows) -> list[str]:
    points = config["scan"]["points"]
    if len(rows) != points:
        return [f"{len(rows)} rows, expected {points}"]
    reference = load_reference(workload, seed)
    if reference is None:
        return _spot_check(workload, config, seed, rows)
    if len(reference) != points:
        return [f"stored reference has {len(reference)} rows, expected {points}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, reference)):
        if len(row) != len(ref):
            problems.append(f"row {i} has {len(row)} values, reference {len(ref)}")
            continue
        worst = max(_rel_dev(a, b) for a, b in zip(row, ref))
        if not worst <= REFERENCE_REL_TOL:
            problems.append(f"row {i} differs from the stored reference "
                            f"(rel {worst:.2e} > {REFERENCE_REL_TOL:g})")
    return problems


def check_output(workload: str, config: dict, seed: int, text: str) -> list[str]:
    """Problems found in one run's CSV text; an empty list means correct."""
    mode = config["mode"]
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    if header != HEADERS[mode]:
        return [f"header {header!r}, expected {HEADERS[mode]!r}"]
    if not all(math.isfinite(v) for row in rows for v in row):
        return ["non-finite value in CSV"]
    if mode in ("readout", "memory"):
        return _check_scan(workload, config, seed, rows)
    if mode == "oracle-compare":
        block = config["oracle_compare"]
        expected = len(block["kappa_c_values"]) * block["profiles"]
        if len(rows) != expected:
            return [f"{len(rows)} rows, expected {expected}"]
        worst = max(max(r[2], r[3]) for r in rows)
        if not worst <= ORACLE_TOLERANCE:
            return [f"oracle deviation {worst:.3e} > {ORACLE_TOLERANCE:g}"]
        return []
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    residual = rows[0][3]
    if not residual <= SYMPLECTIC_TOLERANCE:
        return [f"symplectic residual {residual:.3e} > {SYMPLECTIC_TOLERANCE:g}"]
    return []
