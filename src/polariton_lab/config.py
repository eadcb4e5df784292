"""Strict JSON run configuration.

A run is described by a single JSON object; unknown keys are rejected with
their full key path, numbers must be finite, and exactly one of the
``groups`` / ``physical`` parameter blocks may be present.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from .model import DimensionlessGroups, Grid, PhysicalParams, derive_groups

__all__ = ["ConfigError", "RunConfig", "parse_config", "MODES"]

MODES = (
    "readout",
    "memory",
    "dispersion",
    "oracle-compare",
    "symplectic-check",
    "packet-velocity",
)

_REQUIRED_HINT = (
    "required keys: 'mode' (one of %s), 'grid' {n_time, n_space}, and exactly "
    "one of 'groups' {kappa_c, r, omega_T?, q_L?, kappa2_L?, Omega_T?} or "
    "'physical' {beta, epsilon, ...}; scan modes also need "
    "'scan' {from, to, points}" % (", ".join(MODES))
)


class ConfigError(ValueError):
    pass


def _err(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _finite(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise _err(path, f"non-finite number {value!r}")
    return float(value)


def _number(obj: dict, path: str, key: str, default=None, required=False) -> float | None:
    if key not in obj:
        if required:
            raise _err(f"{path}.{key}", "missing required key")
        return default
    return _finite(obj[key], f"{path}.{key}")


def _integer(obj: dict, path: str, key: str, default=None, required=False) -> int | None:
    value = _number(obj, path, key, default=default, required=required)
    if value is None:
        return None
    if value != int(value):
        raise _err(f"{path}.{key}", f"expected an integer, got {value!r}")
    return int(value)


def _count(obj: dict, path: str, key: str, default=None, required=False) -> int:
    value = _integer(obj, path, key, default=default, required=required)
    if value < 1:
        raise _err(f"{path}.{key}", f"need at least one, got {value}")
    return value


def _check_keys(obj: dict, path: str, allowed: set[str]) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise _err(path, f"unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


@dataclass(frozen=True)
class RunConfig:
    mode: str
    grid: Grid
    groups: DimensionlessGroups | None = None
    params: PhysicalParams | None = None
    scan_range: tuple[float, float, int] | None = None
    eps_conversion: float = 0.5
    dispersion_abs_ALT: float | None = None
    dispersion_omega_T: tuple[float, ...] = ()
    compare_kappa_c: tuple[float, ...] = (0.5, 1.0, 2.0)
    compare_profiles: int = 20
    compare_seed: int = 2024
    packet_q0_L: float | None = None
    packet_bandwidth_frac: float = 0.1
    output: str | None = None


def _parse_groups(obj: Any, path: str) -> DimensionlessGroups:
    if not isinstance(obj, dict):
        raise _err(path, "expected an object")
    _check_keys(obj, path, {"kappa_c", "r", "omega_T", "q_L", "kappa2_L", "Omega_T"})
    kappa_c = _number(obj, path, "kappa_c", required=True)
    r = _number(obj, path, "r", required=True)
    if r <= 0:
        raise _err(f"{path}.r", f"coupling ratio must be positive, got {r}")
    return DimensionlessGroups(
        a_coupling=kappa_c,  # unit-box embedding: a = kappa_c
        kappa_c=kappa_c,
        ratio_r=r,
        omega_T=_number(obj, path, "omega_T", default=0.0),
        q_L=_number(obj, path, "q_L", default=0.0),
        kappa2_L=_number(obj, path, "kappa2_L", default=0.0),
        Omega_T=_number(obj, path, "Omega_T", default=0.0),
        beta_J=math.sqrt(kappa_c * r / 2.0) if kappa_c >= 0 else math.nan,
        beta_xi3_T=math.sqrt(kappa_c * r / 2.0) if kappa_c >= 0 else math.nan,
    )


def _parse_physical(obj: Any, path: str) -> PhysicalParams:
    if not isinstance(obj, dict):
        raise _err(path, "expected an object")
    allowed = {"beta", "epsilon", "kappa2", "omega0", "omega2",
               "xi3_bar", "jx_bar", "length_L", "time_T"}
    _check_keys(obj, path, allowed)
    kwargs = {}
    for key in allowed:
        if key in ("beta", "epsilon"):
            kwargs[key] = _number(obj, path, key, required=True)
        else:
            val = _number(obj, path, key)
            if val is not None:
                kwargs[key] = val
    try:
        return PhysicalParams(**kwargs)
    except ValueError as exc:
        raise _err(path, str(exc)) from exc


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a JSON run configuration."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"top-level document must be an object; {_REQUIRED_HINT}")
    if not doc:
        raise ConfigError(f"empty configuration; {_REQUIRED_HINT}")
    allowed = {"mode", "grid", "groups", "physical", "detection", "scan",
               "abscissa", "dispersion", "oracle_compare", "packet", "output"}
    _check_keys(doc, "$", allowed)

    mode = doc.get("mode")
    if mode is None:
        raise ConfigError(f"$.mode: missing required key; {_REQUIRED_HINT}")
    if mode not in MODES:
        raise _err("$.mode", f"unknown mode {mode!r}, expected one of {MODES}")

    if "grid" not in doc:
        raise _err("$.grid", "missing required key")
    gobj = doc["grid"]
    if not isinstance(gobj, dict):
        raise _err("$.grid", "expected an object")
    _check_keys(gobj, "$.grid", {"n_time", "n_space"})
    try:
        grid = Grid(
            _integer(gobj, "$.grid", "n_time", required=True),
            _integer(gobj, "$.grid", "n_space", required=True),
        )
    except ValueError as exc:
        raise _err("$.grid", str(exc)) from exc

    has_groups = "groups" in doc
    has_physical = "physical" in doc
    if has_groups and has_physical:
        raise ConfigError(
            "$: conflicting parameter blocks: provide exactly one of "
            "'groups' or 'physical'"
        )
    groups = _parse_groups(doc["groups"], "$.groups") if has_groups else None
    params = _parse_physical(doc["physical"], "$.physical") if has_physical else None

    needs_params = mode in ("readout", "memory", "symplectic-check",
                            "packet-velocity", "oracle-compare")
    if needs_params and not (has_groups or has_physical):
        raise ConfigError(
            f"$: mode {mode!r} needs exactly one of 'groups' or 'physical'"
        )
    if "detection" in doc and not has_physical:
        raise _err("$.detection", "block only valid with the 'physical' parameter block")
    if params is not None:
        dobj = doc.get("detection", {})
        if not isinstance(dobj, dict):
            raise _err("$.detection", "expected an object")
        _check_keys(dobj, "$.detection", {"omega_T", "q_L"})
        det_w = _number(dobj, "$.detection", "omega_T", default=0.0)
        det_q = _number(dobj, "$.detection", "q_L", default=0.0)
        if mode == "readout" and det_w == 0.0:
            raise _err("$.detection.omega_T", "readout with physical parameters "
                                              "needs the detection frequency")
        if mode == "memory" and det_q == 0.0:
            raise _err("$.detection.q_L", "memory with physical parameters "
                                          "needs the detection wavenumber")
        groups = derive_groups(params, omega_T=det_w, q_L=det_q)

    scan_range = None
    if "scan" in doc:
        sobj = doc["scan"]
        if not isinstance(sobj, dict):
            raise _err("$.scan", "expected an object")
        _check_keys(sobj, "$.scan", {"from", "to", "points"})
        lo = _number(sobj, "$.scan", "from", required=True)
        hi = _number(sobj, "$.scan", "to", required=True)
        points = _count(sobj, "$.scan", "points", required=True)
        scan_range = (lo, hi, points)
    elif mode in ("readout", "memory"):
        raise _err("$.scan", f"missing required key for mode {mode!r}")

    eps_conversion = 0.5
    if "abscissa" in doc:
        aobj = doc["abscissa"]
        if not isinstance(aobj, dict):
            raise _err("$.abscissa", "expected an object")
        key = "eps_xi3_T" if mode == "readout" else "eps_jx_L"
        _check_keys(aobj, "$.abscissa", {key})
        val = _number(aobj, "$.abscissa", key)
        if val is not None:
            if val <= 0:
                raise _err(f"$.abscissa.{key}", "conversion factor must be positive")
            eps_conversion = val

    disp_alt = None
    disp_omegas: tuple[float, ...] = ()
    if mode == "dispersion":
        if "dispersion" not in doc:
            raise _err("$.dispersion", "missing required key for mode 'dispersion'")
        dobj = doc["dispersion"]
        if not isinstance(dobj, dict):
            raise _err("$.dispersion", "expected an object")
        _check_keys(dobj, "$.dispersion", {"abs_A_LT", "omega_T"})
        disp_alt = _number(dobj, "$.dispersion", "abs_A_LT", required=True)
        if disp_alt < 0:
            raise _err("$.dispersion.abs_A_LT", "magnitude must be nonnegative")
        raw = dobj.get("omega_T")
        if raw is None:
            raise _err("$.dispersion.omega_T", "missing required key")
        values = raw if isinstance(raw, list) else [raw]
        disp_omegas = tuple(_finite(v, f"$.dispersion.omega_T[{i}]")
                            for i, v in enumerate(values))
        if 0.0 in disp_omegas:
            raise _err(f"$.dispersion.omega_T[{disp_omegas.index(0.0)}]",
                       "omega_T = 0 sits on the dispersion pole")

    compare_kcs = (0.5, 1.0, 2.0)
    compare_profiles = 20
    compare_seed = 2024
    if "oracle_compare" in doc:
        if mode != "oracle-compare":
            raise _err("$.oracle_compare", "block only valid for mode 'oracle-compare'")
        cobj = doc["oracle_compare"]
        if not isinstance(cobj, dict):
            raise _err("$.oracle_compare", "expected an object")
        _check_keys(cobj, "$.oracle_compare", {"kappa_c_values", "profiles", "seed"})
        if "kappa_c_values" in cobj:
            raw = cobj["kappa_c_values"]
            if not isinstance(raw, list) or not raw:
                raise _err("$.oracle_compare.kappa_c_values", "expected a non-empty list")
            compare_kcs = tuple(_finite(v, f"$.oracle_compare.kappa_c_values[{i}]")
                                for i, v in enumerate(raw))
        compare_profiles = _count(cobj, "$.oracle_compare", "profiles", default=20)
        compare_seed = _integer(cobj, "$.oracle_compare", "seed", default=2024)

    packet_q0 = None
    packet_bw = 0.1
    if mode == "packet-velocity":
        if "packet" not in doc:
            raise _err("$.packet", "missing required key for mode 'packet-velocity'")
        pobj = doc["packet"]
        if not isinstance(pobj, dict):
            raise _err("$.packet", "expected an object")
        _check_keys(pobj, "$.packet", {"q0_L", "bandwidth_frac"})
        packet_q0 = _number(pobj, "$.packet", "q0_L", required=True)
        packet_bw = _number(pobj, "$.packet", "bandwidth_frac", default=0.1)
        if not 0.0 < packet_bw <= 0.2:
            raise _err("$.packet.bandwidth_frac", "must lie in (0, 0.2]")
    elif "packet" in doc:
        raise _err("$.packet", "block only valid for mode 'packet-velocity'")

    output = None
    if "output" in doc:
        if not isinstance(doc["output"], str):
            raise _err("$.output", "expected a string path")
        output = doc["output"]

    return RunConfig(
        mode=mode,
        grid=grid,
        groups=groups,
        params=params,
        scan_range=scan_range,
        eps_conversion=eps_conversion,
        dispersion_abs_ALT=disp_alt,
        dispersion_omega_T=disp_omegas,
        compare_kappa_c=compare_kcs,
        compare_profiles=compare_profiles,
        compare_seed=compare_seed,
        packet_q0_L=packet_q0,
        packet_bandwidth_frac=packet_bw,
        output=output,
    )
