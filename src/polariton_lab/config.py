"""Strict JSON run configuration.

A run is described by a single JSON object; unknown keys are rejected with
their full key path, numbers must be finite, and exactly one of the
``groups`` / ``physical`` parameter blocks may be present.
"""

from __future__ import annotations

import json
import math
from typing import Any, NamedTuple

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
    "one of 'groups' {kappa_c?, r, omega_T?, q_L?, kappa2_L?, Omega_T?} or "
    "'physical' {beta, epsilon, ...}; scan modes also need "
    "'scan' {from, to, points}; symplectic-check and packet-velocity need "
    "groups.kappa_c; dispersion and packet-velocity need no grid" % (", ".join(MODES))
)

# modes that read groups.kappa_c, and modes that march no lattice on the grid
_READS_KAPPA_C = ("symplectic-check", "packet-velocity")
_NO_GRID = ("dispersion", "packet-velocity")


# top-level blocks that only some modes read: block -> (modes, required there)
_MODE_BLOCKS = {
    "scan": (("readout", "memory"), True),
    "abscissa": (("readout", "memory"), False),
    "dispersion": (("dispersion",), True),
    "oracle_compare": (("oracle-compare",), False),
    "packet": (("packet-velocity",), True),
}


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


def _integer(obj: dict, path: str, key: str) -> int:
    value = _number(obj, path, key, required=True)
    if value != int(value):
        raise _err(f"{path}.{key}", f"expected an integer, got {value!r}")
    return int(value)


def _count(obj: dict, path: str, key: str) -> int:
    value = _integer(obj, path, key)
    if value < 1:
        raise _err(f"{path}.{key}", f"need at least one, got {value}")
    return value


def _block(obj: Any, path: str, allowed: set[str]) -> dict:
    """``obj`` checked to be an object holding only ``allowed`` keys."""
    if not isinstance(obj, dict):
        raise _err(path, "expected an object")
    unknown = set(obj) - allowed
    if unknown:
        raise _err(path, f"unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")
    return obj


class RunConfig(NamedTuple):
    """A validated run; ``grid`` and ``groups.kappa_c`` are None where the
    config omits them, which only a mode that does not read them allows."""

    mode: str
    grid: Grid | None
    groups: DimensionlessGroups | None = None
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
    _block(obj, path, {"kappa_c", "r", "omega_T", "q_L", "kappa2_L", "Omega_T"})
    kappa_c = _number(obj, path, "kappa_c")
    r = _number(obj, path, "r", required=True)
    if r <= 0:
        raise _err(f"{path}.r", f"coupling ratio must be positive, got {r}")
    return DimensionlessGroups(
        kappa_c=kappa_c,
        ratio_r=r,
        omega_T=_number(obj, path, "omega_T", default=0.0),
        q_L=_number(obj, path, "q_L", default=0.0),
        kappa2_L=_number(obj, path, "kappa2_L", default=0.0),
        Omega_T=_number(obj, path, "Omega_T", default=0.0),
    )


def _parse_physical(obj: Any, path: str) -> PhysicalParams:
    # a tuple, so the first bad key reported does not depend on string hashing
    allowed = ("beta", "epsilon", "kappa2", "omega0", "omega2",
               "xi3_bar", "jx_bar", "length_L", "time_T")
    _block(obj, path, set(allowed))
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
    allowed = {"mode", "grid", "groups", "physical", "detection", "output"} | set(_MODE_BLOCKS)
    _block(doc, "$", allowed)

    mode = doc.get("mode")
    if mode is None:
        raise ConfigError(f"$.mode: missing required key; {_REQUIRED_HINT}")
    if mode not in MODES:
        raise _err("$.mode", f"unknown mode {mode!r}, expected one of {MODES}")
    for block, (modes, required) in _MODE_BLOCKS.items():
        if block in doc and mode not in modes:
            raise _err(f"$.{block}",
                       f"block only valid for mode {' or '.join(map(repr, modes))}")
        if required and block not in doc and mode in modes:
            raise _err(f"$.{block}", f"missing required key for mode {mode!r}")

    grid = None
    if "grid" in doc:
        gobj = _block(doc["grid"], "$.grid", {"n_time", "n_space"})
        # read outside the try, whose wrapping is for Grid's own errors
        n_time = _integer(gobj, "$.grid", "n_time")
        n_space = _integer(gobj, "$.grid", "n_space")
        try:
            grid = Grid(n_time, n_space)
        except ValueError as exc:
            raise _err("$.grid", str(exc)) from exc
    elif mode not in _NO_GRID:
        raise _err("$.grid", "missing required key")

    has_groups = "groups" in doc
    has_physical = "physical" in doc
    if has_groups and has_physical:
        raise ConfigError(
            "$: conflicting parameter blocks: provide exactly one of "
            "'groups' or 'physical'"
        )
    groups = _parse_groups(doc["groups"], "$.groups") if has_groups else None
    if has_groups and groups.kappa_c is None and mode in _READS_KAPPA_C:
        raise _err("$.groups.kappa_c", f"missing required key for mode {mode!r}")
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
        dobj = _block(doc.get("detection", {}), "$.detection", {"omega_T", "q_L"})
        det_w = _number(dobj, "$.detection", "omega_T", default=0.0)
        det_q = _number(dobj, "$.detection", "q_L", default=0.0)
        if mode == "readout" and det_w == 0.0:
            raise _err("$.detection.omega_T", "readout with physical parameters "
                                              "needs the detection frequency")
        if mode == "memory" and det_q == 0.0:
            raise _err("$.detection.q_L", "memory with physical parameters "
                                          "needs the detection wavenumber")
        groups = derive_groups(params, omega_T=det_w, q_L=det_q)
    if mode in ("oracle-compare", "packet-velocity"):
        # both run the kappa2 = Omega = 0 regime alone: the closed form covers
        # no other, and the packet transport is measured in it
        for name, keys in (("kappa2_L", ("kappa2",)), ("Omega_T", ("omega0", "omega2"))):
            value = getattr(groups, name)
            if value:
                path = (f"$.physical.{next(k for k in keys if getattr(params, k))}"
                        if has_physical else f"$.groups.{name}")
                raise _err(path, f"mode {mode!r} needs kappa2_L = Omega_T = 0, "
                                 f"got {name} = {value!r}")

    # settings a block may override; RunConfig holds each default
    opts: dict[str, Any] = {}
    if "scan" in doc:
        sobj = _block(doc["scan"], "$.scan", {"from", "to", "points"})
        lo = _number(sobj, "$.scan", "from", required=True)
        hi = _number(sobj, "$.scan", "to", required=True)
        points = _count(sobj, "$.scan", "points")
        if points == 1 and hi != lo:
            raise _err("$.scan.to", f"a one-point scan runs at 'from' alone: to = {hi!r} "
                                    f"differs from from = {lo!r}")
        if not math.isfinite(hi - lo):
            raise _err("$.scan.to", f"span to - from = {hi - lo!r} overflows")
        opts["scan_range"] = (lo, hi, points)

    if "abscissa" in doc:
        key = "eps_xi3_T" if mode == "readout" else "eps_jx_L"
        aobj = _block(doc["abscissa"], "$.abscissa", {key})
        val = _number(aobj, "$.abscissa", key)
        if val is not None:
            if val <= 0:
                raise _err(f"$.abscissa.{key}", "conversion factor must be positive")
            opts["eps_conversion"] = val

    if mode == "dispersion":
        dobj = _block(doc["dispersion"], "$.dispersion", {"abs_A_LT", "omega_T"})
        disp_alt = _number(dobj, "$.dispersion", "abs_A_LT", required=True)
        if disp_alt < 0:
            raise _err("$.dispersion.abs_A_LT", "magnitude must be nonnegative")
        raw = dobj.get("omega_T")
        if raw is None:
            raise _err("$.dispersion.omega_T", "missing required key")
        values = raw if isinstance(raw, list) else [raw]
        if not values:
            raise _err("$.dispersion.omega_T", "expected a non-empty list")
        disp_omegas = tuple(_finite(v, f"$.dispersion.omega_T[{i}]")
                            for i, v in enumerate(values))
        if 0.0 in disp_omegas:
            raise _err(f"$.dispersion.omega_T[{disp_omegas.index(0.0)}]",
                       "omega_T = 0 sits on the dispersion pole")
        opts["dispersion_abs_ALT"] = disp_alt
        opts["dispersion_omega_T"] = disp_omegas

    if "oracle_compare" in doc:
        cobj = _block(doc["oracle_compare"], "$.oracle_compare",
                      {"kappa_c_values", "profiles", "seed"})
        if "kappa_c_values" in cobj:
            raw = cobj["kappa_c_values"]
            if not isinstance(raw, list) or not raw:
                raise _err("$.oracle_compare.kappa_c_values", "expected a non-empty list")
            values = tuple(_finite(v, f"$.oracle_compare.kappa_c_values[{i}]")
                           for i, v in enumerate(raw))
            # each kappa_c labels its rows: a repeat would write rows of one
            # label with other profiles and deviations
            for i, v in enumerate(values):
                if values.index(v) < i:
                    raise _err(f"$.oracle_compare.kappa_c_values[{i}]",
                               f"repeats kappa_c_values[{values.index(v)}] = {v!r}")
            opts["compare_kappa_c"] = values
        if "profiles" in cobj:
            opts["compare_profiles"] = _count(cobj, "$.oracle_compare", "profiles")
        if "seed" in cobj:
            seed = _integer(cobj, "$.oracle_compare", "seed")
            if seed < 0:
                raise _err("$.oracle_compare.seed",
                           f"expected a non-negative integer, got {seed}")
            opts["compare_seed"] = seed

    if mode == "packet-velocity":
        pobj = _block(doc["packet"], "$.packet", {"q0_L", "bandwidth_frac"})
        q0 = _number(pobj, "$.packet", "q0_L", required=True)
        if q0 == 0.0:
            raise _err("$.packet.q0_L", "q0_L = 0 sits on the group-velocity pole")
        opts["packet_q0_L"] = q0
        if "bandwidth_frac" in pobj:
            bw = _number(pobj, "$.packet", "bandwidth_frac")
            if not 0.0 < bw <= 0.2:
                raise _err("$.packet.bandwidth_frac", "must lie in (0, 0.2]")
            opts["packet_bandwidth_frac"] = bw

    if "output" in doc:
        if not isinstance(doc["output"], str):
            raise _err("$.output", "expected a string path")
        opts["output"] = doc["output"]

    return RunConfig(mode=mode, grid=grid, groups=groups, **opts)
