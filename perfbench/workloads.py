"""The benchmark's four workloads: one seeded JSON run configuration each.

A workload turns ``--seed`` into the configuration the CLI reads; the
program never sees the seed except through that file.  Sizes are chosen
so one CLI run takes a few seconds, which lets a 20-second benchmark run
hold several of them (the medians need more than one sample).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

READOUT_POINTS = 5
MEMORY_POINTS = 8
ORACLE_KAPPA_C = (0.5, 1.0, 2.0)
ORACLE_PROFILES = 2
RATIO_R = 10.0


def _window(rng: random.Random) -> tuple[float, float]:
    """A kappa_c scan window inside [0, 2.5]."""
    lo = rng.uniform(0.0, 1.5)
    return lo, lo + rng.uniform(0.5, 1.0)


def readout_kernel(seed: int) -> dict:
    rng = random.Random(seed)
    lo, hi = _window(rng)
    return {
        "mode": "readout",
        "groups": {"kappa_c": lo, "r": RATIO_R, "omega_T": rng.uniform(0.2, 3.0)},
        "grid": {"n_time": 512, "n_space": 512},
        "scan": {"from": lo, "to": hi, "points": READOUT_POINTS},
    }


def memory_lattice(seed: int) -> dict:
    rng = random.Random(seed)
    lo, hi = _window(rng)
    return {
        "mode": "memory",
        "groups": {"kappa_c": lo, "r": RATIO_R, "q_L": rng.uniform(0.2, 3.0),
                   "kappa2_L": 0.3, "Omega_T": 0.3},
        "grid": {"n_time": 1024, "n_space": 1024},
        "scan": {"from": lo, "to": hi, "points": MEMORY_POINTS},
    }


def oracle_compare(seed: int) -> dict:
    return {
        "mode": "oracle-compare",
        "groups": {"kappa_c": 1.0, "r": RATIO_R},
        "grid": {"n_time": 512, "n_space": 512},
        "oracle_compare": {"kappa_c_values": list(ORACLE_KAPPA_C),
                           "profiles": ORACLE_PROFILES, "seed": seed},
    }


def symplectic_check(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "mode": "symplectic-check",
        "groups": {"kappa_c": rng.uniform(0.2, 2.5), "r": RATIO_R,
                   "kappa2_L": 0.3, "Omega_T": 0.3},
        "grid": {"n_time": 256, "n_space": 256},
    }


def work_units(config: dict) -> int:
    """Scan points, oracle profiles, or transfer-matrix columns of one run."""
    mode = config["mode"]
    if mode in ("readout", "memory"):
        return config["scan"]["points"]
    if mode == "oracle-compare":
        block = config["oracle_compare"]
        return len(block["kappa_c_values"]) * block["profiles"]
    grid = config["grid"]
    return 2 * grid["n_time"] + 2 * grid["n_space"]


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int], dict]
    unit: str


WORKLOADS = {
    w.name: w for w in (
        Workload("readout-kernel", readout_kernel, "scan points"),
        Workload("memory-lattice", memory_lattice, "scan points"),
        Workload("oracle-compare", oracle_compare, "oracle profiles"),
        Workload("symplectic-check", symplectic_check, "transfer-matrix columns"),
    )
}
