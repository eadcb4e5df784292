"""Write the golden run outputs that tests/test_goldens.py compares against.

Each entry of CONFIGS is written as <name>.json, then run through the CLI
into <name>.csv and its sidecar <name>.csv.meta.json, all beside this
script.  Run it from the repository root after a change that means to move
rows, and record in CHANGES.md which goldens moved and by how much:

    PYTHONPATH=src python tests/goldens/make_goldens.py
"""

import json
import sys
from pathlib import Path

from polariton_lab.cli import main

HERE = Path(__file__).resolve().parent
# the benchmark's workload module, read only; as perfbench/tests/conftest.py does
sys.path.insert(0, str(HERE.parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

CONFIGS = {
    # every CLI mode on a small grid, the oracle also on a rectangular one
    "ci-sym": {"mode": "symplectic-check", "groups": {"kappa_c": 1, "r": 10},
               "grid": {"n_time": 16, "n_space": 16}},
    "ci-readout": {"mode": "readout", "groups": {"kappa_c": 2, "r": 10, "omega_T": 0.5},
                   "grid": {"n_time": 64, "n_space": 64},
                   "scan": {"from": 0, "to": 2, "points": 3}},
    "ci-oracle": {"mode": "oracle-compare", "groups": {"kappa_c": 1, "r": 10},
                  "grid": {"n_time": 64, "n_space": 64},
                  "oracle_compare": {"kappa_c_values": [-1, 0.5, 2], "profiles": 1,
                                     "seed": 1}},
    "ci-memory": {"mode": "memory", "groups": {"kappa_c": 1, "r": 10, "q_L": 0.9,
                                               "kappa2_L": 0.3, "Omega_T": 0.3},
                  "grid": {"n_time": 64, "n_space": 64},
                  "scan": {"from": -1, "to": 2, "points": 4}, "abscissa": {"eps_jx_L": 0.7}},
    "ci-dispersion": {"mode": "dispersion", "grid": {"n_time": 8, "n_space": 8},
                      "dispersion": {"abs_A_LT": 2, "omega_T": [0.5, 4]}},
    "ci-packet": {"mode": "packet-velocity", "groups": {"kappa_c": 2, "r": 1},
                  "grid": {"n_time": 256, "n_space": 256},
                  "packet": {"q0_L": 8, "bandwidth_frac": 0.1}},
    "ci-oracle-rect": {"mode": "oracle-compare", "groups": {"kappa_c": 1, "r": 10},
                       "grid": {"n_time": 64, "n_space": 32},
                       "oracle_compare": {"kappa_c_values": [-1, 0, 2], "profiles": 2,
                                          "seed": 3}},
    # the four perfbench workloads at seeds 3 and 7
    **{f"bench-{name}": workload.make_config(3) for name, workload in WORKLOADS.items()},
    **{f"bench7-{name}": workload.make_config(7) for name, workload in WORKLOADS.items()},
    # the blue wing, kappa_c = 0, and the matrix route on a rectangular grid
    "blue-readout": {"mode": "readout", "groups": {"kappa_c": -2, "r": 10, "omega_T": 2.0},
                     "grid": {"n_time": 128, "n_space": 128},
                     "scan": {"from": -3, "to": -0.5, "points": 4}},
    "zero-readout": {"mode": "readout", "groups": {"kappa_c": 0, "r": 10, "omega_T": 0.7},
                     "grid": {"n_time": 64, "n_space": 64},
                     "scan": {"from": 0, "to": 0, "points": 1}},
    "rect-memory": {"mode": "memory", "groups": {"kappa_c": 1, "r": 4, "q_L": 1.5,
                                                 "kappa2_L": 0.4, "Omega_T": -0.2},
                    "grid": {"n_time": 96, "n_space": 64},
                    "scan": {"from": -0.5, "to": 1.5, "points": 3}},
}


def write(name: str, config: dict) -> int:
    """Write one config and run it through the CLI; returns the exit status."""
    path = HERE / f"{name}.json"
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return main([config["mode"], "--config", str(path), "--out", str(HERE / f"{name}.csv")])


if __name__ == "__main__":
    failed = [name for name, config in CONFIGS.items() if write(name, config) != 0]
    if failed:
        sys.exit(f"non-zero exit for {failed}")
