"""The spot-check route of ``checks.py``, on real CLI output for seeds past 99.

Seeds 0-99 are held to stored references; every other seed is checked by
recomputing two rows on an independent route.  These tests run the CLI on
each scan workload's own config (its grid and point count) for seeds whose
draws reach the ends of the sampled ranges, and require that the check
passes on the real CSV and fails when a checked column is off by 1%.
"""

import json

import pytest

import checks
import run
import workloads

# Draws at the ends of the ranges: 345 q_L (or omega_T) = 3.00, 655 = 0.20,
# 471 window up to kappa_c = 2.44, 906 window from kappa_c = 0.002,
# 472 q_L = 2.97 with the window up to 2.30.
SEEDS = (345, 655, 471, 906, 472)
SCAN_WORKLOADS = ("readout-kernel", "memory-lattice")


def _csv(header: str, rows) -> str:
    return "\n".join([header, *(",".join(repr(v) for v in row) for row in rows)]) + "\n"


@pytest.fixture(scope="module")
def scan_outputs(tmp_path_factory):
    """(workload, config, seed, CSV text) of one real CLI run per case."""
    out = []
    for name in SCAN_WORKLOADS:
        for seed in SEEDS:
            work = tmp_path_factory.mktemp(f"{name}-{seed}")
            config = workloads.WORKLOADS[name].make_config(seed)
            config_path = work / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            result = run.cli_run(work, 0, config_path, config["mode"], traced=False)
            assert result["exit"] == 0, result["stderr"]
            out.append((name, config, seed, result["csv"]))
    return out


def test_seeds_have_no_stored_reference():
    for name in SCAN_WORKLOADS:
        for seed in SEEDS:
            assert checks.load_reference(name, seed) is None


def test_spot_check_passes_on_real_output(scan_outputs):
    for name, config, seed, text in scan_outputs:
        assert checks.check_output(name, config, seed, text) == [], (name, seed)


@pytest.mark.parametrize("column", (2, 4, 5))
def test_spot_check_fails_on_a_one_percent_error(scan_outputs, column):
    for name, config, seed, text in scan_outputs:
        header, rows = checks.parse_csv(text)
        for row in rows:
            row[column] *= 1.01
        problems = checks.check_output(name, config, seed, _csv(header, rows))
        assert problems and all(f"column {column}:" in p for p in problems), (name, seed)
