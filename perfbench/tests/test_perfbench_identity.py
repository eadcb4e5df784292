"""Traced and untraced CLI runs write byte-identical CSVs."""

import json

import pytest

import run
import workloads


def _small(config: dict) -> dict:
    """The workload's config on a 64x64 grid with fewer points or profiles."""
    config = dict(config, grid={"n_time": 64, "n_space": 64})
    if "scan" in config:
        config["scan"] = dict(config["scan"], points=3)
    if "oracle_compare" in config:
        config["oracle_compare"] = dict(config["oracle_compare"], profiles=1)
    return config


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_csvs_are_identical(name, tmp_path):
    config = _small(workloads.WORKLOADS[name].make_config(7))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    plain = run.cli_run(tmp_path, 0, config_path, config["mode"], traced=False)
    traced = run.cli_run(tmp_path, 1, config_path, config["mode"], traced=True)
    assert plain["exit"] == traced["exit"] == 0, plain["stderr"] + traced["stderr"]
    assert plain["csv"].encode() == traced["csv"].encode()
    assert len(traced["spans"]) > len(plain["spans"]) == 2
    assert "polariton_lab" in run.import_times(traced["stderr"])
