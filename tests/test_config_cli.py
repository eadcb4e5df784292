"""Configuration validation, CSV contracts, and the CLI surface."""

import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polariton_lab
from polariton_lab.cli import main
from polariton_lab.config import _REQUIRED_HINT, ConfigError, parse_config
from polariton_lab.runner import format_number, run, write_csv

SPEC_EXAMPLE = json.dumps({
    "mode": "readout",
    "groups": {"kappa_c": 2, "r": 10, "omega_T": 0.5},
    "grid": {"n_time": 512, "n_space": 512},
    "scan": {"from": 0, "to": 2, "points": 21},
})


def test_spec_example_config_valid():
    cfg = parse_config(SPEC_EXAMPLE)
    assert cfg.mode == "readout"
    assert cfg.grid.n_time == 512
    assert cfg.scan_range == (0.0, 2.0, 21)
    assert cfg.groups.ratio_r == 10.0
    assert cfg.groups.omega_T == 0.5


def test_empty_document_lists_required_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("{}")
    msg = str(err.value)
    for needle in ("mode", "grid", "groups", "physical", "scan"):
        assert needle in msg


def _json_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)


@pytest.mark.parametrize("text, message", [
    ("{mode: readout}", f"invalid JSON: {_json_error('{mode: readout}')}"),
    ("[1, 2]", f"top-level document must be an object; {_REQUIRED_HINT}"),
    ('{"grid": {"n_time": 8, "n_space": 8}}', f"$.mode: missing required key; {_REQUIRED_HINT}"),
], ids=["invalid-json", "top-level-list", "no-mode"])
def test_malformed_documents_rejected(tmp_path, capsys, text, message):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value) == message
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    out = tmp_path / "out.csv"
    assert main(["readout", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_conflicting_parameter_blocks():
    doc = json.loads(SPEC_EXAMPLE)
    doc["physical"] = {"beta": 0.1, "epsilon": 0.01}
    with pytest.raises(ConfigError, match="conflicting"):
        parse_config(json.dumps(doc))


def test_unknown_keys_rejected_with_path():
    doc = json.loads(SPEC_EXAMPLE)
    doc["groups"]["ratio"] = 1.0
    with pytest.raises(ConfigError, match=r"\$\.groups"):
        parse_config(json.dumps(doc))
    doc = json.loads(SPEC_EXAMPLE)
    doc["typo"] = 1
    with pytest.raises(ConfigError, match=r"\$"):
        parse_config(json.dumps(doc))


def test_missing_keys_have_paths():
    doc = json.loads(SPEC_EXAMPLE)
    del doc["groups"]["kappa_c"]
    with pytest.raises(ConfigError, match=r"\$\.groups\.kappa_c"):
        parse_config(json.dumps(doc))
    doc = json.loads(SPEC_EXAMPLE)
    del doc["scan"]
    with pytest.raises(ConfigError, match=r"\$\.scan"):
        parse_config(json.dumps(doc))


def test_first_missing_physical_key_independent_of_string_hashing():
    # with both required keys missing, beta is named under every hash seed
    src = Path(polariton_lab.__file__).resolve().parents[1]
    doc = {"mode": "symplectic-check", "grid": {"n_time": 8, "n_space": 8}, "physical": {}}
    code = ("import sys; from polariton_lab.config import ConfigError, parse_config\n"
            "try:\n    parse_config(sys.argv[1])\nexcept ConfigError as exc:\n    print(exc)")
    messages = {
        subprocess.run([sys.executable, "-c", code, json.dumps(doc)],
                       env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed)),
                       capture_output=True, text=True, check=True, timeout=120).stdout
        for seed in (0, 1, 2)
    }
    assert messages == {"$.physical.beta: missing required key\n"}


def test_non_finite_numbers_rejected():
    text = SPEC_EXAMPLE.replace('"kappa_c": 2', '"kappa_c": NaN')
    with pytest.raises(ConfigError, match="non-finite"):
        parse_config(text)


def test_physical_block_with_detection():
    doc = {
        "mode": "readout",
        "physical": {"beta": 0.5, "epsilon": 0.05, "xi3_bar": 2.0},
        "detection": {"omega_T": 0.5},
        "grid": {"n_time": 64, "n_space": 64},
        "scan": {"from": 0, "to": 1, "points": 3},
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.groups.omega_T == 0.5
    assert cfg.groups.kappa_c == pytest.approx(2 * 0.5 * 0.05 * 2.0)
    del doc["detection"]
    with pytest.raises(ConfigError, match="detection"):
        parse_config(json.dumps(doc))


def test_mode_validation():
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config('{"mode": "teleport", "grid": {"n_time": 8, "n_space": 8}}')


def test_format_number_round_trip():
    values = [1.0 / 3.0, 0.1, 2.0 ** -52, 8.335596256634835, 1e300]
    for v in values:
        assert float(format_number(v)) == v


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0.1, 2.0 / 3.0), (1e-17, 3.0)]
    write_csv(path, ("a", "b"), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b"
    parsed = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    assert parsed == rows


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_write_csv_rejects_non_finite_before_writing(tmp_path, bad):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"row 2, column 'b'"):
        write_csv(path, ("a", "b"), [(0.1, 1.0), (0.2, bad)])
    assert not path.exists()


def _run_cli(tmp_path, doc, mode, extra=()):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out_path = tmp_path / "out.csv"
    code = main([mode, "--config", str(cfg_path), "--out", str(out_path), *extra])
    return code, out_path


def test_cli_readout_deterministic(tmp_path):
    doc = json.loads(SPEC_EXAMPLE)
    doc["grid"] = {"n_time": 64, "n_space": 64}
    doc["scan"]["points"] = 3
    code, out = _run_cli(tmp_path, doc, "readout")
    assert code == 0
    first = out.read_bytes()
    header = first.decode().splitlines()[0]
    assert header == "kappa_c,beta_J,F_light,Gamma,v1,v2,sql"
    rows = first.decode().splitlines()[1:]
    assert len(rows) == 3
    v1_first = float(rows[0].split(",")[4])
    assert v1_first == 1.0
    code, out2 = _run_cli(tmp_path, doc, "readout")
    assert out2.read_bytes() == first
    meta = json.loads((out.parent / (out.name + ".meta.json")).read_text())
    assert meta["mode"] == "readout" and meta["rows"] == 3


def test_cli_meta_records_library_versions(tmp_path):
    doc = json.loads(SPEC_EXAMPLE)
    doc["grid"] = {"n_time": 64, "n_space": 64}
    doc["scan"]["points"] = 2
    sidecars = []
    for _ in range(2):
        code, out = _run_cli(tmp_path, doc, "readout")
        assert code == 0
        sidecars.append((out.parent / (out.name + ".meta.json")).read_bytes())
    assert json.loads(sidecars[0])["versions"] == {
        "python": platform.python_version(), "numpy": np.__version__}
    assert sidecars[1] == sidecars[0]


def test_cli_kernel_scan_meta_records_resolution(tmp_path):
    # per row: the tensor rule's final order and the relative change of F
    # and Gamma from half that order; byte-identical across identical runs,
    # and the CSV carries none of it
    doc = {
        "mode": "readout",
        "groups": {"kappa_c": 1, "r": 10, "omega_T": 0.5},
        "grid": {"n_time": 64, "n_space": 64},
        "scan": {"from": 0, "to": 1e4, "points": 3},
    }
    runs = []
    for _ in range(2):
        code, out = _run_cli(tmp_path, doc, "readout")
        assert code == 0
        runs.append((out.read_bytes(),
                     (out.parent / (out.name + ".meta.json")).read_bytes()))
    assert runs[1] == runs[0]
    csv, sidecar = runs[0]
    assert csv.decode().splitlines()[0] == "kappa_c,beta_J,F_light,Gamma,v1,v2,sql"
    res = json.loads(sidecar)["resolution"]
    assert res["order"] == [32, 256, 256]
    for key in ("f_rel_change", "gamma_rel_change"):
        assert len(res[key]) == 3 and all(0.0 <= c <= 1e-10 for c in res[key])


def test_cli_memory_headers(tmp_path):
    doc = {
        "mode": "memory",
        "groups": {"kappa_c": 1, "r": 10, "q_L": 0.5},
        "grid": {"n_time": 64, "n_space": 64},
        "scan": {"from": 0, "to": 1, "points": 2},
    }
    code, out = _run_cli(tmp_path, doc, "memory")
    assert code == 0
    assert out.read_text().splitlines()[0] == "kappa_c,beta_xi3_T,F_spin,Gamma,v_y,v_z,sql"


@pytest.mark.parametrize("mode, groups, route", [
    ("readout", {"kappa_c": 1, "r": 10, "omega_T": 0.5}, "kernel"),
    ("memory", {"kappa_c": 1, "r": 10, "q_L": 0.5, "kappa2_L": 0.3, "Omega_T": 0.3},
     "matrix"),
])
def test_cli_scan_meta_records_route(tmp_path, mode, groups, route):
    doc = {
        "mode": mode,
        "groups": groups,
        "grid": {"n_time": 64, "n_space": 64},
        "scan": {"from": 0.5, "to": 1.5, "points": 2},
    }
    code, out = _run_cli(tmp_path, doc, mode)
    assert code == 0
    meta = json.loads((out.parent / (out.name + ".meta.json")).read_text())
    assert meta["route"] == route and meta["rows"] == 2


def test_cli_scan_stability_names_point_and_writes_nothing(tmp_path, capsys):
    # the last point is past the stability limit: nothing is swept or written
    doc = {
        "mode": "memory",
        "groups": {"kappa_c": 100, "r": 10, "q_L": 0.5, "kappa2_L": 0.3, "Omega_T": 0.3},
        "grid": {"n_time": 64, "n_space": 64},
        "scan": {"from": 100, "to": 1100, "points": 3},
    }
    code, out = _run_cli(tmp_path, doc, "memory")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: kappa_c = 1100: stability precondition violated: "
        "sqrt(|a|*dz*dt) = 0.518223 >= 0.5\n")
    assert not out.exists()
    assert not (out.parent / (out.name + ".meta.json")).exists()


def test_cli_dispersion_anchor(tmp_path, capsys):
    doc = {
        "mode": "dispersion",
        "grid": {"n_time": 8, "n_space": 8},
        "dispersion": {"abs_A_LT": 2, "omega_T": [0.5, 4]},
    }
    code, out = _run_cli(tmp_path, doc, "dispersion")
    assert code == 0
    captured = capsys.readouterr().out
    assert "|q|L = 4" in captured
    lines = out.read_text().splitlines()
    assert lines[1] == "0.5,4"
    assert lines[2] == "4,0.5"


def test_cli_symplectic_check(tmp_path, capsys):
    doc = {
        "mode": "symplectic-check",
        "groups": {"kappa_c": 1, "r": 10},
        "grid": {"n_time": 48, "n_space": 48},
    }
    code, out = _run_cli(tmp_path, doc, "symplectic-check")
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    residual = float(out.read_text().splitlines()[1].split(",")[-1])
    assert residual <= 1e-8


def test_cli_oracle_compare_small(tmp_path, capsys):
    doc = {
        "mode": "oracle-compare",
        "groups": {"kappa_c": 1, "r": 10},
        "grid": {"n_time": 96, "n_space": 96},
        "oracle_compare": {"kappa_c_values": [0.5, 2.0], "profiles": 2, "seed": 7},
    }
    runs = []
    for _ in range(2):
        code, out = _run_cli(tmp_path, doc, "oracle-compare")
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        runs.append((out.read_bytes(), (out.parent / (out.name + ".meta.json")).read_bytes()))
    # CSV and sidecar byte-identical across identical runs; the sidecar
    # records per row the Gauss-Legendre order that resolved its kappa_c
    assert runs[1] == runs[0]
    csv, sidecar = runs[0]
    lines = csv.decode().splitlines()
    assert lines[0] == "kappa_c,profile,field_rel_dev,spin_rel_dev"
    assert len(lines) == 5
    assert json.loads(sidecar)["resolution"] == {"order": [32, 32, 32, 32]}


def test_cli_oracle_stability_names_kappa_c_and_writes_nothing(tmp_path, capsys,
                                                               monkeypatch):
    # 3000 and 5000 are past the stability limit at grid 16: the error names
    # the first, and nothing is swept, applied or written
    import polariton_lab.runner as runner

    def unreachable(*args, **kwargs):
        raise AssertionError("swept or applied before the stability check")

    monkeypatch.setattr(runner, "integrate_extrapolated", unreachable)
    monkeypatch.setattr(runner, "output_maps", unreachable)
    doc = {
        "mode": "oracle-compare",
        "groups": {"kappa_c": 1, "r": 10},
        "grid": {"n_time": 16, "n_space": 16},
        "oracle_compare": {"kappa_c_values": [1, 3000, 5000], "profiles": 2, "seed": 0},
    }
    code, out = _run_cli(tmp_path, doc, "oracle-compare")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: kappa_c = 3000: stability precondition violated: "
        "sqrt(|a|*dz*dt) = 3.42327 >= 0.5\n")
    assert not out.exists()
    assert not (out.parent / (out.name + ".meta.json")).exists()


def test_cli_packet_velocity(tmp_path):
    doc = {
        "mode": "packet-velocity",
        "groups": {"kappa_c": 2, "r": 1},
        "grid": {"n_time": 256, "n_space": 256},
        "packet": {"q0_L": 8, "bandwidth_frac": 0.1},
    }
    code, out = _run_cli(tmp_path, doc, "packet-velocity")
    assert code == 0
    header, row = out.read_text().splitlines()
    assert header == "q0,v_measured,v_predicted"
    q0, v_meas, v_pred = (float(x) for x in row.split(","))
    assert 0.95 <= v_meas / v_pred <= 1.05
    assert v_meas == pytest.approx(0.032113322367784761, rel=1e-12, abs=0.0)


def test_cli_mode_mismatch(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SPEC_EXAMPLE)
    assert main(["memory", "--config", str(cfg_path)]) == 2


def test_cli_grid_override(tmp_path):
    doc = json.loads(SPEC_EXAMPLE)
    doc["scan"]["points"] = 2
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out_path = tmp_path / "o.csv"
    code = main(["readout", "--config", str(cfg_path), "--out", str(out_path),
                 "--grid-override", "64"])
    assert code == 0
    meta = json.loads((tmp_path / "o.csv.meta.json").read_text())
    assert meta["grid"] == {"n_time": 64, "n_space": 64}


def test_cli_grid_override_below_two_bins_rejected(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(SPEC_EXAMPLE)
    out_path = tmp_path / "o.csv"
    code = main(["readout", "--config", str(cfg_path), "--out", str(out_path),
                 "--grid-override", "1"])
    assert code == 2 and not out_path.exists()
    assert capsys.readouterr().err == (
        "config error: grid must have at least 2 bins per axis, got n_time=1, n_space=1\n")


def test_cli_missing_config_file(tmp_path):
    assert main(["readout", "--config", str(tmp_path / "nope.json")]) == 2


def test_runner_propagates_solver_precondition(tmp_path):
    # grid far too coarse for the coupling: stability rejection -> exit 1
    doc = {
        "mode": "symplectic-check",
        "groups": {"kappa_c": 500, "r": 10},
        "grid": {"n_time": 8, "n_space": 8},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code = main(["symplectic-check", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_config_output_path_used_when_no_flag(tmp_path, monkeypatch):
    doc = {
        "mode": "dispersion",
        "grid": {"n_time": 8, "n_space": 8},
        "dispersion": {"abs_A_LT": 2, "omega_T": 0.5},
        "output": str(tmp_path / "from_config.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["dispersion", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_config.csv").exists()


ORACLE_DOC = {
    "mode": "oracle-compare",
    "groups": {"kappa_c": 1, "r": 10},
    "grid": {"n_time": 64, "n_space": 64},
}


@pytest.mark.parametrize("values, message", [
    (["abc"], r"\$\.oracle_compare\.kappa_c_values\[0\]: expected a number"),
    ([0.5, True], r"\$\.oracle_compare\.kappa_c_values\[1\]: expected a number"),
    ([math.nan], r"\$\.oracle_compare\.kappa_c_values\[0\]: non-finite"),
    ([], r"\$\.oracle_compare\.kappa_c_values: expected a non-empty list"),
], ids=["string", "bool", "nan", "empty"])
def test_oracle_kappa_c_values_validated(tmp_path, capsys, values, message):
    doc = dict(ORACLE_DOC, oracle_compare={"kappa_c_values": values})
    with pytest.raises(ConfigError, match=message):
        parse_config(json.dumps(doc))
    code, out = _run_cli(tmp_path, doc, "oracle-compare")
    assert code == 2 and not out.exists()
    assert "config error: $.oracle_compare.kappa_c_values" in capsys.readouterr().err


@pytest.mark.parametrize("profiles", [0, -3])
def test_oracle_profiles_must_be_positive(tmp_path, capsys, profiles):
    doc = dict(ORACLE_DOC, oracle_compare={"profiles": profiles})
    with pytest.raises(ConfigError, match=r"\$\.oracle_compare\.profiles: need at least one"):
        parse_config(json.dumps(doc))
    code, out = _run_cli(tmp_path, doc, "oracle-compare")
    assert code == 2 and not out.exists()
    assert "config error: $.oracle_compare.profiles" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key, message", [
    ({"mode": "dispersion", "grid": {"n_time": 8, "n_space": 8},
      "dispersion": {"abs_A_LT": 2, "omega_T": []}},
     "$.dispersion.omega_T", "expected a non-empty list"),
    (dict(ORACLE_DOC, oracle_compare={"seed": -1}),
     "$.oracle_compare.seed", "expected a non-negative integer"),
    ({"mode": "packet-velocity", "groups": {"kappa_c": 2, "r": 10},
      "grid": {"n_time": 64, "n_space": 64}, "packet": {"q0_L": 0}},
     "$.packet.q0_L", "q0_L = 0 sits on the group-velocity pole"),
    (dict(ORACLE_DOC, groups={"kappa_c": 1, "r": 0}),
     "$.groups.r", "coupling ratio must be positive, got 0.0"),
    ({"mode": "dispersion", "grid": {"n_time": 8, "n_space": 8},
      "dispersion": {"abs_A_LT": -2, "omega_T": [0.5]}},
     "$.dispersion.abs_A_LT", "magnitude must be nonnegative"),
    ({"mode": "dispersion", "grid": {"n_time": 8, "n_space": 8},
      "dispersion": {"abs_A_LT": 2, "omega_T": [0.5, 0]}},
     "$.dispersion.omega_T[1]", "omega_T = 0 sits on the dispersion pole"),
    ({"mode": "packet-velocity", "groups": {"kappa_c": 2, "r": 10},
      "grid": {"n_time": 64, "n_space": 64}, "packet": {"q0_L": 8, "bandwidth_frac": 0.5}},
     "$.packet.bandwidth_frac", "must lie in (0, 0.2]"),
    (dict(json.loads(SPEC_EXAMPLE), abscissa={"eps_xi3_T": 0}),
     "$.abscissa.eps_xi3_T", "conversion factor must be positive"),
    (dict(ORACLE_DOC, output=3), "$.output", "expected a string path"),
    (dict(ORACLE_DOC, detection={"q_L": 0.5}),
     "$.detection", "block only valid with the 'physical' parameter block"),
    ({"mode": "memory", "physical": {"beta": 0.5, "epsilon": 0.05},
      "grid": {"n_time": 64, "n_space": 64}, "detection": {"omega_T": 0.5},
      "scan": {"from": 0, "to": 1, "points": 2}},
     "$.detection.q_L", "memory with physical parameters needs the detection wavenumber"),
    ({k: v for k, v in ORACLE_DOC.items() if k != "grid"}, "$.grid", "missing required key"),
    ({"mode": "symplectic-check", "grid": {"n_time": 8, "n_space": 8},
      "physical": {"beta": 0.5, "epsilon": 0.05, "xi3_bar": -1}},
     "$.physical", "xi3_bar must be positive, got -1.0"),
    ({"mode": "symplectic-check", "grid": {"n_time": 8, "n_space": 8}},
     "$", "mode 'symplectic-check' needs exactly one of 'groups' or 'physical'"),
    ({"mode": "dispersion", "grid": {"n_time": 8, "n_space": 8},
      "dispersion": {"abs_A_LT": 2}},
     "$.dispersion.omega_T", "missing required key"),
], ids=["dispersion-omega-empty", "oracle-seed-negative", "packet-q0-zero", "groups-r-zero",
        "dispersion-abs-negative", "dispersion-omega-zero", "packet-bandwidth-wide",
        "abscissa-zero", "output-not-string", "detection-without-physical",
        "memory-physical-without-q", "grid-missing", "physical-xi3-negative",
        "no-parameter-block", "dispersion-omega-missing"])
def test_empty_or_negative_entries_rejected(tmp_path, capsys, doc, key, message):
    with pytest.raises(ConfigError, match=re.escape(f"{key}: {message}")):
        parse_config(json.dumps(doc))
    code, out = _run_cli(tmp_path, doc, doc["mode"])
    assert code == 2 and not out.exists()
    assert f"config error: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("grid, message", [
    ({"n_time": 4.5, "n_space": 8}, "$.grid.n_time: expected an integer, got 4.5"),
    ({"n_time": "8", "n_space": 8}, "$.grid.n_time: expected a number, got '8'"),
    ({"n_time": 8}, "$.grid.n_space: missing required key"),
    (5, "$.grid: expected an object"),
    ({"n_time": 1, "n_space": 8},
     "$.grid: grid must have at least 2 bins per axis, got n_time=1, n_space=8"),
], ids=["fractional", "string", "missing", "not-an-object", "one-bin"])
def test_grid_count_errors_name_their_path_once(tmp_path, capsys, grid, message):
    doc = dict(json.loads(SPEC_EXAMPLE), grid=grid)
    with pytest.raises(ConfigError) as info:
        parse_config(json.dumps(doc))
    assert str(info.value) == message
    code, out = _run_cli(tmp_path, doc, "readout")
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_abscissa_block_sets_the_readout_conversion(tmp_path):
    # beta_J = kappa_c / (2 eps_xi3_T), so 0.25 doubles kappa_c
    doc = dict(json.loads(SPEC_EXAMPLE), grid={"n_time": 64, "n_space": 64},
               scan={"from": 0, "to": 2, "points": 3}, abscissa={"eps_xi3_T": 0.25})
    code, out = _run_cli(tmp_path, doc, "readout")
    assert code == 0
    header, *rows = out.read_text().splitlines()
    assert header.split(",")[:2] == ["kappa_c", "beta_J"]
    columns = [[float(v) for v in row.split(",")[:2]] for row in rows]
    assert columns == [[kc, 2.0 * kc] for kc in (0.0, 1.0, 2.0)]


SYMPLECTIC_DOC = {
    "mode": "symplectic-check",
    "groups": {"kappa_c": 1, "r": 10},
    "grid": {"n_time": 8, "n_space": 8},
}


@pytest.mark.parametrize("doc, block, modes", [
    (dict(SYMPLECTIC_DOC, scan={"from": 0, "to": 1, "points": 2}),
     "scan", "'readout' or 'memory'"),
    (dict(ORACLE_DOC, abscissa={"eps_jx_L": 0.5}), "abscissa", "'readout' or 'memory'"),
    (dict(json.loads(SPEC_EXAMPLE), dispersion={"abs_A_LT": 2, "omega_T": [1]}),
     "dispersion", "'dispersion'"),
    (dict(SYMPLECTIC_DOC, oracle_compare={"profiles": 2}),
     "oracle_compare", "'oracle-compare'"),
    (dict(ORACLE_DOC, packet={"q0_L": 8}), "packet", "'packet-velocity'"),
], ids=["scan", "abscissa", "dispersion", "oracle_compare", "packet"])
def test_block_outside_its_modes_rejected(tmp_path, capsys, doc, block, modes):
    message = f"$.{block}: block only valid for mode {modes}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(json.dumps(doc))
    code, out = _run_cli(tmp_path, doc, doc["mode"])
    assert code == 2 and not out.exists()
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("mode, couplings, n, start, message", [
    # kappa_c = -1e5 keeps the I0/I1 argument below I_OVERFLOW_X, but the
    # squared variance filters leave the double range; the variance layer raises
    ("readout", {}, 64, -1e5, "variance integrals overflow at kappa_c = -100000:"),
    # kappa_c = -1.5e5 and beyond overflow the kernel argument itself
    ("readout", {}, 64, -1.5e5, "exceeds overflow threshold"),
    # on the matrix route kappa_c = -2e5 is inside the stability limit at
    # grid 1024, but the adjoint sweep leaves the double range
    ("memory", {"q_L": 0.5, "kappa2_L": 0.3, "Omega_T": 0.3}, 1024, -2e5,
     "transfer-matrix variance overflows at kappa_c = -200000:"),
], ids=["variance-overflow", "kernel-threshold", "matrix-route"])
def test_cli_blue_wing_overflow_writes_nothing(tmp_path, capsys, mode, couplings, n,
                                               start, message):
    doc = {
        "mode": mode,
        "groups": {"kappa_c": -1e5, "r": 10, "omega_T": 0.5, **couplings},
        "grid": {"n_time": n, "n_space": n},
        "scan": {"from": start, "to": -2e5, "points": 3},
    }
    code, out = _run_cli(tmp_path, doc, mode)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()
    assert not (out.parent / (out.name + ".meta.json")).exists()


def test_cli_unresolved_kernel_writes_nothing(tmp_path, capsys):
    # kappa_c = 1e6 needs a Gauss-Legendre order past the variance rule's cap
    doc = {
        "mode": "readout",
        "groups": {"kappa_c": 1e6, "r": 10, "omega_T": 0.5},
        "grid": {"n_time": 64, "n_space": 64},
        "scan": {"from": 1e6, "to": 1e6, "points": 1},
    }
    code, out = _run_cli(tmp_path, doc, "readout")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: closed-form variance at kappa_c = 1e+06 is not resolved")
    assert not out.exists()
    assert not (out.parent / (out.name + ".meta.json")).exists()


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal alone costs most of the CLI start-up time, scipy.linalg
    # another 60 ms and scipy.fft about 40 ms; the package needs none of them
    src = Path(polariton_lab.__file__).resolve().parents[1]
    code = ("import sys, polariton_lab.cli; "
            "print(polariton_lab.cli.__file__); "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.signal', 'scipy.linalg', 'scipy.fft'))))")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    loaded_from, heavy_modules = result.stdout.splitlines()
    assert Path(loaded_from).resolve().parent == src / "polariton_lab"
    assert heavy_modules == "[]"


def test_cli_readout_point_leaves_scipy_linalg_unloaded(tmp_path):
    # the Gauss-Legendre rule is the package's own; scipy's roots_legendre
    # imports scipy.linalg on the first point of a run
    src = Path(polariton_lab.__file__).resolve().parents[1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "mode": "readout",
        "groups": {"kappa_c": 1, "r": 10, "omega_T": 0.5},
        "grid": {"n_time": 64, "n_space": 64},
        "scan": {"from": 1, "to": 1, "points": 1},
    }))
    code = ("import sys; from polariton_lab.cli import main; "
            f"status = main(['readout', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out.csv')!r}]); "
            "print(status, sorted(m for m in sys.modules if m.startswith('scipy.linalg')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.splitlines()[-1] == "0 []"


def test_cli_kernel_runs_leave_numpy_polynomial_unloaded(tmp_path):
    # the Gauss-Legendre rules are built by Newton's method; numpy's leggauss
    # imported numpy.polynomial (nine modules, 5-7 ms) on a run's first rule
    src = Path(polariton_lab.__file__).resolve().parents[1]
    runs = []
    for mode, doc in (("readout", {"groups": {"kappa_c": 1, "r": 10, "omega_T": 0.5},
                                   "scan": {"from": 1, "to": 1, "points": 1}}),
                      ("oracle-compare", {"groups": {"kappa_c": 1, "r": 10},
                                          "oracle_compare": {"kappa_c_values": [0.5],
                                                             "profiles": 1, "seed": 7}})):
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({"mode": mode, "grid": {"n_time": 64, "n_space": 64}, **doc}))
        runs.append([mode, "--config", str(cfg), "--out", str(tmp_path / f"{mode}.csv")])
    code = ("import sys; import polariton_lab.cli as cli; "
            f"codes = [cli.main(args) for args in {runs!r}]; "
            "print(codes, sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.splitlines()[-1] == "[0, 0] []"


def test_cli_runs_leave_scipy_unloaded(tmp_path):
    # the kernels compute their Bessel values with numpy alone; importing
    # scipy.special was most of the CLI start-up
    src = Path(polariton_lab.__file__).resolve().parents[1]
    runs = []
    for mode, groups in (("readout", {"kappa_c": 1, "r": 10, "omega_T": 0.5}),
                         ("memory", {"kappa_c": 1, "r": 10, "q_L": 0.5,
                                     "kappa2_L": 0.3, "Omega_T": 0.3})):
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps({
            "mode": mode, "groups": groups,
            "grid": {"n_time": 64, "n_space": 64},
            "scan": {"from": 1, "to": 1, "points": 1},
        }))
        runs.append([mode, "--config", str(cfg), "--out", str(tmp_path / f"{mode}.csv")])
    code = ("import sys; import polariton_lab.cli as cli; "
            f"codes = [cli.main(args) for args in {runs!r}]; "
            "print(codes, sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.splitlines()[-1] == "[0, 0] []"


def test_cli_import_leaves_openssl_and_spectral_unloaded():
    # the sidecar's digest comes from the builtin SHA-256 (hashlib loads
    # OpenSSL), and spectral loads only when one of its names is used
    src = Path(polariton_lab.__file__).resolve().parents[1]
    code = ("import sys, polariton_lab.cli; "
            "print(sorted(m for m in ('_hashlib', 'polariton_lab.spectral') "
            "if m in sys.modules)); "
            "import polariton_lab as p; "
            "names = ('dispersion_p_of_s', 'group_velocity', 'measure_packet_velocity', "
            "'laplace_identity_residual'); "
            "print(all(n in dir(p) for n in names)); "
            "from polariton_lab import spectral; "
            "print(all(getattr(p, n) is getattr(spectral, n) for n in names))")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.splitlines() == ["[]", "True", "True"]


def test_sidecar_digest_is_the_config_sha256_with_or_without_the_builtin_module(tmp_path):
    import hashlib

    doc = {"mode": "symplectic-check", "groups": {"kappa_c": 1, "r": 10},
           "grid": {"n_time": 8, "n_space": 8}}
    code, out = _run_cli(tmp_path, doc, "symplectic-check")
    assert code == 0
    sidecar = (tmp_path / "out.csv.meta.json").read_bytes()
    config_bytes = (tmp_path / "cfg.json").read_bytes()
    assert json.loads(sidecar)["config_sha256"] == hashlib.sha256(config_bytes).hexdigest()
    # the same bytes through the hashlib fallback
    src = Path(polariton_lab.__file__).resolve().parents[1]
    fallback_out = tmp_path / "fallback.csv"
    code = ("import sys; sys.modules['_sha256'] = sys.modules['_sha2'] = None; "
            "from polariton_lab.cli import main; "
            f"status = main(['symplectic-check', '--config', {str(tmp_path / 'cfg.json')!r}, "
            f"'--out', {str(fallback_out)!r}]); "
            "from polariton_lab import runner; "
            "print(status, runner.sha256.__module__)")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.splitlines()[-1] == "0 _hashlib"
    assert (tmp_path / "fallback.csv.meta.json").read_bytes() == sidecar
