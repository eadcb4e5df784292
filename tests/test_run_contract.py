"""The run contract: every config ends in exactly one of four ways.

- ``parse_config`` raises a ConfigError;
- ``run`` exits 0 with a finite CSV and its sidecar;
- ``run`` exits 1 with one ``error:`` line, no stdout, no CSV and no new
  directory;
- ``run`` exits 1 with a gate's FAIL line and its CSV (oracle-compare,
  symplectic-check).

No other exception may escape ``run``.  Configs are drawn over all six
modes on small grids, with kappa_c below the strong-coupling orders, with
and without rotation, and with or without the keys a mode does not read.
An output that cannot be written is an error exit too.
"""

import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polariton_lab.config import MODES, ConfigError, parse_config
from polariton_lab.runner import run

GATED = ("oracle-compare", "symplectic-check")
# grid sides per mode: matrix-route scans reject grids below 64, so the
# scans draw near that edge; dispersion and packet-velocity read no grid,
# and a draw may omit it
_SIDES = {"readout": [32, 64, 96], "memory": [32, 64, 96], "dispersion": [2, 8],
          "oracle-compare": [4, 8, 16, 32], "symplectic-check": [4, 8, 16, 32],
          "packet-velocity": [16, 64, 128]}
_KAPPA_C = st.floats(-20.0, 20.0)
_SMALL = st.floats(-3.0, 3.0)


@st.composite
def run_docs(draw):
    mode = draw(st.sampled_from(MODES))
    sides = st.sampled_from(_SIDES[mode])
    doc = {"mode": mode, "grid": {"n_time": draw(sides), "n_space": draw(sides)}}
    groups = {"kappa_c": draw(_KAPPA_C), "r": draw(st.floats(0.1, 20.0))}
    if draw(st.booleans()):
        groups["kappa2_L"], groups["Omega_T"] = draw(_SMALL), draw(_SMALL)
    if mode == "readout":
        groups["omega_T"] = draw(_SMALL)
    elif mode == "memory":
        groups["q_L"] = draw(_SMALL)
    if mode != "dispersion":
        doc["groups"] = groups
    # the keys a mode does not read are optional there
    if mode in ("dispersion", "packet-velocity") and draw(st.booleans()):
        del doc["grid"]
    if mode in ("readout", "memory", "oracle-compare") and draw(st.booleans()):
        del groups["kappa_c"]
    if mode in ("readout", "memory"):
        doc["scan"] = {"from": draw(_KAPPA_C), "to": draw(_KAPPA_C),
                       "points": draw(st.integers(1, 3))}
    elif mode == "dispersion":
        doc["dispersion"] = {"abs_A_LT": draw(st.floats(0.0, 5.0)),
                             "omega_T": draw(st.lists(_SMALL, min_size=1, max_size=3))}
    elif mode == "oracle-compare":
        doc["oracle_compare"] = {
            "kappa_c_values": draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=3)),
            "profiles": draw(st.integers(1, 2)), "seed": draw(st.integers(0, 9))}
    elif mode == "packet-velocity":
        doc["packet"] = {"q0_L": draw(st.floats(-40.0, 40.0)),
                         "bandwidth_frac": draw(st.floats(0.05, 0.2))}
    return doc


def _finite_rows(csv: Path) -> bool:
    return all(math.isfinite(float(v)) for line in csv.read_text().splitlines()[1:]
               for v in line.split(","))


@settings(max_examples=200)
@given(run_docs())
# a coupling past the grid's stability limit: an error exit
@example({"mode": "symplectic-check", "groups": {"kappa_c": 5000, "r": 10},
          "grid": {"n_time": 16, "n_space": 16}})
# a scan span past double range: a config error, not a linspace overflow
@example({"mode": "readout", "groups": {"r": 10, "omega_T": 0.5},
          "grid": {"n_time": 64, "n_space": 64},
          "scan": {"from": -1e308, "to": 1e308, "points": 3}})
# |q|L = inf: an error exit that prints no result line
@example({"mode": "dispersion", "dispersion": {"abs_A_LT": 1e308, "omega_T": [1e-308]}})
def test_every_run_ends_in_one_contract_outcome(doc):
    text = json.dumps(doc)
    try:
        config = parse_config(text)
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        # in a directory that the run makes only when it writes
        out = Path(tmp) / "new" / "sub" / "run.csv"
        meta = Path(tmp) / "new" / "sub" / "run.csv.meta.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run(config, out, text)
        errors = stderr.getvalue().splitlines()
        if code == 0:
            assert errors == []
            assert out.exists() and meta.exists() and _finite_rows(out)
        elif errors:
            assert code == 1
            assert len(errors) == 1 and errors[0].startswith("error: ")
            assert stdout.getvalue() == ""
            assert not out.exists() and not meta.exists()
            assert not (Path(tmp) / "new").exists()
        else:
            assert code == 1 and config.mode in GATED
            assert stdout.getvalue().splitlines()[-1].endswith(" FAIL")
            assert out.exists() and meta.exists() and _finite_rows(out)


_SYMPLECTIC = json.dumps({"mode": "symplectic-check", "groups": {"kappa_c": 1, "r": 10},
                          "grid": {"n_time": 8, "n_space": 8}})


@pytest.mark.parametrize("blocked", ["csv-is-a-directory", "csv-under-a-file",
                                     "sidecar-is-a-directory"])
def test_unwritable_output_is_one_error_line_and_no_csv(tmp_path, blocked):
    out = tmp_path / "run.csv"
    meta = tmp_path / "run.csv.meta.json"
    if blocked == "csv-is-a-directory":
        out.mkdir()
    elif blocked == "csv-under-a-file":
        (tmp_path / "file").write_text("")
        out, meta = tmp_path / "file" / "run.csv", tmp_path / "file" / "run.csv.meta.json"
    else:
        meta.mkdir()
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run(parse_config(_SYMPLECTIC), out, _SYMPLECTIC)
    errors = stderr.getvalue().splitlines()
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith("error: cannot write output: ")
    assert not out.is_file() and not meta.is_file()
