"""Every golden config, run through the CLI, writes its golden CSV and sidecar.

The goldens under tests/goldens are written by tests/goldens/make_goldens.py.
Headers, labels, routes, orders and every non-numeric sidecar field must match
exactly; the sidecar's ``versions`` are skipped.  Other numbers match to a
relative 1e-12, and the error measures that sit at rounding level to an
absolute 1e-12: another BLAS rounds the lattice and the Gauss sums
differently.
"""

import json
import math
from pathlib import Path

import pytest

from polariton_lab.cli import main

GOLDENS = Path(__file__).parent / "goldens"
CONFIGS = sorted(p for p in GOLDENS.glob("*.json") if not p.name.endswith(".meta.json"))

# CSV columns that copy a run's inputs or labels: compared exactly
LABELS = {"kappa_c", "profile", "kappa2_L", "Omega_T", "omega_T", "q0"}
# error measures at rounding level, in the CSV and the sidecar's resolution
ROUNDING = {"field_rel_dev", "spin_rel_dev", "residual",
            "f_rel_change", "gamma_rel_change", "gamma_rel_floor"}


def _close(key: str, got: float, want: float) -> bool:
    if key in ROUNDING:
        return abs(got - want) <= 1e-12
    return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)


def _same(key: str, got, want) -> bool:
    """Sidecar values: numbers as ``_close`` takes them, integers and every
    other field exactly."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(k, got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(_same(key, g, w) for g, w in zip(got, want))
    if isinstance(want, float) and isinstance(got, float):
        return _close(key, got, want)
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_golden_run_matches(tmp_path, config):
    golden = config.with_suffix(".csv")
    out = tmp_path / golden.name
    mode = json.loads(config.read_text(encoding="utf-8"))["mode"]
    assert main([mode, "--config", str(config), "--out", str(out)]) == 0

    want_lines = golden.read_text(encoding="utf-8").splitlines()
    got_lines = out.read_text(encoding="utf-8").splitlines()
    assert got_lines[0] == want_lines[0]
    assert len(got_lines) == len(want_lines)
    header = want_lines[0].split(",")
    for row, (got, want) in enumerate(zip(got_lines[1:], want_lines[1:]), start=1):
        for name, g, w in zip(header, got.split(","), want.split(","), strict=True):
            g, w = float(g), float(w)
            assert (g == w if name in LABELS else _close(name, g, w)), (row, name, g, w)

    meta = Path(str(golden) + ".meta.json")
    want_meta = json.loads(meta.read_text(encoding="utf-8"))
    got_meta = json.loads(Path(str(out) + ".meta.json").read_text(encoding="utf-8"))
    for sidecar in (want_meta, got_meta):
        del sidecar["versions"]
    assert _same("", got_meta, want_meta), (got_meta, want_meta)
