"""Write the stored reference rows of the two scan workloads.

    python3 perfbench/make_references.py

For each seed 0-99, runs the workload's config through ``polariton_lab.cli.main``
in this process and stores the CSV rows in ``references/<workload>.json``,
together with the commit and source digest they came from.  ``checks.py``
holds later runs of the same seed to these rows at a relative 1e-9.  Run it
again only to record a deliberate change of the program's results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from checks import parse_csv, reference_path
from run import BLAS_THREADS, SRC, THREAD_VARS, WORK, git_commit, source_digest
from workloads import WORKLOADS

SCAN_WORKLOADS = ("readout-kernel", "memory-lattice")
SEEDS = range(100)


def main(argv=None) -> int:
    # No options; parsing still gives --help and rejects stray arguments
    # before anything is overwritten.
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    from polariton_lab.cli import main as cli_main

    WORK.mkdir(exist_ok=True)
    for name in SCAN_WORKLOADS:
        rows = {}
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            for seed in SEEDS:
                config = WORKLOADS[name].make_config(seed)
                config_path = Path(tmp) / "config.json"
                csv_path = Path(tmp) / "out.csv"
                config_path.write_text(json.dumps(config), encoding="utf-8")
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main([config["mode"], "--config", str(config_path),
                                     "--out", str(csv_path)])
                if code != 0:
                    raise SystemExit(f"{name} seed {seed}: CLI exited {code}")
                rows[str(seed)] = parse_csv(csv_path.read_text(encoding="utf-8"))[1]
                print(f"{name} seed {seed}: {len(rows[str(seed)])} rows", flush=True)
        reference_path(name).write_text(json.dumps({
            "workload": name,
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "rows": rows,
        }) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
