"""Benchmark of the polariton-lab CLI over four run modes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; the package is loaded from
``src/``.  The load is a closed loop with one client: the benchmark writes
the workload's JSON config from the seed, then starts one CLI run at a
time, each in a fresh interpreter (every user invocation pays for the
import), until the next run would end past ``--seconds``; at least three
runs are made.  Every run's CSV is checked (see ``checks.py``) and runs of
one config must write byte-identical CSVs.

``--trace 0`` reports the end-to-end metrics, each the median over the
runs.  ``--trace 1`` alternates untraced runs with traced ones (every
public function of the layer modules wrapped, ``-X importtime`` on) and
reports the per-layer metrics plus the tracing overhead (the median,
over adjacent untraced/traced pairs, of the traced run's extra wall_s).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the machine record and every metric with its unit and quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import spans
from checks import check_output
from workloads import WORKLOADS, work_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# BLAS/OpenMP threads in every child (and in this process's checks).  One
# thread is the same count on every machine and keeps runs on a shared
# machine from competing with themselves.
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_RUNS = {0: 3, 1: 4}
# A benchmark run must end within 180 s: no run starts that would end past
# DEADLINE_S (at the mean pace so far), and a hung child is killed.
DEADLINE_S = 140.0
CHILD_TIMEOUT_S = 140.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("import.polariton_lab_s", "s"),
    ("import.spectral_s", "s"),
    ("config.parse_s", "s"),
    ("variance.point_s.p50", "s"),
    ("variance.point_s.p95", "s"),
    ("variance.self_s", "s"),
    ("variance.kernel_route_points", "count"),
    ("variance.matrix_route_points", "count"),
    ("kernels.cross_evals", "count"),
    ("kernels.self_evals", "count"),
    ("kernels.cross_s", "s"),
    ("kernels.self_s", "s"),
    ("kernels.output_field_s", "s"),
    ("kernels.output_spin_s", "s"),
    ("quadrature.nodes", "count"),
    ("quadrature.s", "s"),
    ("lattice.cell_updates", "count"),
    ("lattice.cell_updates_per_s", "1/s"),
    ("lattice.adjoint_apply_s.p50", "s"),
    ("lattice.adjoint_apply_calls", "count"),
    ("lattice.integrate_s", "s"),
    ("lattice.build_transfer_matrix_s", "s"),
    ("lattice.symplectic_residual_s", "s"),
    ("lattice.matrix_bytes_computed", "B"),
    ("runner.oracle_profile_s.p50", "s"),
    ("runner.oracle_profile_s.p95", "s"),
    ("runner.self_s", "s"),
    ("runner.write_s", "s"),
    ("runner.csv_bytes", "B"),
    ("trace.overhead_s", "s"),
)

_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def quartiles(values) -> tuple[float, float, float]:
    """Q1, median and Q3 within the sample range (``method='inclusive'``)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def p95(values) -> float:
    """95th percentile within the sample range; 0.0 for a layer that made no calls."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def import_times(stderr_text: str) -> dict:
    """Cumulative ``-X importtime`` seconds per module name."""
    out = {}
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return env


def launch(cmd: list[str], cwd: Path, stdout_path: Path, stderr_path: Path):
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def cli_run(work: Path, index: int, config_path: Path, mode: str, traced: bool) -> dict:
    """One CLI run in a fresh interpreter; returns what it measured and wrote."""
    d = work / f"run{index:03d}"
    d.mkdir()
    csv_path, spans_path = d / "out.csv", d / "spans.json"
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(HERE / "child.py"), str(spans_path), "traced" if traced else "plain",
           "--", mode, "--config", str(config_path), "--out", str(csv_path)]
    wall, code, rss = launch(cmd, d, d / "stdout.txt", d / "stderr.txt")
    run = {"traced": traced, "wall_s": wall, "exit": code, "rss_mb": rss,
           "stderr": (d / "stderr.txt").read_text(encoding="utf-8", errors="replace")}
    if code == 0 and csv_path.is_file() and spans_path.is_file():
        run["csv"] = csv_path.read_text(encoding="utf-8")
        run.update(json.loads(spans_path.read_text(encoding="utf-8")))
    return run


def run_loop(work: Path, config_path: Path, mode: str, seconds: float, trace: int):
    """Closed loop: next run only after the last ends, while time is left."""
    runs = []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(runs) % 2 == 1
        runs.append(cli_run(work, len(runs), config_path, mode, traced))
        projected = (time.perf_counter() - start) * (1 + 1 / len(runs))
        if projected > DEADLINE_S or (len(runs) >= MIN_RUNS[trace] and projected > seconds):
            return runs


def judge(runs: list[dict], workload: str, config: dict, seed: int) -> list[list[str]]:
    """Problems per run: exit status, then output checks and determinism."""
    verdicts = {}
    first = None
    problems = []
    for run in runs:
        if run["exit"] != 0 or "csv" not in run:
            tail = run["stderr"].strip().splitlines()[-1:] or [""]
            problems.append([f"exit code {run['exit']}: {tail[0]}"])
            continue
        text = run["csv"]
        first = text if first is None else first
        if text != first:
            problems.append(["CSV differs from the first run's (not deterministic)"])
            continue
        if text not in verdicts:
            verdicts[text] = check_output(workload, config, seed, text)
        problems.append(verdicts[text])
    return problems


def end_to_end(ok_runs: list[dict], units: int) -> dict:
    per_run = {"wall_s": [], "setup_s": [], "work_per_s": [], "peak_rss_mb": []}
    for run in ok_runs:
        per_run["wall_s"].append(run["wall_s"])
        per_run["setup_s"].append(
            run["import_s"] + spans.total(run["spans"], ["config.parse_config"]))
        per_run["work_per_s"].append(units / spans.total(run["spans"], ["runner.run"]))
        per_run["peak_rss_mb"].append(run["rss_mb"])
    return per_run


def trace_overheads(runs: list[dict]) -> list[float]:
    """Traced wall_s minus that of the untraced run just before it, per pair."""
    return [b["wall_s"] - a["wall_s"] for a, b in zip(runs, runs[1:])
            if not a["traced"] and b["traced"]]


def per_layer(ok_runs: list[dict]) -> dict:
    traced = [r for r in ok_runs if r["traced"]]
    overheads = trace_overheads(ok_runs)
    if not overheads:
        return {}
    scalars: dict[str, list] = {}
    samples: dict[str, list] = {}
    for run in traced:
        run_scalars, run_samples = spans.layer_metrics(run["spans"])
        imports = import_times(run["stderr"])
        run_scalars["import.polariton_lab_s"] = imports.get("polariton_lab", 0.0)
        run_scalars["import.spectral_s"] = imports.get("polariton_lab.spectral", 0.0)
        run_scalars["runner.csv_bytes"] = len(run["csv"].encode("utf-8"))
        for key, value in run_scalars.items():
            scalars.setdefault(key, []).append(value)
        for key, values in run_samples.items():
            samples.setdefault(key, []).extend(values)
    out = {key: statistics.median(values) for key, values in scalars.items()}
    for key, values in samples.items():
        out[f"{key}.p50"] = statistics.median(values) if values else 0.0
        out[f"{key}.p95"] = p95(values)
    out["trace.overhead_s"] = statistics.median(overheads)
    return {key: [out[key]] for key, _ in PER_LAYER}


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unavailable"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "polariton_lab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def report(name: str, unit: str, values: list) -> None:
    q1, q2, q3 = quartiles(values)
    print(f"{name}: {q2} {unit}"
          + (f"  (q1 {q1}, q3 {q3}, n={len(values)})" if len(values) > 1 else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "polariton_lab" / "cli.py").is_file():
        print(f"error: no polariton_lab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))

    machine = machine_record()
    # Load the package once here, untimed, so the first timed run does not
    # pay the one-off disk reads and bytecode compilation that later runs skip.
    import polariton_lab.cli  # noqa: F401

    workload = WORKLOADS[args.workload]
    config = workload.make_config(args.seed)
    units = work_units(config)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        runs = run_loop(work, config_path, config["mode"], args.seconds, args.trace)
        problems = judge(runs, args.workload, config, args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {units} {workload.unit} per run, "
          f"config {json.dumps(config, sort_keys=True)}")
    for i, found in enumerate(problems):
        for problem in found:
            print(f"FAILED run {i}: {problem}")
    ok_runs = [run for run, found in zip(runs, problems) if not found]
    failed = len(runs) - len(ok_runs)
    metrics = {}
    if ok_runs:
        values = end_to_end(ok_runs, units) if args.trace == 0 else per_layer(ok_runs)
        table = END_TO_END if args.trace == 0 else PER_LAYER
        for name, unit in table:
            if name not in values:
                continue
            report(name, unit, values[name])
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}
    print(f"fail_rate: {failed / len(runs)} ({failed} of {len(runs)} runs)")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
