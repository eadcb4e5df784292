"""Repeat the benchmark over seeds and summarize the run-to-run spread.

    python3 perfbench/baseline.py [--out FILE]

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` once per
seed 0-9 and then once with ``--trace 1`` on seed 0, all at BENCHMARK.json's
``run_seconds``.  For every end-to-end metric it prints the median, the
quartiles and their distance as a share of the median, marked ``WIDE``
when that spread exceeds a third of the metric's bound.  With ``--out`` it
writes the result lines, the summaries and the machine record as JSON
(``baseline.json`` holds the seed-commit baseline written this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(10))


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: (result line, machine record)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), {})
    return json.loads(lines[-1]), machine


def summarize(results: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        values = [r["metrics"][metric["name"]]["value"] for r in results
                  if metric["name"] in r["metrics"]]
        if len(values) < 2:
            continue
        # Spreads across seeds are judged with the default (exclusive) method;
        # run.py's within-run quartiles use 'inclusive' so they never extrapolate.
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": q2, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / q2, "bound": metric["bound"],
                               "n": len(values)}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            result, report["machine"] = bench(workload, seed, seconds, 0)
            results.append({"seed": seed, "result": result})
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                              for k, v in result["metrics"].items())
                  + f", failed {result['failed']}/{result['attempted']}", flush=True)
        summary = summarize([r["result"] for r in results], spec["end_to_end"])
        for name, s in summary.items():
            wide = "  WIDE" if s["spread"] > s["bound"] / 3 else ""
            print(f"  {name}: median {s['median']:.6g} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}) "
                  f"spread {s['spread']:.4f} of bound {s['bound']}{wide}", flush=True)
        traced, _ = bench(workload, SEEDS[0], seconds, 1)
        entry = {"runs": results, "summary": summary,
                 "traced": {"seed": SEEDS[0], "result": traced}}
        print(f"  traced seed {SEEDS[0]}: failed {traced['failed']}/{traced['attempted']}",
              flush=True)
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
