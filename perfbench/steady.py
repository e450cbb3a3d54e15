"""Steadiness and determinism check of the benchmark.

Run from the repository root:

    python3 perfbench/steady.py [--workloads sweep-general,release-search] [--seeds 10]

For each workload this runs the benchmark untraced once per seed and reports,
for every end-to-end metric, the distance between the first and third
quartile of the values as a share of their median (``statistics.quantiles``
with n=4). Every spread, ``setup_s``'s too, must stay below a third of the
metric's bound in ``BENCHMARK.json``. It then runs the traced benchmark twice
with seed 0 and requires the counts that do not depend on timing to repeat
exactly. Every run must report ``correct`` with no failed operation. Exits 1
when any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics as m

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, full report) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line.split(" ", 1)[1]) for line in lines
                  if line.startswith("perfbench-report "))
    return json.loads(lines[-1]), report


def main(argv=None) -> int:
    bench = m.BENCHMARK
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {e["name"]: e["bound"] for e in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.seeds):
            result, _ = run_once(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            spread = m.relative_spread(vals)
            limit = bounds[name] / 3.0
            steady = spread < limit
            ok &= steady
            print(f"{workload:<21} {name:<12} median {statistics.median(vals):<12.6g} "
                  f"spread {spread:.4f} (limit {limit:.4f}) "
                  f"{'ok' if steady else 'UNSTEADY'}  values "
                  + " ".join(f"{v:.5g}" for v in vals), flush=True)

        reports = [run_once(workload, 0, seconds, 1) for _ in range(TRACED_RUNS)]
        for result, _ in reports:
            if not result["correct"] or result["failed"]:
                print(f"{workload} traced: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
        for name in m.DETERMINISTIC:
            seen = [report.get(name) for _, report in reports]
            same = all(v == seen[0] for v in seen)
            ok &= same
            print(f"{workload:<21} {name:<24} {seen} "
                  f"{'repeats' if same else 'DRIFTS'}", flush=True)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
