"""Record perfbench runs of one or more checkouts in BENCH_<label>.json files.

    python3 tools/bench_record.py --checkout parent=../parent --checkout change=. \
        --workload sweep-general --seeds 0 1 2 3 4 5 6 7 8 9 --seconds 45

Each checkout is a directory holding ``perfbench/run.py`` and the ``src``
it benchmarks; ``--checkout`` defaults to this repository, labelled
``local``. Runs go one at a time (the benchmark pins itself to one CPU).
For each workload and seed every checkout runs once, and the order of the
checkouts rotates from one seed to the next, so that a slow spell of the
machine does not fall on one side only. Put checkouts that are compared at
paths of equal length: perfbench timings have been seen to move with the
length of the checkout's path.

After every run, ``<out-dir>/BENCH_<label>.json`` is rewritten with the
checkout's git revision (when it has one) and, per run, the workload, the
seed, the ``perfbench-env`` record, the ``perfbench-report`` values and the
result line. With two checkouts, a summary of the end-to-end metrics per
workload follows on standard output: each side's median, the first
checkout's interquartile range, and how many seeds the second one won.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                    help="a checkout to run, repeatable (default: local=<this repo>)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    checkouts = {}
    for spec in args.checkout or [f"local={ROOT}"]:
        label, sep, path = spec.partition("=")
        if not sep or not label or not (Path(path) / "perfbench" / "run.py").is_file():
            ap.error(f"--checkout {spec!r}: want LABEL=DIR with DIR/perfbench/run.py")
        checkouts[label] = Path(path).resolve()
    args.checkouts = checkouts
    return args


def revision(path: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(path), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_once(path: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its env record, report values and result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=path, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    record = {"workload": workload, "seed": seed, "returncode": proc.returncode,
              "env": None, "report": None, "result": None}
    for line in lines:
        for key, tag in (("env", "perfbench-env "), ("report", "perfbench-report ")):
            if line.startswith(tag):
                record[key] = json.loads(line[len(tag):])
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record


def summary(workload: str, first: str, second: str, runs: dict) -> list[str]:
    """Medians, the first side's quartile spread, and the second side's wins."""
    pairs = [(a["result"]["metrics"], b["result"]["metrics"])
             for a, b in zip(runs[first], runs[second])
             if a["workload"] == b["workload"] == workload
             and a["result"] and b["result"]]
    out = []
    for name, better in END_TO_END.items():
        xs = [a[name]["value"] for a, _ in pairs]
        ys = [b[name]["value"] for _, b in pairs]
        if not xs:
            continue
        wins = sum((y > x) if better == "higher" else (y < x) for x, y in zip(xs, ys))
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        out.append(f"{workload:<16} {name:<12} {first} {statistics.median(xs):.5g} "
                   f"(IQR {q[2] - q[0]:.3g})  {second} {statistics.median(ys):.5g}  "
                   f"{second} better in {wins}/{len(xs)}")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    labels = list(args.checkouts)
    runs = {label: [] for label in labels}
    files = {label: args.out_dir / f"BENCH_{label}.json" for label in labels}
    step = 0
    for workload in args.workload:
        for seed in args.seeds:
            order = labels[step % len(labels):] + labels[:step % len(labels)]
            step += 1
            for label in order:
                record = run_once(args.checkouts[label], workload, seed, args.seconds)
                runs[label].append(record)
                metrics = (record["result"] or {}).get("metrics", {})
                print(f"{label:<10} {workload:<16} seed {seed:<3} "
                      f"ops_per_s {metrics.get('ops_per_s', {}).get('value')} "
                      f"correct {(record['result'] or {}).get('correct')}", flush=True)
                files[label].write_text(json.dumps({
                    "label": label, "revision": revision(args.checkouts[label]),
                    "runs": runs[label]}, indent=1) + "\n")
    # runs of a workload line up by seed: each list holds them in the same order
    if len(labels) == 2:
        for workload in args.workload:
            print("\n".join(summary(workload, labels[0], labels[1], runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
