"""sbmdp benchmark: one seeded, closed-loop workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload release-search --seed 0 --seconds 45 --trace 0

A run sets up (imports, instance generation, warm-up), then runs one
operation at a time over the workload's instance pool, in the order the
seed draws, pass after pass, until the operations have taken ``--seconds``
and every instance has run at least once. Set-up rounds are repeated between
operations to time ``setup_s``. Every timed interval is scaled to a reference
machine speed by a fixed probe run before and after it, and times are
reported from the median of each instance. Each output is checked against
``reference.json``. With ``--trace 1`` the run makes one
untraced pass and then one traced pass over the same operations, and
reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, and the run environment.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import metrics as m
from spans import Tracer, first_solve_peak, installed, library_targets

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
SETUP_ROUNDS = 11
# Time of probe_seconds() on an undisturbed core of the machine the benchmark
# was sized on (2-vCPU Intel Xeon VM at 2.0 GHz, OpenBLAS on one thread).
PROBE_REF_S = 0.013
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def pin_blas_threads() -> None:
    """One BLAS thread: on 2 cores a second thread did not speed up eigh."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu() -> int | None:
    """Run on one CPU, so that the probes gauge the CPU the operations run on.

    The import probes inherit it. Returns the CPU, or None where the
    affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def import_library():
    """Import sbmdp from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sbmdp
    if Path(sbmdp.__file__).resolve().parent != src / "sbmdp":
        raise ImportError(f"sbmdp imported from {sbmdp.__file__}, not from {src}")
    import workloads
    return workloads


def import_seconds() -> float:
    """Wall time to import the library and the workloads in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, {!r}); import run; "
            "run.pin_blas_threads(); t = time.perf_counter(); run.import_library(); "
            "print(time.perf_counter() - t)").format(str(BENCH_DIR))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(proc.stdout)


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, cpus_usable: int, cpu: int | None) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable, "pinned_cpu": cpu, "cpu_model": _cpu_model(),
    }


@dataclass(frozen=True)
class Sample:
    """One operation: its pool instance, wall time, what it returned, the verdict."""

    instance: int
    seconds: float
    outcome: object  # workloads.Outcome, or None when the operation raised
    ok: bool


def operations(tasks, seed: int, reference: dict, tracer: Tracer | None = None):
    """Run ``tasks`` in order, yielding a checked Sample per operation."""
    for task in tasks:
        if tracer is not None:
            tracer.op = f"op-{task.seed}"
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = task.execute(seed)
            else:
                with tracer.span("bench.op"):
                    outcome = task.execute(seed)
        except Exception:  # an operation that raises is counted as failed
            traceback.print_exc()
            outcome = None
        dt = time.perf_counter() - t0
        ok = outcome is not None and outcome.output in (None, reference[str(task.seed)])
        if not ok and outcome is not None:
            print(f"perfbench: output of instance {task.seed} differs from the "
                  f"reference: {outcome.output}", file=sys.stderr)
        if tracer is not None and outcome is not None and outcome.released is not None:
            tracer.count("bench.releases")
            tracer.count("bench.fast_path", int(outcome.fast_path))
        yield Sample(task.seed, dt, outcome, ok)


def ops_per_s(timed) -> float:
    """Operations per second of a pass at each instance's median time.

    ``timed`` holds (instance, seconds) pairs.
    """
    times = m.instance_medians(timed)
    return len(times) / sum(times)


def raw_times(samples: list[Sample]) -> list[tuple[int, float]]:
    return [(s.instance, s.seconds) for s in samples]


def probe_seconds(small, large) -> float:
    """Wall time of fixed numpy work that does not call the library."""
    import numpy as np

    t0 = time.perf_counter()
    for _ in range(300):
        np.linalg.eigh(small)
    for _ in range(2):
        np.linalg.eigh(large)
    return time.perf_counter() - t0


class MachineSpeed:
    """Scales measured intervals to the reference machine speed.

    The benchmark's machine is a share of a busy host: for seconds to minutes
    at a time the same code runs up to twice as slow, process CPU time
    tracking wall time. A fixed probe (small and medium eigendecompositions,
    the numpy work the workloads spend their time in) slows with it. Each
    interval is scaled by PROBE_REF_S over the mean of the probes run just
    before and just after it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        small, large = rng.standard_normal((8, 8)), rng.standard_normal((200, 200))
        self._matrices = (small + small.T, large + large.T)
        self.probes = [probe_seconds(*self._matrices)]

    def adjust(self, seconds: float) -> float:
        """``seconds`` of the interval that just ended, at reference speed."""
        self.probes.append(probe_seconds(*self._matrices))
        return seconds * 2.0 * PROBE_REF_S / (self.probes[-2] + self.probes[-1])

    def slowdown(self) -> float:
        """Median probe time as a multiple of the reference."""
        return statistics.median(self.probes) / PROBE_REF_S


def quality(samples: list[Sample]) -> dict[str, float]:
    done = [s.outcome for s in samples if s.outcome is not None]
    out = {
        "exact_rate": sum(o.exact for o in done) / len(samples),
        "error_rate": sum(not s.ok for s in samples) / len(samples),
    }
    if any(o.released is not None for o in done):
        out["release_rate"] = sum(bool(o.released) for o in done) / len(samples)
    return out


def _tail_note(times: list[float]) -> str:
    top = m.highest_percentile(len(times))
    if top is None or top <= 50:
        return ""
    return f"; p{top:g} = {m.percentile(times, top):.6g} s"


def print_metric(workload: str, name: str, value: float, note: str = "") -> None:
    print(f"{workload:<21} {name:<26} {value:>14.6g} {m.UNITS[name]:<6}{note}")


def set_up(wl, workload, seeds: list[int], workdir: Path, tracer: Tracer | None = None,
           ) -> tuple[list, float]:
    """Generate the instances and warm up: (tasks, seconds taken)."""
    t0 = time.perf_counter()
    if tracer is None:
        tasks = [workload.make(s, workdir) for s in seeds]
    else:
        with installed(tracer, library_targets()):
            tasks = [workload.make(s, workdir) for s in seeds]
    wl.warm_up(workload)
    return tasks, time.perf_counter() - t0


def run(args, wl, workload, reference: dict, workdir: Path) -> int:
    seeds = wl.visiting_order(workload, args.seed)
    tracer = Tracer() if args.trace else None
    speed = None if args.trace else MachineSpeed()
    tasks, first_setup = set_up(wl, workload, seeds, workdir, tracer)

    if tracer is None:
        # Machine speed drifts over seconds, so set-up rounds (an import
        # probe and a set-up each) are spread over the measured time rather
        # than taken back to back.
        raw_setups = [first_setup]
        setups = [speed.adjust(first_setup)]
        raw_imports = [import_seconds()]
        imports = [speed.adjust(raw_imports[0])]
        samples: list[Sample] = []
        timed: list[tuple[int, float]] = []
        op_time = 0.0
        for sample in operations(itertools.cycle(tasks), args.seed, reference):
            samples.append(sample)
            timed.append((sample.instance, speed.adjust(sample.seconds)))
            op_time += sample.seconds
            due = 1 + int(op_time / args.seconds * (SETUP_ROUNDS - 1))
            while len(setups) < min(SETUP_ROUNDS, due):
                raw_imports.append(import_seconds())
                imports.append(speed.adjust(raw_imports[-1]))
                raw_setups.append(set_up(wl, workload, seeds, workdir)[1])
                setups.append(speed.adjust(raw_setups[-1]))
            if op_time >= args.seconds and len(samples) >= len(tasks):
                break
        times = [t for _, t in timed]
        per_instance = m.instance_medians(timed)
        values = {
            "ops_per_s": ops_per_s(timed),
            "op_s_p50": statistics.median(per_instance),
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        measured = {
            "ops_per_s_measured": ops_per_s(raw_times(samples)),
            "op_s_p50_measured": statistics.median(m.instance_medians(raw_times(samples))),
            "setup_s_measured": (statistics.median(raw_imports)
                                 + statistics.median(raw_setups)),
            "machine_slowdown": speed.slowdown(),
        }
        notes = {"op_s_p50": f" (median over {len(per_instance)} instances of "
                             f"each one's median; {len(times)} operations"
                             + _tail_note(times) + ")",
                 "setup_s": f" (median of {len(imports)} imports + median of "
                            f"{len(setups)} set-ups)",
                 "machine_slowdown": f" (median of {len(speed.probes)} probes)"}
    else:
        base = list(operations(tasks, args.seed, reference))
        with installed(tracer, library_targets()):
            traced = list(operations(tasks, args.seed, reference, tracer))
        samples = base + traced
        peak = first_solve_peak(lambda: tasks[0].execute(args.seed))
        values = m.layer_metrics(
            tracer, ops_per_s(raw_times(traced)) / ops_per_s(raw_times(base)), peak)
        measured = {}
        notes = {}
        tracer.write(OUT_DIR / f"spans-{workload.name}.json")

    rates = quality(samples)
    for name, value in {**values, **measured, **rates}.items():
        print_metric(workload.name, name, value, notes.get(name, ""))
    failed = sum(not s.ok for s in samples)
    lo, hi = workload.exact_range
    exact_ok = lo <= rates["exact_rate"] <= hi
    if not exact_ok:
        print(f"perfbench: exact_rate {rates['exact_rate']:.3f} outside "
              f"[{lo}, {hi}]", file=sys.stderr)
    print("perfbench-report " + json.dumps({**values, **measured, **rates}))
    declared = m.BENCHMARK["per_layer" if args.trace else "end_to_end"]
    print(json.dumps(m.result_line(values, declared, len(samples), failed,
                                   failed == 0 and exact_ok)))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    cpus_usable = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        cpus_usable = len(os.sched_getaffinity(0))
    cpu = pin_cpu()
    pin_blas_threads()
    try:
        wl = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    reference = json.loads((BENCH_DIR / "reference.json").read_text())[workload.name]
    print("perfbench-env " + json.dumps(environment(args, cpus_usable, cpu)))
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, wl, workload, reference, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
