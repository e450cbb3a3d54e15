"""Metric units, summary statistics and the result line of one run."""

from __future__ import annotations

import json
import math
import re
import statistics
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from spans import LayerTime, Tracer, layer_times

# BENCHMARK.json declares the workloads, the metrics with their units and
# directions, and the end-to-end bounds
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text())

# what BENCHMARK.json accepts as a workload or metric name
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Printed by name but not declared in BENCHMARK.json. The quality rates
# depend on the release noise, are 0 by design on some workloads, or are
# gated through the output check. The *_measured times are the bounded ones
# before scaling to the reference machine speed, and machine_slowdown is
# the scale.
UNDECLARED_UNITS = {"exact_rate": "ratio", "release_rate": "ratio", "error_rate": "ratio",
                    "ops_per_s_measured": "1/s", "op_s_p50_measured": "s",
                    "setup_s_measured": "s", "machine_slowdown": "ratio"}

# Counts that must repeat exactly between runs of the same code and seed.
DETERMINISTIC = ("sdp.solve.iterations", "sdp.eigh.calls", "sdp.eigvalsh.calls",
                 "privacy.search.evals", "privacy.recover.calls",
                 "graph.neighbors.count", "exact_rate", "release_rate")

UNITS = {**{e["name"]: e["unit"] for e in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]},
         **UNDECLARED_UNITS}

# eigh/eigvalsh spans count towards the solver only when a solver span is the
# innermost one open around them.
SOLVER_EIGEN = {"linalg.eigh": ("sdp.solve", "sdp.round"),
                "linalg.eigvalsh": ("sdp.solve",)}


_NOT_RUN = LayerTime(0.0, 0.0, 0)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def highest_percentile(count: int, levels=(99.9, 99.0, 90.0, 50.0)) -> float | None:
    """Highest percentile in ``levels`` with at least ten samples beyond it."""
    for level in sorted(levels, reverse=True):
        if count * (1.0 - level / 100.0) >= 10.0 - 1e-9:
            return level
    return None


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest value with ``level``% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(level / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def instance_medians(timed: Iterable[tuple[object, float]]) -> list[float]:
    """Median time of each instance, in order of first appearance.

    ``timed`` holds (instance, seconds) pairs.
    """
    by_instance: dict[object, list[float]] = {}
    for instance, seconds in timed:
        by_instance.setdefault(instance, []).append(seconds)
    return [statistics.median(v) for v in by_instance.values()]


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def search_evals(tracer: Tracer) -> int:
    """Neighbour evaluations of the distance search.

    A search calls ``recover`` once on the base graph and then once per
    neighbour, so each search contributes its ``recover`` children less one.
    """
    per_search = Counter(p for name, p in zip(tracer.names, tracer.parents)
                         if name == "privacy.recover" and p >= 0
                         and tracer.names[p] == "privacy.search")
    return sum(n - 1 for n in per_search.values())


def layer_metrics(tracer: Tracer, overhead_ratio: float, solve_peak_bytes: int,
                  ) -> dict[str, float]:
    """Every per-layer metric from the spans and counts of a traced run."""
    t = layer_times(tracer, SOLVER_EIGEN)

    def get(name):
        return t.get(name, _NOT_RUN)

    c = tracer.counts
    solve = get("sdp.solve")
    check = get("concentration.check")
    releases = c["bench.releases"]
    return {
        "sdp.eigh.s": get("linalg.eigh").total_s,
        "sdp.eigh.calls": get("linalg.eigh").calls,
        "sdp.solve.s": solve.total_s,
        "sdp.solve.self_s": solve.self_s,
        "sdp.solve.calls": solve.calls,
        "sdp.solve.iterations": c["sdp.solve.iterations"],
        "sdp.eigvalsh.s": get("linalg.eigvalsh").total_s,
        "sdp.eigvalsh.calls": get("linalg.eigvalsh").calls,
        "sdp.certified_ratio": ratio(c["sdp.solve.certified"], solve.calls),
        "sdp.problem.s": get("sdp.problem").total_s,
        "sdp.round.s": get("sdp.round").total_s,
        "sdp.peak_alloc_bytes": solve_peak_bytes,
        "graph.to_dense.s": get("graph.to_dense").total_s,
        "graph.to_dense.calls": get("graph.to_dense").calls,
        "graph.neighbors.s": get("graph.neighbors").total_s,
        "graph.neighbors.count": c["graph.neighbors.count"],
        "concentration.check.s": check.total_s,
        "concentration.check.calls": check.calls,
        "concentration.pass_ratio": ratio(c["concentration.check.passed"], check.calls),
        "certificates.build.s": get("certificates.build").total_s,
        "certificates.verify.s": get("certificates.verify").total_s,
        "harness.diagnostics.s": get("harness.diagnostics").total_s,
        "harness.trial.s": get("harness.trial").total_s,
        "privacy.search.s": get("privacy.search").total_s,
        "privacy.search.evals": search_evals(tracer),
        "privacy.recover.calls": get("privacy.recover").calls,
        "privacy.fast_path_ratio": ratio(c["bench.fast_path"], releases),
        "models.generate.s": get("models.generate").total_s,
        "trace.overhead_ratio": overhead_ratio,
    }


def result_line(values: dict[str, float], declared: Sequence[dict], attempted: int,
                failed: int, correct: bool) -> dict:
    """The last line a run prints: verdict, operation counts, declared metrics.

    ``declared`` is BENCHMARK.json's ``end_to_end`` or ``per_layer`` list.
    """
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                        for d in declared}}
