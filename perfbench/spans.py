"""In-memory span tracer, and the rebinding of library functions it traces.

The library is not edited to be traced. Instead :func:`installed` rebinds
module attributes that callers look up at run time (``sbmdp.sdp.solve``,
``numpy.linalg.eigh``, ``Graph.to_dense`` ...) to wrappers that open a span
around the original call, and restores the originals on exit.

A span has a name, a start, an end, the index of its parent span (-1 for a
root) and the id of the operation it belongs to. A layer's self time is its
span time minus the time of its direct children; spans on one thread never
overlap their siblings, so that is the part of the interval no child covers.
"""

from __future__ import annotations

import functools
import json
import math
import time
import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable


class Tracer:
    """Spans and counts of one run, kept in memory until written out."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self.ops: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: Counter = Counter()
        self.op = "setup"
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.ops.append(self.op)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(self._clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self._clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path: Path) -> None:
        """Write every span as columns of one JSON object."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"name": self.names, "op": self.ops,
                       "start": self.starts.tolist(), "end": self.ends.tolist(),
                       "parent": self.parents.tolist()}, fh)


@dataclass(frozen=True)
class LayerTime:
    total_s: float
    self_s: float
    calls: int


def layer_times(tracer: Tracer, under: dict[str, tuple[str, ...]] | None = None,
                ) -> dict[str, LayerTime]:
    """Total time, self time and call count of every span name.

    ``under`` restricts a name to spans whose direct parent carries one of
    the given names (an ``eigh`` counts as a solver ``eigh`` only when the
    solver span is the innermost one open around it).
    """
    under = under or {}
    n = len(tracer.names)
    child = [0.0] * n
    for i in range(n):
        p = tracer.parents[i]
        if p >= 0:
            child[p] += tracer.ends[i] - tracer.starts[i]
    total: Counter = Counter()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for i, name in enumerate(tracer.names):
        allowed = under.get(name)
        if allowed is not None:
            p = tracer.parents[i]
            if p < 0 or tracer.names[p] not in allowed:
                continue
        dur = tracer.ends[i] - tracer.starts[i]
        total[name] += dur
        self_s[name] += dur - child[i]
        calls[name] += 1
    return {name: LayerTime(total[name], self_s[name], calls[name]) for name in calls}


# ---------------------------------------------------------------------------
# wrappers


def timed(name: str, after: Callable | None = None):
    """Wrapper factory: a span named ``name`` around each call.

    ``after(tracer, args, result)`` records counts from the call's result.
    """
    def make(tracer: Tracer, orig: Callable) -> Callable:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, args, result)
            return result
        return wrapper
    return make


def _after_solve(tracer, args, sol):
    tracer.count("sdp.solve.iterations", int(sol.iterations))
    tracer.count("sdp.solve.certified", int(sol.certified))


def _after_check(tracer, args, report):
    tracer.count("concentration.check.passed", int(report.passed))


class _FirstSolveDone(Exception):
    """Abandons a probed operation once its first solve has returned."""


def first_solve_peak(execute: Callable[[], object]) -> int:
    """Peak bytes allocated during the first ``sdp.solve`` of one operation.

    Allocation tracing slows Python-heavy code several times over, so it is
    kept out of the traced pass: this probe traces one solve on its own and
    abandons the rest of the operation.
    """
    from sbmdp import sdp

    peaks = []

    def make(tracer, orig):
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                orig(*args, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            raise _FirstSolveDone
        return wrapper

    with installed(Tracer(), [(sdp, "solve", make)]):
        try:
            execute()
        except _FirstSolveDone:
            pass
    if not peaks:
        raise RuntimeError("the probed operation made no SDP solve")
    return peaks[0]


def traced_neighbors(tracer: Tracer, orig: Callable) -> Callable:
    """Generator wrapper: one ``graph.neighbors`` span per neighbour produced."""
    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        it = orig(*args, **kwargs)
        while True:
            idx = tracer.open("graph.neighbors")
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            tracer.count("graph.neighbors.count")
            yield item
    return wrapper


def library_targets() -> list[tuple[object, str, Callable]]:
    """(owner, attribute, wrapper factory) for every traced boundary."""
    import numpy
    from sbmdp import graph, harness, models, privacy, sdp

    return [
        (numpy.linalg, "eigh", timed("linalg.eigh")),
        (numpy.linalg, "eigvalsh", timed("linalg.eigvalsh")),
        (graph.Graph, "to_dense", timed("graph.to_dense")),
        (models, "generate", timed("models.generate")),
        (harness, "generate", timed("models.generate")),
        (sdp, "problem_from_graph", timed("sdp.problem")),
        (sdp, "solve", timed("sdp.solve", _after_solve)),
        (sdp, "round_binary", timed("sdp.round")),
        (sdp, "round_general", timed("sdp.round")),
        (privacy, "recover", timed("privacy.recover")),
        (privacy, "check_concentration", timed("concentration.check", _after_check)),
        (privacy, "distance_to_instability", timed("privacy.search")),
        (privacy, "neighbors_at_distance", traced_neighbors),
        (harness, "run_trial", timed("harness.trial")),
        (harness, "_diagnostics", timed("harness.diagnostics")),
        (harness, "check_concentration", timed("concentration.check", _after_check)),
        (harness, "build_general", timed("certificates.build")),
        (harness, "verify_general", timed("certificates.verify")),
    ]


@contextmanager
def installed(tracer: Tracer, targets: Iterable[tuple[object, str, Callable]]):
    """Rebind each target attribute to its traced wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, make in targets:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, make(tracer, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
