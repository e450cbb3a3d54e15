"""Test-support code the library itself does not use.

Random flip sets and the radius-bounded neighbour enumeration, used as
oracles and fixtures by the graph, concentration and acceptance tests, and
a caching SDP estimator for the mechanism audits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from sbmdp.errors import AlphabetViolation, DuplicateEdge, IndexOutOfRange
from sbmdp.graph import (
    ALPHABETS,
    Graph,
    _unrank,
    neighbors_at_distance,
    pair_count,
    pair_rank,
)
from sbmdp.sdp import recover_many


@dataclass(frozen=True)
class GraphDelta:
    """A set of entry flips, each (i, j, new_value) with i < j and distinct pairs."""

    flips: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for i, j, _ in self.flips:
            if i >= j:
                raise IndexOutOfRange("delta positions must satisfy i < j")
            if (i, j) in seen:
                raise DuplicateEdge(f"position ({i}, {j}) flipped twice")
            seen.add((i, j))

    def apply(self, g: Graph) -> Graph:
        values = g.values.copy()
        for i, j, v in self.flips:
            g._check_pair(i, j)
            if v not in ALPHABETS[g.alphabet]:
                raise AlphabetViolation(f"value {v} not in {g.alphabet} alphabet")
            values[pair_rank(i, j, g.n)] = v
        return Graph(g.n, g.alphabet, values)

    def __len__(self) -> int:
        return len(self.flips)


def neighbors_within(g: Graph, radius: int) -> Iterator[Graph]:
    """Lazily yield every graph at Hamming distance 1..radius from ``g``.

    Graphs come out in nondecreasing distance order, each exactly once.
    """
    if radius < 0:
        raise IndexOutOfRange("radius must be nonnegative")
    for k in range(1, radius + 1):
        yield from neighbors_at_distance(g, k)


def random_delta(
    g: Graph, flips: int, rng: np.random.Generator
) -> GraphDelta:
    """Sample a delta of exactly ``flips`` distinct positions with changed values."""
    m = pair_count(g.n)
    if flips > m:
        raise IndexOutOfRange(f"cannot flip {flips} of {m} positions")
    positions = rng.choice(m, size=flips, replace=False)
    out = []
    alphabet = ALPHABETS[g.alphabet]
    for pos in sorted(int(p) for p in positions):
        i, j = _unrank(pos, g.n)
        current = int(g.values[pos])
        choices = [v for v in alphabet if v != current]
        v = choices[int(rng.integers(len(choices)))]
        out.append((i, j, v))
    return GraphDelta(tuple(out))


def cached_estimator(params, opts, cache: dict):
    """The SDP estimator over a cache shared between calls.

    Yields the cached outputs of a batch first, then solves the rest as one
    :func:`sbmdp.sdp.recover_many` batch; every output is the graph's
    ``recover(...).matrix``, so caching changes nothing but the time.
    """
    def estimator(graphs):
        todo = []
        for i, h in enumerate(graphs):
            if h in cache:
                yield i, cache[h]
            else:
                todo.append(i)
        for j, res in recover_many([graphs[i] for i in todo], params, opts):
            cache[graphs[todo[j]]] = res.matrix
            yield todo[j], res.matrix
    return estimator
