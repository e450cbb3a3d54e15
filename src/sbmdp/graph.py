"""Immutable symmetric graphs over a binary or censored edge alphabet.

Graphs store the strict upper triangle only, in row-major pair order, as an
int8 array. Entries of simple graphs are {0, 1}; censored graphs carry
{-1, 0, +1} where 0 means "no edge" and the sign is the edge label. The
diagonal is implicitly zero and queries are symmetric.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterator

import numpy as np

from .errors import InvalidParams, ParseError

SIMPLE = "simple"
CENSORED = "censored"

ALPHABETS = {SIMPLE: (0, 1), CENSORED: (-1, 0, 1)}


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@functools.lru_cache(maxsize=16)
def upper_triangle(n: int) -> np.ndarray:
    """Read-only n x n mask of the strict upper triangle.

    Boolean indexing with it visits the pairs i < j in row-major pair
    order, the order of a graph's values, and it takes n^2 bytes where
    ``np.triu_indices`` builds two int64 arrays of n(n-1)/2 entries.
    """
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


@functools.lru_cache(maxsize=16)
def off_diagonal(n: int) -> np.ndarray:
    """Read-only flat indices of the off-diagonal entries of an n x n matrix."""
    off = np.flatnonzero(~np.eye(n, dtype=bool))
    off.flags.writeable = False
    return off


def _within(values: np.ndarray, allowed: tuple[int, ...]) -> bool:
    """Whether every entry lies in ``allowed``, a run of consecutive integers.

    Integer input needs only its two ends; any other dtype (floats such as
    0.5 lie between the ends) is tested entry by entry.
    """
    if values.dtype.kind in "iu":
        return allowed[0] <= values.min() and values.max() <= allowed[-1]
    return bool(np.isin(values, allowed).all())


def pair_rank(i: int, j: int, n: int) -> int:
    """Row-major rank of the unordered pair {i, j} (i < j) in the upper triangle."""
    if i > j:
        i, j = j, i
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


class Graph:
    """Symmetric graph over one alphabet.

    Instances are immutable (the backing array is write-locked), hashable,
    and safe to share between workers.
    """

    __slots__ = ("n", "alphabet", "_values", "_hash", "_dense")

    def __init__(self, n: int, alphabet: str, values: np.ndarray):
        if alphabet not in ALPHABETS:
            raise InvalidParams(f"unknown alphabet tag {alphabet!r}")
        if values.shape != (pair_count(n),):
            raise InvalidParams(
                f"expected {pair_count(n)} upper-triangle values, got {values.shape}")
        allowed = ALPHABETS[alphabet]
        if values.size and not _within(values, allowed):
            raise InvalidParams(f"values outside alphabet {allowed}")
        self.n = n
        self.alphabet = alphabet
        arr = np.asarray(values, dtype=np.int8).copy()
        arr.flags.writeable = False
        self._values = arr
        self._hash = None
        self._dense = None

    @property
    def values(self) -> np.ndarray:
        """Read-only upper-triangle entries in row-major pair order."""
        return self._values

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        """Dense symmetric adjacency matrix with zero diagonal.

        The float64 one is built once per graph and returned read-only on
        every call; any other dtype gets a fresh array.
        """
        if np.dtype(dtype) != np.float64:
            return self._densify(dtype)
        if self._dense is None:
            a = self._densify(np.float64)
            a.flags.writeable = False
            self._dense = a
        return self._dense

    def _densify(self, dtype) -> np.ndarray:
        upper = upper_triangle(self.n)
        a = np.zeros((self.n, self.n), dtype=dtype)
        a[upper] = self._values
        a.T[upper] = self._values
        return a

    def degrees(self) -> np.ndarray:
        """Row sums of the dense adjacency, summed exactly in int64."""
        return self.to_dense(np.int8).sum(axis=1, dtype=np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.alphabet == other.alphabet
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.alphabet, self._values.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        nnz = int(np.count_nonzero(self._values))
        return f"Graph(n={self.n}, alphabet={self.alphabet!r}, edges={nnz})"


def neighbors_at_distance(g: Graph, k: int) -> Iterator[Graph]:
    """Lazily yield every graph at Hamming distance exactly ``k`` from ``g``.

    At each chosen position every alphabet value other than the current one
    is substituted, hence a censored position contributes two alternatives.
    Deterministic order: positions lexicographic, values ascending.
    """
    m = pair_count(g.n)
    if k < 1 or k > m:
        return
    alphabet = ALPHABETS[g.alphabet]
    base = g.values
    for positions in itertools.combinations(range(m), k):
        alternatives = [
            [v for v in alphabet if v != base[pos]] for pos in positions
        ]
        for combo in itertools.product(*alternatives):
            values = base.copy()
            values[list(positions)] = combo
            yield Graph(g.n, g.alphabet, values)


def ball_size(n: int, alphabet: str, radius: int) -> int:
    """How many graphs lie at Hamming distance 1..radius from any graph.

    Sum over k = 1..radius of C(m, k) * (|alphabet| - 1)^k, m = n(n-1)/2,
    the graphs :func:`neighbors_at_distance` yields over k = 1..radius; it
    depends on the size and alphabet only, never on the entries.
    """
    m = pair_count(n)
    alternatives = len(ALPHABETS[alphabet]) - 1
    return sum(math.comb(m, k) * alternatives ** k
               for k in range(1, min(radius, m) + 1))


def write_edge_list(g: Graph) -> str:
    """Serialize to the text edge-list format.

    Header line is ``n <count> <alphabet_tag>``; each body line is ``i j``
    for simple graphs and ``i j <label>`` for censored ones. ASCII,
    newline-separated, space-delimited, no trailing whitespace.
    """
    rows, cols = np.nonzero(upper_triangle(g.n))
    nz = np.flatnonzero(g.values)
    lines = [f"n {g.n} {g.alphabet}"]
    for i, j, v in zip(rows[nz].tolist(), cols[nz].tolist(), g.values[nz].tolist()):
        lines.append(f"{i} {j}" if g.alphabet == SIMPLE else f"{i} {j} {v}")
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format produced by :func:`write_edge_list`."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", line=1)
    header = lines[0].split()
    if len(header) != 3 or header[0] != "n":
        raise ParseError(f"bad header {lines[0]!r}", line=1)
    try:
        n = int(header[1])
    except ValueError:
        raise ParseError(f"bad vertex count {header[1]!r}", line=1) from None
    alphabet = header[2]
    if alphabet not in ALPHABETS:
        raise ParseError(f"unknown alphabet tag {alphabet!r}", line=1)
    if n < 0:
        raise ParseError("vertex count must be nonnegative", line=1)
    values = np.zeros(pair_count(n), dtype=np.int8)
    seen = np.zeros(pair_count(n), dtype=bool)
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 'i j [label]', got {raw!r}", line=lineno)
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"bad vertex index in {raw!r}", line=lineno) from None
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise ParseError(f"pair ({i}, {j}) invalid for n={n}", line=lineno)
        if len(parts) == 3:
            try:
                v = int(parts[2])
            except ValueError:
                raise ParseError(f"bad label in {raw!r}", line=lineno) from None
        else:
            v = 1
        if v == 0 or v not in ALPHABETS[alphabet]:
            raise ParseError(f"label {v} invalid for {alphabet} graph", line=lineno)
        rank = pair_rank(i, j, n)
        if seen[rank]:
            raise ParseError(f"pair ({i}, {j}) listed twice", line=lineno)
        seen[rank] = True
        values[rank] = v
    return Graph(n, alphabet, values)
