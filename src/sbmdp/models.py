"""Model parameters, seeded generation, and ground-truth bookkeeping.

Three block-model variants are supported:

* ``basbm`` -- two clusters of sizes floor(rho*n) and the remainder;
  intra-cluster pairs connect with p = a*log(n)/n, inter with q = b*log(n)/n.
* ``cbsbm`` -- every pair connects with p = a*log(n)/n; a present edge
  carries label sigma_i*sigma_j, flipped independently with probability xi.
* ``gssbm`` -- r clusters of sizes floor(rho_k*n) plus outliers; intra pairs
  use p, every other pair (including outlier-incident) uses q.

Generation draws one uniform stream from a counter-based Philox generator
keyed by the seed; the pair {i, j} always consumes the stream position
equal to its row-major upper-triangle rank (censored label flips use a
second block of the same stream, offset by the pair count). Sampling is
therefore order-independent and bit-stable for a fixed (params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import InvalidParams
from .graph import CENSORED, SIMPLE, Graph

BASBM = "basbm"
CBSBM = "cbsbm"
GSSBM = "gssbm"


@dataclass(frozen=True)
class _Params:
    """Fields, rates and checks every variant shares."""

    n: int
    a: float

    def validate(self) -> None:
        """The one check that the model can be generated and solved: raises
        InvalidParams unless n >= 2, the variant's rates and fractions lie
        in range, every cluster has a vertex (floor(rho_k*n) >= 1) and
        p = a*log(n)/n <= 1."""
        if self.n < 2:
            raise InvalidParams("n must be at least 2")
        self._validate_variant()
        if self.p > 1.0:
            raise InvalidParams(f"a*log(n)/n = {self.p:.4f} exceeds 1")

    @property
    def log_n(self) -> float:
        return math.log(self.n)

    @property
    def p(self) -> float:
        return self.a * self.log_n / self.n


@dataclass(frozen=True)
class BasbmParams(_Params):
    b: float
    rho: float = 0.5

    variant = BASBM

    def _validate_variant(self) -> None:
        if not (self.a > self.b > 0):
            raise InvalidParams(f"need a > b > 0, got a={self.a}, b={self.b}")
        if not (0 < self.rho <= 0.5) or self.first_cluster_size < 1:
            raise InvalidParams(f"rho must lie in (0, 0.5] with no empty cluster, "
                                f"got {self.rho} at n = {self.n}")

    @property
    def q(self) -> float:
        return self.b * self.log_n / self.n

    @property
    def first_cluster_size(self) -> int:
        return int(math.floor(self.rho * self.n))


@dataclass(frozen=True)
class CbsbmParams(_Params):
    xi: float
    rho: float = 0.5

    variant = CBSBM

    def _validate_variant(self) -> None:
        if not self.a > 0:
            raise InvalidParams(f"need a > 0, got {self.a}")
        if not (0.0 <= self.xi <= 0.5):
            raise InvalidParams(f"xi must lie in [0, 0.5], got {self.xi}")
        if not (0 < self.rho <= 0.5) or self.first_cluster_size < 1:
            raise InvalidParams(f"rho must lie in (0, 0.5] with no empty cluster, "
                                f"got {self.rho} at n = {self.n}")

    @property
    def first_cluster_size(self) -> int:
        return int(math.floor(self.rho * self.n))


@dataclass(frozen=True)
class GssbmParams(_Params):
    b: float
    rhos: tuple[float, ...]

    variant = GSSBM

    def _validate_variant(self) -> None:
        if not (self.a > self.b > 0):
            raise InvalidParams(f"need a > b > 0, got a={self.a}, b={self.b}")
        if not self.rhos:
            raise InvalidParams("need at least one cluster fraction")
        if not all(0 < r <= 1 for r in self.rhos):
            raise InvalidParams(f"cluster fractions must lie in (0, 1], got {self.rhos}")
        if list(self.rhos) != sorted(self.rhos, reverse=True):
            raise InvalidParams("cluster fractions must be nonincreasing")
        if min(self.sizes) < 1 or sum(self.sizes) > self.n:
            raise InvalidParams(f"cluster sizes {self.sizes} must leave no empty cluster "
                                f"and sum to at most n = {self.n}")

    @property
    def q(self) -> float:
        return self.b * self.log_n / self.n

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int(math.floor(r * self.n)) for r in self.rhos)


SbmParams = Union[BasbmParams, CbsbmParams, GssbmParams]


def whole_number(key: str, value) -> int:
    """A field that must be a whole number, as an int: a boolean or a
    number with a fractional part is refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidParams(f"{key} must be an integer, got {value!r}")
    return int(value)


def params_from_dict(d: dict) -> SbmParams:
    """The variant's params from their JSON form, without ``validate``; a
    missing, non-numeric or (for ``n``) non-integral field raises
    InvalidParams."""
    variant = d.get("variant")
    try:
        if variant == BASBM:
            return BasbmParams(n=whole_number("n", d["n"]), a=float(d["a"]),
                               b=float(d["b"]), rho=float(d.get("rho", 0.5)))
        if variant == CBSBM:
            return CbsbmParams(n=whole_number("n", d["n"]), a=float(d["a"]),
                               xi=float(d["xi"]), rho=float(d.get("rho", 0.5)))
        if variant == GSSBM:
            return GssbmParams(n=whole_number("n", d["n"]), a=float(d["a"]),
                               b=float(d["b"]),
                               rhos=tuple(float(r) for r in d["rhos"]))
    except KeyError as exc:
        raise InvalidParams(f"missing field {exc} for variant {variant!r}") from None
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"a field of variant {variant!r} is not a number: {exc}"
                            ) from None
    raise InvalidParams(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class GroundTruth:
    """Planted assignment: +-1 labels for binary variants, 0..r for gssbm.

    For the general variant, label 0 marks an outlier and labels 1..r index
    clusters in nonincreasing size order.
    """

    variant: str
    assignment: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.assignment, dtype=np.int64).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "assignment", arr)

    @property
    def n(self) -> int:
        return int(self.assignment.size)

    @property
    def sigma(self) -> np.ndarray:
        """The +-1 cluster vector (binary variants only)."""
        if self.variant == GSSBM:
            raise InvalidParams("sigma is undefined for the general variant")
        return self.assignment.astype(np.float64)

    @property
    def first_cluster_size(self) -> int:
        if self.variant == GSSBM:
            raise InvalidParams("binary cluster size undefined for gssbm")
        return int(np.count_nonzero(self.assignment == 1))

    @property
    def sizes(self) -> tuple[int, ...]:
        """Cluster sizes; (K, n-K) for binary, (K_1..K_r) for gssbm."""
        if self.variant == GSSBM:
            return tuple(int(c) for c in cluster_indicator(self.assignment).sum(axis=0))
        k = self.first_cluster_size
        return (k, self.n - k)


def cluster_indicator(assign: np.ndarray) -> np.ndarray:
    """n x r one-hot membership of a general assignment (0 = outlier)."""
    r = int(assign.max(initial=0))
    return (assign[:, None] == np.arange(1, r + 1)).astype(np.float64)


def same_cluster(labels: np.ndarray) -> np.ndarray:
    """n x n boolean relation: the pairs that share a nonzero label.

    This is the one reading of a clustering's labels, +-1 for the binary
    variants and 1..r with 0 for outliers for the general one; the diagonal
    marks the clustered vertices.
    """
    labels = np.asarray(labels)
    return (labels[:, None] == labels[None, :]) & (labels[:, None] != 0)


def _same_pairs(assign: np.ndarray) -> np.ndarray:
    """``same_cluster(assign)`` over the pairs i < j in row-major pair order,
    for an assignment in which each label fills one contiguous run.

    Row i's pairs start with the rest of its run, which shares its label
    when that is nonzero, so the relation is 2n alternating runs of True
    and False, built without the n x n matrix.
    """
    n = assign.size
    starts = np.flatnonzero(np.diff(assign, prepend=assign[:1] - 1))
    ends = np.repeat(np.append(starts[1:], n), np.diff(starts, append=n))
    row = n - 1 - np.arange(n)
    inside = np.where(assign != 0, ends - 1 - np.arange(n), 0)
    return np.repeat(np.tile([True, False], n),
                     np.column_stack((inside, row - inside)).ravel())


def generate(params: SbmParams, seed: int) -> tuple[Graph, GroundTruth]:
    """Sample a graph and its planted assignment, deterministically per seed."""
    params.validate()
    if not 0 <= seed < 2**64:
        raise InvalidParams(f"seed must lie in [0, 2^64), got {seed}")
    n = params.n
    if params.variant == GSSBM:
        sizes = params.sizes
        gt = GroundTruth(GSSBM, np.repeat([*range(1, len(sizes) + 1), 0],
                                          [*sizes, n - sum(sizes)]))
    else:
        k1 = params.first_cluster_size
        gt = GroundTruth(params.variant, np.repeat([1, -1], [k1, n - k1]))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    same = _same_pairs(gt.assignment)

    if params.variant == CBSBM:
        # one stream for presence, one for label flips
        present = rng.random(same.size) < params.p
        flipped = rng.random(same.size) < params.xi
        signs = np.where(same, 1, -1)
        values = np.where(present, np.where(flipped, -signs, signs), 0)
        return Graph(n, CENSORED, values.astype(np.int8)), gt

    u = rng.random(same.size)
    present = np.less(u, params.q)
    np.less(u, params.p, out=present, where=same)
    return Graph(n, SIMPLE, present.view(np.int8)), gt


def expected_adjacency(params: SbmParams, gt: GroundTruth) -> np.ndarray:
    """Entrywise expectation of the generated adjacency; zero diagonal."""
    if gt.n != params.n:
        raise InvalidParams("ground truth size does not match params")
    same = same_cluster(gt.assignment)
    if params.variant == CBSBM:
        signal = (1.0 - 2.0 * params.xi) * params.p
        ea = np.where(same, signal, -signal)
    else:
        ea = np.where(same, params.p, params.q)
    np.fill_diagonal(ea, 0.0)
    return ea


def cluster_matrix(gt: GroundTruth) -> np.ndarray:
    """sigma*sigma^T for binary variants; sum of indicator outer products else."""
    return assignment_to_cluster_matrix(gt.variant, gt.assignment)


def same_clustering(m1: np.ndarray, m2: np.ndarray) -> bool:
    """True iff two cluster matrices induce identical partitions.

    For binary variants the matrix is invariant under a global sign flip of
    sigma, and for the general variant under cluster relabeling, so exact
    entrywise equality is the right test for both.
    """
    m1 = np.asarray(m1)
    m2 = np.asarray(m2)
    if m1.shape != m2.shape:
        raise InvalidParams(f"cluster matrices differ in shape: {m1.shape} vs {m2.shape}")
    return bool(np.array_equal(m1, m2))


def same_partition(labels1: np.ndarray, labels2: np.ndarray) -> bool:
    """True iff two label vectors relate the same pairs (:func:`same_cluster`).

    A cluster matrix is a function of that relation alone, so this is
    :func:`same_clustering` on the two labellings' cluster matrices,
    without forming them.
    """
    labels1 = np.asarray(labels1)
    labels2 = np.asarray(labels2)
    if labels1.shape != labels2.shape:
        raise InvalidParams(
            f"label vectors differ in shape: {labels1.shape} vs {labels2.shape}")
    return bool(np.array_equal(same_cluster(labels1), same_cluster(labels2)))


def assignment_to_cluster_matrix(variant: str, assignment: np.ndarray) -> np.ndarray:
    """1 on same-cluster pairs; -1 (binary) or 0 (gssbm) everywhere else."""
    return np.where(same_cluster(assignment), 1.0, 0.0 if variant == GSSBM else -1.0)

