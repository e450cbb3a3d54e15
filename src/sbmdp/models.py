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

from .errors import InvalidParams, ShapeMismatch
from .graph import CENSORED, SIMPLE, Graph

BASBM = "basbm"
CBSBM = "cbsbm"
GSSBM = "gssbm"


@dataclass(frozen=True)
class BasbmParams:
    n: int
    a: float
    b: float
    rho: float = 0.5

    variant = BASBM

    def validate(self) -> None:
        if self.n < 2:
            raise InvalidParams("n must be at least 2")
        if not (self.a > self.b > 0):
            raise InvalidParams(f"need a > b > 0, got a={self.a}, b={self.b}")
        if not (0 < self.rho <= 0.5):
            raise InvalidParams(f"rho must lie in (0, 0.5], got {self.rho}")
        if self.p > 1.0:
            raise InvalidParams(f"a*log(n)/n = {self.p:.4f} exceeds 1")

    @property
    def log_n(self) -> float:
        return math.log(self.n)

    @property
    def p(self) -> float:
        return self.a * self.log_n / self.n

    @property
    def q(self) -> float:
        return self.b * self.log_n / self.n

    @property
    def first_cluster_size(self) -> int:
        return int(math.floor(self.rho * self.n))


@dataclass(frozen=True)
class CbsbmParams:
    n: int
    a: float
    xi: float
    rho: float = 0.5

    variant = CBSBM

    def validate(self) -> None:
        if self.n < 2:
            raise InvalidParams("n must be at least 2")
        if self.a <= 0:
            raise InvalidParams(f"need a > 0, got {self.a}")
        if not (0.0 <= self.xi <= 0.5):
            raise InvalidParams(f"xi must lie in [0, 0.5], got {self.xi}")
        if not (0 < self.rho <= 0.5):
            raise InvalidParams(f"rho must lie in (0, 0.5], got {self.rho}")
        if self.p > 1.0:
            raise InvalidParams(f"a*log(n)/n = {self.p:.4f} exceeds 1")

    @property
    def log_n(self) -> float:
        return math.log(self.n)

    @property
    def p(self) -> float:
        return self.a * self.log_n / self.n

    @property
    def first_cluster_size(self) -> int:
        return int(math.floor(self.rho * self.n))


@dataclass(frozen=True)
class GssbmParams:
    n: int
    a: float
    b: float
    rhos: tuple[float, ...]

    variant = GSSBM

    def validate(self) -> None:
        if self.n < 2:
            raise InvalidParams("n must be at least 2")
        if not (self.a > self.b > 0):
            raise InvalidParams(f"need a > b > 0, got a={self.a}, b={self.b}")
        if not self.rhos:
            raise InvalidParams("need at least one cluster fraction")
        if any(r <= 0 for r in self.rhos):
            raise InvalidParams("cluster fractions must be positive")
        if list(self.rhos) != sorted(self.rhos, reverse=True):
            raise InvalidParams("cluster fractions must be nonincreasing")
        if sum(self.sizes) > self.n:
            raise InvalidParams("cluster sizes exceed n")
        if self.p > 1.0:
            raise InvalidParams(f"a*log(n)/n = {self.p:.4f} exceeds 1")

    @property
    def log_n(self) -> float:
        return math.log(self.n)

    @property
    def p(self) -> float:
        return self.a * self.log_n / self.n

    @property
    def q(self) -> float:
        return self.b * self.log_n / self.n

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(int(math.floor(r * self.n)) for r in self.rhos)


SbmParams = Union[BasbmParams, CbsbmParams, GssbmParams]


def params_from_dict(d: dict) -> SbmParams:
    variant = d.get("variant")
    try:
        if variant == BASBM:
            return BasbmParams(n=int(d["n"]), a=float(d["a"]), b=float(d["b"]),
                               rho=float(d.get("rho", 0.5)))
        if variant == CBSBM:
            return CbsbmParams(n=int(d["n"]), a=float(d["a"]), xi=float(d["xi"]),
                               rho=float(d.get("rho", 0.5)))
        if variant == GSSBM:
            return GssbmParams(n=int(d["n"]), a=float(d["a"]), b=float(d["b"]),
                               rhos=tuple(float(r) for r in d["rhos"]))
    except KeyError as exc:
        raise InvalidParams(f"missing field {exc} for variant {variant!r}") from None
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
            r = int(self.assignment.max(initial=0))
            return tuple(int(np.count_nonzero(self.assignment == k))
                         for k in range(1, r + 1))
        k = self.first_cluster_size
        return (k, self.n - k)


def cluster_indicator(assign: np.ndarray) -> np.ndarray:
    """n x r one-hot membership of a general assignment (0 = outlier)."""
    r = int(assign.max(initial=0))
    return (assign[:, None] == np.arange(1, r + 1)).astype(np.float64)


def generate(
    params: SbmParams, seed: int, _force_probs: tuple | None = None
) -> tuple[Graph, GroundTruth]:
    """Sample a graph and its planted assignment, deterministically per seed.

    ``_force_probs`` is a test hook overriding (p, q) without touching the
    validated parameters.
    """
    params.validate()
    n = params.n
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    iu = np.triu_indices(n, 1)

    if params.variant == GSSBM:
        assign = np.zeros(n, dtype=np.int64)
        pos = 0
        for k, size in enumerate(params.sizes, start=1):
            assign[pos:pos + size] = k
            pos += size
        gt = GroundTruth(GSSBM, assign)
        p, q = (params.p, params.q) if _force_probs is None else _force_probs
        same = (assign[iu[0]] == assign[iu[1]]) & (assign[iu[0]] > 0)
        probs = np.where(same, p, q)
        u = rng.random(probs.size)
        values = (u < probs).astype(np.int8)
        return Graph(n, SIMPLE, values), gt

    k1 = params.first_cluster_size
    assign = np.full(n, -1, dtype=np.int64)
    assign[:k1] = 1
    gt = GroundTruth(params.variant, assign)

    if params.variant == BASBM:
        p, q = (params.p, params.q) if _force_probs is None else _force_probs
        same = assign[iu[0]] == assign[iu[1]]
        probs = np.where(same, p, q)
        u = rng.random(probs.size)
        values = (u < probs).astype(np.int8)
        return Graph(n, SIMPLE, values), gt

    # censored: one stream for presence, one for label flips
    p = params.p if _force_probs is None else _force_probs[0]
    u_edge = rng.random(iu[0].size)
    u_flip = rng.random(iu[0].size)
    present = u_edge < p
    signs = (assign[iu[0]] * assign[iu[1]]).astype(np.int8)
    flipped = u_flip < params.xi
    labels = np.where(flipped, -signs, signs)
    values = np.where(present, labels, 0).astype(np.int8)
    return Graph(n, CENSORED, values), gt


def expected_adjacency(params: SbmParams, gt: GroundTruth) -> np.ndarray:
    """Entrywise expectation of the generated adjacency; zero diagonal."""
    if gt.n != params.n:
        raise InvalidParams("ground truth size does not match params")
    n = params.n
    if params.variant == BASBM:
        sigma = gt.sigma
        same = np.equal.outer(sigma, sigma)
        ea = np.where(same, params.p, params.q)
    elif params.variant == CBSBM:
        sigma = gt.sigma
        ea = (1.0 - 2.0 * params.xi) * params.p * np.outer(sigma, sigma)
    else:
        assign = gt.assignment
        same = (assign[:, None] == assign[None, :]) & (assign[:, None] > 0)
        ea = np.where(same, params.p, params.q)
    np.fill_diagonal(ea, 0.0)
    return ea


def cluster_matrix(gt: GroundTruth) -> np.ndarray:
    """sigma*sigma^T for binary variants; sum of indicator outer products else."""
    if gt.variant == GSSBM:
        assign = gt.assignment
        z = ((assign[:, None] == assign[None, :]) & (assign[:, None] > 0))
        return z.astype(np.float64)
    sigma = gt.sigma
    return np.outer(sigma, sigma)


def same_clustering(m1: np.ndarray, m2: np.ndarray) -> bool:
    """True iff two cluster matrices induce identical partitions.

    For binary variants the matrix is invariant under a global sign flip of
    sigma, and for the general variant under cluster relabeling, so exact
    entrywise equality is the right test for both.
    """
    m1 = np.asarray(m1)
    m2 = np.asarray(m2)
    if m1.shape != m2.shape:
        raise ShapeMismatch(f"cluster matrices differ in shape: {m1.shape} vs {m2.shape}")
    return bool(np.array_equal(m1, m2))


def assignment_to_cluster_matrix(variant: str, assignment: np.ndarray) -> np.ndarray:
    return cluster_matrix(GroundTruth(variant, np.asarray(assignment)))


def permute_instance(
    g: Graph, gt: GroundTruth, rng: np.random.Generator
) -> tuple[Graph, GroundTruth]:
    """Apply one random vertex relabeling to a generated instance.

    Guards tests and the harness against accidental dependence on the
    contiguous-block vertex order used by :func:`generate`.
    """
    perm = rng.permutation(g.n)
    dense = g.to_dense(dtype=np.int8)
    dense = dense[np.ix_(perm, perm)]
    return Graph.from_dense(dense, g.alphabet), GroundTruth(
        gt.variant, gt.assignment[perm]
    )
