"""Test-support code the library itself does not use.

Reference oracles the tests compare the library against: the brute-force
maximum-likelihood clustering for n <= 16, the binomial-difference tail
exponent, the persistence map of the concentration constants, the
eigenvalue rule for dual certificates by one full ``eigvalsh``, the
block-by-block build of the general certificate and its price bounds by
an n x n copy, the box-plus-sum projection by bisection on its shift,
the general concentration conditions by loops over clusters, and the
binary rounding of one eigenvector at a time.
Fixtures: a graph
from a dense matrix, the empty graph and single-entry reads, random flip
sets and entry writes (:class:`GraphDelta`), a random vertex relabelling
of an instance, the radius-bounded neighbour enumeration, a caching
SDP estimator for the mechanism audits, and logs of the graphs the
mechanisms solve and of the problems the solver solves. The oracles raise
plain ``ValueError`` on arguments outside their domain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass
from typing import Iterator

import numpy as np

from sbmdp import privacy, sdp
from sbmdp.concentration import (
    BasbmConstants,
    CbsbmConstants,
    ConcentrationConstants,
    GssbmConstants,
    cluster_edge_counts,
    own_cluster_counts,
    spectral_deviation,
)
from sbmdp.errors import AlphabetViolation, DuplicateEdge, InvalidShift
from sbmdp.graph import (
    ALPHABETS,
    SIMPLE,
    Graph,
    neighbors_at_distance,
    pair_count,
    pair_rank,
    upper_triangle,
)
from sbmdp.models import (
    BASBM,
    GSSBM,
    GroundTruth,
    GssbmParams,
    SbmParams,
    assignment_to_cluster_matrix,
    cluster_indicator,
    same_cluster,
)
from sbmdp.sdp import recover_many
from sbmdp.spectral import DEFAULT_TOLS


def graph_from_dense(dense: np.ndarray, alphabet: str = SIMPLE) -> Graph:
    """The graph whose strict upper triangle is that of ``dense``."""
    dense = np.asarray(dense)
    n = dense.shape[0]
    return Graph(n, alphabet, dense[upper_triangle(n)].astype(np.int8))


def empty_graph(n: int, alphabet: str = SIMPLE) -> Graph:
    return Graph(n, alphabet, np.zeros(pair_count(n), dtype=np.int8))


def _check_pair(g: Graph, i: int, j: int) -> tuple[int, int]:
    if not (0 <= i < g.n and 0 <= j < g.n):
        raise ValueError(f"pair ({i}, {j}) outside [0, {g.n})")
    if i == j:
        raise ValueError("diagonal entries are fixed at zero")
    return (i, j) if i < j else (j, i)


def entry(g: Graph, i: int, j: int) -> int:
    """The (i, j) entry of the symmetric adjacency; 0 on the diagonal."""
    if i == j:
        if not 0 <= i < g.n:
            raise ValueError(f"vertex {i} outside [0, {g.n})")
        return 0
    i, j = _check_pair(g, i, j)
    return int(g.values[pair_rank(i, j, g.n)])


@dataclass(frozen=True)
class GraphDelta:
    """A set of entry flips, each (i, j, new_value) with i < j and distinct pairs."""

    flips: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        seen = set()
        for i, j, _ in self.flips:
            if i >= j:
                raise ValueError("delta positions must satisfy i < j")
            if (i, j) in seen:
                raise DuplicateEdge(f"position ({i}, {j}) flipped twice")
            seen.add((i, j))

    def apply(self, g: Graph) -> Graph:
        values = g.values.copy()
        for i, j, v in self.flips:
            _check_pair(g, i, j)
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
        raise ValueError("radius must be nonnegative")
    for k in range(1, radius + 1):
        yield from neighbors_at_distance(g, k)


def random_delta(
    g: Graph, flips: int, rng: np.random.Generator
) -> GraphDelta:
    """Sample a delta of exactly ``flips`` distinct positions with changed values."""
    m = pair_count(g.n)
    if flips > m:
        raise ValueError(f"cannot flip {flips} of {m} positions")
    positions = rng.choice(m, size=flips, replace=False)
    out = []
    alphabet = ALPHABETS[g.alphabet]
    rows, cols = np.nonzero(upper_triangle(g.n))
    for pos in sorted(int(p) for p in positions):
        i, j = int(rows[pos]), int(cols[pos])
        current = int(g.values[pos])
        choices = [v for v in alphabet if v != current]
        v = choices[int(rng.integers(len(choices)))]
        out.append((i, j, v))
    return GraphDelta(tuple(out))


def permute_instance(
    g: Graph, gt: GroundTruth, rng: np.random.Generator
) -> tuple[Graph, GroundTruth]:
    """Apply one random vertex relabeling to a generated instance.

    Guards the tests against accidental dependence on the contiguous-block
    vertex order used by :func:`sbmdp.models.generate`.
    """
    perm = rng.permutation(g.n)
    dense = g.to_dense(dtype=np.int8)
    dense = dense[np.ix_(perm, perm)]
    return graph_from_dense(dense, g.alphabet), GroundTruth(
        gt.variant, gt.assignment[perm]
    )


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


def log_solves(monkeypatch) -> list[Graph]:
    """The list of graphs that ``privacy.recover`` and ``privacy.recover_many``
    are given from now on, in call order, as the mechanisms look them up."""
    solved = []
    recover, recover_many = privacy.recover, privacy.recover_many

    def one(g, *args, **kwargs):
        solved.append(g)
        return recover(g, *args, **kwargs)

    def many(graphs, *args, **kwargs):
        solved.extend(graphs)
        return recover_many(graphs, *args, **kwargs)

    monkeypatch.setattr(privacy, "recover", one)
    monkeypatch.setattr(privacy, "recover_many", many)
    return solved


def log_problems(monkeypatch) -> list:
    """The list of problems that ``sdp.solve_many``, the one solver loop,
    solves from now on, in call order."""
    solved = []
    solve_many = sdp.solve_many

    def logged(probs, *args, **kwargs):
        probs = list(probs)
        solved.extend(probs)
        return solve_many(probs, *args, **kwargs)

    monkeypatch.setattr(sdp, "solve_many", logged)
    return solved


# ---------------------------------------------------------------------------
# brute-force maximum-likelihood oracle

_BRUTE_FORCE_LIMIT = 16


def mle_bruteforce(g: Graph, params: SbmParams) -> np.ndarray:
    """Exact maximizer of the combinatorial objective, n <= 16 only.

    Enumerates every admissible assignment, scores sum_ij A_ij sigma_i
    sigma_j (or twice the internal edge total for the general variant), and
    returns the cluster matrix of the first maximizer in deterministic
    enumeration order, which breaks ties by the lexicographically smallest
    assignment.
    """
    n = g.n
    if n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"n = {n} exceeds the enumeration guard {_BRUTE_FORCE_LIMIT}")
    a_dense = g.to_dense()
    if params.variant == GSSBM:
        clusters = range(1, len(params.sizes) + 1)
        best = max(_partitions(n, params.sizes), key=lambda assign: sum(
            float(a_dense[np.ix_(assign == k, assign == k)].sum()) for k in clusters))
        return assignment_to_cluster_matrix(GSSBM, best)
    if params.variant == BASBM:
        sigs = (np.where(np.isin(np.arange(n), plus), 1.0, -1.0)
                for plus in itertools.combinations(range(n), params.first_cluster_size))
    else:
        # vertex 0 stays +1; vertex v > 0 is -1 when bit v - 1 is set
        sigs = (np.concatenate(([1.0], 1.0 - 2.0 * ((bits >> np.arange(n - 1)) & 1)))
                for bits in range(2 ** (n - 1)))
    # max keeps the first maximizer, so ties go to the earliest assignment
    best = max(sigs, key=lambda sig: float(sig @ a_dense @ sig))
    return np.outer(best, best)


def _partitions(n: int, sizes):
    """Yield all assignments of sizes[k] vertices to cluster k+1, rest outliers."""
    def rec(available: tuple[int, ...], k: int, assign: np.ndarray):
        if k == len(sizes):
            yield assign.copy()
            return
        for chosen in itertools.combinations(available, sizes[k]):
            assign[list(chosen)] = k + 1
            rest = tuple(v for v in available if v not in chosen)
            yield from rec(rest, k + 1, assign)
            assign[list(chosen)] = 0

    yield from rec(tuple(range(n)), 0, np.zeros(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# concentration-proof oracles


def binom_diff_exponent(
    rho1: float, rho2: float, a: float, b: float, alpha: float
) -> float:
    """Tail exponent of a Binomial(rho1*n, p) minus Binomial(rho2*n, q) difference.

    g = a*rho1 + b*rho2 - gamma - (alpha/2)*log((gamma-alpha)*a*rho1 /
    ((gamma+alpha)*b*rho2)) with gamma = sqrt(alpha^2 + 4*rho1*rho2*a*b).
    At alpha = 0 this collapses to (sqrt(a*rho1) - sqrt(b*rho2))^2.
    """
    if min(rho1, rho2, a, b) <= 0:
        raise ValueError("rho1, rho2, a, b must all be positive")
    gamma = math.sqrt(alpha * alpha + 4 * rho1 * rho2 * a * b)
    if alpha == 0.0:
        return a * rho1 + b * rho2 - gamma
    num = (gamma - alpha) * a * rho1
    den = (gamma + alpha) * b * rho2
    if num <= 0 or den <= 0:
        raise ValueError(f"log argument nonpositive at alpha={alpha}")
    return a * rho1 + b * rho2 - gamma - 0.5 * alpha * math.log(num / den)


def shift_constants(
    constants: ConcentrationConstants,
    c_stab: float,
    eps: float,
    *,
    rho: float | None = None,
    rho_min: float | None = None,
) -> ConcentrationConstants:
    """Constants valid for every graph within c_stab*log(n)/eps flips.

    Implements the persistence maps: basbm
    (c1 + sqrt(2c/eps), c2 - c/eps, c3 + sqrt(2c(1-rho)/(eps*rho)),
    c4 - c/eps); censored (c1 + sqrt(8c/eps), c2 - c/eps); general
    (c1 + sqrt(2c/eps), c2 - c/(eps*rho_min), c3 - c/eps, c4 + c/eps,
    c5 - c/eps). Raises InvalidShift when a shifted constant drops to
    or below zero.
    """
    shift = c_stab / eps
    if isinstance(constants, BasbmConstants):
        out = BasbmConstants(
            c1=constants.c1 + math.sqrt(2 * shift),
            c2=constants.c2 - shift,
            c3=constants.c3 + math.sqrt(2 * shift * (1 - rho) / rho),
            c4=constants.c4 - shift,
        )
    elif isinstance(constants, CbsbmConstants):
        out = CbsbmConstants(
            c1=constants.c1 + math.sqrt(8 * shift),
            c2=constants.c2 - shift,
        )
    else:
        out = GssbmConstants(
            c1=constants.c1 + math.sqrt(2 * shift),
            c2=constants.c2 - shift / rho_min,
            c3=constants.c3 - shift,
            c4=constants.c4 + shift,
            c5=constants.c5 - shift,
        )
    if min(astuple(out)) <= 0 and shift > 0:
        raise InvalidShift(
            f"shift c/eps = {shift:.4f} drives a constant nonpositive: {out}"
        )
    return out


# ---------------------------------------------------------------------------
# certificate rule by a full eigendecomposition, and the four-case build


def four_case_general_certificate(
    a_dense: np.ndarray, assign: np.ndarray, sizes: np.ndarray, lam: float,
    eta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, B, S) of the general certificate, B written block by block.

    The reference for ``certificates.general_certificate``: each ordered
    pair of distinct non-empty parts gets its case of the price (outlier
    rows, outlier columns, two clusters) by one ``np.ix_`` write.
    """
    n = assign.size
    sizes = np.asarray(sizes, dtype=np.float64)
    r = sizes.size
    e_counts, pair_counts = cluster_edge_counts(a_dense, assign)
    member = assign > 0
    if r:
        d = np.where(member,
                     own_cluster_counts(e_counts, assign) - eta
                     - lam * sizes[np.maximum(assign - 1, 0)],
                     0.0)
    else:
        d = np.zeros(n)

    b_mat = np.zeros((n, n))
    for k in range(0, r + 1):
        mi = assign == k
        if not mi.any():
            continue
        for kp in range(0, r + 1):
            if k == kp:
                continue
            mj = assign == kp
            if not mj.any():
                continue
            if k == 0:
                blk = np.broadcast_to(
                    lam - (e_counts[mi, kp - 1] / sizes[kp - 1])[:, None],
                    (mi.sum(), mj.sum()))
            elif kp == 0:
                blk = np.broadcast_to(
                    lam - (e_counts[mj, k - 1] / sizes[k - 1])[None, :],
                    (mi.sum(), mj.sum()))
            else:
                blk = (lam
                       + pair_counts[k - 1, kp - 1] / (sizes[k - 1] * sizes[kp - 1])
                       - (e_counts[mi, kp - 1] / sizes[kp - 1])[:, None]
                       - (e_counts[mj, k - 1] / sizes[k - 1])[None, :])
            b_mat[np.ix_(mi, mj)] = blk

    s = np.diag(d) - b_mat - a_dense + eta * np.eye(n) + lam
    return d, b_mat, s


def where_abs_price_bounds(cert) -> tuple[float, float]:
    """(b_min_off, slackness_residual) of a general certificate, formed as
    ``verify_general`` once formed them: the least price across parts from
    an n x n ``np.where`` copy of B, the slackness from an ``np.abs`` of B
    gathered on the same-cluster pairs."""
    assign = cert.labels
    part = assign[:, None] == assign[None, :]
    b_min_off = float(np.where(part, math.inf, cert.b_matrix).min(initial=math.inf))
    part &= (assign > 0)[:, None]
    slackness = float(np.abs(cert.b_matrix[part]).max(initial=0.0))
    return b_min_off, slackness


def eigvalsh_binary_report(cert) -> dict:
    """A binary certificate's report by one eigvalsh, as verify_binary's to_dict."""
    s = cert.s_matrix
    sigma = cert.labels
    tol = DEFAULT_TOLS.certificate
    w = np.linalg.eigvalsh(s)
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1.0)
    residual = float(np.abs(s @ sigma).max())
    lambda_min = float(w[0])
    lambda2 = float(w[1]) if w.size > 1 else float("nan")
    valid = (
        w.size > 1
        and residual <= tol * scale
        and lambda_min >= -tol * scale
        and lambda2 > tol * scale
    )
    return {"valid": bool(valid), "lambda_min": lambda_min, "lambda2": lambda2,
            "kernel_residual": residual}


def eigvalsh_general_report(cert) -> dict:
    """A general certificate's report by one eigvalsh, as verify_general's to_dict."""
    s = cert.s_matrix
    assign = cert.labels
    indicator = cluster_indicator(assign)
    r = indicator.shape[1]
    tol = DEFAULT_TOLS.certificate
    w = np.linalg.eigvalsh(s)
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1.0)

    kernel_residual = float(np.abs(s @ indicator).max()) if r else 0.0

    z = same_cluster(assign)
    slackness = float(np.abs(cert.b_matrix[z]).max()) if z.any() else 0.0

    diff = assign[:, None] != assign[None, :]
    b_min_off = float(cert.b_matrix[diff].min()) if diff.any() else math.inf

    member = assign > 0
    d_min = float(cert.d_star[member].min()) if member.any() else math.inf

    lambda_min = float(w[0])
    lambda_after = float(w[r]) if w.size > r else float("nan")
    valid = (
        w.size > r
        and kernel_residual <= tol * scale
        and slackness <= tol * scale
        and b_min_off > 0
        and d_min > 0
        and lambda_min >= -tol * scale
        and lambda_after > tol * scale
    )
    return {"valid": bool(valid), "lambda_min": lambda_min,
            "lambda_after_kernel": lambda_after,
            "kernel_residual": kernel_residual, "b_min_off": b_min_off,
            "d_min_member": d_min, "slackness_residual": slackness}


def bisect_box_sum(v: np.ndarray, lo: float, hi: float, s: float) -> np.ndarray:
    """Projection onto {lo <= z <= hi, sum(z) = s} by 100 bisection steps
    on the shift theta of clip(v - theta, lo, hi), as the general-variant
    ADMM step once projected; for ``size * lo <= s <= size * hi``."""
    if v.size == 0:
        return v

    def mass(theta: float) -> float:
        return float(np.clip(v - theta, lo, hi).sum())

    # for size*lo <= s <= size*hi: mass(theta_hi) <= s <= mass(theta_lo)
    theta_hi = float(v.max()) - lo + 1.0
    if math.isfinite(hi):
        theta_lo = float(v.min()) - hi - 1.0
    else:
        theta_lo = float(v.min()) - s / v.size - 1.0
    for _ in range(100):
        mid = 0.5 * (theta_lo + theta_hi)
        if mass(mid) > s:
            theta_lo = mid
        else:
            theta_hi = mid
    return np.clip(v - 0.5 * (theta_lo + theta_hi), lo, hi)


def binary_sign_candidates(v: np.ndarray, k: int | None) -> list[np.ndarray]:
    """The two sign patterns of one eigenvector ``v`` and of its negation,
    as the solver once formed them one member at a time: quantized at 1e-9
    relative, +1 on the ``k`` largest entries (stable argsort, so ties go
    to the lowest index), or the signs when ``k`` is None."""
    scale = max(float(np.abs(v).max()), 1e-300)
    quantized = np.round(v / scale * 1e9)
    out = []
    for q in (quantized, -quantized):
        if k is None:
            sig = np.where(q >= 0, 1.0, -1.0)
        else:
            sig = np.full(v.size, -1.0)
            sig[np.argsort(-q, kind="stable")[:k]] = 1.0
        out.append(sig)
    return out


def best_binary_candidate(a_dense: np.ndarray, v: np.ndarray,
                          k: int | None) -> np.ndarray:
    """The per-member binary rounding: of :func:`binary_sign_candidates`,
    the one of larger sig^T A sig (the first on a tie), negated when its
    first entry is -1 and the clusters are interchangeable (``k`` None or
    2k = n)."""
    cands = binary_sign_candidates(v, k)
    objs = [float(sig @ a_dense @ sig) for sig in cands]
    sig = cands[int(np.argmax(objs))]
    if sig[0] < 0 and (k is None or 2 * k == sig.size):
        sig = -sig
    return sig


def general_report_by_loops(g: Graph, gt: GroundTruth, params: GssbmParams,
                            constants: GssbmConstants) -> dict:
    """``check_concentration(g, gt, params, constants).to_dict()`` for gssbm,
    with each edge-count condition's binding entry found by a loop over its
    clusters or cluster pairs, as the checker once did. A condition over an
    empty set passes vacuously with no lhs or rhs."""
    a_dense = g.to_dense()
    logn = params.log_n
    sqlogn = math.sqrt(logn)
    lhs1 = spectral_deviation(a_dense, params, gt)
    conds = [("spectral_deviation", lhs1, constants.c1 * sqlogn,
              lhs1 <= constants.c1 * sqlogn)]
    n, b = params.n, params.b
    sizes = np.array(gt.sizes, dtype=np.float64)
    r = sizes.size
    assign = gt.assignment
    tau_t = constants.tau_tilde(b)
    e_counts, pair_counts = cluster_edge_counts(a_dense, assign)

    members = assign > 0
    if members.any():
        s = own_cluster_counts(e_counts, assign)
        rho_k = sizes[np.maximum(assign - 1, 0)] / n
        slack = s - tau_t * rho_k * logn
        i_min = int(np.where(members, slack, np.inf).argmin())
        conds.append(("internal_degree", s[i_min], tau_t * rho_k[i_min] * logn,
                      slack[members].min() >= 0))
    else:
        conds.append(("internal_degree", None, None, True))

    worst = (-math.inf, None, None)
    for k in range(1, r + 1):
        foreign = assign != k
        if not foreign.any():
            continue
        rhs = (b + constants.c2) * sizes[k - 1] * logn / n - constants.c3 * logn
        lhs_vals = e_counts[foreign, k - 1]
        i_rel = int(lhs_vals.argmax())
        slack = float(lhs_vals[i_rel] - rhs)
        if slack > worst[0]:
            worst = (slack, lhs_vals[i_rel], rhs)
    conds.append(("foreign_degree", worst[1], worst[2], worst[0] <= 0))

    worst = (math.inf, None, None)
    for k in range(r):
        for kp in range(k + 1, r):
            cnt = pair_counts[k, kp]
            rhs = (sizes[k] * sizes[kp] * params.q
                   - 2.0 * math.sqrt(sizes[k] * sizes[kp]) * sqlogn
                   - constants.c4 * logn)
            if cnt - rhs < worst[0]:
                worst = (cnt - rhs, cnt, rhs)
    conds.append(("pair_density", worst[1], worst[2], worst[0] >= 0))

    outliers = assign == 0
    if outliers.any() and r >= 1:
        rhs = tau_t * sizes[-1] * logn / n - constants.c5 * logn
        lhs5 = e_counts[outliers].max()
        conds.append(("outlier_degree", lhs5, rhs, lhs5 <= rhs))
    else:
        conds.append(("outlier_degree", None, None, True))

    rows = [{"name": name, "lhs": None if lhs is None else float(lhs),
             "rhs": None if rhs is None else float(rhs), "passed": bool(ok)}
            for name, lhs, rhs, ok in conds]
    return {"passed": all(row["passed"] for row in rows), "conditions": rows}
