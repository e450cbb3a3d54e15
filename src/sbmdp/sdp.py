"""SDP relaxations for the three block models and their solver.

The solver is a two-block projection splitting (ADMM): one block projects
onto the PSD cone (``spectral.psd_project``), the other onto the affine
(and, for the general variant, box) constraints, with scaled dual updates.
All constraint projections are closed-form, so no external solver is
needed.

Exactness is never claimed from residuals alone. Solving is certificate
first: before any ADMM iteration, a spectral estimate of the data matrix is
rounded to a candidate clustering and tested by the gate
:func:`~sbmdp.certificates.candidate_report`, the dual certificate that the
public diagnostics use with multipliers from the candidate's own empirical
rates, as the solver does not know the true model rates. When the
certificate verifies, the candidate's cluster matrix is the unique optimum
and the solver returns it without iterating; above the recovery threshold
this is the usual outcome, since the rounded spectral estimate is already
the planted clustering. Otherwise ADMM runs, and the same test is repeated
on the rounded iterate at regular checkpoints, reusing the eigenpairs of
the iteration's PSD step. Sub-threshold inputs never certify and fall back
to plain ADMM convergence. A certified solution carries the gate's report
and its labels; a polished one (an uncertified solve that returns its
rounded candidate) carries the candidate's labels. So recovery rounds only
fractional solutions. All three stages, the spectral estimate, the
checkpoints and the polish, round eigenpairs through one function,
:func:`_candidates`.

The spectral estimate reads only the top one (binary) or r (general)
eigenpairs. From ``KRYLOV_MIN_N`` vertices on (``KRYLOV_MIN_N_GENERAL`` for
gssbm) they come from block Krylov iteration (``spectral.top_eigenpairs``),
below it from one full eigendecomposition per batch. The two agree to
about 1e-10, far inside the rounding thresholds, so they round to the same
candidate. Were the candidates ever to differ, a certified one would still
be the unique optimum, and ADMM starts from the identity, not from the
candidate.

There is one solver loop, :func:`solve_many`; :func:`solve` is its batch
of one. Problems of one variant and size run as one ``(B, n, n)`` stack in
lockstep, which pays the per-iteration Python overhead of small problems
once per batch: at n = 6 an iteration takes about 45 us alone and 6.5 us
per member in a stack of 64 (one core, checkpoints included). Nothing is
shared between members: each keeps its own step size, residuals,
step-size changes and checkpoint candidates, every norm and sum is reduced
per matrix exactly as for one matrix, and a member leaves the stack when
it finishes. Each result is therefore bit for bit the one-problem solve,
whatever else is in the batch, which the privacy search relies on. Within
one call, each candidate's gate verdict is kept, so an iterate that
rounds to the same candidate at a later checkpoint is not tested again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .certificates import BinaryReport, GeneralReport, candidate_report
from .errors import InvalidParams
from .graph import CENSORED, SIMPLE, Graph, off_diagonal
from .models import (
    BASBM,
    CBSBM,
    GSSBM,
    SbmParams,
    assignment_to_cluster_matrix,
    cluster_indicator,
)
from .spectral import (
    DEFAULT_TOLS,
    KRYLOV_MIN_N,
    KRYLOV_MIN_N_GENERAL,
    eig_sorted,
    psd_project,
    top_eigenpairs,
)

CONVERGED = "converged"
MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class SolveOptions:
    tol: float = 1e-6
    max_iters: int = 3000
    certify_every: int = 25


@dataclass(frozen=True)
class SdpProblem:
    """Data matrix plus the affine/cone constraints of one relaxation."""

    variant: str
    a_dense: np.ndarray = field(repr=False)
    first_cluster_size: int | None = None
    sizes: tuple[int, ...] | None = None  # gssbm cluster sizes

    @property
    def n(self) -> int:
        return self.a_dense.shape[0]

    def objective(self, y: np.ndarray) -> float:
        return float((self.a_dense * y).sum())


@dataclass(frozen=True)
class SdpSolution:
    problem: SdpProblem = field(repr=False)
    matrix: np.ndarray = field(repr=False)
    objective: float
    primal_residual: float
    dual_residual: float
    iterations: int
    status: str
    # the gate's valid report on the certified clustering, None if uncertified
    certificate: BinaryReport | GeneralReport | None = None
    # the clustering ``matrix`` holds when certified or polished, else None
    labels: np.ndarray | None = field(default=None, repr=False)

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def problem_from_graph(g: Graph, params: SbmParams) -> SdpProblem:
    """The variant's relaxation of a graph.

    Raises InvalidParams unless ``g`` is a :class:`~sbmdp.graph.Graph`
    over the variant's alphabet (censored for cbsbm, simple otherwise) with
    ``params.n`` vertices and ``params`` pass their ``validate``, which
    among others refuses a cluster with no vertex.
    """
    want = CENSORED if params.variant == CBSBM else SIMPLE
    if not isinstance(g, Graph) or g.alphabet != want:
        got = g.alphabet if isinstance(g, Graph) else type(g).__name__
        raise InvalidParams(f"expected a {want} graph, got {got}")
    if g.n != params.n:
        raise InvalidParams(f"graph has {g.n} vertices, params n = {params.n}")
    params.validate()
    if params.variant == CBSBM:
        return SdpProblem(CBSBM, g.to_dense())
    if params.variant == BASBM:
        return SdpProblem(BASBM, g.to_dense(),
                          first_cluster_size=params.first_cluster_size)
    return SdpProblem(GSSBM, g.to_dense(), sizes=params.sizes)


# ---------------------------------------------------------------------------
# constraint projections


def _project(variant: str, m: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each matrix of a stack projected onto its variant's constraint set.

    ``targets`` holds one row of right-hand sides per matrix (see
    :func:`_admm`; basbm's is (2k - n)^2 - n). The binary projections
    overwrite ``m``.
    """
    if variant == BASBM:
        return _project_basbm(m, targets[:, 0])
    if variant == CBSBM:
        return _project_diag_one(m)
    return _project_gssbm(m, targets[:, 0], targets[:, 1])


def _diagonal(m: np.ndarray) -> np.ndarray:
    """Writable strided view of the diagonal of each matrix of a C-ordered stack."""
    n = m.shape[-1]
    return m.reshape(m.shape[0], n * n)[:, ::n + 1]


def _project_basbm(m: np.ndarray, off_mass: np.ndarray) -> np.ndarray:
    """Exact projection of each matrix onto {diag = 1, <J, Y> = (2k - n)^2},
    written over ``m``, which is returned; ``off_mass`` is each matrix's
    (2k - n)^2 - n, the sum its off-diagonal entries must reach.

    The diagonal and the uniform off-diagonal shift are orthogonal
    directions, so the two constraints project independently: the shift is
    added everywhere and the diagonal reset afterwards.
    """
    n = m.shape[-1]
    diag = _diagonal(m)
    diag[...] = 1.0
    off_count = n * n - n
    if off_count:
        off_sum = m.sum(axis=(1, 2)) - n
        m += ((off_mass - off_sum) / off_count)[:, None, None]
        diag[...] = 1.0
    return m


def _project_diag_one(m: np.ndarray) -> np.ndarray:
    """Each matrix with its diagonal set to one, written over ``m``, which
    is returned."""
    _diagonal(m)[...] = 1.0
    return m


def _project_box_sum(v: np.ndarray, lo: float, hi: float, s: float) -> np.ndarray:
    """Euclidean projection of ``v`` onto {lo <= z <= hi, sum(z) = s}, for
    ``size * lo <= s <= size * hi``; ``hi`` may be infinite.

    The projection is clip(v - theta, lo, hi) for a shift theta at which the
    mass M(theta) = sum(clip(v - theta, lo, hi)) equals s. M is continuous,
    nonincreasing and linear between its kinks v_i - hi and v_i - lo, and
    with v sorted its value at every kink follows from prefix sums. The
    first kink where M <= s closes the segment that holds theta. On that
    segment every entry stays at lo, stays at hi or is free, so theta
    solves one linear equation: a sort and a search, with no iteration.
    """
    size = v.size
    if size == 0:
        return v
    w = np.sort(v)
    prefix = np.zeros(size + 1)
    np.cumsum(w, out=prefix[1:])
    # once theta has passed the kinks up to and including kinks[p], the
    # entries at lo are w[:low[p]] and those at hi w[high[p]:]; an entry
    # whose kink ties kinks[p] sits on its bound either way
    finite = math.isfinite(hi)
    if finite:
        kinks = np.concatenate((w - hi, w - lo))
        order = np.argsort(kinks, kind="stable")
        kinks = kinks[order]
        low = np.cumsum(order >= size)
        high = np.arange(1, kinks.size + 1) - low
    else:
        kinks = w - lo
        low = np.arange(1, size + 1)
        high = size
    mass = lo * low + (prefix[high] - prefix[low]) - kinks * (high - low)
    if finite:
        mass += hi * (size - high)
    closing = np.flatnonzero(mass <= s)
    j = int(closing[0]) if closing.size else kinks.size - 1

    # theta lies between kinks[j - 1] and kinks[j]; before the first kink
    # no entry is at lo, and every entry is at a finite hi
    if j:
        low, high = int(low[j - 1]), (int(high[j - 1]) if finite else size)
    else:
        low, high = 0, (0 if finite else size)
    theta = float(kinks[j])
    if low < high:
        at_bounds = lo * low + (hi * (size - high) if finite else 0.0)
        theta = (float(w[low:high].sum()) + at_bounds - s) / (high - low)
    return np.clip(v - theta, lo, hi)


def _project_gssbm(m: np.ndarray, trace_target: np.ndarray,
                   total_target: np.ndarray) -> np.ndarray:
    """Projection of each matrix onto {0 <= Z_ii <= 1, Z_ij >= 0, tr Z = sum K,
    <J,Z> = sum K^2}.

    Diagonal and off-diagonal coordinates are disjoint, so the projection
    splits into two independent box-plus-sum problems per matrix, each
    solved exactly by :func:`_project_box_sum`: the diagonal into [0, 1]
    with sum tr Z, the off-diagonal into [0, inf) with sum <J,Z> - tr Z.
    Symmetrising the result afterwards keeps both sums and both boxes.
    """
    b, n = m.shape[0], m.shape[-1]
    flat = m.reshape(b, n * n)
    off = off_diagonal(n)
    out = np.empty_like(flat)
    for row, m_row, tr, total in zip(out, flat, trace_target, total_target):
        row[::n + 1] = _project_box_sum(m_row[::n + 1], 0.0, 1.0, float(tr))
        row[off] = _project_box_sum(m_row[off], 0.0, math.inf, float(total - tr))
    out = out.reshape(b, n, n)
    return (out + out.swapaxes(1, 2)) / 2.0


# ---------------------------------------------------------------------------
# rounding helpers shared by the solver checkpoints and the public API


def _binary_candidates(v: np.ndarray, k: np.ndarray | None) -> np.ndarray:
    """The two sign patterns induced by each row of ``v``, shape (B, 2, n):
    that of the row and that of its negation.

    With ``k`` (one size per row) a pattern puts +1 on the row's ``k``
    largest entries, else it is the entries' signs. Entries are quantized
    at 1e-9 relative to the row's largest before ranking, so exact ties
    break by lowest index rather than by rounding jitter.
    """
    scale = np.maximum(np.abs(v).max(axis=1), 1e-300)
    q = np.round(v / scale[:, None] * 1e9)  # that of -v is exactly its negation
    if k is None:
        return np.where(np.stack((q, -q), axis=1) >= 0, 1.0, -1.0)
    # each row's rank under a stable descending sort, for either sign
    order = np.argsort(np.stack((-q, q), axis=1), axis=-1, kind="stable")
    b, n = v.shape
    rank = np.empty_like(order)
    rank[np.arange(b)[:, None, None], np.arange(2)[:, None], order] = np.arange(n)
    return np.where(rank < k[:, None, None], 1.0, -1.0)


def _binary_labels(a: np.ndarray, v: np.ndarray, k: np.ndarray | None) -> np.ndarray:
    """The ±1 rounding of each row of ``v`` for the data matrix ``a`` of
    its position in the stack: of its two :func:`_binary_candidates`, the
    one of larger objective sig^T A sig (the first on a tie), negated when
    its first entry is -1 and the two clusters are interchangeable
    (``k`` None, or 2k = n).

    The adjacency entries and the signs are integers, so each objective is
    one exact integer sum, whatever the order of its terms: each row gets
    the bits it gets alone.
    """
    cands = _binary_candidates(v, k)
    objs = ((cands @ a) * cands).sum(axis=-1)
    sig = np.where((objs[:, 1] > objs[:, 0])[:, None], cands[:, 1], cands[:, 0])
    n = v.shape[1]
    flip = sig[:, 0] < 0
    if k is not None:
        flip &= 2 * k == n
    sig[flip] *= -1.0
    return sig


def _extract_general(x: np.ndarray, sizes: np.ndarray) -> Optional[np.ndarray]:
    """Assignment from thresholding a near-integral matrix; None if malformed.

    The thresholded relation is a clustering iff it equals "same first
    related vertex"; clusters are numbered by size, ties by lowest vertex.
    """
    n = x.shape[0]
    thr = DEFAULT_TOLS.z_threshold
    idx = np.flatnonzero(np.diag(x) >= thr)
    if idx.size != int(sizes.sum()):
        return None
    rel = (x > thr)[np.ix_(idx, idx)]
    np.fill_diagonal(rel, True)
    cls = rel.argmax(axis=1) if idx.size else idx
    if not np.array_equal(rel, cls[:, None] == cls[None, :]):
        return None
    firsts, inverse, counts = np.unique(cls, return_inverse=True, return_counts=True)
    order = np.lexsort((firsts, -counts))
    cluster_order = np.argsort(-sizes, kind="stable")
    if not np.array_equal(counts[order], sizes[cluster_order]):
        return None
    label = np.empty(firsts.size, dtype=np.int64)
    label[order] = cluster_order + 1
    assign = np.zeros(n, dtype=np.int64)
    assign[idx] = label[inverse]
    return assign


def _candidates(probs: list[SdpProblem], evecs: Sequence[np.ndarray],
                evals: Sequence[np.ndarray]) -> list[Optional[np.ndarray]]:
    """Discrete labels rounded from each problem's ascending eigenpairs;
    None where malformed. The spectral stage, the checkpoints and the
    polish all round here.

    ``probs`` share one variant and size, and ``evecs`` and ``evals`` hold
    each one's trailing eigenpairs (the top one suffices for the binary
    variants, which come as stacks). The binary variants round every member
    in one :func:`_binary_labels` pass on its top eigenvector. gssbm
    thresholds the reconstruction from each member's positive pairs; with
    none it is zero, which holds no member and so rounds to None.
    """
    if probs[0].variant == GSSBM:
        return [_extract_general((v[:, w > 0] * w[w > 0]) @ v[:, w > 0].T,
                                 np.array(p.sizes))
                for p, v, w in zip(probs, evecs, evals)]
    k = (np.array([p.first_cluster_size for p in probs]) if probs[0].variant == BASBM
         else None)
    labels = _binary_labels(np.stack([p.a_dense for p in probs]), evecs[..., -1], k)
    return [sig if top > 0 else None for sig, top in zip(labels, evals[:, -1])]


def _spectral_matrix(prob: SdpProblem) -> np.ndarray:
    """The matrix whose spectrum gives the certificate-first candidate.

    basbm uses A - mean(A)*J: the top eigenvector of A itself is the
    Perron vector, which tracks degrees rather than clusters.
    """
    a_dense = prob.a_dense
    return a_dense - a_dense.mean() if prob.variant == BASBM else a_dense


def _spectral_candidates(probs: list[SdpProblem]) -> list[Optional[np.ndarray]]:
    """:func:`_candidates` from the trailing r eigenpairs of each problem's
    :func:`_spectral_matrix`, for problems of one variant and size: r = 1
    for the binary variants and the number of clusters for gssbm.

    Below the variant's cut-over (``KRYLOV_MIN_N``, or
    ``KRYLOV_MIN_N_GENERAL`` for gssbm) the pairs come from one batched
    eigendecomposition, from there on from block Krylov, one matrix at a
    time. gssbm rescales each member's pairs so that the member diagonal of
    the rank-r reconstruction is about 1, the scale the 1/2 threshold of
    the general rounding expects; a scale that is not positive zeroes the
    eigenvalues, which round to no candidate.
    """
    variant = probs[0].variant
    ranks = [len(p.sizes) for p in probs] if variant == GSSBM else [1] * len(probs)
    mats = [_spectral_matrix(p) for p in probs]
    if probs[0].n < (KRYLOV_MIN_N_GENERAL if variant == GSSBM else KRYLOV_MIN_N):
        evecs, evals = eig_sorted(np.stack(mats))
    else:
        evecs, evals = zip(*map(top_eigenpairs, mats, ranks))
    if variant != GSSBM:
        return _candidates(probs, np.asarray(evecs), np.asarray(evals))
    scaled = []
    for p, vecs, vals, r in zip(probs, evecs, evals, ranks):
        vecs, vals = vecs[:, -r:], vals[-r:]
        scale = float(np.sort((vecs ** 2) @ vals)[-sum(p.sizes):].mean())
        scaled.append((vecs, vals / scale if scale > 0 else np.zeros_like(vals)))
    return _candidates(probs, *zip(*scaled))


def _certified_solution(prob: SdpProblem, report: BinaryReport | GeneralReport,
                        it: int) -> SdpSolution:
    labels = report.certificate.labels
    # the cluster matrix is V V^T for the cluster vectors V, and <A, V V^T>
    # adds integers, exactly in any order: the bits of prob.objective(cand),
    # whose sum is never -0.0
    vecs = (cluster_indicator(labels) if prob.variant == GSSBM
            else labels[:, None].astype(np.float64))
    objective = float(((prob.a_dense @ vecs) * vecs).sum()) + 0.0
    cand = assignment_to_cluster_matrix(prob.variant, labels)
    return SdpSolution(problem=prob, matrix=cand, objective=objective,
                       primal_residual=0.0, dual_residual=0.0,
                       iterations=it, status=CONVERGED, certificate=report,
                       labels=labels)


def _uncertified_solution(prob: SdpProblem, x: np.ndarray, y: np.ndarray,
                          primal: float, dual: float, it: int,
                          best_labels: Optional[np.ndarray],
                          tol: float) -> SdpSolution:
    """The final iterate, or an exactly-feasible rounded candidate (vertex
    polish) with its labels when that scores at least as well. The
    candidate is rounded from ``x``, or else is the last checkpoint's,
    ``best_labels``."""
    status = CONVERGED if (primal < tol and dual < tol) else MAX_ITERS
    matrix = y.copy()
    objective = prob.objective(y)
    labels = _candidates([prob], *eig_sorted(x[None]))[0]
    if labels is None:
        labels = best_labels
    if labels is not None:
        cand = assignment_to_cluster_matrix(prob.variant, labels)
        if prob.objective(cand) >= objective:
            matrix, objective = cand, prob.objective(cand)
        else:
            labels = None
    return SdpSolution(problem=prob, matrix=matrix, objective=objective,
                       primal_residual=float(primal), dual_residual=float(dual),
                       iterations=it, status=status, labels=labels)


# ---------------------------------------------------------------------------
# solver


def _fro_norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack.

    Each is one dot product of the matrix's entries with themselves, the
    sum ``np.linalg.norm(matrix, "fro")`` takes, so the bits match.
    """
    flat = m.reshape(m.shape[0], 1, -1)
    return np.sqrt(flat @ flat.swapaxes(1, 2))[:, 0, 0]


def _admm(probs: list[SdpProblem], members: list[int], opts: SolveOptions,
          gate: Callable[[int, np.ndarray], BinaryReport | GeneralReport | None],
          ) -> Iterator[tuple[int, SdpSolution]]:
    """Lockstep projection splitting over problems of one variant and size.

    Yields (position in ``probs``, solution) for each member as it
    converges, certifies at a checkpoint or reaches ``max_iters``, and
    drops it from the stack. Every member keeps its own step size t and
    bracket, residuals, step-size changes, checkpoint candidate and best
    candidate, and every reduction runs per matrix, so each member's
    iterates are bit for bit those of its solve alone. ``gate(i, labels)``
    is :func:`~sbmdp.certificates.candidate_report` on ``probs[i]``.
    """
    stacked = [probs[i] for i in members]
    variant, n = stacked[0].variant, stacked[0].n
    pos = np.array(members)
    a = np.stack([p.a_dense for p in stacked])
    # right-hand sides of each member's constraints: basbm the off-diagonal
    # part of <J, Y> = (2k - n)^2; gssbm tr Z and <J, Z>; cbsbm none
    if variant == GSSBM:
        sizes = [np.array(p.sizes, dtype=np.float64) for p in stacked]
        targets = np.array([[k.sum(), (k ** 2).sum()] for k in sizes])
        y = np.eye(n) * (targets[:, 0] / n)[:, None, None]
    else:
        targets = np.array([[float((2 * p.first_cluster_size - n) ** 2 - n)
                             if variant == BASBM else 0.0, 0.0] for p in stacked])
        y = np.stack([np.eye(n)] * len(stacked))

    # each ||A||_2, the largest singular value np.linalg.norm(A, 2) takes
    t = np.maximum(np.linalg.svd(a, compute_uv=False).max(axis=-1), 1e-3)
    t_lo, t_hi = t / 16.0, t * 16.0
    data = a / t[:, None, None]  # the data term, recomputed when t changes
    u = np.zeros_like(a)
    x = y
    primal = dual = np.full(len(stacked), math.inf)
    best = np.full(len(stacked), None, dtype=object)
    tol, every = opts.tol, opts.certify_every

    it = 0
    for it in range(1, opts.max_iters + 1):
        x, evecs, evals = psd_project(y - u)
        y_old = y
        y = x + u  # a new array, which the projection overwrites
        y += data
        y = _project(variant, y, targets)
        gap = x - y
        u += gap

        # the norms of x, y, gap and t * (y - y_old), every member in one call
        norms = _fro_norms(np.concatenate((x, y, gap, y - y_old))).reshape(4, -1)
        norms[3] *= t
        scale = np.maximum(np.maximum(1.0, norms[0]), norms[1])
        primal, dual = norms[2:] / scale
        done = np.maximum(primal, dual) < tol
        for b in done.nonzero()[0]:
            yield int(pos[b]), _uncertified_solution(
                probs[pos[b]], x[b], y[b], primal[b], dual[b], it, best[b], tol)

        if every and it % every == 0 and not done.all():
            rounding = (~done).nonzero()[0]
            rounded = _candidates([probs[i] for i in pos[rounding]],
                                  evecs[rounding], evals[rounding])
            for b, labels in zip(rounding, rounded):
                if labels is not None:
                    i = int(pos[b])
                    best[b] = labels
                    report = gate(i, labels)
                    if report is not None:
                        done[b] = True
                        yield i, _certified_solution(probs[i], report, it)

        if it >= 200 and it % 100 == 0:
            up = (primal > 10 * dual) & (t < t_hi)
            down = ~up & (dual > 10 * primal) & (t > t_lo)
            if up.any() or down.any():
                t = np.where(up, t * 2.0, np.where(down, t / 2.0, t))
                data = a / t[:, None, None]
                u[up] /= 2.0
                u[down] *= 2.0

        leaving = np.count_nonzero(done)
        if leaving:
            if leaving == done.size:
                return
            live = ~done
            pos, a, data, targets, t, t_lo, t_hi, x, y, u, primal, dual, best = (
                v[live] for v in (pos, a, data, targets, t, t_lo, t_hi, x, y, u,
                                  primal, dual, best))

    for b, i in enumerate(pos):
        yield int(i), _uncertified_solution(
            probs[i], x[b], y[b], primal[b], dual[b], it, best[b], tol)


def solve_many(probs: Iterable[SdpProblem], opts: SolveOptions = SolveOptions(),
               ) -> Iterator[tuple[int, SdpSolution]]:
    """Solve several problems, yielding (position, solution) as each finishes.

    Problems of one variant and size run as one ``(B, n, n)`` stack: first
    the spectral candidates (see :func:`_spectral_candidates`), whose
    certified members come out at once, then lockstep ADMM on the rest (see
    :func:`_admm`), which yields each member as it finishes. All three
    stages, the spectral one, the checkpoints and the polish, round through
    :func:`_candidates`. Each solution is exactly, bit for bit, what
    :func:`solve` gives that problem alone, whatever else is in the batch.
    A group is held in memory as a few stacks of its size, so callers bound
    their batches (the distance search does, by
    ``privacy.SEARCH_CHUNK_ENTRIES``).

    :func:`~sbmdp.certificates.candidate_report` is a function of the
    problem and the labels alone, so each (problem, candidate) pair is
    tested once per call: an uncertified iterate often rounds to the same
    candidate checkpoint after checkpoint. A rejected one is kept as None.
    """
    probs = list(probs)
    verdicts: dict[tuple[int, bytes], BinaryReport | GeneralReport | None] = {}

    def gate(i: int, labels: np.ndarray) -> BinaryReport | GeneralReport | None:
        key = (i, labels.tobytes())
        if key not in verdicts:
            verdicts[key] = candidate_report(probs[i].variant, probs[i].a_dense,
                                             labels, probs[i].sizes)
        return verdicts[key]

    groups: dict[tuple[str, int], list[int]] = {}
    for i, prob in enumerate(probs):
        groups.setdefault((prob.variant, prob.n), []).append(i)
    uncertified = []
    for members in groups.values():
        if opts.certify_every:
            rest = []
            rounded = _spectral_candidates([probs[i] for i in members])
            for i, labels in zip(members, rounded):
                report = None if labels is None else gate(i, labels)
                if report is not None:
                    yield i, _certified_solution(probs[i], report, 0)
                else:
                    rest.append(i)
            members = rest
        if members:
            uncertified.append(members)
    for members in uncertified:
        yield from _admm(probs, members, opts, gate)


def solve(prob: SdpProblem, opts: SolveOptions = SolveOptions()) -> SdpSolution:
    """Maximize <A, Y> over the variant's constraint set.

    With ``opts.certify_every`` nonzero, the rounded spectral estimate of
    the data is tested first and, if its dual certificate verifies,
    returned as the certified optimum with ``iterations == 0``. Otherwise
    the projection splitting runs and tests a rounded candidate every
    ``certify_every`` iterations, returning the first that certifies. An
    input that never certifies runs to the requested residual tolerance
    and gets the better of the final iterate and the last rounded feasible
    candidate. ``certify_every=0`` disables every certificate test. This is
    :func:`solve_many` on a batch of one.
    """
    ((_, sol),) = solve_many([prob], opts)
    return sol


# ---------------------------------------------------------------------------
# rounding


def round_binary(sol: SdpSolution) -> Optional[np.ndarray]:
    """Discrete +-1 labels from a binary-variant solution matrix; None when
    the top eigenvalue is not simple within the eigen-gap tolerance.

    For basbm, exactly ``first_cluster_size`` coordinates with the largest
    top-eigenvector entries become +1 (ties broken by lowest index); for
    cbsbm the sign pattern is used. Of the two antipodal readings of
    the eigenvector, the one with the larger data objective wins.
    """
    evecs, evals = eig_sorted(sol.matrix)
    scale = max(abs(float(evals[0])), abs(float(evals[-1])), 1.0)
    if evals.shape[0] > 1 and (evals[-1] - evals[-2]) <= DEFAULT_TOLS.eigen_gap * scale:
        return None
    k = sol.problem.first_cluster_size
    return _binary_labels(sol.problem.a_dense[None], evecs[None, :, -1],
                          None if k is None else np.array([k]))[0]


def round_general(sol: SdpSolution) -> Optional[np.ndarray]:
    """Assignment labels (0 = outlier) from a general-variant solution
    matrix; None when they encode no clustering of the problem's sizes.

    Thresholds entries at 1/2: the diagonal picks non-outliers and the
    off-diagonal induces a same-cluster relation that must be a partition
    into cliques of the requested sizes (see :func:`_extract_general`).
    The matrix is read as it is: the gssbm projection that forms the
    solver's iterate leaves it exactly symmetric.
    """
    return _extract_general(sol.matrix, np.array(sol.problem.sizes))


@dataclass(frozen=True)
class RecoveryResult:
    """Rounded SDP output; matrix and labels are None on rounding failure."""

    matrix: np.ndarray | None
    labels: np.ndarray | None
    solution: SdpSolution

    @property
    def failed(self) -> bool:
        return self.matrix is None


def _rounded(sol: SdpSolution) -> RecoveryResult:
    """The labels a certified or polished solution holds, or the rounding
    of a fractional one by the variant's :func:`round_general` or
    :func:`round_binary`; a failed result where that rounding is None."""
    if sol.labels is not None:
        return RecoveryResult(sol.matrix, sol.labels.astype(np.int64), sol)
    variant = sol.problem.variant
    labels = round_general(sol) if variant == GSSBM else round_binary(sol)
    if labels is None:
        return RecoveryResult(None, None, sol)
    labels = labels.astype(np.int64)
    return RecoveryResult(
        assignment_to_cluster_matrix(variant, labels), labels, sol)


def recover(g: Graph, params: SbmParams,
            opts: SolveOptions = SolveOptions()) -> RecoveryResult:
    """Solve the variant's SDP of a graph and round to a discrete clustering.

    ``g`` must be a :class:`~sbmdp.graph.Graph` over the variant's
    alphabet with ``params.n`` vertices, and ``params`` must pass
    ``validate``: either failing raises InvalidParams before any solve
    (see :func:`problem_from_graph`).
    A certified or polished solution carries its labels, so only a
    fractional one is rounded. A rounding that finds no clustering (a
    degenerate top eigenvalue, or a relation that is no partition of the
    sizes) gives a result whose ``failed`` is set, not an exception:
    callers treat it as a distinguished recovery-failure outcome. This is
    :func:`recover_many` on one graph.
    """
    return _rounded(solve(problem_from_graph(g, params), opts))


def recover_many(graphs: Iterable[Graph], params: SbmParams,
                 opts: SolveOptions = SolveOptions(),
                 ) -> Iterator[tuple[int, RecoveryResult]]:
    """(position, :func:`recover` of that graph), in the order the solves
    finish (see :func:`solve_many`)."""
    probs = [problem_from_graph(g, params) for g in graphs]
    for i, sol in solve_many(probs, opts):
        yield i, _rounded(sol)
