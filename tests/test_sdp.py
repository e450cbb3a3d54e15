import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmdp.errors import (
    DegenerateSpectrum,
    InconsistentRelation,
    InfeasibleProblem,
    InvalidParams,
)
from sbmdp.graph import CENSORED, Graph
from sbmdp.models import (
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    cluster_matrix,
    generate,
    same_clustering,
)
from sbmdp import certificates, sdp, spectral
from sbmdp.sdp import (
    KRYLOV_MIN_N,
    KRYLOV_MIN_N_GENERAL,
    SdpSolution,
    SolveOptions,
    problem_from_graph,
    recover,
    round_binary,
    round_general,
    solve,
    solve_many,
)

from oracles import (
    GraphDelta,
    best_binary_candidate,
    binary_sign_candidates,
    bisect_box_sum,
    empty_graph,
    graph_from_dense,
    mle_bruteforce,
    permute_instance,
)

FAST = SolveOptions(max_iters=1500)


def make_solution(prob, matrix):
    return SdpSolution(problem=prob, matrix=matrix,
                       objective=prob.objective(matrix),
                       primal_residual=0.0, dual_residual=0.0,
                       iterations=0, status="converged")


def test_two_vertex_problem_forced_off_diagonal():
    # mass constraint <J, Y> = 0 pins Y01 = -1, objective -2
    g = graph_from_dense(np.array([[0, 1], [1, 0]]))
    prob = problem_from_graph(g, BasbmParams(n=2, a=1.0, b=0.5, rho=0.5))
    sol = solve(prob, SolveOptions(certify_every=0, max_iters=500))
    assert sol.matrix[0, 1] == pytest.approx(-1.0, abs=1e-5)
    assert sol.objective == pytest.approx(-2.0, abs=1e-4)


def test_cluster_matrix_as_data_recovers_itself():
    # the data is the two-clique adjacency of the planted clustering
    n = 8
    sigma = np.array([1.0] * 4 + [-1.0] * 4)
    a = (np.outer(sigma, sigma) + 1) / 2
    np.fill_diagonal(a, 0.0)
    prob = problem_from_graph(graph_from_dense(a),
                              BasbmParams(n=n, a=3.0, b=1.0, rho=0.5))
    sol = solve(prob)
    # independent oracle: enumerate all balanced sign vectors
    best = max(
        float(np.array(s) @ a @ np.array(s))
        for s in itertools.product((-1.0, 1.0), repeat=n)
        if sum(s) == 0)
    assert best == n * n / 2 - n
    assert sol.objective == pytest.approx(best, abs=1e-3)
    assert same_clustering(np.sign(sol.matrix), np.outer(sigma, sigma))


def test_cbsbm_complete_noiseless_graph():
    n = 10
    params = CbsbmParams(n=n, a=2.0, xi=0.0)
    _, gt = generate(params, 0)
    g = graph_from_dense(np.outer(gt.sigma, gt.sigma), CENSORED)
    sol = solve(problem_from_graph(g, params))
    assert sol.objective == pytest.approx(n * (n - 1), abs=1e-3)
    assert same_clustering(np.sign(sol.matrix), cluster_matrix(gt))


def test_problem_validation():
    basbm = BasbmParams(n=4, a=2.0, b=1.0, rho=0.5)
    cbsbm = CbsbmParams(n=4, a=2.0, xi=0.1)
    with pytest.raises(InvalidParams):
        problem_from_graph(empty_graph(4, CENSORED), basbm)  # wrong alphabet
    with pytest.raises(InvalidParams):
        problem_from_graph(empty_graph(4), cbsbm)  # wrong alphabet
    with pytest.raises(InvalidParams):  # params for 8 vertices, a 4-vertex graph
        problem_from_graph(empty_graph(4),
                           GssbmParams(n=8, a=3.0, b=1.0, rhos=(0.4, 0.4)))
    with pytest.raises(InvalidParams):
        recover(empty_graph(4), BasbmParams(n=5, a=2.0, b=1.0, rho=0.4))
    with pytest.raises(InfeasibleProblem):  # sizes (3, 3) on 4 vertices
        problem_from_graph(empty_graph(4),
                           GssbmParams(n=4, a=3.0, b=1.0, rhos=(0.8, 0.8)))
    with pytest.raises(InfeasibleProblem):  # empty first cluster
        problem_from_graph(empty_graph(4), BasbmParams(n=4, a=2.0, b=1.0, rho=0.01))
    # the adjacency input is a Graph, never its dense matrix
    with pytest.raises(InvalidParams):
        recover(empty_graph(4).to_dense(), basbm)


def test_ground_truth_feasible_for_every_problem():
    basbm = BasbmParams(n=20, a=5, b=1, rho=0.4)
    g, gt = generate(basbm, 0)
    prob = problem_from_graph(g, basbm)
    y = cluster_matrix(gt)
    assert np.all(np.diag(y) == 1)
    assert y.sum() == (2 * prob.first_cluster_size - prob.n) ** 2

    gssbm = GssbmParams(n=20, a=4, b=1, rhos=(0.4, 0.3))
    g, gt = generate(gssbm, 0)
    z = cluster_matrix(gt)
    assert np.trace(z) == sum(gssbm.sizes)
    assert z.sum() == sum(k * k for k in gssbm.sizes)
    assert z.min() >= 0 and np.diag(z).max() <= 1


@st.composite
def box_sum_inputs(draw):
    """A vector v, a box [lo, hi] and a sum s with size*lo <= s <= size*hi.

    Covers vectors of zero and one entries, ties, s at either end of its
    range, and hi = inf, where s = size*lo is the least sum (0 for lo = 0).
    """
    size = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    if draw(st.booleans()):
        v = rng.normal(size=size) * scale
    else:  # a few values, each repeated
        v = rng.choice(np.round(rng.normal(size=3), 1), size=size) * scale
    lo = draw(st.sampled_from([0.0, -1.0, 0.5]))
    hi = lo + draw(st.sampled_from([math.inf, 1.0, 0.25]))
    top = size * hi if math.isfinite(hi) else size * (lo + 3 * scale)
    end = draw(st.sampled_from(["lo", "hi", "between"]))
    if end == "lo":
        s = size * lo
    elif end == "hi" and math.isfinite(hi):
        s = size * hi
    else:
        s = size * lo + draw(st.floats(0.0, 1.0)) * (top - size * lo)
    return v, lo, hi, s


@settings(max_examples=400, deadline=None)
@given(box_sum_inputs())
def test_box_sum_projection_matches_the_bisection(inputs):
    v, lo, hi, s = inputs
    z = sdp._project_box_sum(v, lo, hi, s)
    want = bisect_box_sum(v, lo, hi, s)
    assert z.shape == v.shape
    scale = max(1.0, float(np.abs(v).max(initial=0.0)))
    assert np.abs(z - want).max(initial=0.0) <= 1e-12 * scale


@settings(max_examples=400, deadline=None)
@given(box_sum_inputs())
def test_box_sum_projection_is_feasible_and_optimal(inputs):
    v, lo, hi, s = inputs
    z = sdp._project_box_sum(v, lo, hi, s)
    scale = max(1.0, float(np.abs(v).max(initial=0.0)))
    tol = 1e-12 * scale
    assert np.all((lo <= z) & (z <= hi))
    assert abs(float(z.sum()) - s) <= 1e-12 * max(1.0, abs(s), v.size * scale)
    # KKT: one shift theta with z = clip(v - theta, lo, hi), that is free
    # entries equal to v - theta, entries at lo where v - theta <= lo and
    # entries at hi where v - theta >= hi
    at_lo, at_hi = z == lo, z == hi
    free = ~at_lo & ~at_hi
    theta_min = float((v[at_lo] - lo).max(initial=-math.inf))
    theta_max = float((v[at_hi] - hi).min(initial=math.inf))
    shifts = v[free] - z[free]
    if shifts.size:
        assert shifts.max() - shifts.min() <= tol
        theta_min, theta_max = max(theta_min, shifts.max()), min(theta_max, shifts.min())
    assert theta_min <= theta_max + tol


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_gssbm_projection_is_feasible(n, members, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(members, n, n)) * rng.choice([0.1, 1.0, 10.0])
    traces = rng.integers(1, n + 1, size=members).astype(np.float64)
    # sum K^2 for cluster sizes K adding up to the trace lies in [tr, tr^2]
    totals = traces + rng.random(members) * (traces ** 2 - traces)
    z = sdp._project_gssbm(m, traces, totals)
    assert z.shape == m.shape
    assert np.array_equal(z, z.swapaxes(1, 2))
    diag = np.diagonal(z, axis1=1, axis2=2)
    assert np.all((diag >= 0) & (diag <= 1)) and np.all(z >= 0)
    np.testing.assert_allclose(diag.sum(axis=1), traces, rtol=1e-12)
    np.testing.assert_allclose(z.sum(axis=(1, 2)), totals, rtol=1e-12)


def test_gssbm_admm_follows_the_bisection_projection(monkeypatch):
    # uncertified solves run every ADMM iteration through the projection;
    # with the former bisection patched in they take the same path. The
    # first and last converge (at 197 and 278 iterations), the middle one
    # runs out of iterations, and all three round to labels.
    opts = SolveOptions(max_iters=300)
    cases = [(GssbmParams(n=24, a=6, b=1, rhos=(0.4, 0.4)), 0),
             (GssbmParams(n=32, a=6, b=1, rhos=(0.4, 0.4)), 1),
             (GssbmParams(n=40, a=7, b=1, rhos=(0.45, 0.45)), 1)]
    graphs = [(generate(params, seed)[0], params) for params, seed in cases]
    exact = [recover(g, params, opts) for g, params in graphs]
    monkeypatch.setattr(sdp, "_project_box_sum", bisect_box_sum)
    bisected = [recover(g, params, opts) for g, params in graphs]
    for res, want in zip(exact, bisected):
        sol, ref = res.solution, want.solution
        assert not sol.certified and not ref.certified
        assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
        assert res.labels is not None and np.array_equal(res.labels, want.labels)
        assert abs(sol.objective - ref.objective) <= 1e-9
    assert [res.solution.status for res in exact] == ["converged", "max_iters", "converged"]


def test_weak_duality_without_certification():
    params = BasbmParams(n=40, a=7, b=1, rho=0.5)
    g, gt = generate(params, 1)
    prob = problem_from_graph(g, params)
    sol = solve(prob, SolveOptions(certify_every=0, max_iters=6000))
    assert sol.status == "converged"
    ystar_obj = prob.objective(cluster_matrix(gt))
    assert sol.objective >= ystar_obj - 1e-4 * params.n


def test_certified_solve_matches_truth():
    params = BasbmParams(n=150, a=18, b=2, rho=0.5)
    g, gt = generate(params, 2)
    sol = solve(problem_from_graph(g, params))
    assert sol.certified
    assert sol.status == "converged"
    assert same_clustering(sol.matrix, cluster_matrix(gt))


# ---------------------------------------------------------------------------
# rounding


def test_round_binary_exact_rank_one():
    params = BasbmParams(n=30, a=6, b=1, rho=0.4)
    g, gt = generate(params, 3)
    prob = problem_from_graph(g, params)
    sigma = gt.sigma
    sol = make_solution(prob, np.outer(sigma, sigma))
    out = round_binary(sol)
    assert same_clustering(np.outer(out, out), np.outer(sigma, sigma))
    assert np.count_nonzero(out > 0) == gt.first_cluster_size


def test_round_binary_perturbed():
    params = BasbmParams(n=50, a=8, b=1, rho=0.5)
    g, gt = generate(params, 4)
    prob = problem_from_graph(g, params)
    sigma = gt.sigma
    rng = np.random.default_rng(0)
    noise = rng.standard_normal((50, 50))
    noise = (noise + noise.T) / 2
    sol = make_solution(prob, np.outer(sigma, sigma) + 0.01 * noise)
    out = round_binary(sol)
    assert same_clustering(np.outer(out, out), np.outer(sigma, sigma))


def test_round_binary_tie_break_and_degenerate():
    params = BasbmParams(n=6, a=2, b=1, rho=0.5)
    g, _ = generate(params, 5)
    prob = problem_from_graph(g, params)
    # all-equal top eigenvector: deterministic lowest-index split
    out = round_binary(make_solution(prob, np.ones((6, 6))))
    assert out.tolist() == [1, 1, 1, -1, -1, -1]
    with pytest.raises(DegenerateSpectrum):
        round_binary(make_solution(prob, np.eye(6)))


def lexsort_binary_candidates(v, k):
    """Reference rounding: each sign quantized on its own, ranked by lexsort."""
    n = v.size
    scale = max(float(np.abs(v).max()), 1e-300)
    out = []
    for vec in (v, -v):
        quantized = np.round(vec / scale * 1e9)
        if k is None:
            sig = np.where(quantized >= 0, 1.0, -1.0)
        else:
            sig = -np.ones(n)
            sig[np.lexsort((np.arange(n), -quantized))[:k]] = 1.0
        out.append(sig)
    return out


TIE_PRONE = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-12, -1e-12, 0.3, 1 / 3]


@given(n=st.integers(1, 40), data=st.data())
@settings(max_examples=200, deadline=None)
def test_binary_candidates_match_the_lexsort_ranking(n, data):
    # ties, signed zeros and sub-quantum entries all rank as in the reference
    v = np.array(data.draw(st.lists(st.sampled_from(TIE_PRONE), min_size=n, max_size=n)))
    k = data.draw(st.integers(0, n) | st.none())
    got = sdp._binary_candidates(v[None], None if k is None else np.array([k]))[0]
    for got, want in zip(got, lexsort_binary_candidates(v, k)):
        assert got.tobytes() == want.tobytes()


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_binary_labels_match_the_per_member_rule(data):
    b, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 9))
    alphabet = data.draw(st.sampled_from([(0, 1), (-1, 0, 1)]))
    a = np.array(data.draw(st.lists(st.sampled_from(alphabet),
                                    min_size=b * n * n, max_size=b * n * n)),
                 dtype=np.float64).reshape(b, n, n)
    a = np.triu(a, 1) + np.triu(a, 1).swapaxes(1, 2)
    v = np.array(data.draw(st.lists(st.sampled_from(TIE_PRONE),
                                    min_size=b * n, max_size=b * n))).reshape(b, n)
    sizes = st.integers(0, n) | st.just(n // 2)
    k = data.draw(st.none() | st.lists(sizes, min_size=b, max_size=b).map(np.array))
    got = sdp._binary_labels(a, v, k)
    for r in range(b):
        want = best_binary_candidate(a[r], v[r], None if k is None else int(k[r]))
        assert got[r].tobytes() == want.tobytes()


def test_checkpoints_round_as_the_per_member_rule(monkeypatch):
    # one solve_many call: basbm at two rho (k = 3, 2k = n, and k = 1),
    # cbsbm (k None) and graphs whose eigenvectors tie exactly
    seen = {"k": set(), "ties": 0, "flips": 0, "rows": 0}
    real = sdp._binary_labels

    def checked(a, v, k):
        got = real(a, v, k)
        for r in range(v.shape[0]):
            kr = None if k is None else int(k[r])
            assert got[r].tobytes() == best_binary_candidate(a[r], v[r], kr).tobytes()
            cands = binary_sign_candidates(v[r], kr)
            won = max(cands, key=lambda sig: float(sig @ a[r] @ sig))
            q = np.round(v[r] / np.abs(v[r]).max() * 1e9)
            seen["k"].add(kr)
            seen["ties"] += np.unique(q).size < q.size
            seen["flips"] += bool(won[0] < 0 and (kr is None or 2 * kr == v.shape[1]))
            seen["rows"] += 1
        return got

    monkeypatch.setattr(sdp, "_binary_labels", checked)
    twins = np.zeros((6, 6))
    twins[0, 2:] = twins[1, 2:] = 1.0  # vertices 0 and 1 share their neighbours
    twins = twins + twins.T
    probs = []
    for params in (BasbmParams(n=6, a=2.5, b=1.0, rho=0.5),
                   BasbmParams(n=6, a=2.5, b=1.0, rho=0.3),
                   CbsbmParams(n=6, a=2.5, xi=0.1)):
        alphabet = CENSORED if params.variant == "cbsbm" else "simple"
        graphs = [generate(params, seed)[0] for seed in range(4)]
        graphs += [empty_graph(6, alphabet), graph_from_dense(twins, alphabet)]
        probs += [problem_from_graph(g, params) for g in graphs]
    opts = SolveOptions(tol=1e-5, max_iters=100, certify_every=25)
    assert len(list(solve_many(probs, opts))) == len(probs)
    assert seen["k"] == {3, 1, None}
    assert seen["ties"] and seen["flips"] and seen["rows"] > len(probs)


def test_round_binary_sign_invariance():
    params = BasbmParams(n=20, a=4, b=1, rho=0.5)
    g, gt = generate(params, 6)
    prob = problem_from_graph(g, params)
    sigma = gt.sigma
    up = round_binary(make_solution(prob, np.outer(sigma, sigma)))
    down = round_binary(make_solution(prob, np.outer(-sigma, -sigma)))
    assert np.array_equal(up, down)


def test_round_general_cases():
    sizes = (2, 2)
    z = np.zeros((5, 5))
    z[:2, :2] = 1.0
    z[2:4, 2:4] = 1.0
    assert round_general(z, sizes).tolist() == [1, 1, 2, 2, 0]

    perturbed = z.copy()
    perturbed[0, 2] = perturbed[2, 0] = 0.4  # below threshold margin
    assert round_general(perturbed, sizes).tolist() == [1, 1, 2, 2, 0]

    merged = z.copy()
    merged[0, 2] = merged[2, 0] = 0.6
    with pytest.raises(InconsistentRelation):
        round_general(merged, sizes)


def test_round_general_requires_clique_blocks():
    # connected but not transitive under the threshold
    z = np.eye(4)
    z[3, 3] = 0.0
    z[0, 1] = z[1, 0] = 0.9
    z[1, 2] = z[2, 1] = 0.9
    z[0, 2] = z[2, 0] = 0.3
    with pytest.raises(InconsistentRelation):
        round_general(z, (3,))


# ---------------------------------------------------------------------------
# brute-force oracle


def test_mle_two_cliques():
    g = GraphDelta(((0, 1, 1), (2, 3, 1))).apply(empty_graph(4))
    params = BasbmParams(n=4, a=2, b=0.5, rho=0.5)
    expected = np.outer([1, 1, -1, -1], [1, 1, -1, -1])
    assert same_clustering(mle_bruteforce(g, params), expected)


def test_mle_empty_graph_tie_break():
    g = empty_graph(4)
    params = BasbmParams(n=4, a=2, b=0.5, rho=0.5)
    expected = np.outer([1, 1, -1, -1], [1, 1, -1, -1])
    assert np.array_equal(mle_bruteforce(g, params), expected)


def test_mle_cbsbm_complete_noiseless():
    params = CbsbmParams(n=6, a=1.5, xi=0.0)
    _, gt = generate(params, 0)
    g = graph_from_dense(np.outer(gt.sigma, gt.sigma), CENSORED)
    assert same_clustering(mle_bruteforce(g, params), cluster_matrix(gt))


def test_mle_gssbm_cliques():
    g = GraphDelta(((0, 1, 1), (2, 3, 1))).apply(empty_graph(6))
    params = GssbmParams(n=6, a=1.5, b=0.3, rhos=(2 / 6, 2 / 6))
    result = mle_bruteforce(g, params)
    expected = cluster_matrix(GroundTruth("gssbm", np.array([1, 1, 2, 2, 0, 0])))
    assert same_clustering(result, expected)


def test_mle_size_guard():
    with pytest.raises(ValueError):
        mle_bruteforce(empty_graph(17), BasbmParams(n=17, a=2, b=1))


def test_certificate_implies_oracle_agreement():
    # small-scale version of the oracle-equivalence gate
    params = BasbmParams(n=8, a=2.6, b=0.4, rho=0.5)
    agreements = checked = 0
    for seed in range(15):
        g, gt = generate(params, seed)
        res = recover(g, params, FAST)
        if res.solution.certified and not res.failed:
            checked += 1
            oracle = mle_bruteforce(g, params)
            if same_clustering(res.matrix, oracle):
                agreements += 1
    assert agreements == checked
    assert checked >= 3


@pytest.mark.parametrize("params", [
    BasbmParams(n=200, a=20, b=2, rho=0.5),
    BasbmParams(n=200, a=25, b=2, rho=0.3),
    CbsbmParams(n=200, a=8, xi=0.05),
    GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3)),
], ids=["basbm", "basbm-unbalanced", "cbsbm", "gssbm"])
def test_above_threshold_certifies_before_admm(params):
    g, gt = generate(params, 11)
    res = recover(g, params)
    assert res.solution.certified and res.solution.iterations == 0
    assert_carries_its_certificate(res)
    assert same_clustering(res.matrix, cluster_matrix(gt))


def test_gssbm_rounding_miss_certifies_after_admm():
    # the rescaled spectral rounding misses this instance (a member's
    # diagonal is about 0.495, under the 1/2 threshold), so the solve falls
    # through to ADMM, whose rounded iterate certifies at iteration 125
    params = GssbmParams(n=200, a=30, b=2, rhos=(0.3, 0.3, 0.3))
    g, gt = generate(params, 11)
    res = recover(g, params)
    assert res.solution.certified and res.solution.iterations == 125
    assert_carries_its_certificate(res)
    assert same_clustering(res.matrix, cluster_matrix(gt))


def assert_carries_its_certificate(res):
    """A certified result carries the gate's valid report, whose certificate
    holds the result's labels, and its matrix is their cluster matrix."""
    report = res.solution.certificate
    assert report.valid
    assert np.array_equal(report.certificate.labels, res.labels)
    assert res.labels.dtype == np.int64
    variant = res.solution.problem.variant
    assert np.array_equal(res.matrix, cluster_matrix(GroundTruth(variant, res.labels)))


@pytest.mark.parametrize("params, seeds", [
    (BasbmParams(n=KRYLOV_MIN_N, a=15, b=2, rho=0.3), range(4)),
    (BasbmParams(n=300, a=25, b=2, rho=0.3), range(4)),
    (CbsbmParams(n=300, a=8, xi=0.05), range(4)),
    (GssbmParams(n=200, a=30, b=2, rhos=(0.3, 0.3, 0.3)), range(9, 13)),
], ids=["basbm-cutover", "basbm", "cbsbm", "gssbm"])
def test_krylov_and_full_spectra_give_the_same_candidate(monkeypatch, params, seeds):
    probs = [problem_from_graph(generate(params, seed)[0], params) for seed in seeds]
    krylov = sdp._spectral_candidates(probs)
    monkeypatch.setattr(sdp, "KRYLOV_MIN_N", params.n + 1)
    monkeypatch.setattr(sdp, "KRYLOV_MIN_N_GENERAL", params.n + 1)
    full = sdp._spectral_candidates(probs)
    for k, f in zip(krylov, full, strict=True):
        assert (k is None) == (f is None)
        if f is not None:
            assert k.tobytes() == f.tobytes()


@pytest.mark.parametrize("cutover", [False, True], ids=["full", "krylov"])
def test_empty_gssbm_graph_has_no_spectral_candidate(monkeypatch, cutover):
    # every eigenvalue is zero, so the member-diagonal scale is not positive
    params = GssbmParams(n=12, a=4, b=1, rhos=(0.3, 0.3))
    if cutover:
        monkeypatch.setattr(sdp, "KRYLOV_MIN_N_GENERAL", params.n)
    prob = problem_from_graph(empty_graph(params.n), params)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sdp._spectral_candidates([prob]) == [None]


def test_spectral_stage_switches_to_krylov_at_the_cutover(monkeypatch):
    calls = []
    real = sdp.top_eigenpairs

    def counted(m, r):
        calls.append((m.shape[0], r))
        return real(m, r)

    monkeypatch.setattr(sdp, "top_eigenpairs", counted)
    for n in (KRYLOV_MIN_N - 1, KRYLOV_MIN_N):
        params = BasbmParams(n=n, a=20, b=2, rho=0.5)
        sol = solve(problem_from_graph(generate(params, 0)[0], params))
        assert sol.certified and sol.iterations == 0
    # gssbm has its own, later cut-over
    for n in (KRYLOV_MIN_N, KRYLOV_MIN_N_GENERAL - 1, KRYLOV_MIN_N_GENERAL):
        params = GssbmParams(n=n, a=20, b=2, rhos=(0.3, 0.3))
        solve(problem_from_graph(generate(params, 0)[0], params),
              SolveOptions(max_iters=1))
    assert calls == [(KRYLOV_MIN_N, 1), (KRYLOV_MIN_N_GENERAL, 2)]


def record_calls(monkeypatch, owner, names, log):
    """Wrap each ``owner.name`` so that it appends (name, first argument's
    shape) to ``log`` before running."""
    for name in names:
        real = getattr(owner, name)

        def recorded(m, *args, name=name, real=real, **kwargs):
            log.append((name, m.shape))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)


def test_gate_estimates_eta_from_the_cutover(monkeypatch):
    calls = []
    record_calls(monkeypatch, certificates, ("spectral_norm", "norm_estimate"), calls)
    for n in (KRYLOV_MIN_N_GENERAL - 1, KRYLOV_MIN_N_GENERAL):
        params = GssbmParams(n=n, a=30, b=2, rhos=(0.3, 0.3, 0.3))
        sol = solve(problem_from_graph(generate(params, 0)[0], params))
        assert sol.certified and sol.iterations == 0
    m, m1 = KRYLOV_MIN_N_GENERAL, KRYLOV_MIN_N_GENERAL - 1
    assert calls == [("spectral_norm", (m1, m1)), ("norm_estimate", (m, m))]


def sweep_eigen_calls(monkeypatch) -> list:
    """(name, shape) of every eigendecomposition a certified recover of a
    sweep-general instance runs: ``np.linalg``'s and ``eig_sorted``'s kernel."""
    calls = []
    record_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh"), calls)
    if spectral._EIGH_KERNEL is not None:
        record_calls(monkeypatch, spectral, ("_EIGH_KERNEL",), calls)
    params = GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3))
    res = recover(generate(params, 11)[0], params)
    assert res.solution.certified and res.solution.iterations == 0
    return calls


def test_certified_gssbm_recover_runs_no_full_eigendecomposition(monkeypatch):
    # the sweep setting: the candidate comes from block Krylov, eta from
    # Lanczos and the certificate verdict from a Cholesky factorisation
    calls = sweep_eigen_calls(monkeypatch)
    assert calls and all(shape[-1] < 300 for _, shape in calls)


def test_eigen_call_log_sees_a_krylov_fallback(monkeypatch):
    # with no Ritz gap small enough, top_eigenpairs falls back to
    # eig_sorted's full decomposition, which np.linalg.eigh does not see
    monkeypatch.setattr(spectral, "DEFAULT_TOLS",
                        dataclasses.replace(spectral.DEFAULT_TOLS, krylov_angle=0.0))
    calls = sweep_eigen_calls(monkeypatch)
    assert any(shape[-1] == 300 for _, shape in calls)


def test_subthreshold_runs_admm():
    params = BasbmParams(n=100, a=3, b=2, rho=0.5)
    g, _ = generate(params, 0)
    sol = solve(problem_from_graph(g, params),
                SolveOptions(max_iters=30, certify_every=10))
    assert not sol.certified
    assert sol.iterations == 30


def test_certify_every_zero_skips_spectral_path():
    params = BasbmParams(n=200, a=20, b=2, rho=0.5)
    g, _ = generate(params, 11)
    sol = solve(problem_from_graph(g, params),
                SolveOptions(max_iters=3, certify_every=0))
    assert not sol.certified
    assert sol.iterations == 3


@st.composite
def small_instances(draw):
    n = draw(st.integers(4, 10))
    scale = n / math.log(n)
    # strong planting, so that a good share of draws certifies at n <= 10
    p = draw(st.floats(0.8, 0.95))
    q = draw(st.floats(0.01, 0.2)) * p
    variant = draw(st.sampled_from(["basbm", "cbsbm", "gssbm"]))
    if variant == "basbm":
        params = BasbmParams(n=n, a=p * scale, b=q * scale,
                             rho=draw(st.sampled_from([0.3, 0.5])))
    elif variant == "cbsbm":
        params = CbsbmParams(n=n, a=p * scale, xi=draw(st.floats(0.0, 0.2)))
    else:
        params = GssbmParams(n=n, a=p * scale, b=q * scale,
                             rhos=draw(st.sampled_from([(0.5,), (0.4, 0.4),
                                                        (0.3, 0.3)])))
    return params, draw(st.integers(0, 2 ** 32 - 1))


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_spectral_certificate_matches_oracle(instance):
    params, seed = instance
    g, _ = generate(params, seed)
    sol = solve(problem_from_graph(g, params), SolveOptions(max_iters=1))
    if sol.certified and sol.iterations == 0:
        assert np.array_equal(sol.matrix, mle_bruteforce(g, params))


def test_gssbm_recover_small():
    params = GssbmParams(n=100, a=15, b=1, rhos=(0.45, 0.45))
    g, gt = generate(params, 9)
    res = recover(g, params)
    assert not res.failed
    assert same_clustering(res.matrix, cluster_matrix(gt))


def assert_labels_are_the_rounding(g, params, opts=SolveOptions()):
    """A certified recover returns the rounding of its matrix without rounding."""
    res = recover(g, params, opts)
    sol = res.solution
    if not sol.certified:
        assert sol.certificate is None
        return False
    if params.variant == "gssbm":
        rounded = round_general(sol.matrix, params.sizes)
    else:
        rounded = round_binary(sol)
    assert np.array_equal(res.labels, rounded)
    assert res.matrix is sol.matrix
    assert_carries_its_certificate(res)
    return True


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_certified_labels_match_rounding(instance):
    params, seed = instance
    g, _ = generate(params, seed)
    assert_labels_are_the_rounding(g, params, SolveOptions(max_iters=200))


@pytest.mark.parametrize("params", [
    BasbmParams(n=300, a=20, b=2, rho=0.5),
    BasbmParams(n=300, a=25, b=2, rho=0.3),
    CbsbmParams(n=300, a=8, xi=0.05),
    GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3)),
], ids=["basbm", "basbm-unbalanced", "cbsbm", "gssbm"])
def test_certified_labels_match_rounding_at_scale(params):
    g, _ = generate(params, 3)
    assert assert_labels_are_the_rounding(g, params)


def test_polished_recover_returns_the_clustering_its_solution_holds():
    # seed 1 converges uncertified and polishes to the cluster matrix of
    # {2, 4}. Every entry of that matrix's top eigenvector ties in size, so
    # rounding it again took the two lowest vertices of the other side,
    # {0, 1}, whenever the eigenvector's sign came out the other way
    params = BasbmParams(n=5, a=3, b=1, rho=0.4)
    g, _ = generate(params, 1)
    res = recover(g, params)
    sol = res.solution
    assert not sol.certified and sol.iterations == 62
    assert np.flatnonzero(res.labels == 1).tolist() == [2, 4]
    assert np.array_equal(res.labels, sol.labels)
    assert np.array_equal(cluster_matrix(GroundTruth("basbm", res.labels)), sol.matrix)


@pytest.mark.parametrize("params", [
    BasbmParams(n=150, a=20, b=2, rho=0.3),
    CbsbmParams(n=100, a=8, xi=0.05),
    GssbmParams(n=200, a=30, b=2, rhos=(0.3, 0.3, 0.3)),
], ids=["basbm", "cbsbm", "gssbm"])
def test_recover_is_equivariant_under_vertex_relabelling(params):
    # the generator puts clusters in contiguous vertex blocks; relabelling
    # the vertices must relabel the recovered cluster matrix the same way
    g, gt = generate(params, 1)
    perm = np.random.default_rng(0).permutation(params.n)
    g2, gt2 = permute_instance(g, gt, np.random.default_rng(0))
    assert np.array_equal(gt2.assignment, gt.assignment[perm])
    res, res2 = recover(g, params), recover(g2, params)
    assert res.solution.certified and res2.solution.certified
    assert np.array_equal(res2.matrix, res.matrix[np.ix_(perm, perm)])
    assert same_clustering(res2.matrix, cluster_matrix(gt2))


# ---------------------------------------------------------------------------
# batches


BATCH_OPTS = SolveOptions(tol=1e-4, max_iters=300, certify_every=5)
# a censored graph whose spectral candidate fails to certify and whose
# ADMM iterate certifies at the checkpoint of iteration 10
CHECKPOINT_CERTIFIED = Graph(9, "censored", np.array(
    [0, 0, 1, -1, 0, 1, 1, 1, 1, 1, 0, 0, -1, 1, 1, 0, 1, 0, 1, 1, 1, 0, -1, 1,
     1, 1, 1, 1, 0, 1, 1, 1, 1, -1, -1, 1], dtype=np.int8))
CHECKPOINT_PARAMS = CbsbmParams(n=9, a=2.0, xi=0.1)


def planted_problem(params, seed):
    return problem_from_graph(generate(params, seed)[0], params)


# both change their step size at iteration 200; seed 9 then converges at
# iteration 209 while seed 79 iterates on to 264 (found by a seed scan)
LATE_LEAVER = BasbmParams(n=7, a=2.5, b=1.0, rho=0.5)


def anchor_problems():
    """Problems that leave the stack in every way there is, under BATCH_OPTS.

    The last two leave one after the other, after a step-size change, so the
    stack drops a member whose cached data term a / t was recomputed.
    """
    return [
        planted_problem(BasbmParams(n=5, a=2.5, b=1.0, rho=0.5), 0),  # spectral
        problem_from_graph(CHECKPOINT_CERTIFIED, CHECKPOINT_PARAMS),  # checkpoint
        planted_problem(BasbmParams(n=5, a=2.5, b=1.0, rho=0.5), 1),  # converged
        planted_problem(CbsbmParams(n=5, a=2.0, xi=0.2), 2),           # converged
        planted_problem(GssbmParams(n=5, a=3.0, b=1.0, rhos=(0.3, 0.3)), 0),
        planted_problem(BasbmParams(n=6, a=2.5, b=1.0, rho=0.5), 0),  # max_iters
        planted_problem(LATE_LEAVER, 9),                               # converged
        planted_problem(LATE_LEAVER, 79),                              # converged
    ]


def finish(sol):
    if sol.certified:
        return "spectral" if sol.iterations == 0 else "checkpoint"
    return sol.status


def assert_same_solution(got, want):
    assert got.problem is want.problem
    assert got.matrix.tobytes() == want.matrix.tobytes()
    assert (got.objective, got.primal_residual, got.dual_residual, got.iterations,
            got.status, got.certified) == (want.objective, want.primal_residual,
                                           want.dual_residual, want.iterations,
                                           want.status, want.certified)
    assert (got.certificate is None) == (want.certificate is None)
    if want.certificate is not None:
        assert (got.certificate.certificate.labels.tobytes()
                == want.certificate.certificate.labels.tobytes())


@settings(max_examples=10, deadline=None)
@given(extra=st.lists(small_instances(), max_size=4), data=st.data())
def test_solve_many_matches_each_solve_alone(extra, data):
    probs = anchor_problems() + [planted_problem(p, seed) for p, seed in extra]
    alone = [solve(p, BATCH_OPTS) for p in probs]
    assert {finish(sol) for sol in alone[:6]} == {
        "spectral", "checkpoint", "converged", "max_iters"}
    assert 200 < alone[6].iterations < alone[7].iterations < 300

    order = data.draw(st.permutations(range(len(probs))))
    cut = data.draw(st.integers(0, len(probs)))
    batched = list(solve_many(probs, BATCH_OPTS))
    permuted = [(order[j], sol)
                for j, sol in solve_many([probs[i] for i in order], BATCH_OPTS)]
    split = (list(solve_many(probs[:cut], BATCH_OPTS))
             + [(cut + j, sol) for j, sol in solve_many(probs[cut:], BATCH_OPTS)])
    for results in (batched, permuted, split):
        assert sorted(i for i, _ in results) == list(range(len(probs)))
        for i, sol in results:
            assert_same_solution(sol, alone[i])
    # certified spectral candidates come out before any ADMM member
    kinds = [finish(sol) == "spectral" for _, sol in batched]
    assert kinds == sorted(kinds, reverse=True)


def test_each_candidate_is_certified_once(monkeypatch):
    # sub-threshold: rounds to a candidate at every checkpoint and never certifies
    opts = SolveOptions(tol=1e-5, max_iters=300, certify_every=25)
    prob = planted_problem(BasbmParams(n=6, a=2.5, b=1.0, rho=0.5), 0)
    want = solve(prob, opts)
    rounded, tested = [], []
    real_round = sdp._candidates

    def rounding(*args):
        out = real_round(*args)
        rounded.extend(labels.tobytes() for labels in out if labels is not None)
        return out

    def certifying(variant, a_dense, labels, sizes):
        tested.append(labels.tobytes())
        return certificates.candidate_report(variant, a_dense, labels, sizes)

    monkeypatch.setattr(sdp, "_candidates", rounding)
    monkeypatch.setattr(sdp, "candidate_report", certifying)
    assert_same_solution(solve(prob, opts), want)
    assert not want.certified and want.iterations == 300
    # the spectral candidate and 12 checkpoints, then the untested polish
    assert len(rounded) == 14
    assert sorted(tested) == sorted(set(rounded[:-1]))
    assert len(tested) < 13
