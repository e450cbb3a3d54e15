import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmdp import privacy
from sbmdp.concentration import check_concentration, degree_margins, lambda_star
from sbmdp.errors import DegenerateEstimate, InvalidParams
from sbmdp.graph import ALPHABETS, Graph, ball_size, neighbors_at_distance, pair_count
from sbmdp.models import (
    BASBM,
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    cluster_matrix,
    generate,
    same_clustering,
)
from sbmdp.privacy import (
    MODES,
    PrivacyParams,
    distance_to_instability,
    fast_path_constants,
    laplace_quantile,
    outcomes_equal,
    param_estimate,
    release,
    sample_laplace,
    stbl,
    stbl_fast,
)
from sbmdp.sdp import SolveOptions, recover

from oracles import (
    GraphDelta,
    cached_estimator,
    empty_graph,
    entry,
    log_problems,
    log_solves,
    mle_bruteforce,
    shift_constants,
)


def lifted(f):
    """The list-valued estimator of a per-graph function, in input order."""
    return lambda graphs: enumerate(map(f, graphs))


# a Generator whose every uniform draw is 1/2, which sample_laplace maps
# to exactly -0.0: a mechanism run with it releases iff d_hat clears the
# threshold
MEDIAN_DRAW = SimpleNamespace(random=lambda: 0.5)


def test_privacy_params():
    priv = PrivacyParams(1.0, 0.05)
    assert priv.threshold == pytest.approx(math.log(20))
    assert PrivacyParams.from_exponent(2.0, 2.0, 100).delta == pytest.approx(1e-4)
    with pytest.raises(InvalidParams):
        PrivacyParams(0.0, 0.1)
    with pytest.raises(InvalidParams):
        PrivacyParams(1.0, 1.5)


def test_laplace_moments_and_median():
    rng = np.random.default_rng(0)
    draws = np.array([sample_laplace(1.0, rng) for _ in range(100_000)])
    assert abs(draws.mean()) <= 0.02
    assert laplace_quantile(0.5, 1.0) == 0.0
    assert laplace_quantile(0.9, 2.0) == pytest.approx(-2 * math.log(0.2))
    with pytest.raises(InvalidParams):
        laplace_quantile(0.0, 1.0)
    with pytest.raises(InvalidParams):
        sample_laplace(-1.0, rng)


def test_laplace_tail_matches_release_bound():
    # Pr[X > log(1/delta)/eps] is exactly delta/2 for the Laplace draw
    rng = np.random.default_rng(1)
    threshold = math.log(1 / 0.05)
    draws = np.array([sample_laplace(1.0, rng) for _ in range(100_000)])
    rate = float((draws > threshold).mean())
    assert 0.02 <= rate <= 0.03


def test_outcomes_equal_failure_semantics():
    y = np.outer([1, -1], [1, -1])
    assert outcomes_equal(y, y.copy())
    assert not outcomes_equal(y, None)
    assert not outcomes_equal(None, None)  # failures differ from everything


def test_distance_constant_function_hits_cap():
    g = empty_graph(4)
    one = lambda h: np.ones((1, 1))
    assert distance_to_instability(g, lifted(one), one(g), 3) == 3
    assert distance_to_instability(g, lifted(one), one(g), 0) == 0


def test_distance_one_flip_changes_mle():
    # single edge {0,2}: adding {0,1} creates a tie broken to another split
    params = BasbmParams(n=4, a=2, b=0.5, rho=0.5)
    g = GraphDelta(((0, 2, 1),)).apply(empty_graph(4))
    f = lambda h: mle_bruteforce(h, params)
    base = f(g)
    assert distance_to_instability(g, lifted(f), base, 5) == 1
    # independent oracle: exhaustive first differing radius
    found = None
    for k in range(1, 4):
        if any(not outcomes_equal(f(h), base)
               for h in neighbors_at_distance(g, k)):
            found = k
            break
    assert found == 1


def test_distance_matches_bruteforce_oracle():
    params = BasbmParams(n=5, a=2, b=0.5, rho=0.4)
    f = lambda h: mle_bruteforce(h, params)
    rng = np.random.default_rng(2)
    for _ in range(3):
        vals = rng.integers(0, 2, size=10).astype(np.int8)
        g = Graph(5, "simple", vals)
        cap = 3
        base = f(g)
        expected = cap
        for k in range(1, cap + 1):
            if any(not outcomes_equal(f(h), base)
                   for h in neighbors_at_distance(g, k)):
                expected = k
                break
        assert distance_to_instability(g, lifted(f), base, cap) == expected


def test_distance_budget_guard():
    # the radius-1 ball around a 6-vertex graph holds 15 graphs: a budget
    # of 10 shrinks the radius to 0 without calling f, one of 15 to 1
    g = empty_graph(6)
    calls = []

    def one(h):
        calls.append(h)
        return np.ones((1, 1))

    assert distance_to_instability(g, lifted(one), one(g), 4, max_evals=10) == 0
    assert calls == [g]
    # radius 1 is the cap itself, so no neighbour is solved
    assert distance_to_instability(g, lifted(one), one(g), 4, max_evals=15) == 1
    assert len(calls) == 2
    # a negative budget is an error, not a silent distance 0
    with pytest.raises(InvalidParams, match="max_evals"):
        distance_to_instability(g, lifted(one), np.ones((1, 1)), 4, max_evals=-1)
    assert len(calls) == 2


def test_search_rejects_missing_outputs():
    # a graph the estimator skipped would otherwise count as unchanged
    g = empty_graph(4)
    drops_last = lambda graphs: enumerate([np.ones((1, 1))] * (len(graphs) - 1))
    with pytest.raises(InvalidParams):
        distance_to_instability(g, drops_last, np.ones((1, 1)), 3)


@pytest.mark.parametrize("cap", [2, 3])
def test_search_never_solves_the_cap_level(cap):
    # any graph at the cap could only confirm the answer cap, so f must
    # never be asked about one, with or without a budget
    g = Graph(4, "simple", np.array([1, 0, 1, 0, 0, 1], dtype=np.int8))

    def f(h):
        if np.count_nonzero(h.values != g.values) >= cap:
            raise AssertionError("solved a graph at the cap")
        return np.ones((1, 1))

    assert distance_to_instability(g, lifted(f), f(g), cap) == cap
    # a budget that admits the ball of radius cap keeps the radius at cap
    budget = ball_size(g.n, g.alphabet, cap)
    assert distance_to_instability(g, lifted(f), f(g), cap + 2,
                                   max_evals=budget) == cap


@st.composite
def capped_searches(draw):
    n = draw(st.integers(2, 5))
    alphabet = draw(st.sampled_from(sorted(ALPHABETS)))
    m = pair_count(n)
    values = draw(st.lists(st.sampled_from(ALPHABETS[alphabet]),
                           min_size=m, max_size=m))
    weights = np.array(draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m)),
                       dtype=np.int64)
    width = draw(st.integers(1, 4))
    failing = draw(st.integers(-4, 4))
    cap = draw(st.integers(0, 3))
    # budgets from one ball size to the next, so that both fit and cut
    # occur, with the edges of that range drawn often
    level = draw(st.integers(0, 3))
    lo, hi = ball_size(n, alphabet, level), ball_size(n, alphabet, level + 1)
    max_evals = draw(st.none() | st.sampled_from([lo, max(lo, hi - 1), hi])
                     | st.integers(lo, hi))
    g = Graph(n, alphabet, np.array(values, dtype=np.int8))
    order = draw(st.sampled_from(["forward", "reversed", "shuffled"]))
    return g, weights, width, failing, cap, max_evals, order, draw(st.integers(0, 99))


def in_order(f, order, seed):
    """A list-valued estimator yielding f's outputs in the given order."""
    def estimator(graphs):
        positions = list(range(len(graphs)))
        if order == "reversed":
            positions.reverse()
        elif order == "shuffled":
            np.random.default_rng(seed).shuffle(positions)
        for i in positions:
            yield i, f(graphs[i])
    return estimator


@settings(max_examples=200, deadline=None)
@given(capped_searches())
def test_capped_search_is_bounded_lipschitz_and_exact(case):
    # f buckets a weighted entry sum and fails (None) on one bucket; it
    # needs no solver, so every graph's distance can be checked directly.
    # The estimator yields each batch forward, reversed or shuffled: the
    # order within a level must not change the distance.
    g, weights, width, failing, cap, max_evals, order, seed = case

    def key(values):
        return (values.astype(np.int64) @ weights) // width

    def f(h):
        k = int(key(h.values))
        return None if k == failing else np.full((1, 1), k)

    def distance(h):
        return distance_to_instability(h, in_order(f, order, seed), f(h), cap,
                                       max_evals=max_evals)

    calls = []

    def counted(h):
        calls.append(h)
        return f(h)

    # the radius the budget allows depends on the size and alphabet only
    radius = max(k for k in range(cap + 1)
                 if max_evals is None or ball_size(g.n, g.alphabet, k) <= max_evals)

    d = distance_to_instability(g, in_order(counted, order, seed), f(g), cap,
                                max_evals=max_evals)
    if max_evals is not None:
        assert len(calls) <= max_evals
    # the last level of the ball (radius <= cap) can only confirm the
    # radius, so it is skipped
    assert all(np.count_nonzero(h.values != g.values) <= radius - 1
               for h in calls)
    for h in neighbors_at_distance(g, 1):
        assert abs(distance(h) - d) <= 1

    # brute force over every graph of this size and alphabet
    others = np.array(list(itertools.product(ALPHABETS[g.alphabet],
                                             repeat=g.values.size)), dtype=np.int64)
    hamming = np.count_nonzero(others != g.values, axis=1)
    keys, base = key(others), int(key(g.values))
    differs = (keys != base) | (keys == failing) | (base == failing)
    found = hamming[differs & (hamming > 0)]
    exact = min(cap, int(found.min()) if found.size else cap)
    # when the budget's radius reaches the cap the search is exact
    assert d == min(exact, radius)


def test_stbl_releases_stable_input():
    g = empty_graph(5)
    priv = PrivacyParams(1.0, 0.05)
    constant = np.ones((2, 2))
    out = stbl(g, lifted(lambda h: constant), constant, priv, MEDIAN_DRAW)
    assert out.trace.noise == 0.0
    cap = math.ceil(priv.threshold) + 20
    assert out.trace.d_hat == cap
    assert out.trace.released
    assert np.array_equal(out.result, constant)


# the release-search setting: the concentration test is infeasible, so
# both mechanisms search, and c_stab = 0.9 caps stbl_fast's search at 2
SEARCHED = BasbmParams(n=6, a=3.0, b=0.5, rho=0.5)
SEARCHED_PRIV = PrivacyParams.from_exponent(1.0, 1.0, SEARCHED.n)


@pytest.mark.parametrize("mode", MODES)
def test_release_solves_the_base_graph_once(monkeypatch, mode):
    g, _ = generate(SEARCHED, 0)
    solves = log_solves(monkeypatch)
    release(mode, g, SEARCHED, SEARCHED_PRIV, 0, c_stab=0.9, max_evals=None)
    assert solves.count(g) == 1
    # seed 0 sits at distance 2 or more, so the search solved all of level 1
    assert len(solves) > pair_count(SEARCHED.n)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("params, priv, c_stab, max_evals, releasing", [
    # seed 0 releases in both modes, seed 3 withholds in both
    (SEARCHED, SEARCHED_PRIV, 0.9, None, {0: MODES, 3: ()}),
    # certified; stbl_fast releases on its fast path, and stbl withholds at
    # distance 0, as 10 evaluations cover no level
    (BasbmParams(n=150, a=20, b=2, rho=0.3),
     PrivacyParams.from_exponent(2.0, 2.0, 150), 4.0, 10, {1: ("fast",)}),
], ids=["n6", "n150"])
def test_release_publishes_the_labels_of_recover(mode, params, priv, c_stab,
                                                 max_evals, releasing):
    # the seed both generates the graph and seeds the noise
    for seed, modes in releasing.items():
        g, _ = generate(params, seed)
        base = recover(g, params)
        out = release(mode, g, params, priv, seed, c_stab=c_stab, max_evals=max_evals)
        assert out.bottom == (mode not in modes)
        if out.bottom:
            assert out.labels is None
        else:
            assert np.array_equal(out.labels, base.labels)
            assert np.array_equal(out.result, base.matrix)
    if params.n == 150:
        assert base.solution.certified


def test_release_refuses_an_unknown_mode_and_a_negative_seed():
    g, _ = generate(SEARCHED, 0)
    with pytest.raises(InvalidParams, match="mode"):
        release("rr", g, SEARCHED, SEARCHED_PRIV, 0, c_stab=0.9, max_evals=None)
    with pytest.raises(InvalidParams, match="seed"):
        release("fast", g, SEARCHED, SEARCHED_PRIV, -1, c_stab=0.9, max_evals=None)


@pytest.mark.parametrize("mode", MODES)
def test_release_refuses_a_wrong_size_graph_and_a_negative_budget(monkeypatch, mode):
    # both raise before the solver runs, not as a withheld release
    problems = log_problems(monkeypatch)
    g, _ = generate(BasbmParams(n=30, a=3.0, b=0.5, rho=0.3), 0)
    with pytest.raises(InvalidParams, match="vertices"):
        release(mode, g, BasbmParams(n=40, a=3.0, b=0.5, rho=0.3), SEARCHED_PRIV, 0,
                c_stab=0.9, max_evals=None)
    g, _ = generate(SEARCHED, 0)
    with pytest.raises(InvalidParams, match="max_evals"):
        release(mode, g, SEARCHED, SEARCHED_PRIV, 0, c_stab=0.9, max_evals=-1)
    assert problems == []


@pytest.mark.parametrize("mode", MODES)
def test_release_refuses_params_that_fail_validate(monkeypatch, mode):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before validating params")

    monkeypatch.setattr(privacy, "recover", no_solve)
    monkeypatch.setattr(privacy, "recover_many", no_solve)
    g, _ = generate(SEARCHED, 0)
    with pytest.raises(InvalidParams, match="a > b"):
        release(mode, g, BasbmParams(n=6, a=0.5, b=0.5, rho=0.5), SEARCHED_PRIV, 0,
                c_stab=0.9, max_evals=None)


CBSBM_6 = CbsbmParams(n=6, a=3.0, xi=0.1)


@pytest.mark.parametrize("params, c_stab, options", [
    (SEARCHED, -1.0, {}),
    (SEARCHED, 0.9, {"max_evals": -1}),
    (CBSBM_6, 0.9, {"estimate_rates": True}),
    (BasbmParams(n=6, a=0.5, b=0.5, rho=0.5), 0.9, {}),
], ids=["c_stab", "max_evals", "estimate_rates-cbsbm", "a-not-above-b"])
def test_stbl_fast_refuses_bad_arguments_before_solving(monkeypatch, params, c_stab,
                                                       options):
    g, _ = generate(CBSBM_6 if params.variant == "cbsbm" else SEARCHED, 0)
    solves = log_solves(monkeypatch)
    with pytest.raises(InvalidParams):
        stbl_fast(g, params, SEARCHED_PRIV, c_stab, MEDIAN_DRAW, **options)
    assert solves == []


def test_stbl_withholds_unstable_input():
    # f depends on the first entry, so every input sits at distance 1
    g = empty_graph(5)
    f = lambda h: np.ones((1, 1)) * (1 + entry(h, 0, 1))
    priv = PrivacyParams(1.0, 0.01)
    out = stbl(g, lifted(f), f(g), priv, MEDIAN_DRAW)
    assert out.trace.d_hat == 1
    assert out.bottom


def test_stbl_bottom_rate_bound():
    # on a (c+k1)/eps log n stable input the failure rate is ~ n^-k1 / 2
    n, eps, c_exp, k1 = 100, 1.0, 1.0, 1.0
    priv = PrivacyParams.from_exponent(eps, c_exp, n)
    d = (c_exp + k1) / eps * math.log(n)
    rng = np.random.default_rng(5)
    misses = sum(
        d + sample_laplace(1 / eps, rng) <= priv.threshold
        for _ in range(10_000))
    assert misses / 10_000 <= n ** (-k1) + 0.005


def test_stbl_fast_deterministic_fast_path():
    params = BasbmParams(n=200, a=24, b=2, rho=0.5)
    g, gt = generate(params, 0)
    priv = PrivacyParams.from_exponent(2.0, 2.0, params.n)
    out = stbl_fast(g, params, priv, 4.0, MEDIAN_DRAW)
    assert out.trace.fast_path
    assert out.trace.d_hat == pytest.approx(4.0 * math.log(200) / 2.0)
    assert not out.bottom
    assert same_clustering(out.result, cluster_matrix(gt))
    # support property: the released matrix is exactly the rounded solution
    assert same_clustering(out.result, recover(g, params).matrix)


def test_stbl_fast_empty_graph_withholds():
    params = BasbmParams(n=20, a=2.5, b=0.5, rho=0.5)
    g = empty_graph(params.n)
    priv = PrivacyParams.from_exponent(1.0, 2.0, params.n)
    out = stbl_fast(g, params, priv, 1.0, MEDIAN_DRAW)
    assert not out.trace.fast_path
    assert out.trace.d_hat <= math.log(20)
    assert out.bottom


def test_stbl_fast_mechanism_determinism():
    params = BasbmParams(n=150, a=20, b=2, rho=0.5)
    g, _ = generate(params, 1)
    priv = PrivacyParams.from_exponent(2.0, 2.0, params.n)
    out1 = stbl_fast(g, params, priv, 4.0, np.random.default_rng(8))
    out2 = stbl_fast(g, params, priv, 4.0, np.random.default_rng(8))
    assert out1.trace == out2.trace
    assert same_clustering(out1.result, out2.result)


def test_stbl_fast_sensitivity_small_audit():
    # neighboring graphs: the internal distance value moves by at most one
    params = CbsbmParams(n=6, a=2.0, xi=0.3)
    priv = PrivacyParams.from_exponent(1.0, 1.0, 6)
    f = cached_estimator(params, SolveOptions(), {})
    rng = np.random.default_rng(9)
    for seed in (0, 1):
        g, _ = generate(params, seed)
        base = stbl_fast(g, params, priv, 1.0, rng, f=f)
        for h in neighbors_at_distance(g, 1):
            other = stbl_fast(h, params, priv, 1.0, rng, f=f)
            assert abs(base.trace.d_hat - other.trace.d_hat) <= 1.0 + 1e-12


def _weakest_vertex_flips(g, gt, params, budget):
    """Greedy flips at the vertex v of smallest degree margin, one per step.

    Each step deletes an internal edge of v or adds a cross edge of v,
    whichever reaches the partner of smallest margin, so that both margins
    drop by one. Yields the flips made so far after each step.
    """
    dense = g.to_dense().copy()
    same = np.equal.outer(gt.assignment, gt.assignment)
    flips = []
    for _ in range(budget):
        d = degree_margins(dense, gt.sigma, lambda_star(params))
        v = int(d.argmin())
        # v's internal edges and cross non-edges; a flipped pair is neither
        u = int(np.where(same[v] == (dense[v] == 1), d, np.inf).argmin())
        dense[v, u] = dense[u, v] = 1 - dense[v, u]
        flips.append((min(u, v), max(u, v), int(dense[v, u])))
        yield GraphDelta(tuple(flips))


def _cross_block_flips(g, gt, params, budget):
    """Edge additions packed into one cross block, one per step.

    The block joins the three vertices of smallest margin in the first
    cluster to those of the second, in increasing margin order, which
    concentrates the perturbation for the spectral term.
    """
    dense = g.to_dense()
    d = degree_margins(dense, gt.sigma, lambda_star(params))
    order = np.argsort(d, kind="stable")
    first = [i for i in order if gt.assignment[i] == 1][:3]
    second = [j for j in order if gt.assignment[j] == -1]
    absent = [(int(min(i, j)), int(max(i, j)), 1)
              for j in second for i in first if dense[i, j] == 0]
    for k in range(1, budget + 1):
        yield GraphDelta(tuple(absent[:k]))


@pytest.mark.parametrize("adversary", [_weakest_vertex_flips, _cross_block_flips],
                         ids=["weakest-vertex", "cross-block"])
def test_stbl_fast_pinned_distance_survives_adversarial_flips(adversary):
    # the fast path pins d_hat at c_stab*log(n)/eps without searching; the
    # persistence lemma behind that claims, for every graph within that
    # many flips, (i) the check passes under the shifted constants and
    # (ii) the SDP still certifies the released clustering. Criterion 9's
    # setting, where the pinned distance is 12.4, so 12 flips.
    params = BasbmParams(n=500, a=30, b=2, rho=0.5)
    eps, c_stab = 2.0, 4.0
    priv = PrivacyParams.from_exponent(eps, 2.0, params.n)
    budget = int(c_stab * math.log(params.n) / eps)
    constants = fast_path_constants(params, eps, c_stab)
    shifted = shift_constants(constants, c_stab, eps, rho=params.rho)
    for seed in range(3):
        g, _ = generate(params, seed)
        out = stbl_fast(g, params, priv, c_stab, MEDIAN_DRAW)
        assert out.trace.fast_path and not out.bottom
        gt_hat = GroundTruth(BASBM, recover(g, params).labels)
        assert same_clustering(out.result, cluster_matrix(gt_hat))
        steps = 0
        for delta in adversary(g, gt_hat, params, budget):
            h = delta.apply(g)
            assert check_concentration(h, gt_hat, params, shifted).passed, delta
            res = recover(h, params)
            assert res.solution.certified, delta
            assert same_clustering(res.matrix, out.result), delta
            steps += 1
        assert steps == budget


AUDIT_OPTS = SolveOptions(tol=1e-5, max_iters=300, certify_every=25)
_audit_solves = {}


def _cached_recover(params):
    return cached_estimator(params, AUDIT_OPTS, _audit_solves.setdefault(params, {}))


@st.composite
def sensitivity_cases(draw, rates):
    # the estimated-rates path exists for basbm (simple graphs) only
    n = draw(st.integers(3, 5))
    alphabet = "simple" if rates else draw(st.sampled_from(sorted(ALPHABETS)))
    if alphabet == "simple":
        params = BasbmParams(n=n, a=2.5, b=0.3, rho=0.5)
    else:
        params = CbsbmParams(n=n, a=2.5, xi=0.1)
    # planted instances are often stable at distance 1, arbitrary ones rarely
    seed = draw(st.none() | st.integers(0, 40))
    if seed is None:
        m = pair_count(n)
        g = Graph(n, alphabet, np.array(draw(st.lists(
            st.sampled_from(ALPHABETS[alphabet]), min_size=m, max_size=m)),
            dtype=np.int8))
    else:
        g, _ = generate(params, seed)
    mechanism = "fast" if rates else draw(st.sampled_from(["stbl", "fast"]))
    max_evals = None
    if not rates:
        # a budget whose radius (0, 1 or 2) falls short of every cap below;
        # radius 2 is the one that searches, so it is drawn most often
        level = draw(st.sampled_from([0, 1, 2, 2, 2]))
        max_evals = draw(st.integers(ball_size(n, alphabet, level),
                                     ball_size(n, alphabet, level + 1) - 1))
    return g, params, mechanism, max_evals


@pytest.mark.parametrize("rates", [False, True], ids=["capped", "estimated_rates"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mechanism_distance_is_one_lipschitz(rates, data):
    # both mechanisms on the capped path (a binding max_evals) and stbl_fast
    # on the estimated-rates path: d_hat moves by at most one between
    # neighbouring graphs
    g, params, mechanism, max_evals = data.draw(sensitivity_cases(rates))
    f = _cached_recover(params)

    def d_hat(h):
        if mechanism == "stbl":
            # eps 10: cap = ceil(log(n)/10) + 2 = 3
            ((_, base),) = f([h])
            out = stbl(h, f, base, PrivacyParams.from_exponent(10.0, 1.0, h.n),
                       np.random.default_rng(0), max_evals=max_evals)
        else:
            # cap = ceil(c_stab*log(n)/eps): 1-2 with 0.9, 3-4 with 2.0
            out = stbl_fast(h, params, PrivacyParams.from_exponent(1.0, 1.0, h.n),
                            0.9 if rates else 2.0, np.random.default_rng(0),
                            estimate_rates=rates, solve_opts=AUDIT_OPTS, f=f,
                            max_evals=max_evals)
        return out.trace.d_hat

    base = d_hat(g)
    for h in neighbors_at_distance(g, 1):
        assert abs(d_hat(h) - base) <= 1.0 + 1e-12


def test_param_estimate_regular_graph_degenerate():
    n = 8
    complete = Graph(n, "simple", np.ones(n * (n - 1) // 2, dtype=np.int8))
    with pytest.raises(DegenerateEstimate):
        param_estimate(complete)


def test_param_estimate_reasonable_accuracy():
    params = BasbmParams(n=2000, a=20, b=2, rho=0.3)
    g, _ = generate(params, 0)
    a_hat, b_hat, rho_hat = param_estimate(g)
    assert abs(a_hat - 20) < 4.0
    assert abs(b_hat - 2) < 2.5
    assert abs(rho_hat - 0.3) < 0.06


def test_param_estimate_rejects_censored():
    g = empty_graph(4, "censored")
    with pytest.raises(InvalidParams):
        param_estimate(g)
