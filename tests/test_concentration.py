import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmdp.concentration import (
    BasbmConstants,
    CbsbmConstants,
    GssbmConstants,
    balanced_direction,
    censored_margin_exponent,
    check_concentration,
    default_constants,
    degree_margin_exponent,
    degree_margins,
    expected_degree_margins,
    lambda_star,
    log_mean,
    margin_exponent,
    poisson_tail_rate,
    spectral_deviation,
)
from sbmdp.errors import InfeasibleRegime, InvalidParams
from sbmdp.graph import CENSORED, SIMPLE, Graph, pair_count
from sbmdp.models import (
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    expected_adjacency,
    generate,
)

from oracles import (
    binom_diff_exponent,
    general_report_by_loops,
    graph_from_dense,
    random_delta,
    shift_constants,
)


# ---------------------------------------------------------------------------
# scalar rate functions


def test_log_mean_values():
    assert log_mean(4, 4) == 4.0
    assert log_mean(20, 2) == pytest.approx(18 / math.log(10), rel=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(100):
        b = rng.uniform(0.1, 10)
        a = b + rng.uniform(1e-6, 10)
        assert b < log_mean(a, b) < a
    with pytest.raises(InvalidParams):
        log_mean(1.0, 0.0)


def test_degree_margin_exponent_balanced_zero_slack():
    # at rho = 1/2 the zero-slack value collapses to (sqrt a - sqrt b)^2 / 2
    assert degree_margin_exponent(0.0, 8, 2, 0.5) == pytest.approx(1.0, abs=1e-12)
    for a, b in ((9.0, 2.0), (6.0, 2.0), (12.0, 3.0)):
        above = math.sqrt(a) - math.sqrt(b) > math.sqrt(2)
        assert (degree_margin_exponent(0.0, a, b, 0.5) > 1) == above


def test_margin_exponent_monotone_in_offset():
    rng = np.random.default_rng(1)
    for _ in range(100):
        b = rng.uniform(0.5, 4)
        a = b + rng.uniform(0.5, 10)
        rho = rng.uniform(0.1, 0.5)
        a1, a2 = sorted(rng.uniform(0, 5, size=2))
        if a1 == a2:
            continue
        assert margin_exponent(a1, a, b, rho) > margin_exponent(a2, a, b, rho)


def test_binom_diff_exponent_zero_offset():
    rng = np.random.default_rng(2)
    assert binom_diff_exponent(0.5, 0.5, 8, 2, 0.0) == pytest.approx(1.0)
    for _ in range(50):
        r1, r2 = rng.uniform(0.1, 0.9, size=2)
        b = rng.uniform(0.5, 4)
        a = b + rng.uniform(0.5, 8)
        expect = (math.sqrt(a * r1) - math.sqrt(b * r2)) ** 2
        assert binom_diff_exponent(r1, r2, a, b, 0.0) == pytest.approx(expect)
    with pytest.raises(ValueError):
        binom_diff_exponent(0.0, 0.5, 2, 1, 0.0)


def test_margin_exponent_lower_bounds_binom_diff():
    # the per-cluster tail bound never exceeds the exact binomial rate
    rng = np.random.default_rng(3)
    for _ in range(50):
        b = rng.uniform(0.5, 3)
        a = b + rng.uniform(0.5, 8)
        rho = rng.uniform(0.1, 0.5)
        c4 = rng.uniform(0.01, 2)
        tau = log_mean(a, b)
        off = tau * (1 - 2 * rho)
        assert margin_exponent(-off + c4, a, b, rho) <= binom_diff_exponent(
            rho, 1 - rho, a, b, -off + c4) + 1e-12
        assert margin_exponent(off + c4, a, b, rho) <= binom_diff_exponent(
            1 - rho, rho, a, b, off + c4) + 1e-12


def test_censored_margin_exponent():
    assert censored_margin_exponent(0.0, 5.0) == 5.0
    assert censored_margin_exponent(0.5, 5.0) == pytest.approx(0.0, abs=1e-12)
    assert censored_margin_exponent(0.05, 8.0) == pytest.approx(4.5128808, abs=1e-6)


def test_poisson_tail_rate():
    assert poisson_tail_rate(2.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert poisson_tail_rate(4.0, 1.0) == pytest.approx(4 - 1 - math.log(4))
    assert poisson_tail_rate(3.0, 0.0) == 3.0
    rng = np.random.default_rng(4)
    for _ in range(100):
        x, y = rng.uniform(0.1, 6, size=2)
        val = poisson_tail_rate(x, y)
        assert val >= -1e-12
        if abs(x - y) > 1e-9:
            assert val > 0


# ---------------------------------------------------------------------------
# the balanced direction vector


def test_balanced_direction_identities():
    for n, rho in ((100, 0.5), (90, 0.3), (57, 0.21)):
        params = BasbmParams(n=n, a=6, b=1, rho=rho)
        _, gt = generate(params, 0)
        x = balanced_direction(gt)
        k = gt.first_cluster_size
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-9)
        assert x @ gt.sigma == pytest.approx(0.0, abs=1e-9)
        assert x.sum() ** 2 == pytest.approx(4 * k * (n - k) / n, abs=1e-9)


def test_balanced_direction_maximizes_ones_form():
    params = BasbmParams(n=80, a=6, b=1, rho=0.35)
    _, gt = generate(params, 0)
    x = balanced_direction(gt)
    best = x.sum() ** 2
    sigma = gt.sigma
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        z = rng.standard_normal(80)
        z -= (z @ sigma) / 80 * sigma
        z /= np.linalg.norm(z)
        assert z.sum() ** 2 <= best + 1e-9


# ---------------------------------------------------------------------------
# checkers


def test_check_basbm_expected_adjacency_hook():
    params = BasbmParams(n=60, a=8, b=1, rho=0.5)
    g, gt = generate(params, 1)
    assert spectral_deviation(expected_adjacency(params, gt), params, gt) == \
        pytest.approx(0.0, abs=1e-9)
    # the report's first condition is that deviation, read on the graph
    report = check_concentration(g, gt, params, BasbmConstants(1e-6, 0.1, 10.0, 0.1))
    cond1 = report.conditions[0]
    assert cond1.name == "spectral_deviation"
    assert cond1.lhs == spectral_deviation(g.to_dense(), params, gt)


def test_check_basbm_generated_instance_passes():
    params = BasbmParams(n=300, a=30, b=2, rho=0.5)
    constants = default_constants(params, 2.0, 2.0)
    passes = 0
    for seed in range(5):
        g, gt = generate(params, seed)
        if check_concentration(g, gt, params, constants).passed:
            passes += 1
    assert passes >= 4


def test_check_basbm_isolated_vertex_fails_margin():
    params = BasbmParams(n=200, a=20, b=2, rho=0.5)
    g, gt = generate(params, 2)
    dense = g.to_dense().copy()
    victim = int(np.where(gt.assignment == 1)[0][0])
    dense[victim, :] = 0.0
    dense[:, victim] = 0.0
    constants = default_constants(params, 2.0, 2.0)
    report = check_concentration(graph_from_dense(dense), gt, params, constants)
    margin = [c for c in report.conditions if c.name == "degree_margin"][0]
    assert not margin.passed


def test_check_basbm_margin_expectation_formula():
    # closed-form expectation matches the direct first-moment computation
    params = BasbmParams(n=50, a=6, b=1, rho=0.3)
    _, gt = generate(params, 3)
    expected = expected_degree_margins(params, gt)
    direct = degree_margins(expected_adjacency(params, gt), gt.sigma,
                            lambda_star(params))
    assert expected == pytest.approx(direct, abs=1e-9)


def test_check_cbsbm_complete_noiseless():
    n = 40
    params = CbsbmParams(n=n, a=3.0, xi=0.0)
    _, gt = generate(params, 4)
    g = graph_from_dense(np.outer(gt.sigma, gt.sigma), CENSORED)
    constants = CbsbmConstants(c1=2 * math.sqrt(3) + 1, c2=1.0)
    report = check_concentration(g, gt, params, constants)
    margin = [c for c in report.conditions if c.name == "degree_margin"][0]
    assert margin.lhs == n - 1
    assert margin.passed


def test_check_cbsbm_flipped_vertex_fails():
    params = CbsbmParams(n=200, a=8, xi=0.05)
    g, gt = generate(params, 5)
    dense = g.to_dense().copy()
    dense[0, :] *= -1
    dense[:, 0] *= -1
    constants = default_constants(params, 1.0, 2.0)
    report = check_concentration(graph_from_dense(dense, CENSORED), gt, params,
                                 constants)
    margin = [c for c in report.conditions if c.name == "degree_margin"][0]
    assert margin.lhs < 0
    assert not margin.passed


def test_check_gssbm_single_complete_cluster_vacuous():
    n = 12
    params = GssbmParams(n=n, a=4.8, b=1.0, rhos=(1.0,))
    _, gt = generate(params, 6)
    g = Graph(n, SIMPLE, np.ones(pair_count(n), dtype=np.int8))
    constants = GssbmConstants(c1=14.0, c2=1.0, c3=0.3, c4=1.0, c5=0.5)
    report = check_concentration(g, gt, params, constants)
    names = {c.name: c for c in report.conditions}
    assert names["foreign_degree"].lhs is None
    assert names["pair_density"].lhs is None
    assert names["outlier_degree"].lhs is None
    assert report.passed


def test_check_gssbm_generated_passes():
    params = GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3))
    constants = default_constants(params, math.inf, 0.0)
    g, gt = generate(params, 7)
    assert check_concentration(g, gt, params, constants).passed


def test_check_gssbm_outlier_hub_fails():
    params = GssbmParams(n=120, a=20, b=2, rhos=(0.45, 0.45))
    g, gt = generate(params, 8)
    dense = g.to_dense().copy()
    hub = int(np.where(gt.assignment == 0)[0][0])
    last_cluster = np.where(gt.assignment == 2)[0]
    dense[hub, last_cluster] = 1.0
    dense[last_cluster, hub] = 1.0
    constants = default_constants(params, math.inf, 0.0)
    report = check_concentration(graph_from_dense(dense), gt, params, constants)
    outlier = [c for c in report.conditions if c.name == "outlier_degree"][0]
    assert not outlier.passed


@st.composite
def general_instances(draw):
    """A small gssbm graph, labels and constants: random labels over r = 1..3
    clusters with outliers, one cluster holding every vertex (no foreign
    vertex), every vertex an outlier, or clusters in contiguous runs."""
    n = draw(st.integers(2, 12))
    r = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "one-cluster", "all-outliers", "runs"]))
    if kind == "random":
        labels = draw(st.lists(st.integers(0, r), min_size=n, max_size=n))
    elif kind == "one-cluster":
        labels = [1] * n
    elif kind == "all-outliers":
        labels = [0] * n
    else:
        cuts = sorted(draw(st.lists(st.integers(0, n), min_size=r, max_size=r)))
        labels = np.searchsorted(cuts, np.arange(n), side="right").clip(0, r)
        labels = [int(k) % (r + 1) for k in labels]
    m = pair_count(n)
    edges = draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))
    b = draw(st.floats(0.1, 3.0))
    params = GssbmParams(n=n, a=b + draw(st.floats(0.1, 6.0)), b=b, rhos=(0.5,))
    constants = GssbmConstants(*(draw(st.floats(0.01, 3.0)) for _ in range(5)))
    return (Graph(n, SIMPLE, np.array(edges, dtype=np.int8)),
            GroundTruth("gssbm", np.array(labels)), params, constants)


@settings(max_examples=300, deadline=None)
@given(general_instances())
def test_general_conditions_match_the_loop_oracle(instance):
    # each condition reports its binding entry, the first on ties, and
    # passes vacuously on an empty set, bit for bit as the loops did
    g, gt, params, constants = instance
    got = check_concentration(g, gt, params, constants).to_dict()
    assert json.dumps(got) == json.dumps(general_report_by_loops(g, gt, params, constants))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_degree_margin_reports_the_smallest_margin(data):
    n = data.draw(st.integers(4, 12))
    m = pair_count(n)
    if data.draw(st.booleans()):
        params = BasbmParams(n=n, a=3.0, b=1.0, rho=data.draw(st.sampled_from([0.3, 0.5])))
        k = params.first_cluster_size
        alphabet = (0, 1)
    else:
        params = CbsbmParams(n=n, a=3.0, xi=0.1)
        k = data.draw(st.integers(1, n - 1))
        alphabet = (-1, 0, 1)
    values = data.draw(st.lists(st.sampled_from(alphabet), min_size=m, max_size=m))
    g = Graph(n, CENSORED if -1 in alphabet else SIMPLE, np.array(values, dtype=np.int8))
    gt = GroundTruth(params.variant, np.repeat([1, -1], [k, n - k]))
    c = data.draw(st.floats(0.0, 2.0))
    constants = (BasbmConstants(1.0, 1.0, 1.0, c) if params.variant == "basbm"
                 else CbsbmConstants(1.0, c))
    cond = check_concentration(g, gt, params, constants).conditions[-1]
    d = degree_margins(g.to_dense(), gt.sigma, lambda_star(params))
    assert cond.name == "degree_margin"
    assert (json.dumps(cond.to_dict()) == json.dumps(
        {"name": "degree_margin", "lhs": float(d.min()) + 0.0,
         "rhs": c * params.log_n, "passed": bool(d.min() >= c * params.log_n)}))


def test_checkers_are_pure():
    params = BasbmParams(n=80, a=10, b=1, rho=0.4)
    g, gt = generate(params, 9)
    constants = default_constants(params, 2.0, 1.0)
    r1 = check_concentration(g, gt, params, constants)
    r2 = check_concentration(g, gt, params, constants)
    assert r1 == r2


# ---------------------------------------------------------------------------
# constant-tuple maps


def test_shift_constants_identity_at_zero():
    c = BasbmConstants(3, 2, 3, 2)
    assert shift_constants(c, 0.0, 1.0, rho=0.5) == c


def test_shift_constants_basbm_formula():
    c = BasbmConstants(3, 2, 3, 2)
    shifted = shift_constants(c, 1.0, 1.0, rho=0.5)
    assert shifted.c1 == pytest.approx(3 + math.sqrt(2))
    assert shifted.c2 == pytest.approx(1.0)
    assert shifted.c3 == pytest.approx(3 + math.sqrt(2))
    assert shifted.c4 == pytest.approx(1.0)


def test_shift_constants_boundary_invalid():
    c = BasbmConstants(3, 1, 3, 2)
    with pytest.raises(ValueError):
        shift_constants(c, 1.0, 1.0, rho=0.5)  # c2 hits zero


def test_shift_constants_cbsbm_and_gssbm():
    shifted = shift_constants(CbsbmConstants(2, 3), 2.0, 1.0)
    assert shifted.c1 == pytest.approx(2 + 4.0)
    assert shifted.c2 == pytest.approx(1.0)
    g = shift_constants(GssbmConstants(2, 3, 2, 1, 2), 1.0, 1.0, rho_min=0.5)
    assert g.c2 == pytest.approx(1.0)
    assert g.c3 == pytest.approx(1.0)
    assert g.c4 == pytest.approx(2.0)  # looser slack direction
    assert g.c5 == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# default constants


def test_default_constants_basbm_feasible():
    params = BasbmParams(n=500, a=30, b=2, rho=0.5)
    c = default_constants(params, 2.0, 2.0)
    tau = log_mean(30, 2)
    assert 0 < c.c2 <= tau - 2 - 0.1 + 1e-9
    assert c.c4 >= 1.0  # at least c_stab / eps
    assert degree_margin_exponent(c.c4, 30, 2, 0.5) == pytest.approx(1.1, abs=1e-6)


def test_default_constants_infeasible_regime():
    params = BasbmParams(n=500, a=3, b=2, rho=0.5)
    with pytest.raises(InfeasibleRegime):
        default_constants(params, 0.1, 2.0)


@pytest.mark.parametrize("eps, c_stab", [(0.0, 2.0), (math.nan, 2.0), (2.0, -1.0),
                                         (2.0, math.nan), (2.0, math.inf),
                                         (math.inf, math.inf)])
def test_default_constants_refuses_bad_eps_and_c_stab(eps, c_stab):
    # NaN constants are not JSON, so no tuple is built from them
    with pytest.raises(InvalidParams, match="eps > 0"):
        default_constants(BasbmParams(n=500, a=30, b=2, rho=0.5), eps, c_stab)


def test_default_constants_cbsbm():
    params = CbsbmParams(n=300, a=8, xi=0.05)
    c = default_constants(params, 1.0, 2.0)
    assert 2.0 < c.c2 < 8.0
    with pytest.raises(InfeasibleRegime):
        default_constants(CbsbmParams(n=300, a=8, xi=0.45), 1.0, 2.0)
    with pytest.raises(InfeasibleRegime):
        default_constants(CbsbmParams(n=300, a=3, xi=0.0), 0.1, 2.0)


def test_default_constants_gssbm_meets_rate_conditions():
    params = GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3))
    c = default_constants(params, math.inf, 0.0)
    rho_min = 0.3
    target = 1 / rho_min
    assert poisson_tail_rate(params.a, params.b + 2 * c.c2) > target
    assert poisson_tail_rate(params.b, params.b + c.c2 - c.c3 / rho_min) > target
    assert poisson_tail_rate(
        params.b, params.b + 2 * c.c2 - c.c5 / rho_min) > target


def test_domain_error_unreachable_without_bad_input():
    with pytest.raises(ValueError):
        # force the log argument nonpositive via an out-of-range alpha
        binom_diff_exponent(1e-9, 1e-9, 1e-6, 1e-9, 1.0)


# ---------------------------------------------------------------------------
# persistence, operationalized


def test_persistence_under_flips():
    params = BasbmParams(n=300, a=30, b=2, rho=0.5)
    eps, c_stab = 2.0, 2.0
    constants = default_constants(params, eps, c_stab)
    shifted = shift_constants(constants, c_stab, eps, rho=params.rho)
    flips = int(c_stab * math.log(params.n) / eps)
    rng = np.random.default_rng(10)
    checked = 0
    for seed in range(8):
        g, gt = generate(params, seed)
        if not check_concentration(g, gt, params, constants).passed:
            continue
        delta = random_delta(g, flips, rng)
        assert check_concentration(delta.apply(g), gt, params, shifted).passed
        checked += 1
    assert checked >= 6
