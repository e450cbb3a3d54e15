import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbmdp import certificates
from sbmdp.certificates import (
    CHOLESKY_MIN_N,
    BinaryCertificate,
    GeneralCertificate,
    _general_multipliers,
    binary_certificate,
    build_binary,
    build_general,
    general_certificate,
    verify_binary,
    verify_general,
)
from sbmdp.cli import main
from sbmdp.concentration import log_mean, spectral_deviation
from sbmdp.errors import InvalidParams
from sbmdp.graph import CENSORED, SIMPLE, Graph, pair_count
from sbmdp.models import (
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    cluster_indicator,
    cluster_matrix,
    expected_adjacency,
    generate,
    same_cluster,
)
from sbmdp.spectral import DEFAULT_TOLS, spectral_norm

from oracles import (
    eigvalsh_binary_report,
    eigvalsh_general_report,
    empty_graph,
    four_case_general_certificate,
    graph_from_dense,
    where_abs_price_bounds,
)

TOL = DEFAULT_TOLS.certificate


def _deviation(g, params, gt) -> float:
    return spectral_deviation(g.to_dense(), params, gt)


def test_kernel_identity_holds_for_arbitrary_inputs():
    # S*sigma = 0 and S*indicator = 0 are algebraic: any adjacency, any
    # labels, any rates or multipliers
    rng = np.random.default_rng(0)
    for trial in range(30):
        n = int(rng.integers(3, 15))
        k = int(rng.integers(1, n // 2 + 1))
        censored = bool(rng.integers(2))
        alphabet = CENSORED if censored else SIMPLE
        values = rng.choice([-1, 0, 1] if censored else [0, 1],
                            size=pair_count(n)).astype(np.int8)
        g = Graph(n, alphabet, values)
        assignment = np.full(n, -1, dtype=np.int64)
        assignment[rng.choice(n, size=k, replace=False)] = 1
        gt = GroundTruth("cbsbm" if censored else "basbm", assignment)
        if censored:
            params = CbsbmParams(n=n, a=float(rng.uniform(0.5, 40)),
                                 xi=float(rng.uniform(0, 0.5)))
        else:
            params = BasbmParams(n=n, a=float(rng.uniform(2, 40)),
                                 b=float(rng.uniform(0.1, 1.9)), rho=k / n)
        cert = build_binary(g, gt, params)
        scale = max(spectral_norm(cert.s_matrix), 1.0)
        assert np.abs(cert.s_matrix @ gt.sigma).max() <= 1e-10 * scale

        # general kernel: any assignment with outliers, any lambda and eta
        r = int(rng.integers(1, 4))
        assign = rng.permutation(np.concatenate(
            [np.arange(1, r + 1), rng.integers(0, r + 1, size=n - r)]))
        sizes = np.bincount(assign, minlength=r + 1)[1:]
        cert = general_certificate(g.to_dense(), assign, sizes,
                                   float(rng.uniform(-2, 2)),
                                   float(rng.uniform(0, 5)))
        scale = max(spectral_norm(cert.s_matrix), 1.0)
        assert np.abs(cert.s_matrix @ cluster_indicator(assign)).max() <= 1e-10 * scale
        assert np.all(cert.b_matrix[assign[:, None] == assign[None, :]] == 0.0)


def test_cbsbm_complete_noiseless_hand_example():
    params = CbsbmParams(n=4, a=1.0, xi=0.0)
    _, gt = generate(params, 0)
    g = graph_from_dense(np.outer(gt.sigma, gt.sigma), CENSORED)
    cert = build_binary(g, gt, params)
    assert cert.d_star.tolist() == [3.0, 3.0, 3.0, 3.0]
    assert np.abs(cert.s_matrix @ gt.sigma).max() == 0.0
    expected_s = 3.0 * np.eye(4) - g.to_dense()
    assert np.array_equal(cert.s_matrix, expected_s)


def test_empty_graph_margin_formula():
    params = BasbmParams(n=10, a=3, b=1, rho=0.3)
    _, gt = generate(params, 0)
    g = empty_graph(params.n)
    cert = build_binary(g, gt, params)
    k = gt.first_cluster_size
    lam = log_mean(3, 1) * math.log(10) / 10
    expected = -lam * (2 * k - 10) * gt.sigma
    assert cert.d_star == pytest.approx(expected)


def test_verify_binary_on_concentrated_instance():
    params = BasbmParams(n=200, a=24, b=2, rho=0.5)
    valid = 0
    for seed in range(5):
        g, gt = generate(params, seed)
        report = verify_binary(build_binary(g, gt, params))
        valid += report.valid
        if report.valid:
            assert report.lambda2 > 0
    assert valid >= 4


def test_verify_binary_rejects_wrong_bisection():
    params = BasbmParams(n=200, a=24, b=2, rho=0.5)
    g, gt = generate(params, 1)
    wrong = gt.assignment.copy()
    wrong[:20] *= -1  # trade twenty vertices across the cut
    wrong_gt = GroundTruth(params.variant, wrong)
    report = verify_binary(build_binary(g, wrong_gt, params))
    assert not report.valid


def test_verify_binary_two_vertices_unique_feasible_point():
    # n=2 with the balanced mass constraint has a single feasible matrix,
    # so the certificate is legitimately valid even on the empty graph
    params = BasbmParams(n=2, a=0.5, b=0.2, rho=0.5)
    _, gt = generate(params, 0)
    g = empty_graph(params.n)
    report = verify_binary(build_binary(g, gt, params))
    assert report.valid
    assert report.lambda2 > 0


@st.composite
def general_certificate_inputs(draw):
    """An adjacency, an assignment, sizes and multipliers for the general build.

    Covers assignments with and without outliers, an empty middle or last
    cluster (size 0 unless raised), sizes above the member counts, lam = 0
    and eta <= 0.
    """
    n = draw(st.integers(1, 40) | st.sampled_from([97, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = draw(st.integers(1, 4))
    labels = rng.integers(0 if draw(st.booleans()) else 1, r + 1, size=n)
    labels[0] = 1  # the reference needs one member once sizes is non-empty
    empty = draw(st.sampled_from([None, "middle", "last"]))
    if empty == "last" or (empty == "middle" and r >= 3):
        labels[labels == (r if empty == "last" else 2)] = 1
    sizes = np.bincount(labels, minlength=r + 1)[1:]
    if draw(st.booleans()):
        sizes = sizes + rng.integers(0, 3, size=r)
    upper = np.triu(rng.random((n, n)) < draw(st.floats(0.0, 1.0)), 1)
    lam = draw(st.just(0.0) | st.floats(-1.0, 2.0).filter(lambda x: x != 0.0))
    eta = draw(st.sampled_from([0.0, -1.5]) | st.floats(-3.0, 5.0))
    return (upper | upper.T).astype(np.float64), labels, sizes, lam, eta


@settings(max_examples=300, deadline=None)
@given(general_certificate_inputs())
def test_general_certificate_matches_the_four_case_build_bit_for_bit(inputs):
    cert = general_certificate(*inputs)
    d, b, s = four_case_general_certificate(*inputs)
    assert cert.d_star.tobytes() == d.tobytes()
    assert cert.b_matrix.tobytes() == b.tobytes()
    assert cert.s_matrix.tobytes() == s.tobytes()


@settings(max_examples=300, deadline=None)
@given(general_certificate_inputs())
def test_verify_general_price_bounds_match_the_where_abs_formulation(inputs):
    # the masked reductions give the bits of the n x n copy and the gather,
    # with and without outliers and with emptied clusters
    report = verify_general(general_certificate(*inputs))
    b_min_off, slackness = where_abs_price_bounds(report.certificate)
    assert report.b_min_off.hex() == b_min_off.hex()
    assert report.slackness_residual.hex() == slackness.hex()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_general_price_bounds_match_on_planted_and_gate_certificates(seed):
    params = GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3))
    g, gt = generate(params, seed)
    a_dense = g.to_dense()
    planted = build_general(g, gt, params, deviation=_deviation(g, params, gt))
    lam, eta = _general_multipliers(a_dense, gt.assignment, np.array(gt.sizes))
    gate = general_certificate(a_dense, gt.assignment, np.array(gt.sizes), lam, eta)
    # a cluster emptied into the outliers: its size stays, its members go
    emptied = np.where(gt.assignment == 2, 0, gt.assignment)
    dropped = general_certificate(a_dense, emptied, np.array(gt.sizes), lam, eta)
    for cert in (planted, gate, dropped):
        report = verify_general(cert)
        b_min_off, slackness = where_abs_price_bounds(cert)
        assert report.b_min_off.hex() == b_min_off.hex()
        assert report.slackness_residual.hex() == slackness.hex()


def test_general_certificate_slackness_structure():
    from sbmdp.concentration import GssbmConstants
    params = GssbmParams(n=60, a=10, b=1, rhos=(0.4, 0.3))
    g, gt = generate(params, 2)
    cert = build_general(g, gt, params, GssbmConstants(7.3, 2.0, 0.25, 1.0, 0.5),
                         deviation=_deviation(g, params, gt))
    z = cluster_matrix(gt)
    assert np.abs(cert.b_matrix * z).max() == 0.0
    assert np.all(cert.d_star[gt.assignment == 0] == 0.0)
    # kernel identity for every indicator vector
    scale = max(spectral_norm(cert.s_matrix), 1.0)
    assert np.abs(cert.s_matrix @ cluster_indicator(gt.assignment)).max() <= 1e-10 * scale


def test_general_certificate_single_cluster():
    from sbmdp.concentration import GssbmConstants
    params = GssbmParams(n=30, a=5, b=1, rhos=(1.0,))
    g, gt = generate(params, 3)
    cert = build_general(g, gt, params, GssbmConstants(5.5, 1.0, 0.25, 1.0, 0.5),
                         deviation=_deviation(g, params, gt))
    assert np.abs(cert.b_matrix).max() == 0.0


def test_general_certificate_all_outliers():
    # no clusters at all: every pair falls in the same-part case of the
    # pricing matrix, which is therefore identically zero
    from sbmdp.concentration import GssbmConstants
    params = GssbmParams(n=20, a=4, b=1, rhos=(0.4,))
    g, _ = generate(params, 4)
    gt = GroundTruth("gssbm", np.zeros(20, dtype=np.int64))
    cert = build_general(g, gt, params, GssbmConstants(5.0, 1.0, 0.25, 1.0, 0.5),
                         deviation=_deviation(g, params, gt))
    assert np.abs(cert.b_matrix).max() == 0.0
    assert np.all(cert.d_star == 0.0)
    report = verify_general(cert)
    assert report.valid


def test_verify_general_on_concentrated_instance():
    params = GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3))
    g, gt = generate(params, 5)
    report = verify_general(build_general(
        g, gt, params, deviation=_deviation(g, params, gt)))
    assert report.valid
    assert report.lambda_after_kernel > 0
    assert report.b_min_off > 0
    assert report.d_min_member > 0


def test_verify_general_outlier_hub_invalid():
    params = GssbmParams(n=250, a=40, b=2, rhos=(0.3, 0.3, 0.3))
    g, gt = generate(params, 6)
    dense = g.to_dense().copy()
    hub = int(np.where(gt.assignment == 0)[0][0])
    members = np.where(gt.assignment == 3)[0]
    dense[hub, members] = 1.0
    dense[members, hub] = 1.0
    hubbed = graph_from_dense(dense)
    report = verify_general(build_general(
        hubbed, gt, params, deviation=_deviation(hubbed, params, gt)))
    assert report.b_min_off <= 0
    assert not report.valid


def test_build_binary_variant_guard():
    params = GssbmParams(n=10, a=3, b=1, rhos=(0.5,))
    g, gt = generate(params, 0)
    with pytest.raises(InvalidParams):
        build_binary(g, gt, params)


# ---------------------------------------------------------------------------
# the factorised verdict against the eigenvalue rule


def _verify_against_rule(cert) -> tuple[list[str], str]:
    """The verifier's reports, with the factorised steps tried from n = 2 on
    and from ``CHOLESKY_MIN_N`` on, and the eigenvalue rule's, as JSON."""
    if isinstance(cert, BinaryCertificate):
        verify, rule = verify_binary, eigvalsh_binary_report
    else:
        verify, rule = verify_general, eigvalsh_general_report
    with mock.patch.object(certificates, "CHOLESKY_MIN_N", 2):
        everywhere = verify(cert).to_dict()
    reports = [json.dumps(everywhere), json.dumps(verify(cert).to_dict())]
    return reports, json.dumps(rule(cert))


def sizes_around_the_cutover(small_max: int):
    """Sizes the plain rule decides (2..small_max) or the factorised steps
    do (from ``CHOLESKY_MIN_N``)."""
    return st.one_of(st.integers(2, small_max),
                     st.integers(CHOLESKY_MIN_N, CHOLESKY_MIN_N + 6))


@st.composite
def planted_certificates(draw):
    """A binary or general certificate of a random planted graph.

    General assignments carry outliers; their multipliers are the solver's
    own when those are defined, else drawn.
    """
    n = draw(sizes_around_the_cutover(14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_in = draw(st.floats(0.3, 1.0))
    p_out = draw(st.floats(0.0, 0.6))
    if draw(st.booleans()):
        labels = rng.choice([-1, 1], size=n)
    else:
        r = int(rng.integers(1, 4))
        labels = rng.integers(0, r + 1, size=n)
    same = same_cluster(labels)
    upper = np.triu(rng.random((n, n)) < np.where(same, p_in, p_out), 1)
    a = (upper | upper.T).astype(np.float64)
    if labels.min() < 0:
        if draw(st.booleans()):  # censored: signed entries
            a *= np.where(rng.random((n, n)) < 0.8, 1.0, -1.0) * np.outer(labels, labels)
            a = np.triu(a, 1) + np.triu(a, 1).T
        return binary_certificate(a, labels.astype(np.float64),
                                  draw(st.floats(-0.5, 1.0)))
    sizes = np.bincount(labels, minlength=int(labels.max()) + 1)[1:]
    multipliers = None
    if (sizes > 0).all() and draw(st.booleans()):
        multipliers = _general_multipliers(a, labels, sizes)
    if multipliers is None:
        multipliers = (draw(st.floats(-0.5, 1.0)), draw(st.floats(0.0, 4.0)))
    return general_certificate(a, labels, sizes, *multipliers)


@st.composite
def constructed_certificates(draw):
    """A certificate whose S has a chosen spectrum around the rule's thresholds.

    S = W diag(mu) W^T with W spanning the complement of the cluster
    vectors, so the eigenvalue just above the kernel is +-c*tol*scale or
    +-c*tol*||S||_inf for c in {0.5, 1, 1.5, 2, 3}. A rank-one dip can drive a diagonal entry
    negative, and a coupling between a kernel vector and that eigenvector
    puts the kernel residual near the factorised step's bound
    tol/(4*sqrt(n*r)) or near the rule's tol*scale.
    """
    n = draw(sizes_around_the_cutover(12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    general = draw(st.booleans())
    if general:
        r_max = min(3, n - 1)
        assign = rng.permutation(np.concatenate([
            np.arange(1, r_max + 1), rng.integers(0, r_max + 1, size=n - r_max)]))
        vectors = cluster_indicator(assign)
    else:
        sigma = rng.choice([-1.0, 1.0], size=n)
        vectors = sigma[:, None]
    r = vectors.shape[1]
    kernel = vectors / np.linalg.norm(vectors, axis=0)
    q, _ = np.linalg.qr(np.hstack([kernel, rng.standard_normal((n, n - r))]))
    comp = q[:, r:]

    top = draw(st.sampled_from([1e-3, 0.5, 1.0, 8.0, 300.0]))
    scale = max(top, 1.0)
    above = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, -0.5, -1.0, -3.0]))
    mu = rng.uniform(3.0 * TOL * math.sqrt(n) * scale, top, size=n - r)
    mu[-1] = top
    mu[0] = 0.0
    s = (comp * mu) @ comp.T
    # the rule's threshold is tol*scale, the factorised step's 2*tol*U,
    # U = ||S||_inf, which at larger n lies far above it
    unit = TOL * draw(st.sampled_from([scale, max(1.0, float(np.linalg.norm(s, np.inf)))]))
    s += above * unit * np.outer(comp[:, 0], comp[:, 0])

    dip = draw(st.sampled_from([0.0, 0.0, 1.0, 2.5, 4.0]))
    p = comp @ comp[int(rng.integers(n))]
    if dip and p @ p > 1e-6:  # not when the vertex lies in the kernel
        s -= dip * TOL * scale * np.outer(p, p) / (p @ p)

    bound = TOL / (4.0 * math.sqrt(n * r))
    target = draw(st.sampled_from([
        0.0, 0.5 * bound, 0.99 * bound, 1.01 * bound, 2.0 * bound,
        0.5 * TOL * scale, 0.9 * TOL * scale, 1.5 * TOL * scale, 3.0 * TOL * scale]))
    if target:
        coupling = np.outer(kernel[:, 0], comp[:, 0])
        coupling += coupling.T
        s += coupling * (target / np.abs(coupling @ vectors).max())
    s = (s + s.T) / 2.0

    if not general:
        return BinaryCertificate(sigma, np.diag(s).copy(), 0.0, s)
    b = np.where(assign[:, None] != assign[None, :], 1.0, 0.0)
    slack = draw(st.sampled_from([0.0, 0.0, 0.5 * TOL, 1.5 * TOL, 3.0 * TOL * scale]))
    b[same_cluster(assign)] = slack
    d = np.where(assign > 0, 1.0, 0.0)
    return GeneralCertificate(assign, d, b, 0.0, 0.0, s)


@settings(max_examples=300, deadline=None)
@given(planted_certificates())
def test_verdict_matches_eigvalsh_rule_on_planted_certificates(cert):
    reports, rule = _verify_against_rule(cert)
    assert reports == [rule, rule]


@settings(max_examples=600, deadline=None)
@given(constructed_certificates())
def test_verdict_matches_eigvalsh_rule_near_thresholds(cert):
    reports, rule = _verify_against_rule(cert)
    assert reports == [rule, rule]


@pytest.mark.parametrize("n, factorised", [
    (6, False), (CHOLESKY_MIN_N - 1, False), (CHOLESKY_MIN_N, True)])
def test_small_certificates_go_straight_to_the_rule(n, factorised, monkeypatch):
    calls = []
    for name in ("cholesky", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(m, _real=real, _name=name):
            calls.append(_name)
            return _real(m)

        monkeypatch.setattr(np.linalg, name, counted)
    # complete noiseless censored graph: a valid certificate at every n
    sigma = np.where(np.arange(n) % 3 == 0, 1.0, -1.0)
    a = np.outer(sigma, sigma) - np.eye(n)
    assert verify_binary(binary_certificate(a, sigma, 0.0)).valid
    assert calls == (["cholesky"] if factorised else ["eigvalsh"])


def test_report_eigenvalues_are_read_from_eigvalsh():
    params = GssbmParams(n=200, a=30, b=2, rhos=(0.3, 0.3, 0.3))
    g, gt = generate(params, 2)
    report = verify_general(build_general(
        g, gt, params, deviation=_deviation(g, params, gt)))
    w = np.linalg.eigvalsh(report.certificate.s_matrix)
    assert report.lambda_min == float(w[0])
    assert report.lambda_after_kernel == float(w[3])

    params = BasbmParams(n=100, a=20, b=2, rho=0.5)
    g, gt = generate(params, 2)
    report = verify_binary(build_binary(g, gt, params))
    w = np.linalg.eigvalsh(report.certificate.s_matrix)
    assert (report.lambda_min, report.lambda2) == (float(w[0]), float(w[1]))


@pytest.mark.parametrize("model, params, seed", [
    (["--a", "30", "--b", "2", "--rhos", "0.3,0.3,0.3"],
     GssbmParams(n=200, a=30, b=2, rhos=(0.3, 0.3, 0.3)), 1),
    (["--a", "20", "--b", "2", "--rho", "0.5"], BasbmParams(n=200, a=20, b=2, rho=0.5), 3),
])
def test_certify_prints_the_eigvalsh_report(tmp_path, capsys, model, params, seed):
    # the printed report is byte for byte the one a full eigvalsh gives
    graph_file, gt_file = tmp_path / "g.txt", tmp_path / "gt.json"
    model = ["--variant", params.variant, *model]
    main(["generate", *model, "--n", str(params.n), "--seed", str(seed),
          "--out", str(graph_file), "--gt-out", str(gt_file)])
    capsys.readouterr()
    assert main(["certify", *model, "--graph", str(graph_file),
                 "--gt", str(gt_file)]) == 0
    printed = capsys.readouterr().out

    g, gt = generate(params, seed)
    if params.variant == "gssbm":
        eta = spectral_norm(g.to_dense() - expected_adjacency(params, gt))
        rule = eigvalsh_general_report(build_general(g, gt, params, deviation=eta))
    else:
        rule = eigvalsh_binary_report(build_binary(g, gt, params))
    assert rule["valid"]
    assert printed == json.dumps(rule, indent=2) + "\n"
