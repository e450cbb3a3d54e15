import math

import numpy as np
import pytest

from sbmdp.certificates import (
    build_binary,
    build_general,
    general_certificate,
    verify_binary,
    verify_general,
)
from sbmdp.concentration import log_mean
from sbmdp.errors import InvalidParams
from sbmdp.graph import CENSORED, SIMPLE, Graph, pair_count
from sbmdp.models import (
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    cluster_indicator,
    cluster_matrix,
    generate,
)
from sbmdp.spectral import spectral_norm

from oracles import empty_graph


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
    g = Graph.from_dense(np.outer(gt.sigma, gt.sigma), CENSORED)
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


def test_general_certificate_slackness_structure():
    from sbmdp.concentration import GssbmConstants
    params = GssbmParams(n=60, a=10, b=1, rhos=(0.4, 0.3))
    g, gt = generate(params, 2)
    cert = build_general(g, gt, params, GssbmConstants(7.3, 2.0, 0.25, 1.0, 0.5))
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
    cert = build_general(g, gt, params, GssbmConstants(5.5, 1.0, 0.25, 1.0, 0.5))
    assert np.abs(cert.b_matrix).max() == 0.0


def test_general_certificate_all_outliers():
    # no clusters at all: every pair falls in the same-part case of the
    # pricing matrix, which is therefore identically zero
    from sbmdp.concentration import GssbmConstants
    params = GssbmParams(n=20, a=4, b=1, rhos=(0.4,))
    g, _ = generate(params, 4)
    gt = GroundTruth("gssbm", np.zeros(20, dtype=np.int64))
    cert = build_general(g, gt, params, GssbmConstants(5.0, 1.0, 0.25, 1.0, 0.5))
    assert np.abs(cert.b_matrix).max() == 0.0
    assert np.all(cert.d_star == 0.0)
    report = verify_general(cert)
    assert report.valid


def test_verify_general_on_concentrated_instance():
    params = GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3))
    g, gt = generate(params, 5)
    report = verify_general(build_general(g, gt, params))
    assert report.valid
    assert report.lambda_after_kernel > 0
    assert report.b_min_off > 0
    assert report.d_min_member > 0


def test_verify_general_outlier_hub_invalid():
    params = GssbmParams(n=250, a=40, b=2, rhos=(0.3, 0.3, 0.3))
    g, gt = generate(params, 6)
    dense = g.to_dense()
    hub = int(np.where(gt.assignment == 0)[0][0])
    members = np.where(gt.assignment == 3)[0]
    dense[hub, members] = 1.0
    dense[members, hub] = 1.0
    report = verify_general(build_general(dense, gt, params))
    assert report.b_min_off <= 0
    assert not report.valid


def test_build_binary_variant_guard():
    params = GssbmParams(n=10, a=3, b=1, rhos=(0.5,))
    g, gt = generate(params, 0)
    with pytest.raises(InvalidParams):
        build_binary(g, gt, params)
