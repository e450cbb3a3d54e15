import hashlib
import json
import math

import numpy as np
import pytest

from sbmdp.errors import InvalidParams
from sbmdp.models import (
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    cluster_matrix,
    expected_adjacency,
    generate,
    params_from_dict,
    same_clustering,
    same_partition,
)

from oracles import permute_instance


def test_validation():
    with pytest.raises(InvalidParams):
        BasbmParams(n=100, a=2, b=3).validate()  # a <= b
    with pytest.raises(InvalidParams):
        BasbmParams(n=100, a=30, b=2, rho=0.7).validate()
    with pytest.raises(InvalidParams):
        BasbmParams(n=10, a=30, b=2).validate()  # p > 1
    with pytest.raises(InvalidParams):
        CbsbmParams(n=100, a=4, xi=0.6).validate()
    with pytest.raises(InvalidParams):
        GssbmParams(n=100, a=8, b=1, rhos=(0.2, 0.3)).validate()  # not sorted
    with pytest.raises(InvalidParams):
        GssbmParams(n=100, a=8, b=1, rhos=(0.6, 0.5)).validate()  # overfull
    # an empty cluster, floor(rho_k * n) = 0
    for params in (BasbmParams(n=6, a=3, b=1, rho=0.1),
                   CbsbmParams(n=6, a=3, xi=0.1, rho=0.1),
                   GssbmParams(n=6, a=3, b=1, rhos=(0.5, 0.1))):
        with pytest.raises(InvalidParams, match="empty cluster"):
            params.validate()
    # non-finite fields, refused before they reach a floor or a rate
    for params in (CbsbmParams(n=100, a=math.nan, xi=0.1),
                   BasbmParams(n=100, a=30, b=2, rho=math.nan),
                   GssbmParams(n=100, a=8, b=1, rhos=(math.inf,)),
                   GssbmParams(n=100, a=8, b=1, rhos=(0.4, math.nan))):
        with pytest.raises(InvalidParams):
            params.validate()
    GssbmParams(n=100, a=8, b=1, rhos=(0.4, 0.3)).validate()


def test_generation_deterministic():
    params = BasbmParams(n=60, a=10, b=1, rho=0.4)
    g1, gt1 = generate(params, 123)
    g2, gt2 = generate(params, 123)
    assert g1 == g2
    assert np.array_equal(gt1.assignment, gt2.assignment)
    g3, _ = generate(params, 124)
    assert g1 != g3


# sha256 of generate's graph values and planted assignment, recorded when
# generation was first pinned; any change to the sampling moves them
@pytest.mark.parametrize("params, digest", [
    (BasbmParams(n=60, a=10, b=2, rho=0.3),
     "3b0fe13a3940094ae17fd002fd589d15a720dc30a1a34e23c59ce2ceed96903c"),
    (CbsbmParams(n=60, a=8, xi=0.1),
     "41e698036de95408f9861df771781cfc7480b7d5515eeb817c6dc920ede555b1"),
    (GssbmParams(n=60, a=12, b=2, rhos=(0.4, 0.3)),  # 18 outliers
     "1eb51ec8344ee2832eaeedc20b4de38fca880b3f02c26a1c3bc46c145943a2db"),
])
def test_generation_bits_are_pinned(params, digest):
    g, gt = generate(params, 3)
    bits = g.values.tobytes() + gt.assignment.tobytes()
    assert hashlib.sha256(bits).hexdigest() == digest


def test_basbm_intra_edge_moments():
    # binomial oracle: per-cluster intra edge count within 3 sigma of its mean
    params = BasbmParams(n=300, a=20, b=2, rho=0.5)
    g, gt = generate(params, 7)
    dense = g.to_dense()
    for label in (1, -1):
        members = np.where(gt.assignment == label)[0]
        count = dense[np.ix_(members, members)].sum() / 2
        trials = len(members) * (len(members) - 1) / 2
        mean = trials * params.p
        sd = math.sqrt(trials * params.p * (1 - params.p))
        assert abs(count - mean) <= 3 * sd


def test_cbsbm_noiseless_labels():
    params = CbsbmParams(n=60, a=8, xi=0.0)
    g, gt = generate(params, 11)
    sigma = gt.sigma
    dense = g.to_dense()
    present = dense != 0
    assert np.all(dense[present] == np.outer(sigma, sigma)[present])


def test_empirical_densities_over_seeds():
    # 50 seeds; aggregated intra/inter edge counts within 4 binomial sigmas
    params = BasbmParams(n=80, a=10, b=2, rho=0.5)
    intra = inter = 0
    k = params.first_cluster_size
    for seed in range(50):
        g, gt = generate(params, seed)
        dense = g.to_dense()
        same = np.equal.outer(gt.assignment, gt.assignment)
        intra += dense[same].sum() / 2
        inter += dense[~same].sum() / 2
    n = params.n
    intra_trials = 50 * (k * (k - 1) // 2 + (n - k) * (n - k - 1) // 2)
    inter_trials = 50 * k * (n - k)
    for count, trials, prob in ((intra, intra_trials, params.p),
                                (inter, inter_trials, params.q)):
        mean = trials * prob
        sd = math.sqrt(trials * prob * (1 - prob))
        assert abs(count - mean) <= 4 * sd


def test_expected_adjacency_basbm():
    params = BasbmParams(n=10, a=4, b=1, rho=0.3)
    _, gt = generate(params, 0)
    ea = expected_adjacency(params, gt)
    assert ea[0, 1] == pytest.approx(params.p)   # both in first cluster
    assert ea[0, 9] == pytest.approx(params.q)
    assert np.all(np.diag(ea) == 0)
    assert ea.min() >= 0 and ea.max() <= 1


def test_expected_adjacency_cbsbm():
    params = CbsbmParams(n=12, a=4, xi=0.1)
    _, gt = generate(params, 0)
    ea = expected_adjacency(params, gt)
    sigma = gt.sigma
    i, j = 0, 11
    assert ea[i, j] == pytest.approx(
        (1 - 2 * params.xi) * params.p * sigma[i] * sigma[j])
    assert np.abs(ea).max() <= params.p
    assert np.all(np.diag(ea) == 0)


def test_expected_adjacency_gssbm():
    params = GssbmParams(n=20, a=6, b=1, rhos=(0.3, 0.3))
    _, gt = generate(params, 0)
    ea = expected_adjacency(params, gt)
    outliers = np.where(gt.assignment == 0)[0]
    # outlier-outlier pairs sit at q: expand (p-q)Z + qJ - p I_in - q I_out
    assert ea[outliers[0], outliers[1]] == pytest.approx(params.q)
    assert ea[0, 1] == pytest.approx(params.p)
    assert ea[0, 7] == pytest.approx(params.q)
    assert np.all(np.diag(ea) == 0)


def test_cluster_matrix_examples():
    gt = GroundTruth("basbm", np.array([1, -1]))
    assert np.array_equal(cluster_matrix(gt), np.array([[1, -1], [-1, 1]]))
    gt_one = GroundTruth("gssbm", np.array([1, 1, 1]))
    assert np.array_equal(cluster_matrix(gt_one), np.ones((3, 3)))
    gt_out = GroundTruth("gssbm", np.array([1, 1, 0]))
    z = cluster_matrix(gt_out)
    assert np.array_equal(z[2], np.zeros(3))
    assert z[2, 2] == 0


def test_cluster_matrix_psd_with_rank():
    params = GssbmParams(n=30, a=6, b=1, rhos=(0.3, 0.2, 0.2))
    _, gt = generate(params, 1)
    z = cluster_matrix(gt)
    assert np.linalg.eigvalsh(z)[0] >= -1e-12
    assert np.linalg.matrix_rank(z) == 3


def test_same_clustering_invariances():
    sigma = np.array([1, 1, -1, -1])
    y1 = np.outer(sigma, sigma)
    y2 = np.outer(-sigma, -sigma)
    assert same_clustering(y1, y2)
    other = np.array([1, -1, 1, -1])
    assert not same_clustering(y1, np.outer(other, other))
    ga = GroundTruth("gssbm", np.array([1, 1, 2, 2, 0]))
    gb = GroundTruth("gssbm", np.array([2, 2, 1, 1, 0]))
    assert same_clustering(cluster_matrix(ga), cluster_matrix(gb))
    with pytest.raises(InvalidParams, match="differ in shape"):
        same_clustering(y1, np.ones((3, 3)))


def test_same_partition_invariances():
    # it decides every sweep trial's recovered flag and recover --gt's
    # matches_gt, and must agree with same_clustering on the cluster matrices
    sigma = np.array([1, 1, -1, -1, 1])
    assert same_partition(sigma, -sigma)  # a global sign flip
    assert not same_partition(sigma, np.array([1, -1, 1, -1, 1]))
    labels = np.array([1, 1, 2, 2, 0, 3])
    assert same_partition(labels, np.array([3, 3, 1, 1, 0, 2]))  # relabelled
    moved = (np.array([1, 1, 2, 0, 2, 3]),  # an outlier swaps with a member
             np.array([1, 1, 2, 2, 3, 3]),  # the outlier joins a cluster
             np.array([1, 1, 2, 2, 0, 0]))  # a singleton becomes an outlier
    for other in moved:
        assert not same_partition(labels, other)
        assert same_partition(labels, other) == same_clustering(
            cluster_matrix(GroundTruth("gssbm", labels)),
            cluster_matrix(GroundTruth("gssbm", other)))
    with pytest.raises(InvalidParams, match="differ in shape"):
        same_partition(labels, labels[:-1])


def test_permute_instance_consistent():
    params = BasbmParams(n=30, a=8, b=1, rho=0.4)
    g, gt = generate(params, 3)
    rng = np.random.default_rng(0)
    g2, gt2 = permute_instance(g, gt, rng)
    assert g2.degrees().sum() == g.degrees().sum()
    # the permuted adjacency agrees with the permuted labels entrywise
    dense = g2.to_dense()
    inner = dense[np.ix_(gt2.assignment == 1, gt2.assignment == 1)]
    orig = g.to_dense()[np.ix_(gt.assignment == 1, gt.assignment == 1)]
    assert inner.sum() == orig.sum()


def test_params_json_roundtrip():
    # the JSON forms that sweep configs and the command line build
    for text, params in (
            ('{"variant": "basbm", "n": 50, "a": 8, "b": 2, "rho": 0.4}',
             BasbmParams(n=50, a=8, b=2, rho=0.4)),
            ('{"variant": "cbsbm", "n": 50, "a": 8, "xi": 0.2}',
             CbsbmParams(n=50, a=8, xi=0.2)),
            ('{"variant": "gssbm", "n": 50, "a": 8, "b": 2, "rhos": [0.4, 0.3]}',
             GssbmParams(n=50, a=8, b=2, rhos=(0.4, 0.3)))):
        assert params_from_dict(json.loads(text)) == params
    with pytest.raises(InvalidParams):
        params_from_dict({"variant": "nope"})
    with pytest.raises(InvalidParams):
        params_from_dict({"variant": "basbm", "n": 10})
    # a null or non-numeric field is a config error, not a TypeError
    for bad in ({"b": None}, {"a": "x"}, {"n": "ten"}):
        with pytest.raises(InvalidParams, match="not a number"):
            params_from_dict({"variant": "basbm", "n": 10, "a": 8, "b": 2, **bad})
    with pytest.raises(InvalidParams, match="not a number"):
        params_from_dict({"variant": "gssbm", "n": 10, "a": 8, "b": 2, "rhos": None})
