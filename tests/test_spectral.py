import numpy as np
import pytest

from sbmdp import spectral
from sbmdp.models import BasbmParams, CbsbmParams, GssbmParams, generate
from sbmdp.models import same_cluster
from sbmdp.certificates import _empirical_rates
from sbmdp.sdp import (
    KRYLOV_MIN_N,
    _spectral_matrix,
    problem_from_graph,
)
from sbmdp.spectral import (
    eig_sorted,
    norm_estimate,
    psd_project,
    spectral_norm,
    top_eigenpairs,
)


def sample_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2


def test_spectral_norm_examples():
    assert spectral_norm(np.zeros((4, 4))) == 0.0
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-12)
    n = 6
    assert spectral_norm(np.ones((n, n))) == pytest.approx(n, rel=1e-9)


def test_spectral_norm_matches_operator_norm():
    for seed in range(10):
        m = sample_symmetric(12, seed)
        assert spectral_norm(m) == pytest.approx(
            np.linalg.norm(m, 2), rel=1e-9)
        w = np.linalg.eigvalsh(m)
        assert spectral_norm(m) == pytest.approx(
            max(abs(w[0]), abs(w[-1])), rel=1e-12)


def test_psd_project_fixed_point():
    m = np.outer([1.0, 2.0], [1.0, 2.0]) + np.eye(2)
    assert np.linalg.norm(psd_project(m)[0] - m, "fro") < 1e-10


def test_psd_project_clips():
    assert psd_project(np.diag([1.0, -2.0]))[0] == pytest.approx(
        np.diag([1.0, 0.0]))


def test_psd_project_returns_eigenpairs_of_symmetric_part():
    # the solver rounds its checkpoints from these eigenpairs
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6))
    _, evecs, evals = psd_project(m)
    assert np.all(np.diff(evals) >= 0)
    assert np.allclose((evecs * evals) @ evecs.T, (m + m.T) / 2, atol=1e-12)


def test_psd_project_is_the_cone_projection():
    # optimality of the projection: <m - P(m), X - P(m)> <= 0 for PSD X
    rng = np.random.default_rng(0)
    for seed in range(5):
        m = sample_symmetric(8, seed + 100)
        p, _, _ = psd_project(m)
        assert np.linalg.eigvalsh(p)[0] >= -1e-10
        for _ in range(20):
            b = rng.standard_normal((8, 8))
            x = b @ b.T  # random PSD point
            assert ((m - p) * (x - p)).sum() <= 1e-8 * max(
                1.0, np.linalg.norm(x))


def test_psd_project_idempotent_nonexpansive():
    for seed in range(5):
        m1 = sample_symmetric(7, seed)
        m2 = sample_symmetric(7, seed + 50)
        p1, p2 = psd_project(m1)[0], psd_project(m2)[0]
        assert np.linalg.norm(psd_project(p1)[0] - p1, "fro") < 1e-9
        assert (np.linalg.norm(p1 - p2, "fro")
                <= np.linalg.norm(m1 - m2, "fro") + 1e-9)


@pytest.mark.parametrize("kernel", ["eigh_lo", "fallback"])
@pytest.mark.parametrize("b", [None, 1, 3, 64])
@pytest.mark.parametrize("n", [1, 2, 6, 40])
def test_eig_sorted_is_eigh_bit_for_bit(kernel, b, n, monkeypatch):
    if kernel == "fallback":
        monkeypatch.setattr(spectral, "_EIGH_KERNEL", None)
    else:
        assert spectral._EIGH_KERNEL is not None
    shape = (n, n) if b is None else (b, n, n)
    m = np.random.default_rng(n).standard_normal(shape)
    evecs, evals = eig_sorted(m)
    want_vals, want_vecs = np.linalg.eigh((m + m.swapaxes(-1, -2)) / 2.0)
    assert evals.tobytes() == want_vals.tobytes()
    assert evecs.tobytes() == want_vecs.tobytes()
    assert evals.shape == want_vals.shape and evecs.shape == want_vecs.shape


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kernel", ["eigh_lo", "fallback"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eig_sorted_refuses_a_non_finite_spectrum(kernel, bad, monkeypatch):
    if kernel == "fallback":
        monkeypatch.setattr(spectral, "_EIGH_KERNEL", None)
    m = np.stack([sample_symmetric(5, 0)] * 3)
    m[1, 0, 2] = m[1, 2, 0] = bad
    with pytest.raises(np.linalg.LinAlgError):
        eig_sorted(m)
    with pytest.raises(np.linalg.LinAlgError):
        psd_project(m[1])


# ---------------------------------------------------------------------------
# top_eigenpairs


def spectral_data(params, seed):
    prob = problem_from_graph(generate(params, seed)[0], params)
    return _spectral_matrix(prob), len(prob.sizes) if prob.sizes else 1


def krylov_only(monkeypatch):
    """Make the fallback to eig_sorted fail, so a result is Krylov's own."""
    def no_fallback(m):
        raise AssertionError("top_eigenpairs fell back to eig_sorted")
    monkeypatch.setattr(spectral, "eig_sorted", no_fallback)


def assert_same_pairs(got, want):
    (vecs, vals), (evecs, evals) = got, want
    r = vals.size
    assert vecs.shape == (evecs.shape[0], r)
    assert np.all(np.diff(vals) >= 0)
    assert np.allclose(vals, evals[-r:], rtol=1e-8, atol=0)
    for v, w in zip(vecs.T, evecs[:, -r:].T):
        assert min(np.abs(v - w).max(), np.abs(v + w).max()) < 1e-8


@pytest.mark.parametrize("params", [
    BasbmParams(n=KRYLOV_MIN_N, a=15, b=2, rho=0.3),
    BasbmParams(n=300, a=20, b=2, rho=0.5),
    CbsbmParams(n=300, a=8, xi=0.05),
    GssbmParams(n=200, a=30, b=2, rhos=(0.3, 0.3, 0.3)),
    GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3)),
], ids=["basbm-cutover", "basbm", "cbsbm", "gssbm-200", "gssbm-300"])
def test_top_eigenpairs_match_the_full_decomposition(params, monkeypatch):
    for seed in range(3):
        m, r = spectral_data(params, seed)
        want = eig_sorted(m)
        with monkeypatch.context() as patch:
            krylov_only(patch)
            got = top_eigenpairs(m, r)
        assert_same_pairs(got, want)


def with_spectrum(extremes) -> np.ndarray:
    """A symmetric n = 200 matrix with the eigenvalues ``extremes`` and a
    bulk in [-5, 5]."""
    n = 200
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.concatenate([rng.uniform(-5.0, 5.0, n - len(extremes)), extremes])
    m = (q * w) @ q.T
    return (m + m.T) / 2.0


def test_top_eigenpairs_are_the_algebraically_largest(monkeypatch):
    # the largest-magnitude eigenvalue, -60, is the most negative one
    m = with_spectrum([-60.0, 20.0, 30.0])
    want = eig_sorted(m)
    krylov_only(monkeypatch)
    vecs, vals = top_eigenpairs(m, 2)
    assert np.allclose(vals, [20.0, 30.0], rtol=1e-10, atol=0)
    assert_same_pairs((vecs, vals), want)


@pytest.mark.parametrize("m, r", [
    # the top two eigenvalues 1e-9 apart: the returned vector is not
    # determined to the angle tolerance
    (with_spectrum([30.0 - 1e-9, 30.0]), 1),
    # no planted structure: the top of a Wigner matrix is the bulk edge,
    # with gaps too small to resolve within the basis cap
    (sample_symmetric(300, 8), 1),
    (sample_symmetric(300, 9), 3),
    # a sub-threshold basbm data matrix
    (spectral_data(BasbmParams(n=300, a=3, b=2, rho=0.5), 0)[0], 1),
], ids=["near-degenerate", "wigner-r1", "wigner-r3", "basbm-subthreshold"])
def test_top_eigenpairs_fall_back_to_the_full_decomposition(m, r):
    vecs, vals = top_eigenpairs(m, r)
    evecs, evals = eig_sorted(m)
    assert vecs.tobytes() == evecs[:, -r:].tobytes()
    assert vals.tobytes() == evals[-r:].tobytes()


def test_top_eigenpairs_converge_past_a_separated_pair(monkeypatch):
    # the same spectrum with a gap of 1 is resolved without falling back
    m = with_spectrum([29.0, 30.0])
    krylov_only(monkeypatch)
    vecs, vals = top_eigenpairs(m, 1)
    assert np.allclose(vals, [30.0], rtol=1e-10, atol=0)


def test_top_eigenpairs_are_bit_deterministic():
    m, r = spectral_data(GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3)), 1)
    other, _ = spectral_data(BasbmParams(n=300, a=20, b=2, rho=0.3), 1)
    first = top_eigenpairs(m, r)
    top_eigenpairs(other, 1)
    again = top_eigenpairs(m.copy(), r)
    for a, b in zip(first, again):
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# norm_estimate


def gate_matrix(params, seed):
    """A - E_hat of the solver's gssbm gate, E_hat from the planted
    clustering's empirical rates."""
    g, gt = generate(params, seed)
    a = problem_from_graph(g, params).a_dense
    same = same_cluster(gt.assignment)
    expected = np.where(same, *_empirical_rates(a, same))
    np.fill_diagonal(expected, 0.0)
    return a - expected


def count_fallbacks(monkeypatch):
    """Record every spectral_norm call that norm_estimate falls back to."""
    calls = []
    real = spectral.spectral_norm

    def counted(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(spectral, "spectral_norm", counted)
    return calls


def assert_estimates_norm(m, monkeypatch):
    want = spectral_norm(m)
    fallbacks = count_fallbacks(monkeypatch)
    got = norm_estimate(m)
    assert fallbacks == []
    assert abs(got - want) <= 1e-10 * want
    # Ritz values lie between the extreme eigenvalues
    assert got <= want * (1 + 1e-12)


@pytest.mark.parametrize("params", [
    GssbmParams(n=160, a=30, b=2, rhos=(0.3, 0.3, 0.3)),
    GssbmParams(n=200, a=30, b=2, rhos=(0.3, 0.3, 0.3)),
    GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3)),
], ids=["gssbm-160", "gssbm-200", "gssbm-300"])
def test_norm_estimate_matches_the_exact_norm_on_gate_matrices(params, monkeypatch):
    for seed in range(3):
        with monkeypatch.context() as patch:
            assert_estimates_norm(gate_matrix(params, seed), patch)


@pytest.mark.parametrize("m", [
    with_spectrum([-60.0, 20.0, 30.0]),
    sample_symmetric(200, 0) - 5.0 * np.eye(200),
    sample_symmetric(200, 1) - 20.0 * np.eye(200),
    -gate_matrix(GssbmParams(n=200, a=30, b=2, rhos=(0.3, 0.3, 0.3)), 2),
], ids=["planted", "wigner-shift-5", "wigner-shift-20", "negated-gate"])
def test_norm_estimate_reads_a_larger_negative_end(m, monkeypatch):
    w = np.linalg.eigvalsh(m)
    assert -w[0] > w[-1]
    assert_estimates_norm(m, monkeypatch)


@pytest.mark.parametrize("extremes", [
    [-30.0, 30.0 - 1e-9], [-30.0 + 1e-9, 30.0], [-30.0, 30.0],
], ids=["top-lower", "bottom-lower", "equal"])
def test_norm_estimate_with_nearly_equal_ends(extremes, monkeypatch):
    assert_estimates_norm(with_spectrum(extremes), monkeypatch)


def rank_one(n):
    u = np.random.default_rng(3).standard_normal(n)
    return np.outer(u, u)


@pytest.mark.parametrize("m", [
    np.zeros((200, 200)), np.eye(200), rank_one(200),
], ids=["zero", "identity", "rank-1"])
def test_norm_estimate_falls_back_on_breakdown(m, monkeypatch):
    want = spectral_norm(m)
    fallbacks = count_fallbacks(monkeypatch)
    assert norm_estimate(m).hex() == want.hex()
    assert fallbacks == [m.shape]


@pytest.mark.parametrize("cap", [16, 32])
def test_norm_estimate_falls_back_at_the_basis_cap(cap, monkeypatch):
    # at n = 300 the gate matrix needs more than 32 basis vectors
    m = gate_matrix(GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3)), 0)
    monkeypatch.setattr(spectral, "KRYLOV_MAX_BASIS", cap)
    fallbacks = count_fallbacks(monkeypatch)
    assert norm_estimate(m).hex() == spectral_norm(m).hex()
    assert fallbacks == [m.shape]


def test_norm_estimate_is_bit_deterministic():
    m = gate_matrix(GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3)), 1)
    first = norm_estimate(m)
    norm_estimate(sample_symmetric(300, 4))
    assert norm_estimate(m.copy()).hex() == first.hex()
