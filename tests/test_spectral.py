import numpy as np
import pytest

from sbmdp.errors import NonFinite, NotSymmetric, ShapeMismatch
from sbmdp.spectral import as_symmetric, psd_project, spectral_norm


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


def test_input_validation():
    with pytest.raises(NotSymmetric):
        as_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonFinite):
        as_symmetric(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ShapeMismatch):
        as_symmetric(np.zeros((2, 3)))
    # asymmetry below tolerance is symmetrized, not rejected
    m = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
    out = as_symmetric(m)
    assert np.array_equal(out, out.T)
