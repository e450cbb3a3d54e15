"""Dense symmetric linear algebra: norms, extreme eigenpairs, PSD cone.

All operations validate their input through :func:`as_symmetric`, which
rejects non-finite entries and asymmetry above ``Tolerances.symmetry``.
Matrices at the target scale (n up to a few thousand) are handled with
full dense eigendecompositions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, NotSymmetric, ShapeMismatch


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerances used across the package."""

    symmetry: float = 1e-12          # max allowed asymmetry on construction
    certificate: float = 1e-8        # certificate checks, relative to ||S||_2
    eigen_gap: float = 1e-6          # rounding degenerate-spectrum guard
    z_threshold: float = 0.5         # same-cluster threshold for 0/1 matrices


DEFAULT_TOLS = Tolerances()


def as_symmetric(m: np.ndarray, tol: float = DEFAULT_TOLS.symmetry) -> np.ndarray:
    """Validate and return a float64 symmetric copy of ``m``.

    Raises ShapeMismatch for non-square input, NonFinite for NaN/inf
    entries, and NotSymmetric when max |m - m.T| exceeds ``tol`` relative
    to the matrix scale.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFinite("matrix has NaN or infinite entries")
    scale = max(1.0, float(np.abs(m).max()) if m.size else 0.0)
    asym = float(np.abs(m - m.T).max()) if m.size else 0.0
    if asym > tol * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance {tol:.1e}")
    return (m + m.T) / 2.0


def spectral_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    m = as_symmetric(m)
    if m.shape[0] == 0:
        return 0.0
    w = np.linalg.eigvalsh(m)
    return float(max(abs(w[0]), abs(w[-1])))


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(as_symmetric(m))


def smallest_eigenvalues(m: np.ndarray, k: int) -> np.ndarray:
    """The k smallest eigenvalues, ascending."""
    m = as_symmetric(m)
    if not 1 <= k <= m.shape[0]:
        raise ShapeMismatch(f"k={k} outside [1, {m.shape[0]}]")
    return np.linalg.eigvalsh(m)[:k]


def is_psd(m: np.ndarray, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue is >= -tol."""
    if tol < 0:
        raise ShapeMismatch("tolerance must be nonnegative")
    return bool(smallest_eigenvalues(m, 1)[0] >= -tol)


def psd_project(m: np.ndarray) -> np.ndarray:
    """Frobenius projection onto the PSD cone (negative eigenvalues clipped)."""
    m = as_symmetric(m)
    w, v = np.linalg.eigh(m)
    pos = w > 0
    if pos.all():
        return m
    p = (v[:, pos] * w[pos]) @ v[:, pos].T
    return (p + p.T) / 2.0


def top_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Largest eigenvalue, its eigenvector, and the gap to the next eigenvalue."""
    m = as_symmetric(m)
    w, v = np.linalg.eigh(m)
    gap = float(w[-1] - w[-2]) if m.shape[0] > 1 else float("inf")
    return float(w[-1]), v[:, -1].copy(), gap
