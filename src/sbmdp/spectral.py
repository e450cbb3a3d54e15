"""Dense symmetric linear algebra: tolerances, validation, norm, PSD cone.

:func:`as_symmetric` validates outside input, rejecting non-finite entries
and asymmetry above ``Tolerances.symmetry``. :func:`eig_sorted` and
:func:`psd_project` are the solver's eigen steps and skip that validation:
they symmetrise their input and run on every iteration. Both take one
matrix or a stack of same-size matrices, so that the solver has a single
eigen/PSD step however many problems it runs in lockstep. Matrices at the
target scale (n up to a few thousand) are handled with full dense
eigendecompositions.
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


def as_symmetric(m: np.ndarray) -> np.ndarray:
    """Validate and return a float64 symmetric copy of ``m``.

    Raises ShapeMismatch for non-square input, NonFinite for NaN/inf
    entries, and NotSymmetric when max |m - m.T| exceeds
    ``Tolerances.symmetry`` relative to the matrix scale.
    """
    tol = DEFAULT_TOLS.symmetry
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
    """Largest absolute eigenvalue of a symmetric matrix.

    Skips :func:`as_symmetric`'s validation, as the solver's eigen steps
    do: every caller passes the difference of two validated, exactly
    symmetric matrices, once per concentration check and general
    certificate.
    """
    if m.shape[0] == 0:
        return 0.0
    w = np.linalg.eigvalsh(m)
    return float(max(abs(w[0]), abs(w[-1])))


def eig_sorted(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvectors, ascending eigenvalues) of the symmetric part of ``m``.

    ``m`` is one matrix or a stack; each matrix of a stack gets the same
    bits as it would alone.
    """
    evals, evecs = np.linalg.eigh((m + m.swapaxes(-1, -2)) / 2.0)
    return evecs, evals


def psd_project(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frobenius projection onto the PSD cone, with the eigenpairs it used.

    Returns (projection, eigenvectors, ascending eigenvalues) of the
    symmetric part of ``m``, one matrix or a stack; negative eigenvalues are
    clipped to zero. The projection is rebuilt from the trailing ``k``
    eigenpairs, ``k`` the largest positive count in the stack: a matrix
    with fewer positive eigenvalues only adds exact zero terms to each
    entry's sum, so it gets the same bits as it would alone.
    """
    evecs, evals = eig_sorted(m)
    n = evals.shape[-1]
    k = int((evals > 0).sum(axis=-1).max(initial=0))
    cols = evecs[..., n - k:]
    weighted = cols * np.maximum(evals[..., None, n - k:], 0.0)
    return weighted @ cols.swapaxes(-1, -2), evecs, evals
