"""Dense symmetric linear algebra: tolerances, norm, PSD cone.

:func:`eig_sorted` and :func:`psd_project` are the solver's eigen steps,
which rounding shares. They validate nothing and symmetrise their input,
which is an adjacency matrix (exactly symmetric, as ``Graph.to_dense``
forms it) or a solver iterate (symmetric up to rounding). Both take one
matrix or a stack of same-size matrices, so that the solver has a single
eigen/PSD step however many problems it runs in lockstep, and both run a
full dense eigendecomposition. :func:`spectral_norm` is the exact norm,
from one full ``eigvalsh``. Two Krylov routines read only part of a
spectrum and fall back to those full decompositions when they cannot vouch
for the part: :func:`top_eigenpairs` computes the few algebraically
largest eigenpairs of one matrix by block Krylov iteration, and the
solver's spectral candidate reads nothing else from ``KRYLOV_MIN_N`` (or
``KRYLOV_MIN_N_GENERAL``) vertices on; :func:`norm_estimate` estimates the
norm by Lanczos, for the eta of the gssbm gate from the latter cut-over on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerances used across the package."""

    certificate: float = 1e-8        # certificate checks, relative to ||S||_2
    eigen_gap: float = 1e-6          # rounding degenerate-spectrum guard
    z_threshold: float = 0.5         # same-cluster threshold for 0/1 matrices
    krylov_residual: float = 1e-10   # top_eigenpairs: ||Mv - theta v|| / max(|theta|, 1)
    krylov_angle: float = 1e-8       # top_eigenpairs: residual / Ritz gap
    krylov_norm: float = 1e-10       # norm_estimate: change between checks, relative


DEFAULT_TOLS = Tolerances()

# top_eigenpairs and norm_estimate: the most basis columns before they fall
# back to the full decomposition, and the seed of their start, which
# therefore depends on the shape alone and never on another matrix (and is
# drawn once per shape, see _start_block and _start_vector)
KRYLOV_MAX_BASIS = 96
_KRYLOV_SEED = 0x5B3D

# Binary groups of at least KRYLOV_MIN_N vertices, and gssbm groups of at
# least KRYLOV_MIN_N_GENERAL, get the solver's spectral candidates from
# top_eigenpairs, one matrix at a time; smaller ones from one batched
# eig_sorted. Each is where the two break even on one core (median over 3
# seeds). Binary: at n = 128 the full eigh takes 2.0-2.7 ms and block
# Krylov 1.4-1.9 ms; at n = 300 12-14 ms against 3.2-4.5 ms. gssbm grows
# blocks of r + 1 columns and so breaks even later: at r = 3 and n = 128,
# 144, 152, 160 the eigh took 2.7, 3.7, 4.4, 4.6 ms and Krylov 3.8, 4.6,
# 4.7, 3.6 ms; r = 2 crossed near n = 150. From KRYLOV_MIN_N_GENERAL on,
# the gssbm gate also takes its eta from norm_estimate, not spectral_norm:
# on its matrices at rhos 0.3x3, Lanczos against eigvalsh took 0.86 against
# 1.22 ms at n = 160, 1.24 against 2.05 at n = 200, 2.28 against 4.70 at 300.
KRYLOV_MIN_N = 128
KRYLOV_MIN_N_GENERAL = 160

# np.linalg.eigh's own kernel (lower triangle), None where this numpy has none
try:
    from numpy.linalg._umath_linalg import eigh_lo as _EIGH_KERNEL
except ImportError:
    _EIGH_KERNEL = None


def spectral_norm(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of a symmetric matrix.

    Every caller passes the difference of two exactly symmetric matrices,
    so ``m`` is read as it is. It is the exact norm of the concentration
    check and the diagnostics' general certificate, and the solver's gate eta
    below ``KRYLOV_MIN_N_GENERAL`` vertices (:func:`norm_estimate` from
    there on).
    """
    if m.shape[0] == 0:
        return 0.0
    w = np.linalg.eigvalsh(m)
    return float(max(abs(w[0]), abs(w[-1])))


def eig_sorted(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvectors, ascending eigenvalues) of the symmetric part of ``m``.

    ``m`` is one matrix or a stack; each matrix of a stack gets the same
    bits as it would alone. A float64 input goes straight to
    ``_EIGH_KERNEL``, the LAPACK gufunc that ``np.linalg.eigh`` wraps: the
    same bits, without the Python layer that costs ``eigh`` about two
    thirds of the kernel's time on a small stack. It raises LinAlgError
    when an eigenvalue is not finite: the kernel fills a failed
    decomposition with NaN, which ``eigh`` turns into LinAlgError only when
    LAPACK reports the failure, not for an infinite entry.
    """
    sym = (m + m.swapaxes(-1, -2)) / 2.0
    if _EIGH_KERNEL is not None and sym.dtype == np.float64:
        evals, evecs = _EIGH_KERNEL(sym)
    else:
        evals, evecs = np.linalg.eigh(sym)
    # a finite sum has finite terms; only a non-finite one is looked into
    if not math.isfinite(evals.sum()) and not np.isfinite(evals).all():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
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
    # the columns where some matrix has a positive eigenvalue: as each
    # matrix's eigenvalues ascend, they are the trailing k
    k = np.count_nonzero((evals > 0).any(axis=tuple(range(evals.ndim - 1))))
    cols = evecs[..., n - k:]
    weighted = cols * np.maximum(evals[..., None, n - k:], 0.0)
    return weighted @ cols.swapaxes(-1, -2), evecs, evals


@functools.lru_cache(maxsize=8)
def _start_block(n: int, b: int) -> np.ndarray:
    """Read-only orthonormal start block of :func:`top_eigenpairs`."""
    block = np.linalg.qr(np.random.default_rng(_KRYLOV_SEED).standard_normal((n, b)))[0]
    block.flags.writeable = False
    return block


@functools.lru_cache(maxsize=8)
def _start_vector(n: int) -> np.ndarray:
    """Read-only unit start vector of :func:`norm_estimate`."""
    q = np.random.default_rng(_KRYLOV_SEED).standard_normal(n)
    q /= math.sqrt(q @ q)
    q.flags.writeable = False
    return q


def top_eigenpairs(m: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvectors, ascending eigenvalues) of the ``r`` algebraically
    largest eigenpairs of one exactly symmetric matrix.

    Block Krylov iteration with Rayleigh-Ritz (Musco & Musco, NeurIPS
    2015). The orthonormal basis Q starts from a block of r + 1 columns
    drawn from a fixed seed and grows by M times its newest block,
    orthogonalised twice against Q. The extra column lets Q hold the
    (r+1)-st eigenvector too, so that a top of the spectrum degenerate at r
    shows in the Ritz values instead of hiding in one direction. After
    every second block, the Ritz pairs (theta, v) are the trailing
    eigenpairs of Q^T M Q, and the basis stops growing once

    - every returned pair has ||Mv - theta v|| <=
      ``Tolerances.krylov_residual`` * max(|theta|, 1), and
    - the largest residual is at most ``Tolerances.krylov_angle`` times the
      gap between the r-th and (r+1)-st Ritz values. This bounds the angle
      between the returned vectors and the true top-r invariant subspace
      (Davis-Kahan, with the next Ritz value standing in for the next
      eigenvalue), so a near-degenerate top of the spectrum never passes.

    When that has not happened within ``KRYLOV_MAX_BASIS`` columns, or Q
    stops growing, the result is :func:`eig_sorted`'s trailing ``r`` pairs,
    bit for bit. The start block depends on n and r alone, so each call is
    a deterministic function of ``m`` and ``r``. Unlike :func:`eig_sorted`, this does
    not symmetrise ``m``: the solver's data matrices are symmetric bit for
    bit.
    """
    tols = DEFAULT_TOLS
    n = m.shape[0]
    b = r + 1
    cap = min(KRYLOV_MAX_BASIS, n) // (2 * b) * (2 * b)
    basis = np.empty((n, cap))
    image = np.empty((n, cap))
    block = _start_block(n, b)
    for k in range(b, cap + 1, b):
        basis[:, k - b:k] = block
        image[:, k - b:k] = m @ block
        q, mq = basis[:, :k], image[:, :k]
        if k % (2 * b) == 0:
            t = q.T @ mq
            theta, s = np.linalg.eigh((t + t.T) / 2.0)
            s = s[:, -r:]
            vecs = q @ s
            res = np.linalg.norm(mq @ s - vecs * theta[-r:], axis=0)
            if ((res <= tols.krylov_residual * np.maximum(np.abs(theta[-r:]), 1.0)).all()
                    and res.max() <= tols.krylov_angle * (theta[-r] - theta[-r - 1])):
                return vecs, theta[-r:]
        if k == cap:
            break
        new = mq[:, -b:]
        w = new - q @ (q.T @ new)
        w -= q @ (q.T @ w)
        block, rr = np.linalg.qr(w)
        if not np.abs(rr.diagonal()).min() > tols.krylov_residual * np.linalg.norm(new):
            break  # Q spans an invariant subspace and cannot grow
    evecs, evals = eig_sorted(m)
    return evecs[:, -r:], evals[-r:]


def norm_estimate(m: np.ndarray) -> float:
    """Largest absolute eigenvalue of one exactly symmetric matrix, by Lanczos.

    Single-vector Lanczos with full reorthogonalisation (every new vector
    is orthogonalised twice against the whole basis), from a unit start
    vector drawn from a fixed seed, so each call is a deterministic
    function of ``m``. The Ritz values are the eigenvalues of the
    tridiagonal projection T; from 24 basis vectors on, and then after
    every 8th, the estimate is the larger of |theta_min| and |theta_max|,
    as the most negative eigenvalue is often the larger in magnitude. It is
    returned once it changed by at most ``Tolerances.krylov_norm``
    relative since the previous check. Ritz values lie between the extreme
    eigenvalues, so the estimate never exceeds the norm (up to rounding);
    Lanczos from a random start finds the extreme eigenvalues fast
    (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 1992).

    When that has not happened within ``KRYLOV_MAX_BASIS`` basis vectors,
    or the basis stops growing (a new vector shorter than
    ``Tolerances.krylov_residual`` times the image it came from: the basis
    spans an invariant subspace, which may miss the extreme eigenvalue),
    the result is :func:`spectral_norm`'s, bit for bit.
    """
    tols = DEFAULT_TOLS
    n = m.shape[0]
    cap = min(KRYLOV_MAX_BASIS, n)
    basis = np.empty((cap, n))
    t = np.zeros((cap, cap))  # T, lower triangle
    q = _start_vector(n)
    previous = -1.0
    for k in range(1, cap + 1):
        basis[k - 1] = q
        w = m @ q
        image = math.sqrt(w @ w)
        qk = basis[:k]
        c = qk @ w
        w -= c @ qk
        c2 = qk @ w
        w -= c2 @ qk
        t[k - 1, k - 1] = c[-1] + c2[-1]
        if k >= 24 and k % 8 == 0:
            theta = np.linalg.eigvalsh(t[:k, :k], UPLO="L")
            estimate = float(max(-theta[0], theta[-1]))
            if abs(estimate - previous) <= tols.krylov_norm * estimate:
                return estimate
            previous = estimate
        beta = math.sqrt(w @ w)
        if k == cap or not beta > tols.krylov_residual * image:
            break
        t[k, k - 1] = beta
        q = w / beta
    return spectral_norm(m)
