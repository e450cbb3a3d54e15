"""Dual certificates witnessing SDP optimality at a clustering.

Each certificate is a matrix S built deterministically from the adjacency,
the clustering and the dual multipliers (lambda on the all-ones matrix, and
eta on the identity for the general variant). S annihilates the cluster
vectors by construction (an algebraic identity, not a numerical fact);
validity then amounts to S being PSD with the eigenvalue just above the
kernel bounded away from zero, plus sign conditions on the general
variant's auxiliary quantities. A valid certificate proves the cluster
matrix is the unique optimizer, so rounding the solver output must
reproduce the clustering exactly.

This module is the only place a certificate is built and tested. The
kernels :func:`binary_certificate` and :func:`general_certificate` take
plain arrays and the multipliers; each caller decides where the
multipliers come from. :func:`build_binary` and :func:`build_general`
derive them from the true model rates, for diagnostics on a planted
clustering. The solver's early stop (``sdp._certify_candidate``) derives
them from the empirical rates of its rounded candidate. Both judge the
result with :func:`verify_binary` / :func:`verify_general`. A certificate
carries the clustering it was built for, so it is always verified against
those labels and no others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .concentration import (
    GssbmConstants,
    cluster_edge_counts,
    default_constants,
    degree_margins,
    lambda_star,
)
from .errors import InvalidParams, ShapeMismatch
from .graph import dense_matrix
from .models import (
    GSSBM,
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    cluster_indicator,
    expected_adjacency,
    same_cluster,
)
from .spectral import DEFAULT_TOLS, spectral_norm


@dataclass(frozen=True)
class BinaryCertificate:
    sigma: np.ndarray = field(repr=False)
    d_star: np.ndarray = field(repr=False)
    lam: float
    s_matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class GeneralCertificate:
    assign: np.ndarray = field(repr=False)
    d_star: np.ndarray = field(repr=False)
    b_matrix: np.ndarray = field(repr=False)
    eta: float
    lam: float
    s_matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class BinaryReport:
    valid: bool
    lambda_min: float
    lambda2: float
    kernel_residual: float

    def to_dict(self) -> dict:
        return {"valid": self.valid, "lambda_min": self.lambda_min,
                "lambda2": self.lambda2, "kernel_residual": self.kernel_residual}


@dataclass(frozen=True)
class GeneralReport:
    valid: bool
    lambda_min: float
    lambda_after_kernel: float
    kernel_residual: float
    b_min_off: float
    d_min_member: float
    slackness_residual: float

    def to_dict(self) -> dict:
        return {"valid": self.valid, "lambda_min": self.lambda_min,
                "lambda_after_kernel": self.lambda_after_kernel,
                "kernel_residual": self.kernel_residual,
                "b_min_off": self.b_min_off,
                "d_min_member": self.d_min_member,
                "slackness_residual": self.slackness_residual}


def binary_certificate(
    a_dense: np.ndarray, sigma: np.ndarray, lam: float
) -> BinaryCertificate:
    """S = diag(d) - A + lam*J for the +-1 labels ``sigma``.

    d is :func:`~sbmdp.concentration.degree_margins`, so S*sigma = 0 for
    any adjacency and any lam. lam = 0 is the censored certificate, which
    has no size constraint.
    """
    d = degree_margins(a_dense, sigma, lam)
    return BinaryCertificate(sigma, d, lam, np.diag(d) - a_dense + lam)


def build_binary(graph, gt: GroundTruth, params) -> BinaryCertificate:
    """Certificate for the two binary variants at the true rates.

    basbm: lambda = log_mean(a, b)*log(n)/n; cbsbm: lambda = 0.
    """
    if not isinstance(params, (BasbmParams, CbsbmParams)):
        raise InvalidParams("binary certificate needs basbm or cbsbm params")
    a_dense = dense_matrix(graph)
    if a_dense.shape[0] != gt.n:
        raise ShapeMismatch("adjacency and ground truth sizes disagree")
    return binary_certificate(a_dense, gt.sigma, lambda_star(params))


def verify_binary(cert: BinaryCertificate) -> BinaryReport:
    """Numerical validity of a binary certificate, tolerances relative to ||S||."""
    s = cert.s_matrix
    sigma = cert.sigma
    tol = DEFAULT_TOLS.certificate
    w = np.linalg.eigvalsh(s)
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1.0)
    residual = float(np.abs(s @ sigma).max())
    lambda_min = float(w[0])
    lambda2 = float(w[1]) if w.size > 1 else float("nan")
    valid = (
        w.size > 1
        and residual <= tol * scale
        and lambda_min >= -tol * scale
        and lambda2 > tol * scale
    )
    return BinaryReport(bool(valid), lambda_min, lambda2, residual)


def general_certificate(
    a_dense: np.ndarray,
    assign: np.ndarray,
    sizes: np.ndarray,
    lam: float,
    eta: float,
) -> GeneralCertificate:
    """S = diag(d) - B - A + eta*I + lam*J for an assignment (0 = outlier).

    d_i = s_i - eta - lam*K_k on members of cluster k, where s_i counts
    the edges from i into its own cluster, and zero on outliers. B is the
    four-case cross-cluster pricing matrix, zero within each part. Every
    cluster indicator lies in the kernel of S for any adjacency, lam and
    eta.
    """
    n = assign.size
    sizes = np.asarray(sizes, dtype=np.float64)
    r = sizes.size
    e_counts, pair_counts = cluster_edge_counts(a_dense, assign)
    member = assign > 0
    if r:
        internal = e_counts[np.arange(n), np.maximum(assign - 1, 0)]
        d = np.where(member,
                     internal - eta - lam * sizes[np.maximum(assign - 1, 0)],
                     0.0)
    else:
        d = np.zeros(n)

    b_mat = np.zeros((n, n))
    for k in range(0, r + 1):
        mi = assign == k
        if not mi.any():
            continue
        for kp in range(0, r + 1):
            if k == kp:
                continue
            mj = assign == kp
            if not mj.any():
                continue
            if k == 0:
                blk = np.broadcast_to(
                    lam - (e_counts[mi, kp - 1] / sizes[kp - 1])[:, None],
                    (mi.sum(), mj.sum()))
            elif kp == 0:
                blk = np.broadcast_to(
                    lam - (e_counts[mj, k - 1] / sizes[k - 1])[None, :],
                    (mi.sum(), mj.sum()))
            else:
                blk = (lam
                       + pair_counts[k - 1, kp - 1] / (sizes[k - 1] * sizes[kp - 1])
                       - (e_counts[mi, kp - 1] / sizes[kp - 1])[:, None]
                       - (e_counts[mj, k - 1] / sizes[k - 1])[None, :])
            b_mat[np.ix_(mi, mj)] = blk

    s = np.diag(d) - b_mat - a_dense + eta * np.eye(n) + lam
    return GeneralCertificate(assign, d, b_mat, eta, lam, s)


def build_general(
    graph,
    gt: GroundTruth,
    params: GssbmParams,
    constants: GssbmConstants | None = None,
) -> GeneralCertificate:
    """Certificate for the general variant at the true rates.

    Uses eta = ||A - E[A]||_2 and lambda = (b + 2*c2)*log(n)/n. When no
    constants are supplied, non-private defaults are derived from params.
    """
    if params.variant != GSSBM:
        raise InvalidParams("general certificate needs gssbm params")
    a_dense = dense_matrix(graph)
    if a_dense.shape[0] != gt.n:
        raise ShapeMismatch("adjacency and ground truth sizes disagree")
    if constants is None:
        constants = default_constants(params, math.inf, 0.0)
    lam = constants.tau_tilde(params.b) * params.log_n / params.n
    eta = spectral_norm(a_dense - expected_adjacency(params, gt))
    return general_certificate(a_dense, gt.assignment, np.array(gt.sizes), lam, eta)


def verify_general(cert: GeneralCertificate) -> GeneralReport:
    """Numerical validity of a general certificate.

    Five checks: the cluster indicators lie in the kernel; complementary
    slackness B_ij * Z_ij = 0; B nonnegative with strict positivity across
    distinct parts; positive diagonal corrections on members; and the
    (r+1)-st smallest eigenvalue strictly positive with no eigenvalue below
    -tol*||S||.
    """
    s = cert.s_matrix
    assign = cert.assign
    indicator = cluster_indicator(assign)
    r = indicator.shape[1]
    tol = DEFAULT_TOLS.certificate
    w = np.linalg.eigvalsh(s)
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1.0)

    kernel_residual = float(np.abs(s @ indicator).max()) if r else 0.0

    z = same_cluster(assign)
    slackness = float(np.abs(cert.b_matrix[z]).max()) if z.any() else 0.0

    diff = assign[:, None] != assign[None, :]
    b_min_off = float(cert.b_matrix[diff].min()) if diff.any() else math.inf

    member = assign > 0
    d_min = float(cert.d_star[member].min()) if member.any() else math.inf

    lambda_min = float(w[0])
    lambda_after = float(w[r]) if w.size > r else float("nan")
    valid = (
        w.size > r
        and kernel_residual <= tol * scale
        and slackness <= tol * scale
        and b_min_off > 0
        and d_min > 0
        and lambda_min >= -tol * scale
        and lambda_after > tol * scale
    )
    return GeneralReport(bool(valid), lambda_min, lambda_after, kernel_residual,
                         b_min_off, d_min, slackness)
