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
plain arrays and the multipliers, and both sources of multipliers live
here. :func:`build_binary` and :func:`build_general` take the true model
rates, for diagnostics on a planted clustering; :func:`candidate_report`,
the solver's gate, takes the empirical rates of its rounded candidate and
returns the report only when valid. All judge with :func:`verify_binary`
/ :func:`verify_general`. A certificate carries its clustering as
``labels``, so it is always verified against those labels and no others.

The general price matrix is one product of rank 2r+1 factors. With M the
n x r member indicator (empty clusters dropped), F = E/K, Cbar =
C/(K K^T) and G = (lam + M Cbar) - F, B = G M^T + lam*m o^T - M F^T, m
and o marking members and outliers; the entries of G and F that would
reach a pair within one part are zeroed. Each entry of the product adds
at most two nonzero exact terms, so B is, bit for bit, the four cases
((lam + Cbar) - F_i) - F_j, lam - F_i and lam - F_j taken in that order.
S is lam - (B + A) in one buffer with diagonal ((d - A_ii) + eta) + lam:
the bits of diag(d) - B - A + eta*I + lam*J, left to right, for lam != -0.0.

The verdict is the eigenvalue rule: with tol = ``Tolerances.certificate``,
w = eigvalsh(S), scale = max(|w_1|, |w_n|, 1) and r cluster vectors, S is
valid when n > r, the kernel and slackness residuals are at most
tol*scale, w_1 >= -tol*scale and w_{r+1} > tol*scale (and, for the general
variant, every cross-part price and member diagonal correction is
positive). From ``CHOLESKY_MIN_N`` vertices on, the verifiers reach that
verdict without a full eigendecomposition where they can (below it one
eigvalsh costs less than the steps' fixed overhead, and they go straight
to step 3). With U = max(1, ||S||_inf) >= ||S||_2, they decide in this
order and stop at the first step that decides:

1. Cheap rejections: a nonpositive price or correction; a residual above
   2*tol*U; a diagonal entry of S below -2*tol*U, which proves
   w_1 < -tol*scale.
2. One Cholesky factorisation of M = S + (U+1)*P_K - 2*tol*U*I accepts
   when it succeeds, P_K the orthogonal projector onto the cluster
   vectors. It is tried only when n > r, the kernel residual is at most
   tol/(4*sqrt(n*r)) and the slackness at most tol. On the complement of
   the kernel M equals S - 2*tol*U*I, so success gives w_{r+1} > 2*tol*U
   (Courant-Fischer). The residual bound gives ||S Q||_2 <= tol/4 for an
   orthonormal kernel basis Q, and that coupling against a complement
   bounded below by 2*tol lowers w_1 to no less than -0.28*tol.
3. Every certificate still undecided runs the eigenvalue rule itself.

Each proof in steps 1 and 2 clears the rule's threshold by at least
tol*U, far above the rounding of the factorisation and of eigvalsh
(about n^2 * 1e-16 * U at the sizes served here), so every verdict is the
one the eigenvalue rule gives. The reports keep lambda_min, lambda2 and
lambda_after_kernel, computed by eigvalsh when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .concentration import (
    GssbmConstants,
    cluster_edge_counts,
    default_constants,
    degree_margins,
    lambda_star,
    log_mean,
    own_cluster_counts,
)
from .errors import InvalidParams
from .graph import Graph
from .models import (
    BASBM,
    GSSBM,
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    cluster_indicator,
    same_cluster,
)
from .spectral import DEFAULT_TOLS, KRYLOV_MIN_N_GENERAL, norm_estimate, spectral_norm

# Smallest n whose verdict tries steps 1 and 2 of the module docstring. On
# one core, steps 1 and 2 on a valid certificate cost about one eigvalsh of
# S at n = 16 to 20 and half of one at n = 32. A certificate that reaches
# step 3 pays for both. Below 32 the plain rule is faster: 8.3 against
# 19.2 ms over the 517 n = 6 gate certificates of one release search.
CHOLESKY_MIN_N = 32


@dataclass(frozen=True)
class BinaryCertificate:
    labels: np.ndarray = field(repr=False)  # +-1
    d_star: np.ndarray = field(repr=False)
    lam: float
    s_matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class GeneralCertificate:
    labels: np.ndarray = field(repr=False)  # 1..r, 0 for outliers
    d_star: np.ndarray = field(repr=False)
    b_matrix: np.ndarray = field(repr=False)
    eta: float
    lam: float
    s_matrix: np.ndarray = field(repr=False)


class _ReadSpectrum:
    """The eigenvalues of a report's S, computed by eigvalsh when first read."""

    @cached_property
    def _spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.certificate.s_matrix)

    @property
    def lambda_min(self) -> float:
        return float(self._spectrum[0])


@dataclass(frozen=True)
class BinaryReport(_ReadSpectrum):
    valid: bool
    kernel_residual: float
    certificate: BinaryCertificate = field(repr=False, compare=False)

    @property
    def lambda2(self) -> float:
        w = self._spectrum
        return float(w[1]) if w.size > 1 else float("nan")

    def to_dict(self) -> dict:
        return {"valid": self.valid, "lambda_min": self.lambda_min,
                "lambda2": self.lambda2, "kernel_residual": self.kernel_residual}


@dataclass(frozen=True)
class GeneralReport(_ReadSpectrum):
    valid: bool
    kernel_residual: float
    b_min_off: float
    d_min_member: float
    slackness_residual: float
    certificate: GeneralCertificate = field(repr=False, compare=False)

    @property
    def lambda_after_kernel(self) -> float:
        w = self._spectrum
        r = cluster_indicator(self.certificate.labels).shape[1]
        return float(w[r]) if w.size > r else float("nan")

    def to_dict(self) -> dict:
        return {"valid": self.valid, "lambda_min": self.lambda_min,
                "lambda_after_kernel": self.lambda_after_kernel,
                "kernel_residual": self.kernel_residual,
                "b_min_off": self.b_min_off,
                "d_min_member": self.d_min_member,
                "slackness_residual": self.slackness_residual}


def _spectral_verdict(s: np.ndarray, basis: np.ndarray, residual: float,
                      slackness: float = 0.0) -> bool:
    """The eigenvalue rule's verdict on S, by the steps of the module docstring.

    ``basis`` holds orthonormal columns spanning the cluster vectors (a
    zero column for an empty cluster); its column count is the r of the
    rule. ``residual`` is the largest entry of |S times the cluster
    vectors|.
    """
    n, r = basis.shape
    tol = DEFAULT_TOLS.certificate
    if n >= CHOLESKY_MIN_N:
        # |S| and then M share one buffer; U is np.linalg.norm(s, np.inf)
        m = np.abs(s)
        u = max(1.0, float(np.add.reduce(m, axis=1).max(initial=0)))
        if (max(residual, slackness) > 2.0 * tol * u
                or s.diagonal().min(initial=0.0) < -2.0 * tol * u):
            return False
        if (n > r and residual <= tol / (4.0 * math.sqrt(n * max(r, 1)))
                and slackness <= tol):
            np.matmul(basis * (u + 1.0), basis.T, out=m)
            m += s
            m.flat[::n + 1] -= 2.0 * tol * u
            try:
                np.linalg.cholesky(m)
                return True
            except np.linalg.LinAlgError:
                pass
    w = np.linalg.eigvalsh(s)
    scale = max(abs(float(w[0])), abs(float(w[-1])), 1.0)
    return bool(
        w.size > r
        and residual <= tol * scale
        and slackness <= tol * scale
        and w[0] >= -tol * scale
        and w[r] > tol * scale
    )


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


def build_binary(g: Graph, gt: GroundTruth, params) -> BinaryCertificate:
    """Certificate for the two binary variants at the true rates.

    basbm: lambda = log_mean(a, b)*log(n)/n; cbsbm: lambda = 0.
    """
    if not isinstance(params, (BasbmParams, CbsbmParams)):
        raise InvalidParams("binary certificate needs basbm or cbsbm params")
    a_dense = g.to_dense()
    if a_dense.shape[0] != gt.n:
        raise InvalidParams("adjacency and ground truth sizes disagree")
    return binary_certificate(a_dense, gt.sigma, lambda_star(params))


def verify_binary(cert: BinaryCertificate) -> BinaryReport:
    """Numerical validity of a binary certificate, tolerances relative to ||S||."""
    s, sigma = cert.s_matrix, cert.labels
    residual = float(np.abs(s @ sigma).max())
    basis = (sigma / np.linalg.norm(sigma))[:, None]
    return BinaryReport(_spectral_verdict(s, basis, residual), residual, cert)


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
    e_counts, pair_counts = cluster_edge_counts(a_dense, assign)
    member = assign > 0
    if sizes.size:
        d = np.where(member,
                     own_cluster_counts(e_counts, assign) - eta
                     - lam * sizes[np.maximum(assign - 1, 0)],
                     0.0)
    else:
        d = np.zeros(n)

    # B as one product of rank-(2r+1) factors, see the module docstring
    m = cluster_indicator(assign)[:, :sizes.size]
    kept = np.flatnonzero(m.any(axis=0))
    m = m[:, kept]
    k = sizes[kept]
    f = e_counts[:, kept] / k
    g = (lam + m @ (pair_counts[np.ix_(kept, kept)] / np.multiply.outer(k, k))) - f
    own = m > 0
    g[own] = 0.0
    f[own] = 0.0
    b_mat = (np.hstack([g, np.where(member, lam, 0.0)[:, None], -m])
             @ np.hstack([m, (~member)[:, None], f]).T)

    s = np.add(b_mat, a_dense)
    np.subtract(lam, s, out=s)
    s.flat[::n + 1] = d - a_dense.diagonal() + eta + lam
    return GeneralCertificate(assign, d, b_mat, eta, lam, s)


def build_general(
    g: Graph,
    gt: GroundTruth,
    params: GssbmParams,
    constants: GssbmConstants | None = None,
    *,
    deviation: float,
) -> GeneralCertificate:
    """Certificate for the general variant at the true rates.

    Uses eta = ``deviation`` and lambda = (b + 2*c2)*log(n)/n. The
    deviation is ||A - E[A]||_2 as
    :func:`~sbmdp.concentration.spectral_deviation` computes it, the first
    lhs of the concentration report. When no constants are supplied,
    non-private defaults are derived from params.
    """
    if params.variant != GSSBM:
        raise InvalidParams("general certificate needs gssbm params")
    a_dense = g.to_dense()
    if a_dense.shape[0] != gt.n:
        raise InvalidParams("adjacency and ground truth sizes disagree")
    if constants is None:
        constants = default_constants(params, math.inf, 0.0)
    lam = constants.tau_tilde(params.b) * params.log_n / params.n
    return general_certificate(a_dense, gt.assignment, np.array(gt.sizes), lam,
                               deviation)


def verify_general(cert: GeneralCertificate) -> GeneralReport:
    """Numerical validity of a general certificate.

    Five checks: the cluster indicators lie in the kernel; complementary
    slackness B_ij * Z_ij = 0; B nonnegative with strict positivity across
    distinct parts; positive diagonal corrections on members; and the
    (r+1)-st smallest eigenvalue strictly positive with no eigenvalue below
    -tol*||S||.
    """
    s, assign = cert.s_matrix, cert.labels
    indicator = cluster_indicator(assign)
    kernel_residual = float(np.abs(s @ indicator).max()) if indicator.shape[1] else 0.0

    # B's extremes by masked reductions, which copy none of B: the largest
    # |B_ij| within a cluster is max(hi, -lo), and + 0.0 reads a zero as +0.0
    b = cert.b_matrix
    member = assign > 0
    part = assign[:, None] == assign[None, :]
    b_min_off = float(np.minimum.reduce(b, axis=None, where=~part, initial=math.inf))
    part &= member[:, None]  # same_cluster(assign)
    hi = np.maximum.reduce(b, axis=None, where=part, initial=0.0)
    lo = np.minimum.reduce(b, axis=None, where=part, initial=0.0)
    slackness = float(np.maximum(hi, -lo)) + 0.0

    d_min = float(cert.d_star[member].min()) if member.any() else math.inf

    basis = indicator / np.sqrt(np.maximum(indicator.sum(axis=0), 1.0))
    valid = (b_min_off > 0 and d_min > 0
             and _spectral_verdict(s, basis, kernel_residual, slackness))
    return GeneralReport(bool(valid), kernel_residual, b_min_off, d_min,
                         slackness, cert)


# ---------------------------------------------------------------------------
# the solver's gate: multipliers from a candidate's empirical rates


def _empirical_rates(
    a_dense: np.ndarray, same: np.ndarray
) -> tuple[float, float] | None:
    """Edge densities within and across parts; None without pairs of both kinds.

    ``same`` marks the pairs inside one part; its diagonal is ignored. The
    edge counts add integers, exactly in any order, so the masked sum needs
    no gathered copy.
    """
    n = a_dense.shape[0]
    intra_pairs = (np.count_nonzero(same) - np.count_nonzero(np.diag(same))) / 2
    inter_pairs = n * (n - 1) / 2 - intra_pairs
    if intra_pairs <= 0 or inter_pairs <= 0:
        return None
    intra_edges = np.add.reduce(a_dense, axis=None, where=same) / 2
    return (intra_edges / intra_pairs,
            (a_dense.sum() / 2 - intra_edges) / inter_pairs)


def _general_multipliers(
    a_dense: np.ndarray, assign: np.ndarray, sizes: np.ndarray
) -> tuple[float, float] | None:
    """(lambda, eta) from a general candidate's own rates; None if undefined.

    eta is the spectral deviation of A from the expectation under the
    candidate's empirical rates: exact below ``KRYLOV_MIN_N_GENERAL``
    vertices, and from there on the Lanczos estimate
    ``spectral.norm_estimate``, which is at most the norm up to rounding
    and within 1e-10 of it on the gate matrices tested. Either way eta is
    only a multiplier: ``verify_general`` checks the whole certificate
    built with it, so a certification never rests on the estimate.
    lambda may be any value in the exact interval that keeps the diagonal
    corrections positive and the cross-cluster prices nonnegative; both
    endpoints are closed-form in the candidate's edge counts, and the
    midpoint is taken.
    """
    same = same_cluster(assign)
    rates = _empirical_rates(a_dense, same)
    if rates is None or not rates[0] > rates[1] >= 0:
        return None
    # A - E[A] for E[A] = p_hat on same-part pairs, q_hat elsewhere and 0
    # on the diagonal, entry by entry the bits of A - that matrix
    deviation = np.subtract(a_dense, rates[1])
    np.subtract(a_dense, rates[0], out=deviation, where=same)
    np.fill_diagonal(deviation, a_dense.diagonal())
    if a_dense.shape[0] < KRYLOV_MIN_N_GENERAL:
        eta = spectral_norm(deviation)
    else:
        eta = norm_estimate(deviation)

    e_counts, pair_counts = cluster_edge_counts(a_dense, assign)
    ksz = sizes.astype(np.float64)
    # each cluster's members' edge counts into every cluster
    rows = [e_counts[assign == k + 1] for k in range(ksz.size)]
    lam_hi = min((float(e[:, k].min()) - eta) / ksz[k] for k, e in enumerate(rows))
    # peak[k, j]: the most edges a member of cluster k has into cluster j, over K_j
    peak = np.array([e.max(axis=0) for e in rows]) / ksz
    terms = (peak + peak.T) - pair_counts / np.multiply.outer(ksz, ksz)
    lam_lo = max(0.0, float(terms[~np.eye(ksz.size, dtype=bool)].max(initial=0.0)))
    outliers = assign == 0
    if outliers.any():
        lam_lo = max(lam_lo, float((e_counts[outliers] / ksz[None, :]).max()))
    if not lam_lo < lam_hi:
        return None
    return 0.5 * (lam_lo + lam_hi), eta


def candidate_report(
    variant: str, a_dense: np.ndarray, labels: np.ndarray, sizes: tuple | None
) -> BinaryReport | GeneralReport | None:
    """The verified report of a candidate clustering, or None unless valid.

    The solver's gate. The multipliers come from the candidate's empirical
    rates (basbm: lambda = log_mean(p_hat, q_hat); cbsbm: none; gssbm: see
    :func:`_general_multipliers`, with ``sizes`` the cluster sizes, which
    the binary variants ignore). A candidate that leaves them undefined is
    rejected before its certificate is built or its spectrum computed.
    """
    if variant == GSSBM:
        sizes = np.array(sizes)
        multipliers = _general_multipliers(a_dense, labels, sizes)
        if multipliers is None:
            return None
        report = verify_general(
            general_certificate(a_dense, labels, sizes, *multipliers))
    else:
        lam = 0.0
        if variant == BASBM:
            rates = _empirical_rates(a_dense, same_cluster(labels))
            if rates is None or not rates[0] > rates[1] > 0:
                return None
            lam = log_mean(*rates)
        report = verify_binary(binary_certificate(a_dense, labels, lam))
    return report if report.valid else None
