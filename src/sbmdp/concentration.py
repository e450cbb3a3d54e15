"""Threshold rate functions and the concentration checker.

A graph is "concentrated" for its model when a small set of deterministic
inequalities holds: spectral closeness of the adjacency to its expectation,
degree-margin lower bounds, and (for the general variant) cross-cluster
edge-count bounds. The inequalities are parameterized by a tuple of positive
constants; concentrated inputs keep the SDP optimum pinned to the planted
clustering and survive a logarithmic number of edge flips, which is what the
stability mechanisms exploit.

All logarithms here are natural: the n^{-g} tail calculus behind the
thresholds is base-consistent only with ln.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import InfeasibleRegime, InvalidParams, InvalidShift
from .graph import Graph
from .models import (
    BASBM,
    CBSBM,
    GSSBM,
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    SbmParams,
    cluster_indicator,
    expected_adjacency,
)
from .spectral import spectral_norm

# ---------------------------------------------------------------------------
# scalar rate functions


def log_mean(a: float, b: float) -> float:
    """Logarithmic mean (a - b) / (log a - log b), extended by a at a == b.

    Lies strictly between b and a whenever a > b > 0.
    """
    if a < b:
        a, b = b, a
    if b <= 0:
        raise InvalidParams(f"log_mean needs positive arguments, got ({a}, {b})")
    if a == b:
        return float(a)
    return (a - b) / (math.log(a) - math.log(b))


def margin_exponent(alpha: float, a: float, b: float, rho: float) -> float:
    """Tail exponent for per-vertex degree margins at offset ``alpha``.

    Equals a*rho + b*(1-rho) - sqrt(alpha^2 + 4*rho*(1-rho)*a*b)
    + (|alpha|/2) * log(rho*b / ((1-rho)*a)). Strictly decreasing in
    |alpha|, so larger offsets are always harder.
    """
    if not (a > b > 0):
        raise InvalidParams(f"need a > b > 0, got ({a}, {b})")
    if not (0 < rho <= 0.5):
        raise InvalidParams(f"rho must lie in (0, 0.5], got {rho}")
    gamma = math.sqrt(alpha * alpha + 4 * rho * (1 - rho) * a * b)
    return (
        a * rho
        + b * (1 - rho)
        - gamma
        + 0.5 * abs(alpha) * math.log(rho * b / ((1 - rho) * a))
    )


def degree_margin_exponent(x: float, a: float, b: float, rho: float) -> float:
    """Worst-cluster degree-margin exponent at slack ``x``; drives c4 feasibility.

    This is margin_exponent evaluated at alpha = x - tau*(1-2*rho), the
    binding offset across both clusters. At rho = 1/2 and x >= 0 it reads
    (a+b)/2 - sqrt(x^2 + a*b) - (x/2)*log(a/b), so the slack-zero value is
    (sqrt(a) - sqrt(b))^2 / 2.
    """
    tau = log_mean(a, b)
    return margin_exponent(x - tau * (1 - 2 * rho), a, b, rho)


def censored_margin_exponent(xi: float, a: float) -> float:
    """a * (sqrt(1-xi) - sqrt(xi))^2; must exceed 1 for censored recovery."""
    if not (0.0 <= xi <= 0.5):
        raise InvalidParams(f"xi must lie in [0, 0.5], got {xi}")
    if a <= 0:
        raise InvalidParams(f"need a > 0, got {a}")
    return a * (math.sqrt(1 - xi) - math.sqrt(xi)) ** 2


def poisson_tail_rate(x: float, y: float) -> float:
    """Large-deviation rate x - y*log(e*x/y), extended by x at y = 0.

    Nonnegative, zero exactly at y = x; governs both tails of binomial
    counts with mean proportional to x.
    """
    if x <= 0 or y < 0:
        raise InvalidParams(f"need x > 0 and y >= 0, got ({x}, {y})")
    if y == 0.0:
        return float(x)
    return x - y * math.log(math.e * x / y)


# ---------------------------------------------------------------------------
# constants tuples


@dataclass(frozen=True)
class BasbmConstants:
    c1: float
    c2: float
    c3: float
    c4: float


@dataclass(frozen=True)
class CbsbmConstants:
    c1: float
    c2: float


@dataclass(frozen=True)
class GssbmConstants:
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float

    def tau_tilde(self, b: float) -> float:
        """Rate constant b + 2*c2 entering the outlier bound and lambda."""
        return b + 2.0 * self.c2


ConcentrationConstants = Union[BasbmConstants, CbsbmConstants, GssbmConstants]


@dataclass(frozen=True)
class ConditionResult:
    name: str
    lhs: Optional[float]
    rhs: Optional[float]
    passed: bool

    def __post_init__(self):
        # keep reports JSON-serializable regardless of numpy scalar leakage
        if self.lhs is not None:
            object.__setattr__(self, "lhs", float(self.lhs))
        if self.rhs is not None:
            object.__setattr__(self, "rhs", float(self.rhs))
        object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs,
                "passed": self.passed}


@dataclass(frozen=True)
class ConcentrationReport:
    conditions: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "conditions": [c.to_dict() for c in self.conditions]}


# ---------------------------------------------------------------------------
# binary-model derived quantities


def balanced_direction(gt: GroundTruth) -> np.ndarray:
    """Unit vector orthogonal to sigma maximizing the all-ones quadratic form.

    Closed form: sqrt((n-K)/(K*n)) on the first cluster and
    sqrt(K/(n*(n-K))) on the second, where K is the first cluster's size.
    Satisfies <x, sigma> = 0, ||x|| = 1 and x^T J x = 4K(n-K)/n.
    """
    n = gt.n
    k = gt.first_cluster_size
    if k == 0 or k == n:
        raise InvalidParams("balanced direction needs two nonempty clusters")
    x = np.empty(n)
    x[gt.assignment == 1] = math.sqrt((n - k) / (k * n))
    x[gt.assignment == -1] = math.sqrt(k / (n * (n - k)))
    return x


def lambda_star(params: Union[BasbmParams, CbsbmParams]) -> float:
    """Size-constraint multiplier log_mean(a, b)*log(n)/n; 0 for cbsbm."""
    if params.variant == CBSBM:
        return 0.0
    return log_mean(params.a, params.b) * params.log_n / params.n


def degree_margins(a_dense: np.ndarray, sigma: np.ndarray, lam: float) -> np.ndarray:
    """Per-vertex margins sum_j A_ij sigma_i sigma_j - lam*(2K - n)*sigma_i.

    K counts the +1 labels. This is the binary certificate's diagonal; lam
    is the size-constraint multiplier, :func:`lambda_star`.
    """
    k = int(np.count_nonzero(sigma > 0))
    return (a_dense @ sigma) * sigma - lam * (2 * k - sigma.size) * sigma


def expected_degree_margins(params: BasbmParams, gt: GroundTruth) -> np.ndarray:
    """Exact expectation of the basbm degree margins, per vertex."""
    n, a, b = params.n, params.a, params.b
    tau = log_mean(a, b)
    k = gt.first_cluster_size
    scale = params.log_n / n
    d_plus = (k * (a - tau) + (n - k) * (tau - b) - a) * scale
    d_minus = ((n - k) * (a - tau) + k * (tau - b) - a) * scale
    return np.where(gt.assignment == 1, d_plus, d_minus)


# ---------------------------------------------------------------------------
# checkers


def cluster_edge_counts(
    a_dense: np.ndarray, assign: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex and per-cluster edge counts for a general assignment.

    Returns (E, C) where E[i, k] counts edges from vertex i into cluster
    k+1 and C[k, k'] counts edges between clusters k+1 and k'+1 (twice the
    internal count on the diagonal).
    """
    m = cluster_indicator(assign)
    e = a_dense @ m
    c = m.T @ a_dense @ m
    return e, c


def own_cluster_counts(e_counts: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Each member's edge count into its own cluster, read from E.

    E is the first output of :func:`cluster_edge_counts`. Outliers read
    the cluster-1 column; callers mask them.
    """
    return e_counts[np.arange(assign.size), np.maximum(assign - 1, 0)]


def spectral_deviation(a_dense: np.ndarray, params: SbmParams, gt: GroundTruth) -> float:
    """||A - E[A]||_2, the spectral deviation of the adjacency from its model.

    The one place this norm is computed: :func:`check_concentration`
    reports it as its first lhs, and the general certificate takes it as
    its eta.
    """
    if a_dense.shape[0] != gt.n or gt.n != params.n:
        raise InvalidParams("graph, ground truth, and params sizes disagree")
    expected = expected_adjacency(params, gt)
    return spectral_norm(np.subtract(a_dense, expected, out=expected))


def check_concentration(
    g: Graph, gt: GroundTruth, params: SbmParams, constants: ConcentrationConstants
) -> ConcentrationReport:
    """Evaluate the variant's concentration conditions, in a fixed order.

    Every variant starts with spectral_deviation, ||A - E[A]|| <=
    c1*sqrt(log n). basbm then checks balanced_direction_margin (c2),
    margin_fluctuation (c3) and degree_margin (c4); cbsbm degree_margin
    (c2); gssbm the four edge-count conditions of
    :func:`_general_conditions` (c2..c5).
    """
    a_dense = g.to_dense()
    lhs1 = spectral_deviation(a_dense, params, gt)
    logn = params.log_n
    sqlogn = math.sqrt(logn)
    conds = [_binding("spectral_deviation", lhs1, constants.c1 * sqlogn, "<=")]
    if params.variant == GSSBM:
        conds += _general_conditions(a_dense, gt, params, constants, logn, sqlogn)
        return ConcentrationReport(tuple(conds))

    lam = lambda_star(params)
    d = degree_margins(a_dense, gt.sigma, lam)
    c_margin = constants.c2
    if params.variant == BASBM:
        x = balanced_direction(gt)
        j_term = (lam - (params.p + params.q) / 2.0) * x.sum() ** 2
        lhs2 = float((x * x * d).sum() + j_term)
        rhs2 = constants.c2 * logn
        conds.append(ConditionResult("balanced_direction_margin", lhs2, rhs2,
                                     lhs2 > rhs2))
        lhs3 = np.linalg.norm((d - expected_degree_margins(params, gt)) * x)
        conds.append(_binding("margin_fluctuation", lhs3, constants.c3 * sqlogn, "<="))
        c_margin = constants.c4
    conds.append(_binding("degree_margin", d, c_margin * logn, ">="))
    return ConcentrationReport(tuple(conds))


def _binding(name: str, lhs, rhs, sense: str) -> ConditionResult:
    """The binding entry of the inequalities lhs <= rhs (``sense`` "<=") or
    lhs >= rhs (">="), taken entry by entry after broadcasting.

    That is the first entry of least slack in row-major order, and the
    condition passes iff it holds. An empty set passes vacuously with empty
    lhs and rhs. The lhs reads a zero as +0.0 whatever the sign of its zero.
    """
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    if lhs.size == 0:
        return ConditionResult(name, None, None, True)
    slack = (rhs - lhs if sense == "<=" else lhs - rhs).ravel()
    i = int(slack.argmin())
    return ConditionResult(name, float(lhs.flat[i]) + 0.0, rhs.flat[i], slack[i] >= 0)


def _general_conditions(
    a_dense: np.ndarray, gt: GroundTruth, params: GssbmParams,
    constants: GssbmConstants, logn: float, sqlogn: float,
) -> list[ConditionResult]:
    """internal_degree, foreign_degree, pair_density and outlier_degree,
    each reported by its binding entry (:func:`_binding`)."""
    n, b = params.n, params.b
    sizes = np.array(gt.sizes, dtype=np.float64)
    assign = gt.assignment
    tau_t = constants.tau_tilde(b)
    e_counts, pair_counts = cluster_edge_counts(a_dense, assign)
    members = assign > 0
    # vertex i's count into cluster k, for i outside k; cluster by cluster
    foreign = assign[None, :] != np.arange(1, sizes.size + 1)[:, None]
    foreign_rhs = (b + constants.c2) * sizes * logn / n - constants.c3 * logn
    pairs = np.triu_indices(sizes.size, 1)
    pair_sizes = sizes[pairs[0]] * sizes[pairs[1]]
    return [
        # every member's internal degree clears (b + 2 c2) * rho_k * log n
        _binding("internal_degree", e_counts[members, assign[members] - 1],
                 tau_t * (sizes[assign[members] - 1] / n) * logn, ">="),
        # edges from any vertex into a foreign cluster stay small
        _binding("foreign_degree", e_counts.T[foreign],
                 np.broadcast_to(foreign_rhs[:, None], foreign.shape)[foreign], "<="),
        # pairwise cluster-to-cluster edge totals are not too sparse
        _binding("pair_density", pair_counts[pairs],
                 pair_sizes * params.q - 2.0 * np.sqrt(pair_sizes) * sqlogn
                 - constants.c4 * logn, ">="),
        # outliers attach to every cluster well below the dual rate; the
        # rhs reads the last cluster, and is empty with no cluster
        _binding("outlier_degree", e_counts[assign == 0],
                 tau_t * sizes[-1:] * logn / n - constants.c5 * logn, "<="),
    ]


# ---------------------------------------------------------------------------
# constant-tuple maps


# which direction makes each condition stricter: -1 shrinks an upper-bound
# slack constant, +1 grows a lower-bound requirement
_TIGHTEN_DIRECTIONS = {
    BasbmConstants: {"c1": -1, "c2": +1, "c3": -1, "c4": +1},
    CbsbmConstants: {"c1": -1, "c2": +1},
    GssbmConstants: {"c1": -1, "c2": +1, "c3": +1, "c4": -1, "c5": +1},
}


def tighten_constants(
    constants: ConcentrationConstants,
    alpha: float,
    params: SbmParams,
) -> ConcentrationConstants:
    """Scale each constant by (1 +- 2*alpha) toward strictness.

    A check passing under the tightened tuple with rate estimates off by a
    factor 1 +- alpha still implies the original check under the true
    rates. Raises InvalidShift when tightening breaks positivity or a
    lemma-side restriction of ``params`` (basbm: c2 < tau - b; censored:
    c2 < a).
    """
    if not (0.0 <= alpha <= 0.01):
        raise InvalidParams(f"alpha must lie in [0, 0.01], got {alpha}")
    directions = _TIGHTEN_DIRECTIONS[type(constants)]
    scaled = {
        name: getattr(constants, name) * (1.0 + 2.0 * alpha * direction)
        for name, direction in directions.items()
    }
    out = replace(constants, **scaled)
    if min(astuple(out)) <= 0:
        raise InvalidShift(f"tightening produced a nonpositive constant: {out}")
    if isinstance(out, BasbmConstants):
        bound = log_mean(params.a, params.b) - params.b
        if out.c2 >= bound:
            raise InvalidShift(
                f"tightened c2 = {out.c2:.4f} reaches tau - b = {bound:.4f}")
    if isinstance(out, CbsbmConstants) and out.c2 >= params.a:
        raise InvalidShift(f"tightened c2 = {out.c2:.4f} reaches a = {params.a}")
    return out


# ---------------------------------------------------------------------------
# default constants


def _solve_decreasing(
    f, target: float, lo: float, hi: float | None = None, tol: float = 1e-10
) -> float:
    """The x >= lo with f(x) = target, for f decreasing on [lo, hi].

    An increasing f is solved by passing -f and -target; negation is exact,
    so the bisection takes the same steps.
    """
    if hi is None:
        hi = max(lo, 1.0)
        while f(hi) > target:
            hi = 2 * hi + 1
            if hi > 1e12:
                raise InfeasibleRegime("no finite root found")
    lo_b = lo
    for _ in range(200):
        mid = 0.5 * (lo_b + hi)
        if f(mid) > target:
            lo_b = mid
        else:
            hi = mid
        if hi - lo_b < tol:
            break
    return 0.5 * (lo_b + hi)


# z-score used by the finite-n moment guards when sizing gssbm constants
_MOMENT_Z = 4.0


def default_constants(
    params: SbmParams, eps: float, c_stab: float, margin: float = 0.1
) -> ConcentrationConstants:
    """Construct a constants tuple meeting every lemma-side restriction.

    ``eps`` may be ``math.inf`` for non-private use, in which case all
    c_stab/eps terms vanish. Raises InfeasibleRegime, naming the violated
    inequality, when no valid tuple exists for (params, eps, c_stab).
    """
    params.validate()
    if eps <= 0 or c_stab < 0:
        raise InvalidParams("need eps > 0 and c_stab >= 0")
    shift = 0.0 if math.isinf(eps) else c_stab / eps

    if params.variant == BASBM:
        a, b, rho = params.a, params.b, params.rho
        tau = log_mean(a, b)
        if shift + 2 * margin >= tau - b:
            raise InfeasibleRegime(
                f"c/eps = {shift:.4f} >= tau - b - 2m = {tau - b - 2 * margin:.4f}; "
                "the size-balance condition cannot persist")
        c2 = min(shift + margin, tau - b - margin)
        peak = max(shift, tau * (1 - 2 * rho))
        f = lambda x: degree_margin_exponent(x, a, b, rho)
        if f(peak) <= 1.0 + margin:
            raise InfeasibleRegime(
                f"degree-margin exponent at slack {peak:.4f} is {f(peak):.4f} "
                f"<= 1 + {margin}; recovery threshold fails for eps={eps}")
        c4 = _solve_decreasing(f, 1.0 + margin, peak)
        return BasbmConstants(
            c1=2.0 * math.sqrt(a) + 1.0,
            c2=c2,
            c3=math.sqrt(a) + 1.0,
            c4=c4,
        )

    if params.variant == CBSBM:
        a, xi = params.a, params.xi
        h = censored_margin_exponent(xi, a)
        if h <= 1.0 + margin:
            raise InfeasibleRegime(
                f"censored margin exponent {h:.4f} <= 1 + {margin}")
        if shift + 2 * margin >= a:
            raise InfeasibleRegime(
                f"c/eps = {shift:.4f} >= a - 2m = {a - 2 * margin:.4f}")
        return CbsbmConstants(c1=2.0 * math.sqrt(a) + 1.0, c2=shift + margin)

    # general structure
    a, b, n = params.a, params.b, params.n
    logn = params.log_n
    sizes = np.array(params.sizes, dtype=np.float64)
    rho_min = float(sizes.min() / n)
    target = 1.0 / rho_min + margin
    p = params.p

    c3 = max(0.25, shift + margin)
    c5 = shift + 0.5

    lb = [shift / rho_min + margin if shift > 0 else 0.0]
    lb.append(_solve_decreasing(
        lambda c2: -poisson_tail_rate(b, b + c2 - c3 / rho_min), -target,
        lo=c3 / rho_min))
    lb.append(_solve_decreasing(
        lambda c2: -poisson_tail_rate(b, b + 2 * c2 - c5 / rho_min), -target,
        lo=0.5 * c5 / rho_min))
    c2_lo = max(lb)

    if poisson_tail_rate(a, b) <= target:
        raise InfeasibleRegime(
            f"intra/inter rate gap I(a, b) = {poisson_tail_rate(a, b):.4f} "
            f"<= 1/rho_min + m = {target:.4f}")
    c2_hi = _solve_decreasing(
        lambda c2: poisson_tail_rate(a, b + 2 * c2), target,
        lo=0.0, hi=0.5 * (a - b))
    # finite-n guard: the dual rate b + 2*c2 must stay clear of the smallest
    # internal-degree fluctuations, else the certificate diagonal goes negative
    for size in sizes:
        mean_s = (size - 1) * p
        sd_s = math.sqrt(max((size - 1) * p * (1 - p), 1e-12))
        c2_hi = min(c2_hi, 0.5 * (((mean_s - _MOMENT_Z * sd_s) * n
                                   / (size * logn)) - b))
    if c2_lo > c2_hi:
        raise InfeasibleRegime(
            f"no c2 satisfies both tails: lower bound {c2_lo:.4f} exceeds "
            f"upper bound {c2_hi:.4f}")
    c2 = 0.5 * (c2_lo + c2_hi)

    return GssbmConstants(
        c1=2.0 * math.sqrt(a) + 1.0,
        c2=c2,
        c3=c3,
        c4=1.0,
        c5=c5,
    )
