"""Laplace noise, distance to instability, and the two release mechanisms.

The release rule is propose-test-release: compute how many entry flips it
takes to change the estimator's output, add Laplace(1/eps) noise, and
publish the output only when the noisy distance clears log(1/delta)/eps.
The slow mechanism measures the distance by neighborhood search; the fast
one pins it when the clustering passes the concentration test under
:func:`fast_path_constants`, and searches only when the test cannot run
or fails. A caller's error raises InvalidParams, never withholds.

The guarantee needs the distance to be a 1-Lipschitz function of the graph
alone, so the search is bounded only by a radius computed from n, the
alphabet and ``max_evals``, never from the entries or the clock. The
mechanisms need only the capped value min(d, radius), so the search stops
one level short of the radius: a graph at the radius could only confirm
the value returned anyway, and that last level is the largest in the
ball. The estimator therefore runs on at most ``ball_size(radius - 1)``
neighbours. Failure outcomes of the estimator (solver or rounding
breakdown) count as differing from every output, including other
failures, which keeps the distance 1-Lipschitz across neighboring graphs.

An estimator maps a list of graphs to (position, output) pairs in any
order, so that a whole level can be solved as one batch
(:func:`sbmdp.sdp.recover_many` runs it as one lockstep stack). The
distance is the smallest level holding *some* differing graph, so which
differing graph of a level is seen first cannot change it, and the search
stops at the first one. Each output is a function of its own graph only,
whatever batch it is solved in, so d stays 1-Lipschitz.

:func:`release` is the one entry point of the harness and the CLI: it maps
a mode of :data:`MODES` to its mechanism, draws the noise from the seed,
and publishes the labels of :func:`sbmdp.sdp.recover`'s solve of the graph.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .concentration import check_concentration, default_constants, tighten_constants
from .errors import DegenerateEstimate, InfeasibleRegime, InvalidParams, InvalidShift
from .graph import SIMPLE, Graph, ball_size, neighbors_at_distance
from .models import GroundTruth, SbmParams, same_clustering
from .sdp import SolveOptions, recover, recover_many


@dataclass(frozen=True)
class PrivacyParams:
    """(eps, delta) privacy budget; threshold = log(1/delta)/eps."""

    eps: float
    delta: float

    def __post_init__(self):
        if self.eps <= 0:
            raise InvalidParams(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.delta < 1.0:
            raise InvalidParams(f"delta must lie in (0, 1), got {self.delta}")

    @classmethod
    def from_exponent(cls, eps: float, exponent: float, n: int) -> "PrivacyParams":
        """Convention delta = n^(-exponent)."""
        return cls(eps, float(n) ** (-exponent))

    @property
    def threshold(self) -> float:
        return math.log(1.0 / self.delta) / self.eps


def sample_laplace(scale: float, rng: np.random.Generator) -> float:
    """One Laplace(scale) draw by inverse CDF from a single uniform.

    Floating-point noise can leak its input through the values it reaches
    (Mironov, CCS 2012), but only the bit ``d_hat + noise > threshold`` is
    published. u is uniform on the 2^53 - 1 nonzero multiples of 2^-53,
    which gives an interval its length in mass up to 2^-52, and the map
    u -> noise -> d_hat + noise is monotone, each step exact or within one
    ulp. So the computed bit differs from the exact one only where
    |d_hat + x - threshold| <= 2^-51 |x| + 2^-52 threshold for the exact
    quantile x, a band of Laplace(1/eps) mass at most
    2^-51/e + 2^-52 log(1/delta). The release probability is thus within
    gamma = 2^-50 (1 + log(1/delta)) of the exact one, and delta absorbs
    that: a mechanism whose d_hat is 1-Lipschitz, as :func:`stbl`'s is, is
    (eps, delta + (1 + e^eps) gamma)-DP, an extra 1.1e-13 at eps = 2,
    delta = 500^-2.
    """
    u = rng.random()
    while u == 0.0:  # open-interval guard; log(0) otherwise
        u = rng.random()
    return laplace_quantile(u, scale)


def laplace_quantile(u: float, scale: float) -> float:
    """Inverse CDF of the centered Laplace distribution."""
    if scale <= 0:
        raise InvalidParams(f"scale must be positive, got {scale}")
    if not 0.0 < u < 1.0:
        raise InvalidParams(f"quantile argument must lie in (0, 1), got {u}")
    if u >= 0.5:
        return -scale * math.log(2.0 * (1.0 - u))
    return scale * math.log(2.0 * u)


# maps a list of graphs to (position in the list, output) pairs, in any
# order; an output of None is a failure of the estimator
Estimator = Callable[[Sequence[Graph]], Iterable[tuple[int, Optional[np.ndarray]]]]

# The search feeds each level to the estimator in chunks of at most
# SEARCH_CHUNK_ENTRIES // n^2 graphs, at least one. Measured per member
# and ADMM iteration on one core of an Intel Xeon (one BLAS thread, 300
# iterations of sub-threshold basbm solves, best of 4-20 runs, checkpoints
# included): 45 us alone against 6.5 us in a stack of 64 at n = 6, 116
# against 77 us in a stack of 8 at n = 24, and no steady gain from n = 64
# on (420-470 us alone or in a pair), where a chunk is one graph.
SEARCH_CHUNK_ENTRIES = 8000


def sdp_estimator(params: SbmParams, opts: SolveOptions = SolveOptions()) -> Estimator:
    """The SDP estimator: each graph's rounded cluster matrix, None on failure."""
    return lambda graphs: ((i, res.matrix)
                           for i, res in recover_many(graphs, params, opts))


# stbl_fast's tightening of its concentration constants (each scaled by 1 +- 2*alpha)
TIGHTEN_ALPHA = 0.001


def default_c_stab(delta_exp: float) -> float:
    """The private modes' default stability constant at delta = n^(-delta_exp)."""
    return delta_exp + 2.0


def fast_path_constants(params: SbmParams, eps: float, c_stab: float):
    """:func:`stbl_fast`'s concentration constants: the default tuple
    (margin 0.1) tightened by :data:`TIGHTEN_ALPHA`. Raises InfeasibleRegime
    or InvalidShift where none exists."""
    return tighten_constants(default_constants(params, eps, c_stab),
                             TIGHTEN_ALPHA, params)


def outcomes_equal(o1: Optional[np.ndarray], o2: Optional[np.ndarray]) -> bool:
    """Failure outcomes (None) differ from everything, including each other."""
    if o1 is None or o2 is None:
        return False
    return same_clustering(o1, o2)


def distance_to_instability(
    g: Graph,
    f: Estimator,
    base: Optional[np.ndarray],
    cap: int,
    *,
    max_evals: int | None = None,
) -> int:
    """Smallest k <= cap such that some graph at distance k changes f's output.

    ``base`` is the output at ``g`` itself, the one the caller publishes;
    a neighbour counts as changed when ``f`` there differs from it. Levels
    are searched in increasing order, each fed to ``f`` in chunks of
    :data:`SEARCH_CHUNK_ENTRIES` // n^2 graphs, and the search returns k
    at the first differing output of level k, closing ``f``'s iterator.
    The answer is the smallest level with a differing graph, so the order
    in which ``f`` yields a level's outputs cannot change it. ``f`` must
    give each graph the output it would give that graph alone (the SDP
    estimator does, bit for bit, whatever the batch); then d is a function
    of ``g`` only and stays 1-Lipschitz. Level ``cap`` itself is never
    enumerated: whether or not a graph there differs, the answer is
    ``cap``, so only levels 1..cap-1 are searched.

    With ``max_evals`` the cap first shrinks to the largest k whose whole
    ball (``graph.ball_size``) holds at most ``max_evals`` graphs. That k
    depends on (n, alphabet, max_evals) only, so the result min(d, cap, k)
    is still 1-Lipschitz in the graph, and ``f`` runs on at most
    ``ball_size(k - 1)`` neighbours, within ``max_evals``.
    """
    if cap < 0:
        raise InvalidParams(f"cap must be nonnegative, got {cap}")
    if max_evals is not None:
        if max_evals < 0:
            raise InvalidParams(f"max_evals must be nonnegative, got {max_evals}")
        cap = next((k for k in range(cap)
                    if ball_size(g.n, g.alphabet, k + 1) > max_evals), cap)
    chunk = max(1, SEARCH_CHUNK_ENTRIES // max(1, g.n * g.n))
    for k in range(1, cap):
        level = neighbors_at_distance(g, k)
        while batch := list(itertools.islice(level, chunk)):
            outputs = iter(f(batch))
            try:
                seen = 0
                for _, out in outputs:
                    if not outcomes_equal(out, base):
                        return k
                    seen += 1
            finally:
                close = getattr(outputs, "close", None)
                if close is not None:
                    close()
            if seen != len(batch):
                # a graph without an output would count as unchanged
                raise InvalidParams(
                    f"estimator gave {seen} outputs for {len(batch)} graphs")
    return cap


@dataclass(frozen=True)
class MechanismTrace:
    """Non-private: ``d_hat`` and ``noise`` are unnoised, so neither may be
    published next to a release."""

    d_hat: float
    noise: float
    threshold: float
    released: bool
    solver_status: Optional[str] = None
    fast_path: Optional[bool] = None


@dataclass(frozen=True)
class MechanismOutcome:
    """Released cluster matrix, or None for the withheld symbol.

    ``result`` is None exactly when the noisy distance missed the threshold
    or the estimator itself failed (a failure can never be released as a
    clustering). ``labels`` are the released solve's labels, numbered as
    :func:`recover` numbers them: None with ``result``, and from bare :func:`stbl`.
    """

    result: Optional[np.ndarray]
    trace: MechanismTrace
    labels: Optional[np.ndarray] = None

    @property
    def bottom(self) -> bool:
        return self.result is None


def _publish(value: Optional[np.ndarray], d_hat: float, priv: PrivacyParams,
             rng: np.random.Generator, labels: Optional[np.ndarray] = None,
             **trace) -> MechanismOutcome:
    """Release ``value`` and ``labels`` when d_hat plus Laplace(1/eps) noise
    clears the threshold."""
    noise = sample_laplace(1.0 / priv.eps, rng)
    released = d_hat + noise > priv.threshold
    return MechanismOutcome(
        result=value if released else None,
        trace=MechanismTrace(d_hat=d_hat, noise=noise, threshold=priv.threshold,
                             released=bool(released), **trace),
        labels=labels if released else None,
    )


def stbl(g: Graph, f: Estimator, base: Optional[np.ndarray], priv: PrivacyParams,
         rng: np.random.Generator, *, max_evals: int | None = None) -> MechanismOutcome:
    """Stability mechanism over an arbitrary clustering estimator.

    ``base`` is ``f``'s output at ``g``, the one published, and ``f`` maps
    a list of graphs to (position, output) pairs, as
    :func:`distance_to_instability` takes both.

    The distance search is capped at ceil(threshold) + ceil(20/eps): beyond
    that cap the release decision changes with probability below exp(-20),
    which is folded into the approximate-DP accounting. ``max_evals``
    shrinks the cap further, as :func:`distance_to_instability` describes.
    """
    cap = math.ceil(priv.threshold) + math.ceil(20.0 / priv.eps)
    d = distance_to_instability(g, f, base, cap, max_evals=max_evals)
    return _publish(base, float(d), priv, rng)


def param_estimate(g: Graph) -> tuple[float, float, float]:
    """Estimate (a, b, rho) of an asymmetric model from the degree profile.

    Vertices split at the mean normalized degree w_i = deg_i / log(n); the
    low side estimates the smaller cluster. The within-side degree averages
    determine (a, b) through the two-cluster mean-degree system. Raises
    DegenerateEstimate when the split is one-sided or balanced enough to
    make the system singular (|1 - 2*rho| < 1e-3).
    """
    if g.alphabet != SIMPLE:
        raise InvalidParams("parameter estimation expects a simple graph")
    n = g.n
    if n < 2:
        raise InvalidParams("need at least two vertices")
    w = g.degrees() / math.log(n)
    w_bar = float(w.mean())
    low = w <= w_bar
    high = w >= w_bar
    rho_hat = float(low.mean())
    if min(rho_hat, 1.0 - rho_hat) < 1e-3 or abs(1.0 - 2.0 * rho_hat) < 1e-3:
        raise DegenerateEstimate(f"degree split gives rho = {rho_hat:.4f}")
    # conditional means of w on each side of the split
    w_minus = float(w[low].sum()) / (n * rho_hat)
    w_plus = float(w[high].sum()) / (n * float(high.mean()))
    denom = 1.0 - 2.0 * rho_hat
    a_hat = ((1.0 - rho_hat) * w_plus - rho_hat * w_minus) / denom
    b_hat = ((1.0 - rho_hat) * w_minus - rho_hat * w_plus) / denom
    return a_hat, b_hat, rho_hat


def stbl_fast(
    g: Graph,
    params: SbmParams,
    priv: PrivacyParams,
    c_stab: float,
    rng: np.random.Generator,
    *,
    solve_opts: SolveOptions = SolveOptions(),
    f: Estimator | None = None,
    max_evals: int | None = None,
) -> MechanismOutcome:
    """Fast stability mechanism: concentration test instead of search.

    Bad arguments raise InvalidParams before any solve: a negative
    ``c_stab`` or ``max_evals``, and ``params`` that fail ``validate``.
    :func:`sbmdp.sdp.recover` then solves ``g`` once, and the concentration
    test checks its clustering under :func:`fast_path_constants` of
    ``params``. A pass pins the distance to c_stab*log(n)/eps. The release
    falls back to measuring the capped distance around that clustering
    (:func:`distance_to_instability`, exponentially slower, bounded by
    ``max_evals``) exactly when the solve gave no labels, no constants
    exist (InfeasibleRegime, InvalidShift) or the check fails; any other
    error propagates. The search runs ``f``, by default
    :func:`sdp_estimator` with ``solve_opts``, on the neighbours. ``c_stab``
    is independent of the delta exponent in ``priv``.

    The pinned distance is not 1-Lipschitz on every neighbouring pair: a
    flip that makes the check fail can drop d_hat from the pin to the
    searched distance, so this mechanism is not (eps, delta)-DP on every
    graph.
    """
    if c_stab < 0:
        raise InvalidParams(f"c_stab must be nonnegative, got {c_stab}")
    if max_evals is not None and max_evals < 0:
        raise InvalidParams(f"max_evals must be nonnegative, got {max_evals}")
    params.validate()
    if f is None:
        f = sdp_estimator(params, solve_opts)

    result = recover(g, params, solve_opts)

    conc_pass = False
    if result.labels is not None:
        try:
            constants = fast_path_constants(params, priv.eps, c_stab)
        except (InfeasibleRegime, InvalidShift):
            pass
        else:
            conc_pass = check_concentration(
                g, GroundTruth(params.variant, result.labels), params,
                constants).passed

    cap_real = c_stab * math.log(g.n) / priv.eps
    if conc_pass:
        d_hat = cap_real
    else:
        d = distance_to_instability(g, f, result.matrix, math.ceil(cap_real),
                                    max_evals=max_evals)
        d_hat = min(cap_real, float(d))
    return _publish(result.matrix, d_hat, priv, rng, result.labels,
                    solver_status=result.solution.status, fast_path=conc_pass)


def _stbl_sdp(g, params, priv, c_stab, rng, *, max_evals):
    """:func:`stbl` over :func:`sdp_estimator`, publishing :func:`recover`'s solve.

    A negative ``max_evals`` and ``params`` that fail ``validate`` raise
    InvalidParams before any solve, as in :func:`stbl_fast`.
    """
    if max_evals is not None and max_evals < 0:
        raise InvalidParams(f"max_evals must be nonnegative, got {max_evals}")
    params.validate()
    base = recover(g, params)
    out = stbl(g, sdp_estimator(params), base.matrix, priv, rng, max_evals=max_evals)
    return replace(out, labels=None if out.bottom else base.labels)


_MECHANISMS = {"stbl": _stbl_sdp, "fast": stbl_fast}
MODES = tuple(_MECHANISMS)


def release(mode: str, g: Graph, params: SbmParams, priv: PrivacyParams, seed: int, *,
            c_stab: float, max_evals: int | None) -> MechanismOutcome:
    """Release ``g``'s clustering by the mechanism of ``mode``, one of :data:`MODES`.

    The noise stream is ``Philox(SeedSequence(seed, spawn_key=(1,)))``,
    never the ``Philox(key=seed)`` stream of :func:`sbmdp.models.generate`.
    Both mechanisms solve ``g`` once through :func:`recover` and publish
    that solve's cluster matrix and labels, and both read (a, b) only as
    given in ``params``. Only ``fast`` reads ``c_stab``: ``stbl`` searches
    its distance.
    """
    mechanism = _MECHANISMS.get(mode)
    if mechanism is None:
        raise InvalidParams(f"mode must be one of {MODES}, got {mode!r}")
    if seed < 0:
        raise InvalidParams(f"seed must be nonnegative, got {seed}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        seed, spawn_key=(1,))))
    return mechanism(g, params, priv, c_stab, rng, max_evals=max_evals)
