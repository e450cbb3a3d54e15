"""The two workloads: a fixed instance pool each, one operation, its output.

Every workload runs a fixed pool of generated instances. The workload seed
draws the order in which a run visits the pool and the mechanism's noise
stream for each instance; it never changes how much work a pass does, so
runs with different seeds measure the same work. Library functions are
called through their module attributes (``sdp.recover``, ``models.generate``
...) so that a traced run sees the calls it rebinds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from sbmdp import harness, models, privacy, sdp
from sbmdp.models import BasbmParams, GssbmParams


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, reduced to what the benchmark checks.

    ``output`` is compared with the stored reference; None means the
    operation published nothing the reference pins (a withheld release, an
    uncertified solve).
    """

    output: Optional[str]
    exact: bool
    released: Optional[bool] = None
    fast_path: Optional[bool] = None


@dataclass(frozen=True)
class Task:
    """One pool instance, generated during set-up."""

    seed: int
    run: Callable[[np.random.Generator], Outcome]
    reference: Callable[[], str]

    def execute(self, workload_seed: int) -> Outcome:
        """Run once with the noise stream of (workload seed, instance)."""
        return self.run(np.random.default_rng([workload_seed, self.seed]))


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[int, ...]
    make: Callable[[int, Path], Task]
    warm_params: object
    # bounds on exact_rate taken from the acceptance criterion of the same setting
    exact_range: tuple[float, float] = (0.0, 1.0)


def digest(matrix: Optional[np.ndarray]) -> str:
    """Bit-exact fingerprint of a cluster matrix."""
    if matrix is None:
        return "failed"
    return hashlib.sha256(np.asarray(matrix, dtype=np.int8).tobytes()).hexdigest()


def _instance(params, seed: int):
    g, gt = models.generate(params, seed)
    return g, models.cluster_matrix(gt)


def _release_task(params, priv, c_stab: float, opts: sdp.SolveOptions,
                  ) -> Callable[[int, Path], Task]:
    def make(seed: int, workdir: Path) -> Task:
        g, truth = _instance(params, seed)

        def run(rng: np.random.Generator) -> Outcome:
            out = privacy.stbl_fast(g, params, priv, c_stab, rng, solve_opts=opts)
            released = not out.bottom
            return Outcome(
                output=digest(out.result) if released else None,
                exact=released and models.same_clustering(out.result, truth),
                released=released, fast_path=bool(out.trace.fast_path))

        # a release publishes the rounded base solve
        return Task(seed, run, lambda: digest(sdp.recover(g, params, opts).matrix))
    return make


SWEEP_FIELDS = ("recovered", "bottom", "conc_pass", "cert_valid")


def _sweep_task(variant: str, grid: dict) -> Callable[[int, Path], Task]:
    def make(seed: int, workdir: Path) -> Task:
        config = harness.ExperimentConfig.from_dict({
            "variant": variant, "grid": grid, "trials": 1, "seed_base": seed,
            "mode": "nonprivate", "workers": 1,
            "output": str(workdir / f"sweep-{seed}.csv")})

        def run(rng: np.random.Generator) -> Outcome:
            (row,) = harness.read_rows(harness.sweep(config, timestamp="perfbench"))
            return Outcome(output=",".join(f"{k}={row[k]}" for k in SWEEP_FIELDS),
                           exact=row["recovered"] == "1")

        return Task(seed, run, lambda: run(None).output)
    return make


RELEASE_SEARCH = BasbmParams(n=6, a=3.0, b=0.5, rho=0.5)
GENERAL = GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3))

WORKLOADS = {w.name: w for w in (
    Workload(
        "sweep-general",
        # two trials of about 4 s, so that each repeats about five times in a run
        pool=(0, 1),
        make=_sweep_task("gssbm", {"n": [GENERAL.n], "a": [GENERAL.a], "b": [GENERAL.b],
                                   "rhos": [list(GENERAL.rhos)]}),
        warm_params=GssbmParams(n=40, a=8, b=2, rhos=(0.3, 0.3, 0.3)),
        exact_range=(0.8, 1.0)),
    Workload(
        "release-search",
        pool=tuple(range(10)),
        # c_stab * log(6) / eps = 1.61, so the search cap k_max is 2
        make=_release_task(RELEASE_SEARCH, privacy.PrivacyParams.from_exponent(
            1.0, 1.0, RELEASE_SEARCH.n), 0.9, sdp.SolveOptions(
                tol=1e-5, max_iters=300, certify_every=25)),
        warm_params=RELEASE_SEARCH),
)}


def visiting_order(workload: Workload, workload_seed: int) -> list[int]:
    """The pool, in the order the workload seed draws."""
    order = np.random.default_rng(workload_seed).permutation(len(workload.pool))
    return [workload.pool[i] for i in order]


def warm_up(workload: Workload) -> None:
    """One short solve on a small instance, so lazy library set-up is done."""
    g, _ = models.generate(workload.warm_params, 0)
    sdp.recover(g, workload.warm_params, sdp.SolveOptions(max_iters=50))
