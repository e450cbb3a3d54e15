"""Seeded experiment harness: JSON configs, trial execution, CSV sweeps."""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .certificates import (BinaryReport, GeneralReport, build_binary, build_general,
                           verify_binary, verify_general)
from .concentration import (GssbmConstants, check_concentration, default_constants,
                            spectral_deviation)
from .errors import InvalidParams, SbmdpError
from .graph import Graph
from .models import (GSSBM, GroundTruth, SbmParams, generate, params_from_dict,
                     same_partition)
from .privacy import MODES as PRIVATE_MODES, PrivacyParams, default_c_stab, release
from .sdp import recover

MODES = ("nonprivate", *PRIVATE_MODES)

CSV_COLUMNS = ("variant", "n", "a", "b", "rho", "xi", "eps", "delta_exp",
               "mode", "seed", "recovered", "bottom", "conc_pass",
               "cert_valid", "error", "ms")

# (aggregate, TrialResult field it averages over a cell's trials)
_AGGREGATES = (("recovery_rate", "recovered"), ("bottom_rate", "bottom"),
               ("error_rate", "error"), ("conc_rate", "conc_pass"),
               ("cert_rate", "cert_valid"), ("mean_ms", "ms"))


def _count(key: str, value) -> int:
    """A config value that must be a whole number, as an int: a boolean or
    a number with a fractional part is refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidParams(f"{key} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    variant: str
    grid: dict
    trials: int
    seed_base: int
    mode: str
    output: str
    c_stab: float | None = None
    workers: int = 1
    max_evals: int = 2000

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InvalidParams(f"config must be an object, got {type(d).__name__}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidParams(f"unknown config keys {unknown}")
        if not isinstance(d.get("grid", {}), dict):
            raise InvalidParams("grid must be an object")
        try:
            cfg = cls(
                variant=d["variant"],
                grid={k: list(v) for k, v in d["grid"].items()},
                trials=_count("trials", d["trials"]),
                seed_base=_count("seed_base", d.get("seed_base", 0)),
                mode=d.get("mode", "nonprivate"),
                output=d["output"],
                c_stab=None if d.get("c_stab") is None else float(d["c_stab"]),
                workers=_count("workers", d.get("workers", 1)),
                max_evals=_count("max_evals", d.get("max_evals", 2000)),
            )
        except KeyError as exc:
            raise InvalidParams(f"config missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"bad config value: {exc}") from None
        if cfg.mode not in MODES:
            raise InvalidParams(f"mode must be one of {MODES}, got {cfg.mode!r}")
        if cfg.trials < 1:
            raise InvalidParams("trials must be at least 1")
        if cfg.seed_base < 0:
            raise InvalidParams(f"seed_base must be nonnegative, got {cfg.seed_base}")
        if cfg.c_stab is not None and not 0 <= cfg.c_stab < math.inf:
            raise InvalidParams(f"c_stab must be finite and >= 0, got {cfg.c_stab}")
        if cfg.workers < 1:
            raise InvalidParams(f"workers must be at least 1, got {cfg.workers}")
        if cfg.max_evals < 0:
            raise InvalidParams(f"max_evals must be nonnegative, got {cfg.max_evals}")
        if not cfg.grid or any(len(v) == 0 for v in cfg.grid.values()):
            raise InvalidParams("grid must be nonempty in every dimension")
        return cfg

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def cells(self) -> list[dict]:
        keys = sorted(self.grid)
        out = []
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            cell = dict(zip(keys, combo))
            cell["variant"] = self.variant
            out.append(cell)
        return out


@dataclass(frozen=True)
class TrialResult:
    cell: dict
    seed: int
    recovered: bool
    bottom: bool
    conc_pass: bool
    cert_valid: bool
    # the trial raised SbmdpError; then every other flag is 0
    error: bool = False
    # wall time; excluded from equality so identical seeds compare identical
    ms: float = field(compare=False, default=0.0)

    def row(self, mode: str) -> list[str]:
        cell = self.cell
        rho = cell.get("rho")
        if cell.get("rhos") is not None:
            rho = ";".join(str(x) for x in cell["rhos"])
        values = {
            "variant": cell["variant"],
            "n": cell["n"],
            "a": cell["a"],
            "b": cell.get("b", ""),
            "rho": "" if rho is None else rho,
            "xi": cell.get("xi", ""),
            "eps": cell.get("eps", ""),
            "delta_exp": cell.get("delta_exp", ""),
            "mode": mode,
            "seed": self.seed,
            "recovered": int(self.recovered),
            "bottom": int(self.bottom),
            "conc_pass": int(self.conc_pass),
            "cert_valid": int(self.cert_valid),
            "error": int(self.error),
            "ms": f"{self.ms:.3f}",
        }
        return [str(values[c]) for c in CSV_COLUMNS]


def _cell_params(cell: dict) -> SbmParams:
    return params_from_dict({k: v for k, v in cell.items()
                             if k in ("variant", "n", "a", "b", "rho", "xi", "rhos")})


def trial_seed(seed_base: int, cell_index: int, trial_index: int) -> int:
    """Deterministic per-trial stream id from (base, cell, trial)."""
    ss = np.random.SeedSequence(entropy=seed_base,
                                spawn_key=(cell_index, trial_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_trial(
    cell: dict,
    seed: int,
    mode: str = "nonprivate",
    c_stab: float | None = None,
    max_evals: int = 2000,
) -> TrialResult:
    """Generate one instance, recover per mode, and score against the truth.

    The diagnostics and the recovery each take the generated graph, which
    forms its dense adjacency once for all of them. A recovery and a
    release are both scored by their labels.
    """
    params = _cell_params(cell)
    t0 = time.perf_counter()
    g, gt = generate(params, seed)

    eps = float(cell.get("eps", math.inf))
    delta_exp = float(cell.get("delta_exp", 0.0))
    if c_stab is None:
        c_stab = default_c_stab(delta_exp) if mode != "nonprivate" else 0.0

    conc_pass, cert_valid = _diagnostics(g, gt, params, eps, c_stab)

    if mode == "nonprivate":
        res = recover(g, params)
        labels, bottom = res.labels, False
    else:
        priv = PrivacyParams.from_exponent(eps, delta_exp, params.n)
        outcome = release(mode, g, params, priv, seed, c_stab=c_stab,
                          max_evals=max_evals)
        labels, bottom = outcome.labels, outcome.bottom
    recovered = labels is not None and same_partition(labels, gt.assignment)

    ms = (time.perf_counter() - t0) * 1e3
    return TrialResult(cell, seed, recovered, bottom, conc_pass, cert_valid, ms=ms)


def _diagnostics(g: Graph, gt: GroundTruth, params: SbmParams,
                 eps: float, c_stab: float) -> tuple[bool, bool]:
    """Concentration and certificate validity of a graph against the true
    labels.

    The general certificate's eta is the concentration report's spectral
    deviation, computed afresh only when the check raised.
    """
    constants = report = None
    try:
        constants = default_constants(params, eps if eps > 0 else math.inf, c_stab)
        report = check_concentration(g, gt, params, constants)
    except SbmdpError:
        pass
    deviation = None if report is None else report.conditions[0].lhs
    try:
        cert_valid = planted_report(g, gt, params, constants, deviation).valid
    except SbmdpError:
        cert_valid = False
    return report is not None and report.passed, cert_valid


def planted_report(g: Graph, gt: GroundTruth, params: SbmParams,
                   constants: GssbmConstants | None, deviation: float | None,
                   ) -> BinaryReport | GeneralReport:
    """The verified true-rate certificate of the planted clustering.

    Only gssbm reads ``constants`` (None: non-private defaults) and
    ``deviation``, its eta (None: the spectral deviation, computed here).
    """
    if params.variant != GSSBM:
        return verify_binary(build_binary(g, gt, params))
    if deviation is None:
        deviation = spectral_deviation(g.to_dense(), params, gt)
    return verify_general(build_general(g, gt, params, constants,
                                        deviation=deviation))


def _run_task(config: ExperimentConfig, trial: tuple[dict, int]) -> TrialResult:
    cell, seed = trial
    try:
        # run_trial is looked up at call time, so a rebound name is the one run
        return run_trial(cell, seed, mode=config.mode, c_stab=config.c_stab,
                         max_evals=config.max_evals)
    except SbmdpError:
        # an error row, not a withheld release: trial errors never abort the sweep
        return TrialResult(cell, seed, False, False, False, False, error=True)


def sweep(config: ExperimentConfig, timestamp: str | None = None) -> Path:
    """Run every (cell, trial) combination and write the results CSV.

    One data row per trial, then per-cell aggregate lines as '#' comments
    (recovery rate, bottom rate, error rate, concentration rate, certificate
    rate, mean milliseconds). A trial that raised counts in the error rate
    only, never as a withheld release. Deterministic except for the
    timestamp header.
    """
    cells = config.cells()
    trials = [(cell, trial_seed(config.seed_base, ci, ti))
              for ci, cell in enumerate(cells) for ti in range(config.trials)]
    task = functools.partial(_run_task, config)
    if config.workers > 1:
        # imported here: the process pool loads multiprocessing and logging
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(task, trials))
    else:
        results = list(map(task, trials))

    if timestamp is None:
        timestamp = time.strftime("%Y-%m-%dT%H:%M:%S")
    lines = [f"# sbmdp sweep {timestamp}", ",".join(CSV_COLUMNS)]
    lines.extend(",".join(r.row(config.mode)) for r in results)
    lines.append("# aggregates")
    for ci, cell in enumerate(cells):
        block = results[ci * config.trials:(ci + 1) * config.trials]
        desc = ";".join(f"{k}={cell[k]}" for k in sorted(cell))
        stats = ",".join(f"{name}={np.mean([getattr(r, attr) for r in block]):.6f}"
                         for name, attr in _AGGREGATES)
        lines.append(f"# cell {ci} {desc} {stats}")

    out = Path(config.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    return out


def read_rows(path) -> list[dict]:
    """Parse the data rows of a sweep CSV back into dictionaries."""
    return [dict(zip(CSV_COLUMNS, line.split(",")))
            for line in Path(path).read_text().splitlines()
            if line.strip() and not line.startswith(("#", CSV_COLUMNS[0] + ","))]
