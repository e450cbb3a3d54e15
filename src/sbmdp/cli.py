"""Command-line interface.

Subcommands: generate, recover, private-recover, estimate-params,
check-concentration, certify, sweep. All structured output is JSON on
stdout; exit code 0 on success, 1 on configuration errors, 2 on runtime
errors, and 3 on any other exception (an internal error), whose traceback
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import astuple
from pathlib import Path

import numpy as np

from .concentration import check_concentration, default_constants
from .errors import InvalidParams, ParseError, SbmdpError
from .graph import read_edge_list, write_edge_list
from .harness import ExperimentConfig, planted_report, sweep
from .models import (
    BASBM,
    CBSBM,
    GSSBM,
    GroundTruth,
    generate,
    params_from_dict,
    same_partition,
)
from .privacy import MODES, PrivacyParams, default_c_stab, param_estimate, release
from .sdp import recover


def _params_from_args(args, n: int):
    d = {"variant": args.variant, "n": n, "a": args.a}
    if args.variant == BASBM:
        d.update(b=args.b, rho=args.rho)
    elif args.variant == CBSBM:
        d.update(xi=args.xi, rho=args.rho)
    else:
        if args.rhos is None:
            raise InvalidParams("gssbm needs --rhos")
        d.update(b=args.b, rhos=args.rhos.split(","))
    params = params_from_dict(d)
    params.validate()
    return params


def _add_model_args(sub):
    sub.add_argument("--variant", required=True, choices=(BASBM, CBSBM, GSSBM))
    sub.add_argument("--a", type=float, required=True)
    sub.add_argument("--b", type=float)
    sub.add_argument("--rho", type=float, default=0.5)
    sub.add_argument("--xi", type=float, default=0.0)
    sub.add_argument("--rhos", help="comma-separated cluster fractions (gssbm)")


def _load_graph(path):
    return read_edge_list(Path(path).read_text())


def _load_gt(path, variant: str, n: int) -> GroundTruth:
    """The ground truth in ``path``; InvalidParams unless it is an object
    holding a ``variant`` assignment of n integer labels, each +-1 for the
    binary variants and nonnegative for gssbm, whose nonzero labels are
    exactly 1..r for some r >= 1: a skipped number would be an empty
    cluster."""
    d = json.loads(Path(path).read_text())
    if not isinstance(d, dict):
        raise InvalidParams(f"ground truth must be an object, got {type(d).__name__}")
    if d.get("variant") != variant:
        raise InvalidParams(f"ground truth is for {d.get('variant')!r}, not {variant!r}")
    labels = d.get("assignment")
    if not (isinstance(labels, list) and len(labels) == n
            and all(type(x) is int for x in labels)):
        raise InvalidParams(f"ground truth assignment must be a list of {n} integers")
    if not all(x >= 0 if variant == GSSBM else x in (1, -1) for x in labels):
        raise InvalidParams(f"ground truth labels out of range for {variant}")
    clusters = sorted(set(labels) - {0})
    if variant == GSSBM and clusters != list(range(1, max(len(clusters), 1) + 1)):
        raise InvalidParams(f"ground truth clusters must be 1..r, r >= 1, got {clusters}")
    return GroundTruth(variant, np.array(labels, dtype=np.int64))


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_generate(args) -> int:
    params = _params_from_args(args, args.n)
    g, gt = generate(params, args.seed)
    Path(args.out).write_text(write_edge_list(g))
    if args.gt_out:
        Path(args.gt_out).write_text(json.dumps(
            {"variant": params.variant,
             "assignment": gt.assignment.tolist()}))
    _emit({"n": g.n, "alphabet": g.alphabet,
           "edges": int(np.count_nonzero(g.values)), "out": args.out})
    return 0


def cmd_recover(args) -> int:
    g = _load_graph(args.graph)
    params = _params_from_args(args, g.n)
    gt = _load_gt(args.gt, args.variant, g.n) if args.gt else None
    res = recover(g, params)
    payload = {
        "status": res.solution.status,
        "certified": res.solution.certified,
        "objective": res.solution.objective,
        "iterations": res.solution.iterations,
        "failed": res.failed,
        "assignment": None if res.labels is None else res.labels.tolist(),
    }
    if gt is not None:
        payload["matches_gt"] = (not res.failed) and same_partition(
            res.labels, gt.assignment)
    _emit(payload)
    return 0


def cmd_private_recover(args) -> int:
    g = _load_graph(args.graph)
    params = _params_from_args(args, g.n)
    priv = PrivacyParams.from_exponent(args.eps, args.delta_exp, g.n)
    c_stab = args.c_stab if args.c_stab is not None else default_c_stab(args.delta_exp)
    outcome = release(args.mode, g, params, priv, args.seed, c_stab=c_stab,
                      max_evals=args.max_evals)
    # only what the (eps, delta) guarantee covers: the release decision,
    # the public threshold and the released clustering
    payload = {
        "bottom": outcome.bottom,
        "threshold": outcome.trace.threshold,
        "released": outcome.trace.released,
    }
    if not outcome.bottom:
        payload["assignment"] = outcome.labels.tolist()
    _emit(payload)
    return 0


def cmd_estimate_params(args) -> int:
    g = _load_graph(args.graph)
    a_hat, b_hat, rho_hat = param_estimate(g)
    _emit({"a": a_hat, "b": b_hat, "rho": rho_hat})
    return 0


def cmd_check_concentration(args) -> int:
    g = _load_graph(args.graph)
    gt = _load_gt(args.gt, args.variant, g.n)
    params = _params_from_args(args, g.n)
    eps = args.eps if args.eps is not None else math.inf
    constants = default_constants(params, eps, args.c_stab)
    report = check_concentration(g, gt, params, constants)
    _emit({"constants": astuple(constants), **report.to_dict()})
    return 0


def cmd_certify(args) -> int:
    g = _load_graph(args.graph)
    gt = _load_gt(args.gt, args.variant, g.n)
    params = _params_from_args(args, g.n)
    _emit(planted_report(g, gt, params, None, None).to_dict())
    return 0


def cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    out = sweep(config)
    _emit({"output": str(out)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmdp",
        description="Private community recovery in stochastic block models")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a graph and write an edge list")
    _add_model_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--gt-out")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("recover", help="non-private SDP recovery")
    _add_model_args(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--gt")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("private-recover", help="stability-mechanism recovery")
    _add_model_args(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta-exp", type=float, required=True,
                   help="delta = n^(-delta_exp)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=MODES, default="fast")
    p.add_argument("--c-stab", type=float,
                   help="stability constant (default privacy.default_c_stab)")
    p.add_argument("--max-evals", type=int, default=200_000)
    p.set_defaults(func=cmd_private_recover)

    p = sub.add_parser("estimate-params", help="degree-profile rate estimation")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_estimate_params)

    p = sub.add_parser("check-concentration", help="evaluate the checker")
    _add_model_args(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--c-stab", type=float, default=0.0)
    p.set_defaults(func=cmd_check_concentration)

    p = sub.add_parser("certify", help="build and verify the dual certificate")
    _add_model_args(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--gt", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="run a JSON-configured experiment sweep")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InvalidParams, ParseError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SbmdpError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
