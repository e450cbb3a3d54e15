"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria are Monte-Carlo checks at comfortably super-/sub-threshold
parameter settings with pinned seeds, so every run is reproducible. The
estimator tolerance in criterion 12 was re-baselined by the pre-build
calibration recorded in docs/estimator_calibration.md.
"""

import functools
import math
import time

import numpy as np

from sbmdp.certificates import build_binary, build_general, verify_binary, verify_general
from sbmdp.concentration import check_concentration, default_constants, spectral_deviation
from sbmdp.graph import CENSORED, SIMPLE, Graph, neighbors_at_distance, pair_count
from sbmdp.models import (
    BasbmParams,
    CbsbmParams,
    GroundTruth,
    GssbmParams,
    cluster_matrix,
    generate,
    same_clustering,
)
from sbmdp.privacy import PrivacyParams, param_estimate, sample_laplace, stbl_fast
from sbmdp.sdp import SolveOptions, recover

from oracles import cached_estimator, mle_bruteforce, random_delta, shift_constants


def gate(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {description} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_01_nonprivate_exactness_above_threshold():
    params = BasbmParams(n=300, a=20, b=2, rho=0.5)
    hits = 0
    worst = 0.0
    for seed in range(20):
        t0 = time.perf_counter()
        g, gt = generate(params, seed)
        res = recover(g, params)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        if not res.failed and same_clustering(res.matrix, cluster_matrix(gt)):
            hits += 1
        assert elapsed <= 60.0, f"trial exceeded 60 s ({elapsed:.1f} s)"
    gate(1, "above-threshold recovery >= 18/20", hits >= 18,
         f"({hits}/20, worst trial {worst:.1f} s)")


def test_criterion_02_subthreshold_failure():
    params = BasbmParams(n=300, a=3, b=2, rho=0.5)
    opts = SolveOptions(tol=1e-5, max_iters=400, certify_every=50)
    hits = 0
    for seed in range(20):
        g, gt = generate(params, seed)
        res = recover(g, params, opts)
        if not res.failed and same_clustering(res.matrix, cluster_matrix(gt)):
            hits += 1
    gate(2, "sub-threshold recovery <= 10/20", hits <= 10, f"({hits}/20)")


def test_criterion_03_oracle_equivalence():
    params = BasbmParams(n=10, a=4, b=0.5, rho=0.5)
    t0 = time.perf_counter()
    valid_cases = agreements = 0
    for seed in range(50):
        g, gt = generate(params, seed)
        report = verify_binary(build_binary(g, gt, params))
        if not report.valid:
            continue
        valid_cases += 1
        res = recover(g, params)
        oracle = mle_bruteforce(g, params)
        if not res.failed and same_clustering(res.matrix, oracle):
            agreements += 1
    elapsed = time.perf_counter() - t0
    ok = agreements == valid_cases and valid_cases > 0 and elapsed <= 120.0
    gate(3, "certified instances match the brute-force oracle", ok,
         f"({agreements}/{valid_cases} certified, {elapsed:.0f} s)")


def test_criterion_04_certificate_kernel_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 17))
        k = int(rng.integers(1, n // 2 + 1))
        censored = bool(rng.integers(2))
        values = rng.choice([-1, 0, 1] if censored else [0, 1],
                            size=pair_count(n)).astype(np.int8)
        g = Graph(n, CENSORED if censored else SIMPLE, values)
        assignment = np.full(n, -1, dtype=np.int64)
        assignment[rng.choice(n, size=k, replace=False)] = 1
        if censored:
            params = CbsbmParams(n=n, a=float(rng.uniform(0.5, 30)),
                                 xi=float(rng.uniform(0, 0.5)))
            gt = GroundTruth("cbsbm", assignment)
        else:
            params = BasbmParams(n=n, a=float(rng.uniform(1, 30)),
                                 b=float(rng.uniform(0.01, 0.99)), rho=k / n)
            gt = GroundTruth("basbm", assignment)
        cert = build_binary(g, gt, params)
        norm = float(np.abs(np.linalg.eigvalsh(cert.s_matrix)).max())
        residual = float(np.abs(cert.s_matrix @ gt.sigma).max())
        worst = max(worst, residual / max(norm, 1e-12))
    gate(4, "kernel identity <= 1e-8 * ||S|| on 1000 random certificates",
         worst <= 1e-8, f"(worst relative residual {worst:.2e})")


@functools.cache
def _criterion5_instances():
    params = BasbmParams(n=500, a=30, b=2, rho=0.5)
    constants = default_constants(params, 2.0, 2.0)
    results = []
    for seed in range(20):
        g, gt = generate(params, seed)
        passed = check_concentration(g, gt, params, constants).passed
        results.append((seed, g, gt, passed))
    return params, constants, results


def test_criterion_05_concentration_whp():
    _, _, results = _criterion5_instances()
    passes = sum(1 for *_rest, passed in results if passed)
    gate(5, "concentration check passes >= 18/20", passes >= 18,
         f"({passes}/20)")


def test_criterion_06_persistence_under_flips():
    params, constants, results = _criterion5_instances()
    eps, c_stab = 2.0, 2.0
    shifted = shift_constants(constants, c_stab, eps, rho=params.rho)
    flips = int(c_stab * math.log(params.n) / eps)
    rng = np.random.default_rng(2024)
    passing = [(g, gt) for _, g, gt, passed in results if passed]
    seed = 20
    while len(passing) < 20 and seed < 40:
        g, gt = generate(params, seed)
        if check_concentration(g, gt, params, constants).passed:
            passing.append((g, gt))
        seed += 1
    survived = 0
    for g, gt in passing[:20]:
        delta = random_delta(g, flips, rng)
        if check_concentration(delta.apply(g), gt, params, shifted).passed:
            survived += 1
    gate(6, "shifted check survives log-n flips in 20/20", survived == 20,
         f"({survived}/20, {flips} flips each)")


def test_criterion_07_sensitivity_audit():
    priv = PrivacyParams.from_exponent(1.0, 1.0, 6)
    opts = SolveOptions(tol=1e-5, max_iters=300, certify_every=25)
    rng_vals = np.random.default_rng(7)
    violations = pairs = 0
    for idx in range(20):
        censored = idx >= 10
        alphabet = CENSORED if censored else SIMPLE
        values = rng_vals.choice([-1, 0, 1] if censored else [0, 1],
                                 size=pair_count(6)).astype(np.int8)
        g = Graph(6, alphabet, values)
        params = (CbsbmParams(n=6, a=2.0, xi=0.3) if censored
                  else BasbmParams(n=6, a=2.5, b=0.5, rho=0.5))
        f = cached_estimator(params, opts, {})
        rng = np.random.default_rng(idx)
        base = stbl_fast(g, params, priv, 1.0, rng, f=f, solve_opts=opts)
        for h in neighbors_at_distance(g, 1):
            other = stbl_fast(h, params, priv, 1.0, rng, f=f, solve_opts=opts)
            pairs += 1
            if abs(base.trace.d_hat - other.trace.d_hat) > 1.0 + 1e-12:
                violations += 1
    gate(7, "internal distance moves by <= 1 across all neighbor pairs",
         violations == 0, f"({pairs} pairs, {violations} violations)")


def test_criterion_08_laplace_calibration():
    rng = np.random.default_rng(8)
    threshold = math.log(1 / 0.05)
    exceed = sum(sample_laplace(1.0, rng) > threshold for _ in range(100_000))
    rate = exceed / 100_000
    gate(8, "tail rate Pr[X > log(1/0.05)] in [0.02, 0.03]",
         0.02 <= rate <= 0.03, f"(rate {rate:.4f})")


def test_criterion_09_private_recovery_end_to_end():
    params = BasbmParams(n=500, a=30, b=2, rho=0.5)
    priv = PrivacyParams.from_exponent(2.0, 2.0, params.n)
    c_stab = 4.0
    instances = [generate(params, seed) for seed in range(20)]
    fast_paths = 0
    per_graph_fast = []
    correct_runs = 0
    worst = 0.0
    for run in range(50):
        g, gt = instances[run % 20]
        rng = np.random.default_rng(10_000 + run)
        t0 = time.perf_counter()
        out = stbl_fast(g, params, priv, c_stab, rng, max_evals=200)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert elapsed <= 120.0, f"run exceeded 2 min ({elapsed:.0f} s)"
        if run < 20:
            took_fast = out.trace.fast_path
            per_graph_fast.append(took_fast)
        if not out.bottom and same_clustering(
                out.result, cluster_matrix(gt)):
            correct_runs += 1
    fast_paths = sum(per_graph_fast)
    ok = correct_runs >= 45 and fast_paths >= 18
    gate(9, "fast mechanism releases the truth >= 45/50 with fast path >= 18/20",
         ok, f"({correct_runs}/50 correct, {fast_paths}/20 fast, "
             f"worst run {worst:.1f} s)")


def test_criterion_10_censored_recovery_and_certificates():
    params = CbsbmParams(n=300, a=8, xi=0.05)
    recovered = certified = 0
    for seed in range(20):
        g, gt = generate(params, seed)
        res = recover(g, params)
        if not res.failed and same_clustering(res.matrix, cluster_matrix(gt)):
            recovered += 1
        if verify_binary(build_binary(g, gt, params)).valid:
            certified += 1
    ok = recovered >= 18 and certified >= 18
    gate(10, "censored recovery >= 18/20 and certificates >= 18/20", ok,
         f"({recovered}/20 recovered, {certified}/20 certified)")


def test_criterion_11_general_structure():
    params = GssbmParams(n=300, a=40, b=2, rhos=(0.3, 0.3, 0.3))
    recovered = certified = 0
    for seed in range(20):
        g, gt = generate(params, seed)
        res = recover(g, params)
        if not res.failed and same_clustering(res.matrix, cluster_matrix(gt)):
            recovered += 1
        deviation = spectral_deviation(g.to_dense(), params, gt)
        if verify_general(build_general(g, gt, params, deviation=deviation)).valid:
            certified += 1
    ok = recovered >= 16 and certified >= 16
    gate(11, "general-structure recovery >= 16/20 and certificates >= 16/20",
         ok, f"({recovered}/20 recovered, {certified}/20 certified)")


def test_criterion_12_estimator_calibration():
    # tolerances re-baselined by the pre-build run in
    # docs/estimator_calibration.md (the mean-degree threshold estimator
    # carries a finite-n overlap bias of about +1.5 on a and -1.0 on b here)
    params = BasbmParams(n=4000, a=20.0, b=2.0, rho=0.3)
    hits = 0
    for seed in range(20):
        g, _ = generate(params, seed)
        a_hat, b_hat, _rho_hat = param_estimate(g)
        if abs(a_hat - 20.0) <= 2.5 and abs(b_hat - 2.0) <= 1.6:
            hits += 1
    gate(12, "rate estimates within re-baselined tolerance >= 18/20",
         hits >= 18, f"({hits}/20)")
