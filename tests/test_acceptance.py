"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from revpinsker import (
    ClassParams,
    SearchConfig,
    batch_f_divergence,
    chi2_generator,
    corollary1_bound,
    default_grid,
    f_divergence,
    falsify_feasibility,
    feasible,
    hellinger_generator,
    kl_bound_ab,
    kl_generator,
    renyi_bound,
    renyi_from_hellinger,
    sason_chi2_bound,
    search_unconstrained_sup,
    simic_kl_bound,
    ternary_extremal,
    theorem1_bound,
    tv_cap,
    tv_generator,
)
from revpinsker.bounds import GRID_BIG_M_VALUES, GRID_M_VALUES
from revpinsker.oracle import DIVERGENCE_THRESHOLD, _sample_batch

KL = kl_generator()
TV = tv_generator()
CHI2 = chi2_generator()
H_HALF = hellinger_generator(0.5)
H_THREE = hellinger_generator(3)
FIVE_GENERATORS = [KL, TV, CHI2, H_HALF, H_THREE]

GRID = default_grid()


def report(number: int, name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}")
    assert ok, f"criterion {number} ({name}) failed"


def close(a: float, b: float, tol: float) -> bool:
    # tolerance scales with magnitude once values leave the unit range
    if a == b:
        return True
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_theorem1_tightness():
    start = time.time()
    worst = 0.0
    for gen in FIVE_GENERATORS:
        for params in GRID:
            pair = ternary_extremal(params)
            value = f_divergence(gen, pair.P, pair.Q)
            bound = theorem1_bound(gen, params)
            worst = max(worst, abs(value - bound) / max(1.0, abs(bound)))
    elapsed = time.time() - start
    report(1, "extremal pairs attain the optimal bound",
           worst <= 1e-10 and elapsed < 1.0)


def test_criterion_2_soundness_fuzz():
    start = time.time()
    rng = np.random.default_rng(20260824)
    violations = 0
    for i, params in enumerate(GRID):
        n = 3 + (i % 6)  # support sizes 3..8
        p, q = _sample_batch(params, ternary_extremal(params), n, 10_000, rng, steps=4)
        for gen in FIVE_GENERATORS:
            bound = theorem1_bound(gen, params)
            values = batch_f_divergence(gen, p, q)
            violations += int(np.count_nonzero(values > bound + 1e-10))
    elapsed = time.time() - start
    report(2, "10^4 in-class pairs per grid point, zero violations",
           violations == 0 and elapsed < 60.0)


def test_criterion_3_cap_identity():
    start = time.time()
    ok = True
    for gen in FIVE_GENERATORS:
        for m in GRID_M_VALUES:
            for M in GRID_BIG_M_VALUES:
                at_cap = theorem1_bound(gen, ClassParams(tv_cap(m, M), m, M))
                cor1 = corollary1_bound(gen, m, M)
                ok = ok and close(at_cap, cor1, 1e-12)
    elapsed = time.time() - start
    report(3, "bound at the cap equals the delta-free bound", ok and elapsed < 1.0)


def test_criterion_4_kl_reparametrization():
    ok = True
    for params in GRID:
        if params.m > 0.0:
            via_ab = kl_bound_ab(params.delta, 1.0 / params.M, 1.0 / params.m)
            ok = ok and close(via_ab, theorem1_bound(KL, params), 1e-12)
        else:
            verdu = kl_bound_ab(params.delta, 1.0 / params.M, math.inf)
            ok = ok and close(verdu, theorem1_bound(KL, params), 1e-12)
    report(4, "KL bound in (a, b) form and its Verdu limit", ok)


def test_criterion_5_chi2_closed_form():
    ok = True
    for params in GRID:
        optimal = theorem1_bound(CHI2, params)
        ok = ok and close(optimal, params.delta * (params.M - params.m), 1e-12)
        prior = sason_chi2_bound(params)
        ok = ok and prior >= optimal - 1e-12
        sides_differ = abs((params.M - 1.0) - (1.0 - params.m)) > 1e-9
        if sides_differ and params.delta > 0:
            ok = ok and prior > optimal
    report(5, "chi-squared bound is delta(M - m) and dominates the comparator", ok)


def test_criterion_6_simic_dominance():
    ok = True
    for m in GRID_M_VALUES:
        for M in GRID_BIG_M_VALUES:
            if m <= 0.0:
                continue
            prior = simic_kl_bound(1.0 / M, 1.0 / m)
            ok = ok and prior >= corollary1_bound(KL, m, M) - 1e-12
    ok = ok and abs(simic_kl_bound(0.5, 2.0) - 0.2340761490631256) <= 5e-6
    ok = ok and abs(corollary1_bound(KL, 0.5, 2.0) - 0.231049) <= 5e-7
    report(6, "Simic comparator dominates the optimal KL range bound", ok)


def test_criterion_7_renyi_consistency_and_improvement():
    ok = True
    for alpha in (0.5, 2.0, 3.0):
        for params in GRID:
            h = theorem1_bound(hellinger_generator(alpha), params)
            composed = renyi_from_hellinger(alpha, h)
            direct = renyi_bound(alpha, params)
            ok = ok and close(direct, composed, 1e-12)
            if params.m > 0.0 and params.delta > 0.0:
                relaxed = renyi_bound(alpha, ClassParams(params.delta, 0.0, params.M))
                ok = ok and direct < relaxed
    report(7, "Renyi bound matches the Hellinger transform and improves for m > 0", ok)


def test_criterion_8_vajda_limit_approach():
    ok = True
    for gen in (TV, H_HALF):
        out = search_unconstrained_sup(gen, 0.3)
        values = [v for _, v in out.history]
        # nondecreasing in M up to one-ulp jitter on flat stretches
        ok = ok and all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        ok = ok and abs(out.bound - out.best_value) / out.bound <= 1e-6
    out = search_unconstrained_sup(KL, 0.3)
    ok = ok and out.bound == math.inf and out.best_value > DIVERGENCE_THRESHOLD
    report(8, "M-sweep approaches the range-of-values bound (KL diverges)", ok)


def _mixed_grid_200():
    points = list(GRID)  # 75 feasible
    for m in GRID_M_VALUES:  # 25 + 25 infeasible above the cap
        for M in GRID_BIG_M_VALUES:
            cap = tv_cap(m, M)
            points.append(ClassParams((cap + 1.0) / 2.0, m, M))
            points.append(ClassParams(cap + 0.75 * (1.0 - cap), m, M))
    for m in GRID_M_VALUES:  # 25 infeasible: zero delta with spread ratios
        for M in GRID_BIG_M_VALUES:
            points.append(ClassParams(0.0, m, M))
    for M in GRID_BIG_M_VALUES:  # 15 infeasible: m = 1 < M
        for delta in (0.1, 0.5, 0.9):
            points.append(ClassParams(delta, 1.0, M))
    for m in GRID_M_VALUES:  # 30 infeasible: M = 1 > m
        for delta in (0.2, 0.6, 1.0, 0.15, 0.45, 0.75):
            points.append(ClassParams(delta, m, 1.0))
    for delta in (0.1, 0.2, 0.3, 0.4, 0.5):  # 5 infeasible degenerate
        points.append(ClassParams(delta, 1.0, 1.0))
    assert len(points) == 200
    return points


def test_criterion_9_feasibility_corroboration():
    start = time.time()
    cfg = SearchConfig(trials=4000, seed=7)
    ok = all(falsify_feasibility(p, cfg) for p in _mixed_grid_200())
    elapsed = time.time() - start
    report(9, "search agrees with the feasibility predicate on 200 points",
           ok and elapsed < 60.0)


def test_criterion_10_fuzz_determinism():
    args = [sys.executable, "-m", "revpinsker", "fuzz", "--div", "kl",
            "--delta", "0.25", "--m", "0.5", "--M", "2",
            "--trials", "2000", "--seed", "31337"]
    first = subprocess.run(args, capture_output=True, timeout=120)
    second = subprocess.run(args, capture_output=True, timeout=120)
    ok = (first.stdout == second.stdout and first.returncode == second.returncode == 0
          and json.loads(first.stdout)["status"] == "pass")
    report(10, "fuzz reruns with one seed are byte-identical", ok)
