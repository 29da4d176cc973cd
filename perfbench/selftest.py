"""Self-test of the output checker: it must pass real outputs and fail corrupted ones.

    python3 perfbench/run.py --self-test

It also checks the exact p-value reference against ``scipy.stats.permutation_test``
(which enumerates (n!)^2 pairings, so only small n are affordable) and against a
plain enumeration of all n! arrangements.
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
from fractions import Fraction
from math import factorial

import numpy as np
from scipy import stats

import checker
import run as bench
from workloads import prepare_fixtures, prepare_wide

_LEVELS = ("C0", "C3", "C2", "C1", "B3", "B2", "B1", "A3", "A2", "A1")


def rater_pair(rng: random.Random, n: int) -> tuple[list[str], list[str]]:
    """Two correlated grade lists over a narrow band of levels, so ties abound."""
    while True:
        band = _LEVELS[rng.randint(0, 5):][:5]
        a = [rng.choice(band) for _ in range(n)]
        b = [g if rng.random() < 0.6 else rng.choice(band) for g in a]
        if len(set(a)) > 1 and len(set(b)) > 1:
            return a, b


def _enumerated_p(x, y) -> Fraction:
    n = len(x)
    dx = [r - (n + 1) for r in checker.doubled_midranks(x)]
    dy = [r - (n + 1) for r in checker.doubled_midranks(y)]
    observed = abs(sum(a * b for a, b in zip(dx, dy)))
    hits = sum(
        abs(sum(a * b for a, b in zip(dx, perm))) >= observed
        for perm in itertools.permutations(dy)
    )
    return Fraction(hits, factorial(n))


def _scipy_p(x, y) -> float:
    rx, ry = stats.rankdata(x), stats.rankdata(y)

    def abs_rho(a, b, axis=-1):
        a = a - a.mean(axis=axis, keepdims=True)
        b = b - b.mean(axis=axis, keepdims=True)
        cov = (a * b).sum(axis=axis)
        return np.abs(cov) / np.sqrt((a * a).sum(axis=axis) * (b * b).sum(axis=axis))

    return stats.permutation_test(
        (rx, ry), abs_rho, permutation_type="pairings", n_resamples=np.inf,
        vectorized=True, batch=50_000, alternative="greater",
    ).pvalue


def _p_value_references(rng: random.Random) -> list[str]:
    problems = []
    for n in (5, 6, 8):
        a, b = rater_pair(rng, n)
        x = [checker._ORDINAL[g] for g in a]
        y = [checker._ORDINAL[g] for g in b]
        dp = checker.exact_p(x, y)
        if dp != _enumerated_p(x, y):
            problems.append(f"exact_p differs from enumeration at n={n}")
        if n <= 6 and abs(float(dp) - _scipy_p(x, y)) > 1e-12:
            problems.append(f"exact_p differs from scipy.stats.permutation_test at n={n}")
    return problems


def main(env: dict) -> int:
    rng = random.Random(20190726)
    problems = _p_value_references(rng)

    directory = bench._fresh_dir()
    try:
        judged = bench.Run()
        wide = prepare_wide(7, directory, n_tools=40)
        grade = wide.ops[1]
        graded = bench.run_child(grade.argv, env, directory, 0)
        rows = json.loads(graded.stdout)
        rows[0]["final_grade"] = "A1" if rows[0]["final_grade"] != "A1" else "C0"
        flipped = json.dumps(rows, indent=2) + "\n"

        fixtures = directory / "fixtures"
        fixtures.mkdir()
        raters = next(op for op in prepare_fixtures(7, fixtures).ops if op.argv[0] == "raters")
        compared = bench.run_child(raters.argv, env, directory, 1)
        result = json.loads(compared.stdout)
        result["p_value"] += 1 / factorial(result["n"])
        wrong_p = json.dumps(result, indent=2) + "\n"

        for op, stdout, corrupted in (
            (grade, graded.stdout, False),
            (grade, flipped, True),
            (raters, compared.stdout, False),
            (raters, wrong_p, True),
        ):
            before = judged.failed
            judged.judge(op, 0, stdout)
            if (judged.failed > before) != corrupted:
                problems.append(
                    f"{op.argv[0]}: {'corrupted' if corrupted else 'real'} output"
                    f" judged {'correct' if judged.failed == before else 'wrong'}"
                )
    finally:
        shutil.rmtree(bench.WORK, ignore_errors=True)

    for problem in judged.problems:
        print(f"checker flagged: {problem}")
    print(f"fail_ratio {judged.failed}/{judged.attempted} (two of four outputs corrupted)")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0
