from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.stats

import grasp

from grasp.errors import (
    DegenerateInput,
    EmptyResponses,
    LengthMismatch,
    OutOfRange,
    TooLarge,
)
from grasp.model import GradeLevel, ordinal_rank
from grasp.stats import (
    AgreementLabel,
    agreement_label,
    compare_raters,
    likert_mean,
    overall_summary,
    permutation_p,
    spearman_rho,
    summarize_survey,
)
from oracles import oracle_permutation_p


def _random_vectors(rng, n, tie_prone=True):
    pool = range(0, 5) if tie_prone else range(0, 1000)
    x = [rng.choice(pool) for _ in range(n)]
    y = [rng.choice(pool) for _ in range(n)]
    return x, y


class TestSpearman:
    def test_identity_is_one(self):
        assert spearman_rho([3, 1, 4, 1, 5], [3, 1, 4, 1, 5]) == pytest.approx(1.0)

    def test_matches_scipy_with_ties(self):
        rng = random.Random(1234)
        checked = 0
        while checked < 200:
            x, y = _random_vectors(rng, rng.randint(3, 12))
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expected = scipy.stats.spearmanr(x, y).statistic
            assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)
            checked += 1

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(50):
            x, y = _random_vectors(rng, 8)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman_rho(x, y) == pytest.approx(spearman_rho(y, x))

    def test_monotone_transform_invariance(self):
        x = [1, 2, 2, 3, 7]
        y = [4, 4, 5, 1, 2]
        transformed = [v * 100 + 7 for v in y]
        assert spearman_rho(x, y) == pytest.approx(spearman_rho(x, transformed))

    def test_rank_reflection_negates(self):
        rng = random.Random(99)
        for _ in range(50):
            x, y = _random_vectors(rng, 7)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            reflected = [max(y) + min(y) - v for v in y]
            assert spearman_rho(x, reflected) == pytest.approx(-spearman_rho(x, y))

    def test_bounds(self):
        rng = random.Random(42)
        for _ in range(100):
            x, y = _random_vectors(rng, 6)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert -1.0 - 1e-12 <= spearman_rho(x, y) <= 1.0 + 1e-12

    def test_constant_vector_rejected(self):
        with pytest.raises(DegenerateInput):
            spearman_rho([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInput):
            spearman_rho([1, 2, 3], [4, 4, 4])

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            spearman_rho([1, 2], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInput):
            spearman_rho([1], [2])


class TestPermutationP:
    def test_hand_enumerated_n3(self):
        # Both the identity and the full reversal reach |rho| = 1.
        assert permutation_p([1, 2, 3], [1, 2, 3]) == pytest.approx(2 / 6)

    def test_identity_of_distinct_n4(self):
        assert permutation_p([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(2 / 24)

    def test_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(30):
            x, y = _random_vectors(rng, 5)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            p = permutation_p(x, y)
            assert 0 < p <= 1

    def test_weak_correlation_has_large_p(self):
        p = permutation_p([1, 2, 3, 4], [2, 1, 4, 3])
        assert p > 0.2

    def test_bound_at_ten(self):
        x = list(range(11))
        with pytest.raises(TooLarge):
            permutation_p(x, x)

    def test_constant_vector_propagates(self):
        with pytest.raises(DegenerateInput):
            permutation_p([1, 1, 1], [1, 2, 3])

    def test_tie_duplicates_count_as_distinct_arrangements(self):
        # y = [1, 1, 2]: 6 arrangements, 2 of which tie each distinct order.
        p = permutation_p([1, 2, 3], [1, 1, 2])
        assert p == pytest.approx(4 / 6)

    def test_equals_enumeration_up_to_eight(self):
        # Bitwise equality with the n! listing, on tied and untied pairs alike.
        rng = random.Random(2024)
        checked = 0
        while checked < 1000:
            x, y = _random_vectors(rng, rng.randint(2, 8), tie_prone=checked % 2 == 0)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert permutation_p(x, y) == oracle_permutation_p(x, y), (x, y)
            checked += 1

    @pytest.mark.parametrize("seed,tie_prone", [(1, True), (2, True), (3, False), (4, False)])
    def test_equals_enumeration_at_nine(self, seed, tie_prone):
        x, y = _random_vectors(random.Random(seed), 9, tie_prone)
        assert permutation_p(x, y) == oracle_permutation_p(x, y)


def test_cli_import_leaves_numpy_unloaded():
    # grade, report and validate never need the statistics, nor a clock unless --stamp.
    env = dict(os.environ, PYTHONPATH=str(Path(grasp.__file__).resolve().parents[1]))
    code = (
        "import sys, grasp\n"
        "print(sorted(m for m in sys.modules if m.startswith('grasp.')))\n"
        "import grasp.cli\n"
        "print([m for m in ('numpy', 'grasp.stats', 'datetime') if m in sys.modules])\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (0, "[]\n[]\n"), run.stderr


REFERENCE_GRADES = {
    "centor": ("B2", "B3", "B3"),
    "chalice": ("B2", "B2", "B2"),
    "dietrich": ("C0", "C0", "C0"),
    "lace": ("C1", "C1", "C1"),
    "manuck": ("C2", "C2", "C2"),
    "ottawa-knee": ("A1", "A2", "A1"),
    "pecarn": ("A2", "A2", "A2"),
    "taylor": ("C3", "C3", "C3"),
}


def _column(idx):
    return [GradeLevel(grades[idx]) for grades in REFERENCE_GRADES.values()]


class TestCompareRaters:
    def compare(self, a_idx, b_idx):
        return compare_raters(_column(a_idx), _column(b_idx))

    def test_r1_vs_authors(self):
        comparison = self.compare(0, 2)
        assert comparison.rho == pytest.approx(0.994, abs=0.0005)
        assert comparison.p_value < 0.001
        assert comparison.exact_agreement == 7  # only Centor differs

    def test_r2_vs_authors(self):
        comparison = self.compare(1, 2)
        assert comparison.rho == pytest.approx(0.994, abs=0.0005)
        assert comparison.exact_agreement == 7  # only Ottawa differs

    def test_r1_vs_r2(self):
        comparison = self.compare(0, 1)
        assert comparison.rho == pytest.approx(0.988, abs=0.0005)
        assert comparison.exact_agreement == 6

    def test_identical_vectors(self):
        comparison = self.compare(2, 2)
        assert comparison.rho == pytest.approx(1.0)
        assert comparison.exact_agreement == 8

    def test_grades_map_through_ordinal_rank(self):
        comparison = self.compare(0, 2)
        expected = spearman_rho(
            [ordinal_rank(g) for g in _column(0)],
            [ordinal_rank(g) for g in _column(2)],
        )
        assert comparison.rho == pytest.approx(expected)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compare_raters(_column(0)[:1], _column(1))


class TestLikert:
    def test_all_fives(self):
        assert likert_mean([5, 5, 5]) == pytest.approx(5.0)

    def test_singleton(self):
        assert likert_mean([1]) == pytest.approx(1.0)

    def test_fractional_mean(self):
        responses = [5] * 87 + [4] * 13
        assert likert_mean(responses) == pytest.approx(4.87)

    def test_empty_rejected(self):
        with pytest.raises(EmptyResponses):
            likert_mean([])

    @pytest.mark.parametrize("bad", [0, 6, -1, 2.5, "4", True])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(OutOfRange):
            likert_mean([3, bad])


class TestAgreementLabel:
    # Reference (score, meaning) pairs for the agreement bins.
    REFERENCE_PAIRS = [
        (4.87, AgreementLabel.STRONGLY_AGREE),
        (4.44, AgreementLabel.STRONGLY_AGREE),
        (4.68, AgreementLabel.STRONGLY_AGREE),
        (4.61, AgreementLabel.STRONGLY_AGREE),
        (2.97, AgreementLabel.NEITHER),
        (4.78, AgreementLabel.STRONGLY_AGREE),
        (4.16, AgreementLabel.SOMEWHAT_AGREE),
        (4.26, AgreementLabel.STRONGLY_AGREE),
        (4.35, AgreementLabel.STRONGLY_AGREE),
    ]

    @pytest.mark.parametrize("score,expected", REFERENCE_PAIRS)
    def test_reference_pairs(self, score, expected):
        assert agreement_label(score) is expected

    @pytest.mark.parametrize(
        "score,expected",
        [
            (1.0, AgreementLabel.STRONGLY_DISAGREE),
            (1.8, AgreementLabel.STRONGLY_DISAGREE),
            (1.81, AgreementLabel.SOMEWHAT_DISAGREE),
            (2.6, AgreementLabel.SOMEWHAT_DISAGREE),
            (2.61, AgreementLabel.NEITHER),
            (3.4, AgreementLabel.NEITHER),
            (3.41, AgreementLabel.SOMEWHAT_AGREE),
            (4.2, AgreementLabel.SOMEWHAT_AGREE),
            (4.21, AgreementLabel.STRONGLY_AGREE),
            (5.0, AgreementLabel.STRONGLY_AGREE),
        ],
    )
    def test_bin_edges(self, score, expected):
        assert agreement_label(score) is expected

    @pytest.mark.parametrize("bad", [0.99, 5.01])
    def test_out_of_range(self, bad):
        with pytest.raises(OutOfRange):
            agreement_label(bad)

    def test_display_strings(self):
        assert AgreementLabel.NEITHER.display == "Neither Agree nor Disagree"
        assert AgreementLabel.STRONGLY_AGREE.display == "Strongly Agree"


class TestSurveySummaries:
    def test_order_preserved_and_overall_pooled(self):
        responses = {"q2": [5, 5], "q1": [1, 3]}
        summaries = summarize_survey(responses)
        assert [s.question_id for s in summaries] == ["q2", "q1"]
        assert summaries[0].mean_score == pytest.approx(5.0)
        assert summaries[1].n == 2
        overall = overall_summary(responses)
        assert overall.question_id == "overall"
        assert overall.mean_score == pytest.approx(14 / 4)
        assert overall.n == 4
