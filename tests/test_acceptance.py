"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else: correlations within 0.0005,
p-values strictly below 0.001 by an exact count over all 8! arrangements,
grade and label reproductions exact.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

from grasp.corpus import emit_corpus, parse_corpus
from grasp.engine import (
    AppraisalPolicy,
    StudyAppraisal,
    TieFallback,
    aggregate_bucket,
    assign_grade,
    compute_indices,
)
from grasp.errors import AdjudicationRequired, CorpusError
from grasp.model import (
    EvidenceClass,
    GradeLevel,
    MatchingVerdict,
    QualityVerdict,
    StrengthVerdict,
    ordinal_rank,
)
from grasp.stats import agreement_label, compare_raters, likert_mean, overall_summary
from conftest import AUTHOR_GRADES, FIXTURES
from gen import random_corpus, random_tool, random_tool_studies
from oracles import (
    N,
    P,
    OracleTie,
    all_multisets,
    make_bucket_studies,
    make_study,
    make_tool,
    oracle_direction,
)

DEFAULT = AppraisalPolicy()
FAILING = AppraisalPolicy(tie_fallback=TieFallback.FAIL_WITH_REVIEW_FLAG)
TOOL = make_tool()


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} [criterion {number}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_c1_interrater_reproduction(rater_sheets, capsys):
    from grasp.cli import main

    expected = {("r1", "authors"): 0.994, ("r2", "authors"): 0.994, ("r1", "r2"): 0.988}
    started = time.perf_counter()
    outcomes = {}
    for (name_a, name_b), rho in expected.items():
        a, b = rater_sheets[name_a], rater_sheets[name_b]
        tool_ids = sorted(a)
        comparison = compare_raters([a[t] for t in tool_ids], [b[t] for t in tool_ids])
        outcomes[(name_a, name_b)] = (comparison.rho, comparison.p_value)
    elapsed = time.perf_counter() - started

    ok = all(
        abs(outcomes[pair][0] - rho) <= 0.0005 and outcomes[pair][1] < 0.001
        for pair, rho in expected.items()
    ) and elapsed < 1.0

    # The raters command must report the same values.
    for (name_a, name_b), rho in expected.items():
        code = main([
            "raters",
            str(FIXTURES / "raters" / f"{name_a}.csv"),
            str(FIXTURES / "raters" / f"{name_b}.csv"),
        ])
        out = capsys.readouterr().out
        ok = ok and code == 0 and f"rho={rho:.3f}" in out and "p<0.001" in out
    _report(
        1,
        "interrater rho 0.994/0.994/0.988 (±0.0005), exact-permutation p<0.001, "
        f"runtime {elapsed:.3f}s < 1s (API and CLI)",
        ok,
    )


def test_c2_grade_reproduction(corpus8):
    graded = {
        tool.id: assign_grade(tool, corpus8.studies_for(tool.id), DEFAULT).final_grade.value
        for tool in corpus8.tools
    }
    matches = sum(graded[tool_id] == grade for tool_id, grade in AUTHOR_GRADES.items())
    _report(2, f"reference grades reproduced exactly ({matches}/8)", matches == 8)


def test_c3_likert_reproduction():
    from grasp.corpus import parse_survey_sheet

    responses = parse_survey_sheet((FIXTURES / "survey.csv").read_bytes())
    expected = {
        "predictive-performance": ("4.87", "Strongly Agree"),
        "performance-levels": ("4.44", "Strongly Agree"),
        "usability": ("4.68", "Strongly Agree"),
        "potential-effect": ("4.61", "Strongly Agree"),
        "usability-higher": ("2.97", "Neither Agree nor Disagree"),
        "impact": ("4.78", "Strongly Agree"),
        "impact-levels": ("4.16", "Somewhat Agree"),
        "evidence-direction": ("4.26", "Strongly Agree"),
    }
    ok = len(responses) == len(expected)
    for qid, (mean_text, meaning) in expected.items():
        mean = likert_mean(responses[qid])
        ok = ok and f"{mean:.2f}" == mean_text and agreement_label(mean).display == meaning
    overall = overall_summary(responses)
    ok = ok and f"{overall.mean_score:.2f}" == "4.35"
    ok = ok and overall.label.display == "Strongly Agree"
    _report(3, "all 8 Likert meanings incl. 4.16/4.26 split; overall 4.35 Strongly Agree", ok)


def test_c4_protocol_truth_tables():
    strength_expected = {
        (MatchingVerdict.MATCHING, QualityVerdict.HIGH): StrengthVerdict.STRONG,
        (MatchingVerdict.MATCHING, QualityVerdict.LOW): StrengthVerdict.MEDIUM,
        (MatchingVerdict.NON_MATCHING, QualityVerdict.HIGH): StrengthVerdict.MEDIUM,
        (MatchingVerdict.NON_MATCHING, QualityVerdict.LOW): StrengthVerdict.WEAK,
    }
    class_expected = {
        (MatchingVerdict.MATCHING, QualityVerdict.HIGH): EvidenceClass.A,
        (MatchingVerdict.MATCHING, QualityVerdict.LOW): EvidenceClass.B,
        (MatchingVerdict.NON_MATCHING, QualityVerdict.HIGH): EvidenceClass.B,
        (MatchingVerdict.NON_MATCHING, QualityVerdict.LOW): EvidenceClass.C,
    }
    cells = 0
    for pair, expected in strength_expected.items():
        cells += StudyAppraisal(*pair).strength is expected
    for pair, expected in class_expected.items():
        cells += StudyAppraisal(*pair).evidence_class is expected
    _report(4, f"strength and class tables match on all cells ({cells}/8)", cells == 8)


def test_c5_cascade_oracle_equivalence():
    started = time.perf_counter()
    cases = 0
    failures = []
    for pairs in all_multisets(5):
        cases += 1
        studies = make_bucket_studies(GradeLevel.A2, pairs)
        bucket = aggregate_bucket(studies, TOOL, DEFAULT)
        expected = oracle_direction(pairs, conservative=True)
        if (bucket.direction, bucket.needs_review) != expected:
            failures.append(pairs)
        # A mixed bucket records the per-class counts of its input, and no
        # deciding step exactly when it is flagged; a unanimous one records nothing.
        tallies = tuple(
            (pairs.count((cls, P)), sum(c is cls and d is not P for c, d in pairs))
            for cls in EvidenceClass
        )
        positives = sum(pos for pos, _ in tallies)
        record = bucket.adjudication
        recorded = None if record is None else (record.tallies, record.step is None)
        if recorded != ((tallies, bucket.needs_review) if 0 < positives < len(pairs) else None):
            failures.append(pairs)
        # The failing policy must error exactly when the oracle ties.
        try:
            strict_direction = aggregate_bucket(studies, TOOL, FAILING).direction
            strict_outcome: object = strict_direction
        except AdjudicationRequired:
            strict_outcome = "tie"
        try:
            oracle_outcome: object = oracle_direction(pairs, conservative=False)[0]
        except OracleTie:
            oracle_outcome = "tie"
        if strict_outcome != oracle_outcome:
            failures.append(pairs)
    elapsed = time.perf_counter() - started
    _report(
        5,
        f"cascade equals brute-force oracle on every multiset of <=5 studies "
        f"({cases} multisets, both tie policies, tallies recorded, {elapsed:.2f}s < 10s)",
        not failures and elapsed < 10.0,
    )


# --- criterion 6 machinery -------------------------------------------------

_CLASSES = (EvidenceClass.A, EvidenceClass.B, EvidenceClass.C)


def _count_vectors(max_total: int) -> list[tuple[int, ...]]:
    """(posA, negA, posB, negB, posC, negC) vectors with bounded total."""
    return [
        v
        for v in itertools.product(range(max_total + 1), repeat=6)
        if sum(v) <= max_total
    ]


def _vector_pairs(vector: tuple[int, ...]):
    pairs = []
    for index, cls in enumerate(_CLASSES):
        pairs += [(cls, P)] * vector[2 * index]
        pairs += [(cls, N)] * vector[2 * index + 1]
    return pairs


def _vector_studies(vector, level, prefix):
    return make_bucket_studies(level, _vector_pairs(vector), prefix=prefix)


def _qualifies_array(vectors) -> np.ndarray:
    flags = np.zeros(len(vectors), dtype=bool)
    for index, vector in enumerate(vectors):
        if sum(vector) == 0:
            continue
        bucket = aggregate_bucket(
            _vector_studies(vector, GradeLevel.A2, "q"), TOOL, DEFAULT
        )
        flags[index] = bucket.direction.qualifies
    return flags


def _grade_tensor(q1, q2, q3, ranks, b1_rank=None) -> np.ndarray:
    a = q1[:, None, None]
    b = q2[None, :, None]
    c = q3[None, None, :]
    grade = np.where(a, ranks[0], np.where(b, ranks[1], np.where(c, ranks[2], 0)))
    if b1_rank is not None:  # joint level sits above both B constituents
        grade = np.where(a & b, b1_rank, grade)
    return grade.astype(np.int8)


def _grade_scalar(q1, q2, q3, ranks, b1_rank=None) -> int:
    if b1_rank is not None and q1 and q2:
        return b1_rank
    for qualifies, rank in zip((q1, q2, q3), ranks):
        if qualifies:
            return rank
    return 0


def test_c6_monotonicity():
    vectors = _count_vectors(5)
    index_of = {v: i for i, v in enumerate(vectors)}
    base_ids = np.array([i for i, v in enumerate(vectors) if sum(v) <= 4])
    base_vectors = [vectors[i] for i in base_ids]
    qualifies = _qualifies_array(vectors)

    # Direction is independent of the bucket's level: ground the shared
    # qualifies array against buckets built at other levels.
    rng = random.Random(606)
    for vector in rng.sample([v for v in base_vectors if sum(v) > 0], 60):
        for level in (GradeLevel.B2, GradeLevel.B3, GradeLevel.C3):
            bucket = aggregate_bucket(_vector_studies(vector, level, "g"), TOOL, DEFAULT)
            assert bucket.direction.qualifies == qualifies[index_of[vector]]

    add_maps = []
    for cls_index in range(3):
        mapping = np.empty(len(base_ids), dtype=np.int64)
        for row, vector in enumerate(base_vectors):
            bumped = list(vector)
            bumped[2 * cls_index] += 1
            mapping[row] = index_of[tuple(bumped)]
        add_maps.append(mapping)

    q_base = qualifies[base_ids]
    empty = np.array([sum(v) == 0 for v in base_vectors])
    nonempty = ~(empty[:, None, None] & empty[None, :, None] & empty[None, None, :])

    configurations = (
        # (levels, ladder ranks, derived-B1 rank)
        ((GradeLevel.A2, GradeLevel.B2, GradeLevel.C3), (8, 5, 1), None),
        ((GradeLevel.B2, GradeLevel.B3, GradeLevel.C3), (5, 4, 1), 6),
    )
    counterexamples = 0
    corpora_checked = 0
    for levels, ranks, b1_rank in configurations:
        grade_before = _grade_tensor(q_base, q_base, q_base, ranks, b1_rank)
        corpora_checked += int(nonempty.sum())
        for slot in range(3):
            for mapping in add_maps:
                q_after = qualifies[mapping]
                qs = [q_base, q_base, q_base]
                qs[slot] = q_after
                grade_after = _grade_tensor(*qs, ranks, b1_rank)
                counterexamples += int(((grade_after < grade_before) & nonempty).sum())

        # Ground the tensor model in the engine on sampled corpora.
        for _ in range(250):
            i, j, k = (rng.randrange(len(base_ids)) for _ in range(3))
            if empty[i] and empty[j] and empty[k]:
                continue
            studies = []
            for slot, (level, vec_row) in enumerate(zip(levels, (i, j, k))):
                studies += _vector_studies(base_vectors[vec_row], level, f"slot{slot}-")
            result = assign_grade(TOOL, studies, DEFAULT)
            assert ordinal_rank(result.final_grade) == int(grade_before[i, j, k])
            slot = rng.randrange(3)
            cls = rng.randrange(3)
            appended = studies + [
                make_study("appended", levels[slot], P, _CLASSES[cls])
            ]
            after_rank = ordinal_rank(assign_grade(TOOL, appended, DEFAULT).final_grade)
            quals = [bool(q_base[i]), bool(q_base[j]), bool(q_base[k])]
            quals[slot] = bool(qualifies[add_maps[cls][(i, j, k)[slot]]])
            assert after_rank == _grade_scalar(*quals, ranks, b1_rank)

    # Full-engine sweep over the small corner of the space, including the
    # external-validation C2->C1 re-levelling path (the engine pools
    # external validations by multiplicity, so appending one may move the
    # bucket from C2 to C1).
    for va, vb in itertools.product(_count_vectors(2), repeat=2):
        if sum(va) + sum(vb) == 0:
            continue
        studies = _vector_studies(va, GradeLevel.A2, "a")
        if sum(vb):
            ext_level = GradeLevel.C2 if sum(vb) == 1 else GradeLevel.C1
            studies += _vector_studies(vb, ext_level, "b")
        before = ordinal_rank(assign_grade(TOOL, studies, DEFAULT).final_grade)
        corpora_checked += 1
        for level in (GradeLevel.A2, GradeLevel.C1):
            for cls in _CLASSES:
                appended = studies + [make_study("appended", level, P, cls)]
                after = ordinal_rank(assign_grade(TOOL, appended, DEFAULT).final_grade)
                if after < before:
                    counterexamples += 1

    _report(
        6,
        f"appending a positive study never lowers the grade "
        f"({corpora_checked} corpora enumerated across 2 level ladders, "
        f"{counterexamples} counterexamples)",
        counterexamples == 0,
    )


def test_c7_order_independence():
    rng = random.Random(1717)
    checked = 0
    ok = True
    for case in range(1000):
        tool = random_tool(rng, case)
        studies, _ = random_tool_studies(rng, tool, 0)
        baseline = assign_grade(tool, studies, DEFAULT)
        for _ in range(10):
            shuffled = studies[:]
            rng.shuffle(shuffled)
            if assign_grade(tool, shuffled, DEFAULT) != baseline:
                ok = False
        checked += 1
    _report(7, f"identical GradeResults under 10 random orderings x {checked} corpora", ok)


def test_c8_round_trip_and_fuzz(corpus8_bytes):
    rng = random.Random(808)
    ok = True
    for _ in range(1000):
        corpus = random_corpus(rng)
        emitted = emit_corpus(corpus)
        reparsed = parse_corpus(emitted)
        ok = ok and reparsed == corpus and emit_corpus(reparsed) == emitted
    crashes = 0
    for _ in range(1000):
        mutated = bytearray(corpus8_bytes)
        for _ in range(rng.randint(1, 6)):
            op = rng.randrange(3)
            pos = rng.randrange(len(mutated))
            if op == 0:
                mutated[pos] = rng.randrange(256)
            elif op == 1:
                del mutated[pos]
            else:
                mutated.insert(pos, rng.randrange(256))
        try:
            parse_corpus(bytes(mutated))
        except CorpusError:
            pass
        except Exception:
            crashes += 1
    _report(
        8,
        "parse-emit identity on 1000 random corpora; emit idempotent; "
        "1000 fuzzed mutations raise only typed errors",
        ok and crashes == 0,
    )


def test_c9_index_formulas():
    cases = [
        # (citations, studies, year, reference year, expected triple)
        (0, 0, 2010, 2020, (0.0, 0.0, 0)),
        (100, 10, 2014, 2018, (20.0, 2.0, 1000)),
        (7, 3, 2016, 2016, (7.0, 3.0, 21)),
        (1, 1, 2000, 2000, (1.0, 1.0, 1)),
        (50, 5, 2000, 2009, (5.0, 0.5, 250)),
        (33, 3, 1999, 2001, (11.0, 1.0, 99)),
        (9, 2, 2018, 2020, (3.0, 2 / 3, 18)),
        (1000, 1, 1980, 2019, (25.0, 0.025, 1000)),
        (12, 12, 2012, 2012, (12.0, 12.0, 144)),
        (0, 8, 2011, 2014, (0.0, 2.0, 0)),
        (8, 0, 2011, 2014, (2.0, 0.0, 0)),
        (123, 45, 1995, 2004, (12.3, 4.5, 5535)),
        (17, 4, 2002, 2003, (8.5, 2.0, 68)),
        (60, 30, 1990, 2019, (2.0, 1.0, 1800)),
        (5, 7, 2015, 2019, (1.0, 1.4, 35)),
        (240, 16, 2008, 2015, (30.0, 2.0, 3840)),
        (99, 9, 2010, 2020, (9.0, 9 / 11, 891)),
        (1, 2, 1985, 2004, (0.05, 0.1, 2)),
        (400, 25, 2016, 2017, (200.0, 12.5, 10000)),
        (71, 13, 2003, 2012, (7.1, 1.3, 923)),
    ]
    assert len(cases) == 20
    ok = True
    for citations, studies, year, reference, expected in cases:
        tool = make_tool(tool_citations=citations, studies_count=studies, year=year)
        indices = compute_indices(tool, reference)
        ok = ok and indices.citation_index == pytest.approx(expected[0])
        ok = ok and indices.publication_index == pytest.approx(expected[1])
        ok = ok and indices.literature_index == expected[2]
    _report(9, "bibliometric index formulas match on 20 cases incl. age=1", ok)
