from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp.corpus import emit_corpus, parse_corpus
from grasp.engine import (
    AppraisalPolicy,
    MatchingRule,
    QualityRule,
    StudyAppraisal,
    TieFallback,
    aggregate_bucket,
    appraise_study,
    assign_grade,
    build_buckets,
    compute_indices,
    derive_b1,
    mixed_protocol,
    resolve_matching,
    resolve_quality,
)
from grasp.errors import (
    AdjudicationRequired,
    EmptyBucket,
    GraspError,
    InvalidReferenceYear,
    NoGradableEvidence,
    UnresolvableMatching,
    UnresolvableQuality,
)
from grasp.model import (
    MATCHING_FIELD_KEYS,
    QUALITY_FIELD_KEYS,
    BucketDirection,
    EvidenceClass,
    GradeLevel,
    GradeResult,
    MatchingVerdict,
    OutcomeLabel,
    QualityVerdict,
    StrengthVerdict,
    StudyDirection,
    StudyType,
    external_validation_level,
    ordinal_rank,
)
from conftest import AUTHOR_GRADES
from gen import _TYPE_FOR_LEVEL, random_corpus, random_policy, random_study, strip_overrides
from oracles import (
    E,
    N,
    P,
    OracleTie,
    OracleUngradable,
    make_bucket_studies,
    make_study,
    make_tool,
    oracle_direction,
    oracle_grade,
    oracle_matching,
    oracle_quality_majority,
)

TOOL = make_tool()
DEFAULT = AppraisalPolicy()
IGNORE_MISSING = AppraisalPolicy(matching_rule=MatchingRule.IGNORE_MISSING)
MAJORITY = AppraisalPolicy(quality_rule=QualityRule.MAJORITY_OF_FLAGS)
FAILING = AppraisalPolicy(tie_fallback=TieFallback.FAIL_WITH_REVIEW_FLAG)
#: Every AppraisalPolicy: the product of its three rules.
ALL_POLICIES = [
    AppraisalPolicy(*rules) for rules in itertools.product(MatchingRule, QualityRule, TieFallback)
]


def _matching_record(flags, override=None):
    return make_study(
        "s000", GradeLevel.C3, P,
        matching_override=override, matching_fields=flags,
    )


class TestResolveMatching:
    def test_all_seven_true_is_matching(self):
        flags = {k: True for k in MATCHING_FIELD_KEYS}
        assert resolve_matching(_matching_record(flags), DEFAULT) is MatchingVerdict.MATCHING

    def test_one_false_is_non_matching(self):
        flags = {k: True for k in MATCHING_FIELD_KEYS}
        flags["target_population"] = False
        assert resolve_matching(_matching_record(flags), DEFAULT) is MatchingVerdict.NON_MATCHING

    def test_missing_fields_depend_on_policy(self):
        flags = {"predictive_task": True}
        record = _matching_record(flags)
        assert resolve_matching(record, DEFAULT) is MatchingVerdict.NON_MATCHING
        assert resolve_matching(record, IGNORE_MISSING) is MatchingVerdict.MATCHING

    def test_override_wins(self):
        record = _matching_record({}, override=MatchingVerdict.NON_MATCHING)
        assert resolve_matching(record, DEFAULT) is MatchingVerdict.NON_MATCHING

    def test_no_override_no_flags_is_unresolvable(self):
        with pytest.raises(UnresolvableMatching):
            resolve_matching(_matching_record({}), DEFAULT)
        with pytest.raises(UnresolvableMatching):
            resolve_matching(_matching_record({}), IGNORE_MISSING)

    @pytest.mark.parametrize("policy,strict", [(DEFAULT, True), (IGNORE_MISSING, False)])
    def test_exhaustive_flag_table(self, policy, strict):
        # All 3^7 present/true/false configurations against the table oracle.
        for combo in itertools.product((None, True, False), repeat=len(MATCHING_FIELD_KEYS)):
            flags = {k: v for k, v in zip(MATCHING_FIELD_KEYS, combo) if v is not None}
            expected = oracle_matching(flags, None, strict)
            record = _matching_record(flags)
            if expected is None:
                with pytest.raises(UnresolvableMatching):
                    resolve_matching(record, policy)
            else:
                assert resolve_matching(record, policy) is expected


class TestResolveQuality:
    def test_override_passthrough(self):
        record = make_study("s000", GradeLevel.C3, P, quality_override=QualityVerdict.HIGH)
        assert resolve_quality(record, DEFAULT) is QualityVerdict.HIGH

    def test_override_only_without_override_fails(self):
        record = make_study("s000", GradeLevel.C3, P, quality_override=None)
        with pytest.raises(UnresolvableQuality):
            resolve_quality(record, DEFAULT)

    def test_majority_examples(self):
        flags = dict(zip(QUALITY_FIELD_KEYS, (True, True, True, False)))
        record = make_study("s000", GradeLevel.C3, P,
                            quality_override=None, quality_fields=flags)
        assert resolve_quality(record, MAJORITY) is QualityVerdict.HIGH
        tied = dict(zip(QUALITY_FIELD_KEYS, (True, True, False, False)))
        record = make_study("s000", GradeLevel.C3, P,
                            quality_override=None, quality_fields=tied)
        assert resolve_quality(record, MAJORITY) is QualityVerdict.LOW

    def test_exhaustive_flag_table(self):
        # All 3^5 configurations against the majority oracle; no flags => Low.
        for combo in itertools.product((None, True, False), repeat=len(QUALITY_FIELD_KEYS)):
            flags = {k: v for k, v in zip(QUALITY_FIELD_KEYS, combo) if v is not None}
            record = make_study("s000", GradeLevel.C3, P,
                                quality_override=None, quality_fields=flags)
            assert resolve_quality(record, MAJORITY) is oracle_quality_majority(flags)


# The two protocol tables, all four cells each.
STRENGTH_CELLS = [
    (MatchingVerdict.MATCHING, QualityVerdict.HIGH, StrengthVerdict.STRONG),
    (MatchingVerdict.MATCHING, QualityVerdict.LOW, StrengthVerdict.MEDIUM),
    (MatchingVerdict.NON_MATCHING, QualityVerdict.HIGH, StrengthVerdict.MEDIUM),
    (MatchingVerdict.NON_MATCHING, QualityVerdict.LOW, StrengthVerdict.WEAK),
]
CLASS_CELLS = [
    (MatchingVerdict.MATCHING, QualityVerdict.HIGH, EvidenceClass.A),
    (MatchingVerdict.MATCHING, QualityVerdict.LOW, EvidenceClass.B),
    (MatchingVerdict.NON_MATCHING, QualityVerdict.HIGH, EvidenceClass.B),
    (MatchingVerdict.NON_MATCHING, QualityVerdict.LOW, EvidenceClass.C),
]


@pytest.mark.parametrize("matching,quality,expected", STRENGTH_CELLS)
def test_strength_table(matching, quality, expected):
    assert StudyAppraisal(matching, quality).strength is expected


@pytest.mark.parametrize("matching,quality,expected", CLASS_CELLS)
def test_evidence_class_table(matching, quality, expected):
    assert StudyAppraisal(matching, quality).evidence_class is expected


def test_strength_and_class_tables_agree():
    iso = {StrengthVerdict.STRONG: EvidenceClass.A,
           StrengthVerdict.MEDIUM: EvidenceClass.B,
           StrengthVerdict.WEAK: EvidenceClass.C}
    for matching, quality in itertools.product(MatchingVerdict, QualityVerdict):
        appraisal = StudyAppraisal(matching, quality)
        assert iso[appraisal.strength] is appraisal.evidence_class


class TestAggregateBucket:
    def test_all_positive(self):
        studies = make_bucket_studies(GradeLevel.C3, [(EvidenceClass.A, P), (EvidenceClass.C, P)])
        bucket = aggregate_bucket(studies, TOOL, DEFAULT)
        assert bucket.direction is BucketDirection.POSITIVE
        assert not bucket.needs_review

    def test_negative_and_equivocal_aggregate_negative(self):
        studies = make_bucket_studies(GradeLevel.C3, [(EvidenceClass.A, N), (EvidenceClass.A, E)])
        bucket = aggregate_bucket(studies, TOOL, DEFAULT)
        assert bucket.direction is BucketDirection.NEGATIVE

    def test_mixed_input_invokes_protocol(self):
        studies = make_bucket_studies(GradeLevel.C3, [(EvidenceClass.A, P), (EvidenceClass.A, E)])
        bucket = aggregate_bucket(studies, TOOL, DEFAULT)
        assert bucket.direction in (BucketDirection.MIXED_POSITIVE, BucketDirection.MIXED_NEGATIVE)
        assert any("mixed evidence" in line for line in bucket.adjudication_trace)

    def test_empty_bucket_is_an_error(self):
        with pytest.raises(EmptyBucket):
            aggregate_bucket([], TOOL, DEFAULT, level=GradeLevel.C3)

    def test_record_without_level_is_a_typed_error(self):
        # A metadata-only development record has no level to bucket under.
        record = make_study("s-dev", None, P)
        with pytest.raises(NoGradableEvidence, match="s-dev"):
            aggregate_bucket([record], TOOL, DEFAULT)

    def test_equivocal_equivalent_to_negative_for_direction(self):
        # Exhaustive over multisets of size <= 4: swapping E for N never
        # changes the aggregated direction or the review flag. This makes
        # the (positive, non-positive) count reduction used by the
        # monotonicity enumeration sound.
        kinds = list(itertools.product(EvidenceClass, (P, E, N)))
        for size in (1, 2, 3, 4):
            for combo in itertools.combinations_with_replacement(kinds, size):
                swapped = [(c, N if d is E else d) for c, d in combo]
                a = aggregate_bucket(make_bucket_studies(GradeLevel.C3, combo), TOOL, DEFAULT)
                b = aggregate_bucket(make_bucket_studies(GradeLevel.C3, swapped), TOOL, DEFAULT)
                assert (a.direction, a.needs_review) == (b.direction, b.needs_review)


class TestMixedProtocol:
    def run(self, pairs, policy=DEFAULT, level=GradeLevel.A2):
        studies = make_bucket_studies(level, pairs)
        return mixed_protocol(studies, TOOL, policy)

    def test_single_class_a_beats_many_class_c(self):
        direction, record, _ = self.run(
            [(EvidenceClass.A, P)] + [(EvidenceClass.C, N)] * 3
        )
        assert direction is BucketDirection.MIXED_POSITIVE
        assert record.step is not None

    def test_majority_within_class_b(self):
        direction, _, _ = self.run(
            [(EvidenceClass.B, P), (EvidenceClass.B, P), (EvidenceClass.B, N)]
        )
        assert direction is BucketDirection.MIXED_POSITIVE

    def test_class_a_tie_widens_to_class_b(self):
        direction, _, _ = self.run(
            [(EvidenceClass.A, P), (EvidenceClass.A, N), (EvidenceClass.B, N)]
        )
        assert direction is BucketDirection.MIXED_NEGATIVE

    def test_full_tie_conservative_fallback(self):
        direction, record, _ = self.run([(EvidenceClass.A, P), (EvidenceClass.A, N)])
        assert direction is BucketDirection.MIXED_NEGATIVE
        assert record.step is None

    def test_full_tie_failing_policy_raises(self):
        with pytest.raises(AdjudicationRequired):
            self.run([(EvidenceClass.A, P), (EvidenceClass.A, N)], policy=FAILING)

    def test_requires_genuinely_mixed_input(self):
        with pytest.raises(ValueError):
            self.run([(EvidenceClass.A, P), (EvidenceClass.A, P)])

    def test_oracle_equivalence_small(self):
        # Spot sweep (the acceptance suite enumerates all multisets up to 5).
        kinds = list(itertools.product(EvidenceClass, (P, E, N)))
        for combo in itertools.combinations_with_replacement(kinds, 3):
            directions = {d for _, d in combo}
            if P not in directions or directions == {P}:
                continue
            expected = oracle_direction(combo)
            direction, record, _ = self.run(combo)
            assert (direction, record.step is None) == expected

    def test_class_a_majority_ignores_lower_classes(self):
        # Exhaustive to 5 studies: whenever class A holds a strict majority
        # direction, every possible B/C filling leaves the outcome at the
        # A-majority verdict.
        lower_kinds = list(itertools.product((EvidenceClass.B, EvidenceClass.C), (P, E, N)))
        cases = 0
        for a_size in range(1, 6):
            for a_pos in range(a_size + 1):
                a_neg = a_size - a_pos
                if a_pos == a_neg:
                    continue
                base = [(EvidenceClass.A, P)] * a_pos + [(EvidenceClass.A, N)] * a_neg
                expected = (
                    BucketDirection.MIXED_POSITIVE
                    if a_pos > a_neg
                    else BucketDirection.MIXED_NEGATIVE
                )
                for fill_size in range(0, 6 - a_size):
                    for fill in itertools.combinations_with_replacement(lower_kinds, fill_size):
                        pairs = base + list(fill)
                        directions = {d for _, d in pairs}
                        if P not in directions or directions == {P}:
                            continue  # pure buckets never reach the protocol
                        direction, record, _ = self.run(pairs)
                        assert direction is expected
                        assert record.step is not None
                        cases += 1
        assert cases == 573  # every mixed multiset of <=5 with a strict A-majority


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda policy: policy.fingerprint())
def test_mixed_buckets_keep_the_appraisals_of_their_studies(policy):
    # Oracle: a mixed bucket holds each study's appraisal in study order; a
    # unanimous bucket and B1 hold none. Stripped overrides make the policy matter.
    rng = random.Random(22)
    mixed = 0
    for _ in range(100):
        corpus = strip_overrides(rng, random_corpus(rng))
        for tool in corpus.tools:
            try:
                result = assign_grade(tool, corpus.studies_for(tool.id), policy)
            except GraspError:
                continue
            for bucket in result.all_buckets:
                if len({s.direction is StudyDirection.POSITIVE for s in bucket.studies}) == 2:
                    mixed += 1
                    assert list(bucket.appraisals) == [appraise_study(s, policy) for s in bucket.studies]
                else:
                    assert bucket.appraisals == ()
    assert mixed > 50


def test_assign_grade_agrees_with_the_whole_grade_oracle():
    # Oracle: the README's grading rules restated in tests/oracles.py, under a
    # random policy per corpus; stripped overrides make the policy matter and
    # some tools fail, which both must do on the same inputs.
    rng = random.Random(26)
    outcomes = Counter()
    for round_ in range(300):
        corpus = random_corpus(rng, 4)
        if round_ % 2:
            corpus = strip_overrides(rng, corpus)
        policy = random_policy(rng)
        for tool in corpus.tools:
            studies = corpus.studies_for(tool.id)
            try:
                expected = oracle_grade(studies, policy)
            except (OracleTie, OracleUngradable) as failure:
                with pytest.raises((AdjudicationRequired, UnresolvableMatching, UnresolvableQuality)):
                    assign_grade(tool, studies, policy)
                outcomes[type(failure).__name__] += 1
                continue
            result = assign_grade(tool, studies, policy)
            assert (result.final_grade, result.direction, result.needs_review) == expected
            outcomes["review" if result.needs_review else result.direction.value] += 1
    assert min(outcomes.values()) >= 5 and len(outcomes) == 7, outcomes


def _bucket(level, direction, tool_id="tool-001"):
    pair = {
        BucketDirection.POSITIVE: [(EvidenceClass.A, P)],
        BucketDirection.NEGATIVE: [(EvidenceClass.A, N)],
        BucketDirection.MIXED_POSITIVE: [(EvidenceClass.A, P), (EvidenceClass.C, N)],
        BucketDirection.MIXED_NEGATIVE: [(EvidenceClass.A, N), (EvidenceClass.C, P)],
    }[direction]
    bucket = aggregate_bucket(make_bucket_studies(level, pair, tool_id=tool_id), TOOL, DEFAULT, level=level)
    assert bucket.direction is direction
    return bucket


class TestDeriveB1:
    def test_both_positive_gives_positive(self):
        b1 = derive_b1(_bucket(GradeLevel.B2, BucketDirection.POSITIVE),
                       _bucket(GradeLevel.B3, BucketDirection.POSITIVE))
        assert b1 is not None and b1.direction is BucketDirection.POSITIVE
        assert b1.level is GradeLevel.B1
        assert b1.studies == () and len(b1.sources) == 2

    def test_missing_constituent_gives_nothing(self):
        assert derive_b1(_bucket(GradeLevel.B2, BucketDirection.POSITIVE), None) is None
        assert derive_b1(None, _bucket(GradeLevel.B3, BucketDirection.POSITIVE)) is None
        assert derive_b1(None, None) is None

    def test_full_direction_table(self):
        # Never upgrades a mixed-positive constituent; never derives from a
        # non-qualifying one.
        for d2, d3 in itertools.product(BucketDirection, repeat=2):
            b1 = derive_b1(_bucket(GradeLevel.B2, d2), _bucket(GradeLevel.B3, d3))
            if d2.qualifies and d3.qualifies:
                assert b1 is not None
                both_pos = (d2 is BucketDirection.POSITIVE and d3 is BucketDirection.POSITIVE)
                assert b1.direction is (
                    BucketDirection.POSITIVE if both_pos else BucketDirection.MIXED_POSITIVE
                )
            else:
                assert b1 is None


class TestExternalValidationSplit:
    def test_single_external_validation_forms_c2(self):
        studies = [make_study("s001", GradeLevel.C2, P)]
        buckets = build_buckets(TOOL, studies, DEFAULT)
        assert set(buckets) == {GradeLevel.C2}

    def test_two_distinct_external_validations_form_c1(self):
        studies = [make_study("s001", GradeLevel.C1, P), make_study("s002", GradeLevel.C1, N)]
        buckets = build_buckets(TOOL, studies, DEFAULT)
        assert set(buckets) == {GradeLevel.C1}
        assert len(buckets[GradeLevel.C1].studies) == 2

    def test_a_negative_external_validation_can_raise_the_grade(self):
        # Every external validation counts toward "multiple times", whatever its
        # conclusion: the pair re-levels to C1, where the class-A study decides.
        alone = assign_grade(TOOL, [make_study("s001", GradeLevel.C2, P, EvidenceClass.A)])
        assert (alone.final_grade, alone.direction) == (GradeLevel.C2, BucketDirection.POSITIVE)
        pair = [make_study("s001", GradeLevel.C1, P, EvidenceClass.A),
                make_study("s002", GradeLevel.C1, N, EvidenceClass.C)]
        both = assign_grade(TOOL, pair)
        assert (both.final_grade, both.direction) == (GradeLevel.C1, BucketDirection.MIXED_POSITIVE)
        assert oracle_grade(pair, DEFAULT) == (GradeLevel.C1, BucketDirection.MIXED_POSITIVE, False)


class TestAssignGrade:
    def grade(self, corpus8, tool_id):
        tool = corpus8.tool(tool_id)
        return assign_grade(tool, corpus8.studies_for(tool_id))

    def test_reference_tools(self, corpus8):
        for tool_id, expected in AUTHOR_GRADES.items():
            assert self.grade(corpus8, tool_id).final_grade.value == expected, tool_id

    def test_centor_grade_ignores_negative_impact_phase(self, corpus8):
        result = self.grade(corpus8, "centor")
        assert result.final_grade is GradeLevel.B3
        by_level = {b.level: b for b in result.all_buckets}
        assert by_level[GradeLevel.A1].direction is BucketDirection.MIXED_NEGATIVE
        assert "A1" in result.justification

    def test_dietrich_is_c0_with_negative_direction(self, corpus8):
        result = self.grade(corpus8, "dietrich")
        assert result.final_grade is GradeLevel.C0
        assert result.direction is BucketDirection.NEGATIVE
        assert result.supporting_bucket is None
        assert result.tool_label is None

    def test_c0_iff_no_bucket_qualifies(self, corpus8):
        for tool in corpus8.tools:
            result = assign_grade(tool, corpus8.studies_for(tool.id))
            any_qualifies = any(b.qualifies for b in result.all_buckets)
            assert (result.final_grade is GradeLevel.C0) == (not any_qualifies)

    def test_supporting_bucket_is_highest_qualifying(self, corpus8):
        for tool in corpus8.tools:
            result = assign_grade(tool, corpus8.studies_for(tool.id))
            if result.supporting_bucket is None:
                continue
            higher = [b for b in result.all_buckets
                      if ordinal_rank(b.level) > ordinal_rank(result.final_grade)]
            assert all(not b.qualifies for b in higher)
            assert result.supporting_bucket.qualifies

    def test_never_pairs_grade_with_negative_direction(self, corpus8):
        for tool in corpus8.tools:
            result = assign_grade(tool, corpus8.studies_for(tool.id))
            if result.final_grade is not GradeLevel.C0:
                assert result.direction.qualifies

    def test_b1_outranks_its_constituents(self):
        studies = [
            make_study("s001", GradeLevel.B2, P),
            make_study("s002", GradeLevel.B3, P),
        ]
        result = assign_grade(TOOL, studies)
        assert result.final_grade is GradeLevel.B1
        assert result.direction is BucketDirection.POSITIVE

    def test_empty_and_metadata_only_raise(self):
        with pytest.raises(NoGradableEvidence):
            assign_grade(TOOL, [])
        metadata = make_study("s001", None, P)
        with pytest.raises(NoGradableEvidence):
            assign_grade(TOOL, [metadata])

    def test_foreign_study_rejected(self):
        record = make_study("s001", GradeLevel.C3, P, tool_id="other-tool")
        with pytest.raises(ValueError):
            assign_grade(TOOL, [record])

    def test_order_independence_spot(self, corpus8):
        rng = random.Random(7)
        for tool in corpus8.tools:
            studies = list(corpus8.studies_for(tool.id))
            baseline = assign_grade(tool, studies)
            for _ in range(5):
                rng.shuffle(studies)
                assert assign_grade(tool, studies) == baseline

    def test_policy_recorded_in_justification(self, corpus8):
        tool = corpus8.tool("taylor")
        result = assign_grade(tool, corpus8.studies_for(tool.id), MAJORITY)
        assert "quality=majority_of_flags" in result.justification


class TestToolLabel:
    def _result_with_labels(self, label_sets, level=GradeLevel.A2,
                            directions=None):
        directions = directions or [P] * len(label_sets)
        studies = [
            make_study(f"s{i:03d}", level, d, labels=frozenset(labels))
            for i, (labels, d) in enumerate(zip(label_sets, directions))
        ]
        return assign_grade(TOOL, studies)

    def test_most_frequent_label_wins(self):
        result = self._result_with_labels(
            [{OutcomeLabel.EFFICIENCY}, {OutcomeLabel.EFFICIENCY}, {OutcomeLabel.SAFETY}]
        )
        assert result.tool_label == "Grade A2 - Efficiency"

    def test_tie_breaks_by_fixed_order(self):
        result = self._result_with_labels(
            [{OutcomeLabel.EFFICIENCY}, {OutcomeLabel.EFFECTIVENESS}], level=GradeLevel.B3
        )
        assert result.tool_label == "Grade B3 - Effectiveness"

    def test_safety_outranks_efficiency_on_ties(self):
        result = self._result_with_labels([{OutcomeLabel.EFFICIENCY, OutcomeLabel.SAFETY}])
        assert result.tool_label == "Grade A2 - Safety"

    def test_negative_studies_do_not_contribute(self):
        # Class-A positive outweighs the class-C negatives, and only the
        # positive study's label counts.
        studies = [
            make_study("s000", GradeLevel.A2, P, EvidenceClass.A,
                       labels=frozenset({OutcomeLabel.EFFICIENCY})),
            make_study("s001", GradeLevel.A2, N, EvidenceClass.C,
                       labels=frozenset({OutcomeLabel.SAFETY})),
            make_study("s002", GradeLevel.A2, N, EvidenceClass.C,
                       labels=frozenset({OutcomeLabel.SAFETY})),
        ]
        result = assign_grade(TOOL, studies)
        assert result.final_grade is GradeLevel.A2
        assert result.tool_label == "Grade A2 - Efficiency"

    def test_unlabelled_bucket_has_no_label(self):
        result = self._result_with_labels([frozenset()])
        assert result.tool_label is None

    def test_b1_label_drawn_from_source_buckets(self):
        studies = [
            make_study("s001", GradeLevel.B2, P, labels=frozenset({OutcomeLabel.EFFICIENCY})),
            make_study("s002", GradeLevel.B3, P, labels=frozenset({OutcomeLabel.WORKFLOW})),
        ]
        result = assign_grade(TOOL, studies)
        assert result.final_grade is GradeLevel.B1
        assert result.tool_label == "Grade B1 - Efficiency"

    def test_deterministic_under_permutation(self):
        label_sets = [{OutcomeLabel.WORKFLOW}, {OutcomeLabel.PROCESSES},
                      {OutcomeLabel.WORKFLOW, OutcomeLabel.PROCESSES}]
        results = set()
        for perm in itertools.permutations(range(3)):
            studies = [
                make_study(f"s{i:03d}", GradeLevel.A3, P,
                           labels=frozenset(label_sets[j]))
                for i, j in enumerate(perm)
            ]
            results.add(assign_grade(TOOL, studies).tool_label)
        assert results == {"Grade A3 - Workflow"}


class TestComputeIndices:
    def test_zero_numerators(self):
        tool = make_tool(tool_citations=0, studies_count=0, year=2014)
        indices = compute_indices(tool, 2020)
        assert (indices.citation_index, indices.publication_index,
                indices.literature_index) == (0.0, 0.0, 0)

    def test_documented_example(self):
        tool = make_tool(tool_citations=100, studies_count=10, year=2014)
        indices = compute_indices(tool, 2018)
        assert indices.citation_index == pytest.approx(20.0)
        assert indices.publication_index == pytest.approx(2.0)
        assert indices.literature_index == 1000

    def test_same_year_age_is_one(self):
        tool = make_tool(tool_citations=7, studies_count=3, year=2016)
        indices = compute_indices(tool, 2016)
        assert (indices.citation_index, indices.publication_index,
                indices.literature_index) == (7.0, 3.0, 21)

    def test_reference_year_before_publication_rejected(self):
        with pytest.raises(InvalidReferenceYear):
            compute_indices(make_tool(year=2016), 2015)


def test_appraise_study_consistent_with_parts():
    record = make_study("s000", GradeLevel.C3, P,
                        matching_override=MatchingVerdict.NON_MATCHING,
                        quality_override=QualityVerdict.HIGH)
    appraisal = appraise_study(record, DEFAULT)
    assert appraisal.matching is MatchingVerdict.NON_MATCHING
    assert appraisal.strength is StrengthVerdict.MEDIUM
    assert appraisal.evidence_class is EvidenceClass.B


def test_result_carries_policy_fingerprint():
    # The result holds the policy itself; its fingerprint is rendered from it.
    policy = AppraisalPolicy(tie_fallback=TieFallback.FAIL_WITH_REVIEW_FLAG)
    result = assign_grade(TOOL, [make_study("s000", GradeLevel.C3, P)], policy)
    assert result.policy is policy
    assert result.policy.tie_fallback is TieFallback.FAIL_WITH_REVIEW_FLAG
    assert result.justification.endswith(f"policy[{policy.fingerprint()}]")


class TestToolIdsQuotedInMessages:
    """A tool id is shown as its ``repr``, so an id holding a quote reads back as one id."""

    TOOL = make_tool("o'brien")

    def test_no_gradable_evidence(self):
        with pytest.raises(NoGradableEvidence) as info:
            assign_grade(self.TOOL, [])
        assert str(info.value) == 'tool "o\'brien": no gradable study records'

    def test_study_without_level(self):
        with pytest.raises(NoGradableEvidence) as info:
            aggregate_bucket([make_study("s000", None, P, tool_id="o'brien")], self.TOOL, DEFAULT)
        assert str(info.value) == 'tool "o\'brien": study \'s000\' has no level'

    def test_empty_bucket(self):
        with pytest.raises(EmptyBucket, match='^tool "o\'brien": '):
            aggregate_bucket([], self.TOOL, DEFAULT)

    def test_full_tie_under_the_failing_policy(self):
        pairs = [(EvidenceClass.A, P), (EvidenceClass.A, N)]
        studies = make_bucket_studies(GradeLevel.A2, pairs, tool_id="o'brien")
        with pytest.raises(AdjudicationRequired, match='^tool "o\'brien": mixed evidence tied'):
            mixed_protocol(studies, self.TOOL, FAILING)

    def test_foreign_study(self):
        with pytest.raises(ValueError, match="""do not belong to tool "o'brien"$"""):
            assign_grade(self.TOOL, [make_study("s000", GradeLevel.C3, P)])


def test_monotonicity_spot_check():
    # Appending a positive study never lowers the grade (full enumeration in
    # the acceptance suite).
    rng = random.Random(11)
    kinds = list(itertools.product(EvidenceClass, (P, E, N)))
    levels = (GradeLevel.A2, GradeLevel.B2, GradeLevel.C3)
    for _ in range(300):
        studies = []
        for level in levels:
            for i in range(rng.randint(0, 3)):
                cls, d = rng.choice(kinds)
                studies.append(make_study(f"{level.value}-{i}", level, d, cls))
        if not studies:
            continue
        before = ordinal_rank(assign_grade(TOOL, studies).final_grade)
        level = rng.choice(levels)
        cls = rng.choice(list(EvidenceClass))
        after_studies = studies + [make_study("appended", level, P, cls)]
        after = ordinal_rank(assign_grade(TOOL, after_studies).final_grade)
        assert after >= before


#: The level of an added study; None adds one more external validation.
ADDED_LEVELS = (None, *_TYPE_FOR_LEVEL)


def _outcome(tool, studies, policy):
    """The grade of a tool, or the type and text of the error that stops it."""
    try:
        return assign_grade(tool, studies, policy)
    except GraspError as exc:
        return type(exc), str(exc)


def _graded_corpus(rng, stripped):
    corpus = random_corpus(rng)
    return strip_overrides(rng, corpus) if stripped else corpus


class TestMetamorphicRelations:
    """Relations between the grades of a generated corpus before and after one
    edit, under every policy; an edit that makes either grading fail is not
    compared, except where the relation says it changes nothing."""

    SEEDS = st.integers(0, 2**32 - 1).map(random.Random)
    EXAMPLES = settings(derandomize=True, database=None, max_examples=300, deadline=None)

    @staticmethod
    def _add_study(rng, tool, studies, level, direction):
        external = sum(s.study_type is StudyType.EXTERNAL_VALIDATION for s in studies)
        if level is None:
            level, study_type = external_validation_level(external + 1), StudyType.EXTERNAL_VALIDATION
        else:
            study_type = _TYPE_FOR_LEVEL[level]
        added = random_study(rng, tool, f"{tool.id}-added", level, study_type)
        return [*studies, replace(added, direction=direction)], external

    @EXAMPLES
    @given(SEEDS, st.booleans(), st.sampled_from(ADDED_LEVELS))
    def test_adding_a_positive_study_never_lowers_a_grade(self, rng, stripped, level):
        corpus = _graded_corpus(rng, stripped)
        for tool in corpus.tools:
            studies = corpus.studies_for(tool.id)
            more, _ = self._add_study(rng, tool, studies, level, StudyDirection.POSITIVE)
            for policy in ALL_POLICIES:
                before, after = _outcome(tool, studies, policy), _outcome(tool, more, policy)
                if not (isinstance(before, GradeResult) and isinstance(after, GradeResult)):
                    continue
                assert ordinal_rank(after.final_grade) >= ordinal_rank(before.final_grade), policy

    @EXAMPLES
    @given(SEEDS, st.booleans(), st.sampled_from(ADDED_LEVELS),
           st.sampled_from([StudyDirection.NEGATIVE, StudyDirection.EQUIVOCAL]))
    def test_adding_a_negative_or_equivocal_study_never_raises_a_grade(self, rng, stripped, level, direction):
        # The one exception the README states: a second external validation,
        # whatever its conclusion, re-levels a lone C2 validation to C1.
        corpus = _graded_corpus(rng, stripped)
        for tool in corpus.tools:
            studies = corpus.studies_for(tool.id)
            more, external = self._add_study(rng, tool, studies, level, direction)
            for policy in ALL_POLICIES:
                before, after = _outcome(tool, studies, policy), _outcome(tool, more, policy)
                if not (isinstance(before, GradeResult) and isinstance(after, GradeResult)):
                    continue
                if ordinal_rank(after.final_grade) > ordinal_rank(before.final_grade):
                    assert level is None and external == 1, policy
                    assert (before.final_grade, after.final_grade) == (GradeLevel.C2, GradeLevel.C1)

    @EXAMPLES
    @given(SEEDS, st.booleans())
    def test_a_metadata_only_record_changes_nothing_but_the_study_count(self, rng, stripped):
        corpus = _graded_corpus(rng, stripped)
        for tool in corpus.tools:
            studies = corpus.studies_for(tool.id)
            record = random_study(rng, tool, f"{tool.id}-added", None, StudyType.DEVELOPMENT)
            counted = replace(tool, studies_count=tool.studies_count + 1)
            for policy in ALL_POLICIES:
                assert _outcome(counted, [*studies, record], policy) == _outcome(tool, studies, policy)

    @EXAMPLES
    @given(SEEDS, st.booleans())
    def test_an_emitted_corpus_grades_the_same(self, rng, stripped):
        corpus = _graded_corpus(rng, stripped)
        emitted = parse_corpus(emit_corpus(corpus))
        for tool in corpus.tools:
            for policy in ALL_POLICIES:
                assert _outcome(emitted.tool(tool.id), emitted.studies_for(tool.id), policy) == \
                    _outcome(tool, corpus.studies_for(tool.id), policy)
