from __future__ import annotations

from pathlib import Path

from grasp.model import (
    LEVEL_BY_IMPACT_SUBTYPE,
    LEVELS_BY_STUDY_TYPE,
    MATCHING_FIELD_KEYS,
    QUALITY_FIELD_KEYS,
    Adjudication,
    BucketDirection,
    GradeLevel,
    ImpactSubtype,
    Phase,
    StudyDirection,
    StudyType,
    ordinal_rank,
)
from grasp.report import DETAIL_LADDER

README = Path(__file__).resolve().parent.parent / "README.md"

# Frozen ordinal scale. The placement of the in-between rungs is pinned by
# the interrater reproduction in the acceptance suite.
EXPECTED_RANKS = {
    "C0": 0, "C3": 1, "C2": 2, "C1": 3, "B3": 4,
    "B2": 5, "B1": 6, "A3": 7, "A2": 8, "A1": 9,
}


def test_ordinal_rank_table():
    assert {level.value: ordinal_rank(level) for level in GradeLevel} == EXPECTED_RANKS


def test_ordinal_rank_is_a_bijection_onto_0_9():
    ranks = [ordinal_rank(level) for level in GradeLevel]
    assert sorted(ranks) == list(range(10))


def test_rank_agrees_with_declared_order():
    declared = [GradeLevel.C0, GradeLevel.C3, GradeLevel.C2, GradeLevel.C1,
                GradeLevel.B3, GradeLevel.B2, GradeLevel.B1,
                GradeLevel.A3, GradeLevel.A2, GradeLevel.A1]
    for earlier, later in zip(declared, declared[1:]):
        assert ordinal_rank(earlier) < ordinal_rank(later)


def test_phase_letters():
    assert Phase.BEFORE_IMPLEMENTATION.letter == "C"
    assert Phase.PLANNING_FOR_IMPLEMENTATION.letter == "B"
    assert Phase.AFTER_IMPLEMENTATION.letter == "A"
    assert Phase.PLANNING_FOR_IMPLEMENTATION.display == "Planning for Implementation"


def test_each_level_sits_in_its_letter_phase():
    for level in GradeLevel:
        assert level.phase.letter == level.value[0]


def test_phase_c_evidence_labels():
    assert GradeLevel.C1.evidence_label == "High Evidence"
    assert GradeLevel.C2.evidence_label == "Medium Evidence"
    assert GradeLevel.C3.evidence_label == "Low Evidence"
    for level in (GradeLevel.C0, GradeLevel.B3, GradeLevel.B2, GradeLevel.B1,
                  GradeLevel.A3, GradeLevel.A2, GradeLevel.A1):
        assert level.evidence_label == ""


def test_level_study_type_consistency_table():
    assert set(LEVELS_BY_STUDY_TYPE) == set(StudyType)
    assert LEVELS_BY_STUDY_TYPE[StudyType.DEVELOPMENT] == {GradeLevel.C3}
    assert LEVELS_BY_STUDY_TYPE[StudyType.INTERNAL_VALIDATION] == {GradeLevel.C3}
    assert LEVELS_BY_STUDY_TYPE[StudyType.EXTERNAL_VALIDATION] == {GradeLevel.C2, GradeLevel.C1}
    assert LEVELS_BY_STUDY_TYPE[StudyType.USABILITY] == {GradeLevel.B3}
    assert LEVELS_BY_STUDY_TYPE[StudyType.POTENTIAL_EFFECT] == {GradeLevel.B2}
    assert LEVELS_BY_STUDY_TYPE[StudyType.POST_IMPLEMENTATION_IMPACT] == {
        GradeLevel.A1, GradeLevel.A2, GradeLevel.A3,
    }
    # C0 and B1 are outcome-only: no study type may declare them.
    declarable = set().union(*LEVELS_BY_STUDY_TYPE.values())
    assert GradeLevel.C0 not in declarable
    assert GradeLevel.B1 not in declarable


def test_impact_subtype_levels():
    assert set(LEVEL_BY_IMPACT_SUBTYPE) == set(ImpactSubtype)
    assert LEVEL_BY_IMPACT_SUBTYPE[ImpactSubtype.EXPERIMENTAL] is GradeLevel.A1
    assert LEVEL_BY_IMPACT_SUBTYPE[ImpactSubtype.OBSERVATIONAL] is GradeLevel.A2
    assert LEVEL_BY_IMPACT_SUBTYPE[ImpactSubtype.SUBJECTIVE] is GradeLevel.A3


def test_readme_ladder_matches_the_model():
    # Highest rank first, with the report's own phase and level-of-evidence cells.
    rows = [
        f"| {ordinal_rank(level)} | {level.value} | {phase} | {evidence} |"
        for (level,), (phase, evidence, _) in reversed(DETAIL_LADDER)
    ]
    header = ["| Rank | Grade | Phase of Evaluation | Level of Evidence |", "|---|---|---|---|"]
    table = "\n".join([*header, *rows])
    assert f"\n{table}\n" in README.read_text(encoding="utf-8")


def test_qualifying_directions():
    assert BucketDirection.POSITIVE.qualifies
    assert BucketDirection.MIXED_POSITIVE.qualifies
    assert not BucketDirection.NEGATIVE.qualifies
    assert not BucketDirection.MIXED_NEGATIVE.qualifies


def test_direction_and_field_key_inventories():
    assert [d.value for d in StudyDirection] == ["positive", "equivocal", "negative"]
    assert len(MATCHING_FIELD_KEYS) == 7
    assert len(QUALITY_FIELD_KEYS) == 5
    assert len(set(MATCHING_FIELD_KEYS) | set(QUALITY_FIELD_KEYS)) == 12


def test_adjudication_holds_only_its_tallies():
    # The deciding step is read off the tallies, so it cannot disagree with them.
    assert Adjudication._fields == ("tallies",)
    assert Adjudication(((1, 0), (0, 3), (0, 0))).step == 0
    assert Adjudication(((1, 1), (0, 1), (5, 0))).step == 1
    assert Adjudication(((0, 0), (1, 1), (0, 2))).step == 2
    assert Adjudication(((1, 1), (0, 0), (2, 2))).step is None
