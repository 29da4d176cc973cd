"""Decision procedures that turn study records into a tool grade.

The pipeline is: resolve each study's matching and quality, aggregate the
studies of every grade level into a bucket with a direction, resolve mixed
buckets through the class-based adjudication cascade, derive the joint B1
bucket when both B2 and B3 qualify, and finally order the buckets from A1
downwards: the first whose direction supports a positive conclusion sets
the grade.

Everything here is a pure function over immutable inputs; grading many
tools in parallel needs no coordination.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import (
    AdjudicationRequired,
    EmptyBucket,
    InvalidReferenceYear,
    NoGradableEvidence,
    UnresolvableMatching,
    UnresolvableQuality,
)
from .model import (
    MATCHING_FIELD_KEYS,
    Adjudication,
    AppraisalPolicy,
    BucketDirection,
    EvidenceBucket,
    EvidenceClass,
    GradeLevel,
    GradeResult,
    MatchingRule,
    MatchingVerdict,
    QualityRule,
    QualityVerdict,
    StudyAppraisal,
    StudyDirection,
    StudyRecord,
    StudyType,
    TieFallback,
    ToolIndices,
    ToolProfile,
    external_validation_level,
    ordinal_rank,
)


def resolve_matching(record: StudyRecord, policy: AppraisalPolicy) -> MatchingVerdict:
    """Decide whether the study conditions match the tool's specification.

    An explicit override wins. Otherwise, under STRICT_ALL the study matches
    only if all seven condition flags are present and true; under
    IGNORE_MISSING absent flags are skipped and every present flag must be
    true. With no override and no flags at all the verdict is unresolvable.
    """
    if record.matching_override is not None:
        return record.matching_override
    flags = {k: v for k, v in record.matching_fields.items() if k in MATCHING_FIELD_KEYS}
    if not flags:
        raise UnresolvableMatching(
            f"study {record.id!r}: no matching override and no matching fields"
        )
    if policy.matching_rule is MatchingRule.STRICT_ALL:
        complete = len(flags) == len(MATCHING_FIELD_KEYS)
        verdict = complete and all(flags.values())
    else:
        verdict = all(flags.values())
    return MatchingVerdict.MATCHING if verdict else MatchingVerdict.NON_MATCHING


def resolve_quality(record: StudyRecord, policy: AppraisalPolicy) -> QualityVerdict:
    """Decide the study's quality verdict.

    An explicit override wins. OVERRIDE_ONLY treats quality as appraiser
    judgement and fails without one; MAJORITY_OF_FLAGS derives High only from
    a strict majority of true flags (ties and no flags give Low).
    """
    if record.quality_override is not None:
        return record.quality_override
    if policy.quality_rule is QualityRule.OVERRIDE_ONLY:
        raise UnresolvableQuality(
            f"study {record.id!r}: no quality override and policy is override_only"
        )
    trues = sum(bool(v) for v in record.quality_fields.values())
    falses = sum(not v for v in record.quality_fields.values())
    return QualityVerdict.HIGH if trues > falses else QualityVerdict.LOW


def appraise_study(record: StudyRecord, policy: AppraisalPolicy) -> StudyAppraisal:
    return StudyAppraisal(resolve_matching(record, policy), resolve_quality(record, policy))


def _is_positive(direction: StudyDirection) -> bool:
    # Equivocal conclusions always count on the negative side of every tally.
    return direction is StudyDirection.POSITIVE


def mixed_protocol(
    studies: Sequence[StudyRecord], tool: ToolProfile, policy: AppraisalPolicy
) -> tuple[BucketDirection, Adjudication, tuple[StudyAppraisal, ...]]:
    """Adjudicate a bucket holding both positive and non-positive conclusions.

    Studies are partitioned into classes A/B/C by matching and quality. The
    count of positive versus negative-or-equivocal conclusions is compared
    within class A first, then widened to A+B, then to all classes; the first
    strict majority decides. A single class-A study therefore outweighs any
    number of conflicting class-B/C studies. A tie across all classes falls
    back to the policy: conservative mixed-negative with a review flag, or an
    AdjudicationRequired error.

    Returns (direction, adjudication, appraisals). The adjudication holds only
    the class tallies; its ``step``, read off them, is None when the fallback
    fired (the bucket then needs review). The appraisals are those of
    ``studies``, in their order.
    """
    positives = [s for s in studies if _is_positive(s.direction)]
    if not positives or len(positives) == len(studies):
        raise ValueError("mixed_protocol requires both positive and non-positive studies")

    appraisals = tuple(appraise_study(record, policy) for record in studies)
    tally: dict[EvidenceClass, list[int]] = {c: [0, 0] for c in EvidenceClass}
    for record, appraisal in zip(studies, appraisals):
        tally[appraisal.evidence_class][0 if _is_positive(record.direction) else 1] += 1

    adjudication = Adjudication(tuple((pos, neg) for pos, neg in tally.values()))
    step = adjudication.step
    if step is None:
        if policy.tie_fallback is TieFallback.FAIL_WITH_REVIEW_FLAG:
            raise AdjudicationRequired(
                f"tool {tool.id!r}: mixed evidence tied at every step; manual adjudication required"
            )
        return BucketDirection.MIXED_NEGATIVE, adjudication, appraisals
    pos, neg = adjudication.counts(step)
    direction = BucketDirection.MIXED_POSITIVE if pos > neg else BucketDirection.MIXED_NEGATIVE
    return direction, adjudication, appraisals


def aggregate_bucket(
    studies: Sequence[StudyRecord],
    tool: ToolProfile,
    policy: AppraisalPolicy,
    level: Optional[GradeLevel] = None,
) -> EvidenceBucket:
    """Fold the studies of one grade level into a bucket with one direction.

    Positive when every study is positive; negative when every study is
    negative or equivocal; otherwise the mixed evidence protocol decides, and
    the bucket keeps the appraisals it made.
    """
    if not studies:
        raise EmptyBucket(f"tool {tool.id!r}: cannot aggregate an empty study list")
    if level is None:
        level = studies[0].level
    if level is None:
        raise NoGradableEvidence(f"tool {tool.id!r}: study {studies[0].id!r} has no level")
    ordered = tuple(sorted(studies, key=lambda s: s.id))

    n_pos = sum(_is_positive(s.direction) for s in ordered)
    if n_pos == len(ordered):
        return EvidenceBucket(level, ordered, BucketDirection.POSITIVE)
    if n_pos == 0:
        return EvidenceBucket(level, ordered, BucketDirection.NEGATIVE)
    direction, record, appraisals = mixed_protocol(ordered, tool, policy)
    return EvidenceBucket(level, ordered, direction, adjudication=record, appraisals=appraisals)


def derive_b1(
    b2: Optional[EvidenceBucket], b3: Optional[EvidenceBucket]
) -> Optional[EvidenceBucket]:
    """Combine qualifying B2 and B3 buckets into the joint B1 level.

    B1 exists only when potential-effect and usability evidence are both
    present and both qualify; it is positive only when both constituents are,
    and never upgrades a mixed-positive constituent. It never needs review: a
    bucket flagged for review is mixed-negative, which does not qualify.
    """
    if b2 is None or b3 is None:
        return None
    if not (b2.qualifies and b3.qualifies):
        return None
    both_positive = (
        b2.direction is BucketDirection.POSITIVE and b3.direction is BucketDirection.POSITIVE
    )
    direction = BucketDirection.POSITIVE if both_positive else BucketDirection.MIXED_POSITIVE
    return EvidenceBucket(level=GradeLevel.B1, studies=(), direction=direction, sources=(b2, b3))


def build_buckets(
    tool: ToolProfile, studies: Iterable[StudyRecord], policy: AppraisalPolicy
) -> dict[GradeLevel, EvidenceBucket]:
    """Group gradable studies into level buckets and derive B1.

    External validations are pooled and re-levelled by multiplicity: two or
    more distinct studies make the C1 bucket, a single one the C2 bucket.
    Metadata-only development records are skipped.
    """
    by_level: dict[GradeLevel, list[StudyRecord]] = {}
    external: list[StudyRecord] = []
    for record in studies:
        if not record.is_gradable:
            continue
        if record.study_type is StudyType.EXTERNAL_VALIDATION:
            external.append(record)
        else:
            assert record.level is not None
            by_level.setdefault(record.level, []).append(record)
    if external:
        level = external_validation_level(len({s.id for s in external}))
        by_level.setdefault(level, []).extend(external)

    buckets = {
        level: aggregate_bucket(group, tool, policy, level=level)
        for level, group in by_level.items()
    }
    b1 = derive_b1(buckets.get(GradeLevel.B2), buckets.get(GradeLevel.B3))
    if b1 is not None:
        buckets[GradeLevel.B1] = b1
    return buckets


def assign_grade(
    tool: ToolProfile,
    studies: Sequence[StudyRecord],
    policy: AppraisalPolicy = AppraisalPolicy(),
) -> GradeResult:
    """Grade a tool from its study records.

    The result holds the tool's buckets, highest level first, and the policy
    that graded them; its final grade is the highest level whose bucket
    direction is positive or mixed-positive, C0 when no bucket qualifies.
    """
    foreign = [s.id for s in studies if s.tool_id != tool.id]
    if foreign:
        raise ValueError(f"studies {foreign} do not belong to tool {tool.id!r}")

    buckets = build_buckets(tool, studies, policy)
    if not buckets:
        raise NoGradableEvidence(f"tool {tool.id!r}: no gradable study records")

    ordered = tuple(sorted(buckets.values(), key=lambda b: ordinal_rank(b.level), reverse=True))
    return GradeResult(tool.id, ordered, policy)


def compute_indices(tool: ToolProfile, reference_year: int) -> ToolIndices:
    """Citation, publication, and literature indices.

    Age counts the publication year itself (a tool published in the
    reference year is one year old), so the averages are always defined.
    """
    if reference_year < tool.year:
        raise InvalidReferenceYear(
            f"reference year {reference_year} precedes tool year {tool.year}"
        )
    age = reference_year - tool.year + 1
    return ToolIndices(
        citation_index=tool.tool_citations / age,
        publication_index=tool.studies_count / age,
        literature_index=tool.tool_citations * tool.studies_count,
    )
