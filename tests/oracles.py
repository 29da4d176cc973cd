"""Independent oracles and record factories for the test suite.

The oracles re-derive the documented decision rules in the most literal way
possible (table lookups, widening loops, listing every permutation) so that
the engine's cascade and the exact permutation count can be checked against
a second, independently written path.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Optional, Sequence

from grasp.model import (
    MATCHING_FIELD_KEYS,
    AppraisalPolicy,
    Automation,
    BucketDirection,
    EvidenceClass,
    GradeLevel,
    ImpactSubtype,
    InputSource,
    InputType,
    MatchingRule,
    MatchingVerdict,
    Phase,
    QualityRule,
    QualityVerdict,
    StudyDirection,
    StudyRecord,
    StudyType,
    TieFallback,
    ToolCategory,
    ToolProfile,
)

P = StudyDirection.POSITIVE
E = StudyDirection.EQUIVOCAL
N = StudyDirection.NEGATIVE


def make_tool(tool_id: str = "tool-001", **overrides) -> ToolProfile:
    fields = dict(
        id=tool_id,
        name="Example Risk Score",
        author="Author",
        country="Canada",
        year=2010,
        category=ToolCategory.PROGNOSTIC,
        intended_use="Predict an adverse outcome",
        intended_user="Physicians",
        clinical_area="Internal medicine",
        target_population="Adults",
        target_outcome="Adverse outcome within 30 days",
        action="Escalate monitoring",
        input_source=frozenset({InputSource.CLINICAL}),
        input_type=frozenset({InputType.OBJECTIVE}),
        local_context=False,
        methodology="Logistic regression",
        internal_validation_method="Split sample",
        automation=Automation.MANUAL,
        tool_citations=100,
        studies_count=1,
        authors_count=3,
        sample_size=500,
        journal_name="Journal of Examples",
        journal_rank=2.5,
    )
    fields.update(overrides)
    return ToolProfile(**fields)


_TYPE_FOR_LEVEL = {
    GradeLevel.C3: StudyType.INTERNAL_VALIDATION,
    GradeLevel.C2: StudyType.EXTERNAL_VALIDATION,
    GradeLevel.C1: StudyType.EXTERNAL_VALIDATION,
    GradeLevel.B3: StudyType.USABILITY,
    GradeLevel.B2: StudyType.POTENTIAL_EFFECT,
    GradeLevel.A3: StudyType.POST_IMPLEMENTATION_IMPACT,
    GradeLevel.A2: StudyType.POST_IMPLEMENTATION_IMPACT,
    GradeLevel.A1: StudyType.POST_IMPLEMENTATION_IMPACT,
}

_SUBTYPE_FOR_LEVEL = {
    GradeLevel.A1: ImpactSubtype.EXPERIMENTAL,
    GradeLevel.A2: ImpactSubtype.OBSERVATIONAL,
    GradeLevel.A3: ImpactSubtype.SUBJECTIVE,
}

#: Override pairs realising each adjudication class under any policy.
CLASS_OVERRIDES = {
    EvidenceClass.A: (MatchingVerdict.MATCHING, QualityVerdict.HIGH),
    EvidenceClass.B: (MatchingVerdict.MATCHING, QualityVerdict.LOW),
    EvidenceClass.C: (MatchingVerdict.NON_MATCHING, QualityVerdict.LOW),
}


def make_study(
    study_id: str,
    level: Optional[GradeLevel],
    direction: StudyDirection,
    evidence_class: EvidenceClass = EvidenceClass.A,
    tool_id: str = "tool-001",
    **overrides,
) -> StudyRecord:
    matching, quality = CLASS_OVERRIDES[evidence_class]
    fields = dict(
        id=study_id,
        tool_id=tool_id,
        citation=f"Study {study_id}",
        country="Canada",
        year=2015,
        phase=level.phase if level else Phase.BEFORE_IMPLEMENTATION,
        study_type=_TYPE_FOR_LEVEL[level] if level else StudyType.DEVELOPMENT,
        comparative=False,
        level=level,
        direction=direction,
        matching_override=matching,
        quality_override=quality,
        impact_subtype=_SUBTYPE_FOR_LEVEL.get(level) if level else None,
    )
    fields.update(overrides)
    return StudyRecord(**fields)


def make_bucket_studies(
    level: GradeLevel,
    pairs: Sequence[tuple[EvidenceClass, StudyDirection]],
    tool_id: str = "tool-001",
    prefix: str = "s",
) -> list[StudyRecord]:
    return [
        make_study(f"{prefix}{i:03d}", level, direction, evidence_class, tool_id=tool_id)
        for i, (evidence_class, direction) in enumerate(pairs)
    ]


class OracleTie(Exception):
    """The cascade tied at every widening step."""


def oracle_direction(
    pairs: Iterable[tuple[EvidenceClass, StudyDirection]],
    conservative: bool = True,
) -> tuple[BucketDirection, bool]:
    """Literal re-derivation of the bucket direction rules.

    Positive when every conclusion is positive; negative when none is;
    otherwise compare positive vs non-positive counts in class A, then A+B,
    then everything, taking the first strict majority; on a full tie either
    fall back to mixed-negative with a review flag or signal a tie.
    """
    pairs = list(pairs)
    positives = sum(1 for _, d in pairs if d is P)
    if positives == len(pairs):
        return BucketDirection.POSITIVE, False
    if positives == 0:
        return BucketDirection.NEGATIVE, False
    for classes in (
        {EvidenceClass.A},
        {EvidenceClass.A, EvidenceClass.B},
        {EvidenceClass.A, EvidenceClass.B, EvidenceClass.C},
    ):
        pos = sum(1 for c, d in pairs if c in classes and d is P)
        non = sum(1 for c, d in pairs if c in classes and d is not P)
        if pos > non:
            return BucketDirection.MIXED_POSITIVE, False
        if non > pos:
            return BucketDirection.MIXED_NEGATIVE, False
    if not conservative:
        raise OracleTie()
    return BucketDirection.MIXED_NEGATIVE, True


def all_multisets(max_size: int) -> Iterable[tuple[tuple[EvidenceClass, StudyDirection], ...]]:
    """Every multiset of (class, direction) pairs up to the given size."""
    kinds = list(itertools.product(EvidenceClass, StudyDirection))
    for size in range(1, max_size + 1):
        yield from itertools.combinations_with_replacement(kinds, size)


def oracle_matching(
    flags: dict[str, bool],
    override: Optional[MatchingVerdict],
    strict: bool,
    n_keys: int = 7,
) -> Optional[MatchingVerdict]:
    """Table-driven matching verdict; None when unresolvable."""
    if override is not None:
        return override
    if not flags:
        return None
    if strict:
        matching = len(flags) == n_keys and all(flags.values())
    else:
        matching = all(flags.values())
    return MatchingVerdict.MATCHING if matching else MatchingVerdict.NON_MATCHING


def oracle_quality_majority(flags: dict[str, bool]) -> QualityVerdict:
    trues = sum(1 for v in flags.values() if v)
    falses = len(flags) - trues
    return QualityVerdict.HIGH if trues > falses else QualityVerdict.LOW


class OracleUngradable(Exception):
    """The tool has no gradable study, or a study of a mixed bucket cannot be appraised."""


#: The grade ladder as the README's table lists it, highest rank first (C0 is no bucket).
_LADDER_DOWN = tuple(GradeLevel(token) for token in "A1 A2 A3 B1 B2 B3 C1 C2 C3".split())
_CLASS_OF = {pair: evidence_class for evidence_class, pair in CLASS_OVERRIDES.items()}
_QUALIFYING = (BucketDirection.POSITIVE, BucketDirection.MIXED_POSITIVE)


def _oracle_class(record: StudyRecord, policy: AppraisalPolicy) -> EvidenceClass:
    """A = matching + high quality, C = non-matching + low quality, B in between."""
    flags = {k: v for k, v in record.matching_fields.items() if k in MATCHING_FIELD_KEYS}
    strict = policy.matching_rule is MatchingRule.STRICT_ALL
    matching = oracle_matching(flags, record.matching_override, strict, len(MATCHING_FIELD_KEYS))
    quality = record.quality_override
    if quality is None and policy.quality_rule is QualityRule.MAJORITY_OF_FLAGS:
        quality = oracle_quality_majority(record.quality_fields)
    if matching is None or quality is None:
        raise OracleUngradable(f"study {record.id!r} cannot be appraised")
    return _CLASS_OF.get((matching, quality), EvidenceClass.B)


def oracle_grade(
    studies: Sequence[StudyRecord], policy: AppraisalPolicy
) -> tuple[GradeLevel, BucketDirection, bool]:
    """Literal re-derivation of a tool's whole grade from the README rules:
    (final grade, direction, needs review).

    Studies sharing a level form a bucket; external validations are pooled,
    into C1 when two or more distinct studies, else C2. Only a bucket with
    conflicting conclusions appraises its studies. B1 joins qualifying B2 and
    B3 buckets. The grade is the first qualifying bucket scanning down from
    A1, else C0 with the direction of the highest bucket. Raises OracleTie
    for a full tie under the failing fallback, and OracleUngradable where the
    engine cannot grade either.
    """
    groups: dict[GradeLevel, list[StudyRecord]] = {}
    external = []
    for record in studies:
        if record.level is None:
            continue
        if record.study_type is StudyType.EXTERNAL_VALIDATION:
            external.append(record)
        else:
            groups.setdefault(record.level, []).append(record)
    if external:
        pooled = GradeLevel.C1 if len({s.id for s in external}) >= 2 else GradeLevel.C2
        groups.setdefault(pooled, []).extend(external)
    if not groups:
        raise OracleUngradable("no gradable study")

    conservative = policy.tie_fallback is TieFallback.CONSERVATIVE_NEGATIVE
    buckets = {}
    for level, group in groups.items():
        mixed = 0 < sum(s.direction is P for s in group) < len(group)
        pairs = [(_oracle_class(s, policy) if mixed else None, s.direction) for s in group]
        buckets[level] = oracle_direction(pairs, conservative)
    b2, b3 = buckets.get(GradeLevel.B2), buckets.get(GradeLevel.B3)
    if b2 and b3 and b2[0] in _QUALIFYING and b3[0] in _QUALIFYING:
        both = b2[0] is b3[0] is BucketDirection.POSITIVE
        buckets[GradeLevel.B1] = (
            BucketDirection.POSITIVE if both else BucketDirection.MIXED_POSITIVE, False
        )

    review = any(flag for _, flag in buckets.values())
    present = [level for level in _LADDER_DOWN if level in buckets]
    for level in present:
        if buckets[level][0] in _QUALIFYING:
            return level, buckets[level][0], review
    return GradeLevel.C0, buckets[present[0]][0], review


def oracle_permutation_p(x: Sequence[float], y: Sequence[float]) -> float:
    """Exact two-sided p-value by listing all n! arrangements of y.

    A mid-rank is the mean of the 1-based sorted positions its value
    occupies. Each arrangement's |rho| is compared with the observed |rho|
    within 1e-12, and arrangements that coincide because of ties count
    separately. Costs O(n! * n); keep n at 9 or below.
    """

    def midranks(values: Sequence[float]) -> list[float]:
        positions: dict[float, list[int]] = {}
        for position, value in enumerate(sorted(values), start=1):
            positions.setdefault(value, []).append(position)
        return [sum(positions[v]) / len(positions[v]) for v in values]

    mean = (len(x) + 1) / 2
    dx = [r - mean for r in midranks(x)]
    dy = [r - mean for r in midranks(y)]
    scale = math.sqrt(sum(a * a for a in dx) * sum(b * b for b in dy))
    # The identity comes first, so rhos[0] is the observed correlation.
    rhos = [abs(sum(map(operator.mul, dx, arrangement))) / scale
            for arrangement in itertools.permutations(dy)]
    hits = sum(rho >= rhos[0] - 1e-12 for rho in rhos)
    return hits / math.factorial(len(x))
