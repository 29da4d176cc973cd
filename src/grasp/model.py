"""Domain model of the GRASP grading framework.

Grades combine three dimensions: the phase of evaluation (before
implementation, planning for implementation, after implementation), the
level of evidence within that phase, and the direction of the collected
evidence. The types here are shared by the appraisal engine, corpus I/O,
statistics, and report rendering.

All values are immutable after construction and safe to share between
concurrent tasks without coordination. Records the corpus decodes are frozen
dataclasses, as their callers use the dataclass API: the decoder reads their
``fields``, and the CLI and the benchmark harness call ``replace``. Values
that grading and statistics compute are named tuples: a class costs a tenth
as much to create at import, and ``_asdict`` gives a record's JSON.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, NamedTuple, Optional


class Phase(Enum):
    """Lifecycle stage of the published evidence on a tool."""

    BEFORE_IMPLEMENTATION = "before_implementation"
    PLANNING_FOR_IMPLEMENTATION = "planning_for_implementation"
    AFTER_IMPLEMENTATION = "after_implementation"

    @property
    def letter(self) -> str:
        return _PHASE_ROWS[self][0]

    @property
    def display(self) -> str:
        return _PHASE_ROWS[self][1]


#: One row per phase: (ladder letter, display name).
_PHASE_ROWS = {
    Phase.BEFORE_IMPLEMENTATION: ("C", "Before Implementation"),
    Phase.PLANNING_FOR_IMPLEMENTATION: ("B", "Planning for Implementation"),
    Phase.AFTER_IMPLEMENTATION: ("A", "After Implementation"),
}
_PHASE_OF_LETTER = {letter: phase for phase, (letter, _) in _PHASE_ROWS.items()}


class GradeLevel(Enum):
    """One rung of the grade ladder, ordered C0 < C3 < C2 < C1 < B3 < B2 < B1 < A3 < A2 < A1.

    C0 and B1 are outcome-only levels: C0 marks a tool whose evidence never
    qualifies, B1 is derived from jointly positive B2 and B3 buckets. Neither
    may appear as the level of a raw study record.
    """

    C0 = "C0"
    C3 = "C3"
    C2 = "C2"
    C1 = "C1"
    B3 = "B3"
    B2 = "B2"
    B1 = "B1"
    A3 = "A3"
    A2 = "A2"
    A1 = "A1"

    @property
    def phase(self) -> Phase:
        """The phase whose letter the level's token starts with."""
        return _PHASE_OF_LETTER[self.value[0]]

    @property
    def descriptor(self) -> str:
        return _LADDER[self].descriptor

    @property
    def evidence_label(self) -> str:
        """Phase-C evidence label ("High Evidence" etc.); empty elsewhere."""
        return _LADDER[self].evidence_label


#: Members are declared in ladder order, so their position is their rank.
_RANK = {level: position for position, level in enumerate(GradeLevel)}


def ordinal_rank(level: GradeLevel) -> int:
    """Fixed ordinal position of a grade: C0=0 up to A1=9."""
    return _RANK[level]


class StudyDirection(Enum):
    """Per-study conclusion. Equivocal is grouped with negative when aggregating."""

    POSITIVE = "positive"
    EQUIVOCAL = "equivocal"
    NEGATIVE = "negative"


class BucketDirection(Enum):
    """Aggregated direction of one evidence bucket."""

    POSITIVE = "positive"
    NEGATIVE = "negative"
    MIXED_POSITIVE = "mixed_positive"
    MIXED_NEGATIVE = "mixed_negative"

    @property
    def qualifies(self) -> bool:
        """Whether this direction can support a final grade."""
        return self in (BucketDirection.POSITIVE, BucketDirection.MIXED_POSITIVE)


class MatchingVerdict(Enum):
    MATCHING = "matching"
    NON_MATCHING = "non_matching"


class QualityVerdict(Enum):
    HIGH = "high"
    LOW = "low"


class StrengthVerdict(Enum):
    STRONG = "strong"
    MEDIUM = "medium"
    WEAK = "weak"


class EvidenceClass(Enum):
    """Adjudication class used by the mixed evidence protocol (A strongest)."""

    A = "A"
    B = "B"
    C = "C"


class MatchingRule(Enum):
    """How per-field matching flags resolve to a verdict."""

    STRICT_ALL = "strict_all"
    IGNORE_MISSING = "ignore_missing"


class QualityRule(Enum):
    """How a quality verdict is obtained when no override is recorded."""

    OVERRIDE_ONLY = "override_only"
    MAJORITY_OF_FLAGS = "majority_of_flags"


class TieFallback(Enum):
    """Behaviour when the adjudication cascade ties at every step."""

    CONSERVATIVE_NEGATIVE = "conservative_negative"
    FAIL_WITH_REVIEW_FLAG = "fail_with_review_flag"


@dataclass(frozen=True)
class AppraisalPolicy:
    """Settings that parameterise one grading run.

    The policy is fixed for a run, and every grade carries it. Every field is a
    rule enum whose default is a member of it; the corpus ``policy`` block and
    the CLI's policy flags derive from that.
    """

    matching_rule: MatchingRule = MatchingRule.STRICT_ALL
    quality_rule: QualityRule = QualityRule.OVERRIDE_ONLY
    tie_fallback: TieFallback = TieFallback.CONSERVATIVE_NEGATIVE

    def fingerprint(self) -> str:
        return (
            f"matching={self.matching_rule.value}"
            f" quality={self.quality_rule.value}"
            " equivocal=negative"
            f" tie_fallback={self.tie_fallback.value}"
        )


#: Strength and adjudication class of each (matching, quality) pair.
_APPRAISAL_TABLE = {
    (MatchingVerdict.MATCHING, QualityVerdict.HIGH): (StrengthVerdict.STRONG, EvidenceClass.A),
    (MatchingVerdict.MATCHING, QualityVerdict.LOW): (StrengthVerdict.MEDIUM, EvidenceClass.B),
    (MatchingVerdict.NON_MATCHING, QualityVerdict.HIGH): (StrengthVerdict.MEDIUM, EvidenceClass.B),
    (MatchingVerdict.NON_MATCHING, QualityVerdict.LOW): (StrengthVerdict.WEAK, EvidenceClass.C),
}


class StudyAppraisal(NamedTuple):
    """Resolved verdicts for one study under a policy."""

    matching: MatchingVerdict
    quality: QualityVerdict

    @property
    def strength(self) -> StrengthVerdict:
        """Strong for matching high-quality evidence, weak for non-matching low-quality, medium between."""
        return _APPRAISAL_TABLE[(self.matching, self.quality)][0]

    @property
    def evidence_class(self) -> EvidenceClass:
        """Adjudication class: the strength table with A/B/C in place of strong/medium/weak."""
        return _APPRAISAL_TABLE[(self.matching, self.quality)][1]


class ToolCategory(Enum):
    DIAGNOSTIC = "diagnostic"
    THERAPEUTIC = "therapeutic"
    PROGNOSTIC = "prognostic"
    PREVENTIVE = "preventive"


class InputSource(Enum):
    CLINICAL = "clinical"
    NON_CLINICAL = "non_clinical"


class InputType(Enum):
    OBJECTIVE = "objective"
    SUBJECTIVE = "subjective"


class Automation(Enum):
    MANUAL = "manual"
    AUTOMATED = "automated"


class StudyType(Enum):
    DEVELOPMENT = "development"
    INTERNAL_VALIDATION = "internal_validation"
    EXTERNAL_VALIDATION = "external_validation"
    USABILITY = "usability"
    POTENTIAL_EFFECT = "potential_effect"
    POST_IMPLEMENTATION_IMPACT = "post_implementation_impact"


class ImpactSubtype(Enum):
    """Design of a post-implementation impact study; fixes its A-level."""

    EXPERIMENTAL = "experimental"
    OBSERVATIONAL = "observational"
    SUBJECTIVE = "subjective"


class OutcomeLabel(Enum):
    """One-word outcome tags a study may carry."""

    EFFECTIVENESS = "effectiveness"
    EFFICIENCY = "efficiency"
    SAFETY = "safety"
    WORKFLOW = "workflow"
    PROCESSES = "processes"

    @property
    def display(self) -> str:
        return self.value.capitalize()


#: Fixed tie-break order for the tool label word.
LABEL_TIE_ORDER = (
    OutcomeLabel.EFFECTIVENESS,
    OutcomeLabel.SAFETY,
    OutcomeLabel.EFFICIENCY,
    OutcomeLabel.WORKFLOW,
    OutcomeLabel.PROCESSES,
)


#: Study conditions compared against the tool's original specification.
MATCHING_FIELD_KEYS = (
    "predictive_task",
    "target_outcome",
    "intended_user",
    "clinical_area",
    "settings",
    "target_population",
    "age_group",
)

#: Binary quality indicators of a study.
QUALITY_FIELD_KEYS = (
    "sample_size_adequate",
    "data_collection_prospective",
    "methods_adequate",
    "institute_credible",
    "multi_site",
)

#: One ladder row: the level's descriptor, its phase-C evidence label, the
#: study types that may declare it, and the impact subtype that pins it.
_Rung = namedtuple("_Rung", "descriptor evidence_label study_types impact_subtype",
                   defaults=("", (), None))

#: The GRASP ladder, one row per level. Development records may also omit the
#: level entirely, which makes them metadata-only (not graded).
_LADDER: Mapping[GradeLevel, _Rung] = {
    GradeLevel.C0: _Rung("Insufficient internal validity"),
    GradeLevel.C3: _Rung("Internal validation only", "Low Evidence",
                         (StudyType.INTERNAL_VALIDATION, StudyType.DEVELOPMENT)),
    GradeLevel.C2: _Rung("External validation once", "Medium Evidence",
                         (StudyType.EXTERNAL_VALIDATION,)),
    GradeLevel.C1: _Rung("External validation multiple times", "High Evidence",
                         (StudyType.EXTERNAL_VALIDATION,)),
    GradeLevel.B3: _Rung("Usability testing reported", "", (StudyType.USABILITY,)),
    GradeLevel.B2: _Rung("Potential effect reported", "", (StudyType.POTENTIAL_EFFECT,)),
    GradeLevel.B1: _Rung("Potential effect and usability both reported"),
    GradeLevel.A3: _Rung("Impact evaluated in subjective studies", "",
                         (StudyType.POST_IMPLEMENTATION_IMPACT,), ImpactSubtype.SUBJECTIVE),
    GradeLevel.A2: _Rung("Impact evaluated in observational studies", "",
                         (StudyType.POST_IMPLEMENTATION_IMPACT,), ImpactSubtype.OBSERVATIONAL),
    GradeLevel.A1: _Rung("Impact evaluated in experimental studies", "",
                         (StudyType.POST_IMPLEMENTATION_IMPACT,), ImpactSubtype.EXPERIMENTAL),
}

#: Levels a study of each type may declare (empty for a type no row names).
LEVELS_BY_STUDY_TYPE: Mapping[StudyType, frozenset[GradeLevel]] = {
    study_type: frozenset(level for level, row in _LADDER.items() if study_type in row.study_types)
    for study_type in StudyType
}

#: A-levels pinned to the impact study design.
LEVEL_BY_IMPACT_SUBTYPE: Mapping[ImpactSubtype, GradeLevel] = {
    row.impact_subtype: level for level, row in _LADDER.items() if row.impact_subtype
}


def external_validation_level(count: int) -> GradeLevel:
    """The level of a tool's external validations, fixed by how many distinct
    ones it has: two or more are C1 (validated multiple times), one is C2."""
    return GradeLevel.C1 if count >= 2 else GradeLevel.C2


@dataclass(frozen=True)
class ToolProfile:
    """Identity, clinical specification, and bibliometrics of one predictive tool."""

    id: str
    name: str
    author: str
    country: str
    year: int
    category: ToolCategory
    intended_use: str
    intended_user: str
    clinical_area: str
    target_population: str
    target_outcome: str
    action: str
    input_source: frozenset[InputSource]
    input_type: frozenset[InputType]
    local_context: bool
    methodology: str
    internal_validation_method: str
    automation: Automation
    tool_citations: int
    studies_count: int
    authors_count: int
    sample_size: int
    journal_name: str
    journal_rank: float
    dedicated_support: Optional[str] = None
    endorsement: Optional[str] = None


class ToolIndices(NamedTuple):
    """Bibliometric indices of a tool at a reference year."""

    citation_index: float
    publication_index: float
    literature_index: int


@dataclass(frozen=True)
class StudyRecord:
    """One published study about a tool, encoded as an evidence-summary row.

    ``level`` is the grade rung the study evidences. It is mandatory except
    for development studies that report no validity measures; those are
    metadata-only and never graded. ``matching_fields``/``quality_fields``
    hold only the flags the report actually stated; absent keys are unknown.
    """

    id: str
    tool_id: str
    citation: str
    country: str
    year: int
    phase: Phase
    study_type: StudyType
    comparative: bool
    direction: StudyDirection
    level: Optional[GradeLevel] = None
    matching_fields: Mapping[str, bool] = field(default_factory=dict)
    quality_fields: Mapping[str, bool] = field(default_factory=dict)
    matching_override: Optional[MatchingVerdict] = None
    quality_override: Optional[QualityVerdict] = None
    impact_subtype: Optional[ImpactSubtype] = None
    labels: frozenset[OutcomeLabel] = frozenset()
    sample_size: Optional[int] = None
    notes: Optional[str] = None

    @property
    def is_gradable(self) -> bool:
        return self.level is not None


#: Widening steps of the mixed-evidence cascade, tried in order: each step
#: compares the tallies of the first ``width`` evidence classes.
ADJUDICATION_STEPS = (("class A", 1), ("classes A+B", 2), ("all classes", 3))


class Adjudication(NamedTuple):
    """How the mixed-evidence cascade decided one bucket.

    ``tallies`` holds the (positive, negative-or-equivocal) study counts of
    classes A, B and C; the deciding ``step`` is read off them.
    """

    tallies: tuple[tuple[int, int], ...]

    def counts(self, step: int) -> tuple[int, int]:
        """(positive, negative-or-equivocal) over the classes one step compares."""
        compared = self.tallies[: ADJUDICATION_STEPS[step][1]]
        return sum(pos for pos, _ in compared), sum(neg for _, neg in compared)

    @property
    def step(self) -> Optional[int]:
        """Index of the first ADJUDICATION_STEPS entry with a strict majority;
        None for a tie at every step, which is exactly when the tie fallback fires."""
        for step in range(len(ADJUDICATION_STEPS)):
            pos, neg = self.counts(step)
            if pos != neg:
                return step
        return None


class EvidenceBucket(NamedTuple):
    """All studies of one tool at one grade level, with an aggregated direction.

    External-validation records are re-levelled by multiplicity before
    bucketing (two or more distinct studies form the C1 bucket, exactly one
    the C2 bucket). The derived B1 bucket owns no raw studies; it references
    the B2 and B3 buckets it was built from via ``sources``. A mixed bucket
    carries the cascade's ``adjudication`` and the ``appraisals`` it read, one
    per study in study order; a unanimous one carries None and ``()``.
    """

    level: GradeLevel
    studies: tuple[StudyRecord, ...]
    direction: BucketDirection
    sources: tuple["EvidenceBucket", ...] = ()
    adjudication: Optional[Adjudication] = None
    appraisals: tuple[StudyAppraisal, ...] = ()

    @property
    def qualifies(self) -> bool:
        return self.direction.qualifies

    @property
    def needs_review(self) -> bool:
        """Whether the cascade tied at every step and the conservative fallback decided."""
        return self.adjudication is not None and self.adjudication.step is None

    @property
    def adjudication_trace(self) -> tuple[str, ...]:
        """How the direction was reached, one line per step, rendered from the record."""
        if self.sources:
            return (
                "derived from "
                + " and ".join(f"{s.level.value} ({s.direction.value})" for s in self.sources),
            )
        record = self.adjudication
        if record is None:
            positive = self.direction is BucketDirection.POSITIVE
            side = "positive" if positive else "negative or equivocal"
            return (f"all {len(self.studies)} studies {side}",)
        lines = [
            "mixed evidence: "
            + ", ".join(
                f"class {cls.value}: {pos} positive / {neg} negative-or-equivocal"
                for cls, (pos, neg) in zip(EvidenceClass, record.tallies)
            )
        ]
        for step, (label, _) in enumerate(ADJUDICATION_STEPS):
            pos, neg = record.counts(step)
            if step == record.step:
                lines.append(f"{label}: majority decides {self.direction.value} ({pos} vs {neg})")
                return tuple(lines)
            lines.append(f"{label}: tied or empty ({pos} vs {neg}); widening")
        lines.append("full tie: conservative fallback to mixed_negative, flagged for review")
        return tuple(lines)


class GradeResult(NamedTuple):
    """Outcome of grading one tool: its buckets, highest level first, and the
    appraisal policy that built them.

    Every other view of the grade is read off the buckets. The supporting
    bucket is the first whose direction qualifies and sets the final grade
    and direction. When none qualifies it is None, the grade is C0 and the
    direction is that of the highest-ranked bucket.
    """

    tool_id: str
    all_buckets: tuple[EvidenceBucket, ...]
    policy: AppraisalPolicy

    @property
    def supporting_bucket(self) -> Optional[EvidenceBucket]:
        return next((bucket for bucket in self.all_buckets if bucket.qualifies), None)

    @property
    def final_grade(self) -> GradeLevel:
        supporting = self.supporting_bucket
        return GradeLevel.C0 if supporting is None else supporting.level

    @property
    def direction(self) -> BucketDirection:
        return (self.supporting_bucket or self.all_buckets[0]).direction

    @property
    def needs_review(self) -> bool:
        return any(bucket.needs_review for bucket in self.all_buckets)

    @property
    def tool_label(self) -> Optional[str]:
        """One-word label of the most prominent positive finding, e.g. "Grade A2 - Efficiency".

        The word is the most frequent outcome tag among positive studies of the
        supporting bucket (for B1, of its source buckets); frequency ties break
        by LABEL_TIE_ORDER. C0 results and unlabelled buckets yield no label.
        """
        bucket = self.supporting_bucket
        if bucket is None:
            return None
        studies = bucket.studies or tuple(s for source in bucket.sources for s in source.studies)
        counts = Counter(
            label
            for record in studies
            if record.direction is StudyDirection.POSITIVE
            for label in record.labels
        )
        if not counts:
            return None
        word = max(counts, key=lambda lab: (counts[lab], -LABEL_TIE_ORDER.index(lab)))
        return f"Grade {bucket.level.value} - {word.display}"

    @property
    def justification(self) -> str:
        """The supporting bucket, every higher bucket that failed to qualify, and the policy."""
        supporting = self.supporting_bucket
        rank = _RANK[self.final_grade]
        failed = ", ".join(
            f"{b.level.value} {b.direction.value}" for b in self.all_buckets if _RANK[b.level] > rank
        )
        if supporting is None:
            parts = [
                "final grade C0: no level holds positive or mixed-positive evidence",
                f"not qualifying: {failed}",
            ]
        else:
            level = supporting.level
            parts = [
                f"final grade {level.value}: {supporting.direction.value} evidence at"
                f" {level.value} ({level.descriptor.lower()})"
            ]
            if failed:
                parts.append(f"higher levels not qualifying: {failed}")
        parts.append(f"policy[{self.policy.fingerprint()}]")
        return "; ".join(parts)


class RaterComparison(NamedTuple):
    """Agreement statistics of two raters' paired grades."""

    rho: float
    p_value: float
    exact_agreement: int
