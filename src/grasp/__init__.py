"""Evidence grading for clinical predictive tools.

Implements the GRASP framework: tools are graded from the published
evidence about them along three dimensions (phase of evaluation, level of
evidence, direction of evidence), with a deterministic adjudication cascade
for mixed evidence, detailed report rendering, and ordinal interrater
statistics.
"""

from .corpus import (
    Corpus,
    emit_corpus,
    load_corpus,
    parse_corpus,
    parse_rater_sheet,
    parse_survey_sheet,
)
from .engine import (
    AppraisalPolicy,
    MatchingRule,
    QualityRule,
    StudyAppraisal,
    TieFallback,
    ToolIndices,
    aggregate_bucket,
    appraise_study,
    assign_grade,
    compute_indices,
    derive_b1,
    mixed_protocol,
    resolve_matching,
    resolve_quality,
)
from .errors import GraspError
from .model import (
    Adjudication,
    BucketDirection,
    EvidenceBucket,
    EvidenceClass,
    GradeLevel,
    GradeResult,
    MatchingVerdict,
    Phase,
    QualityVerdict,
    RaterComparison,
    StrengthVerdict,
    StudyDirection,
    StudyRecord,
    StudyType,
    ToolProfile,
    ordinal_rank,
)
from .report import (
    ReportFormat,
    render_detailed_report,
    render_evidence_summary,
)
from .stats import (
    AgreementLabel,
    LikertSummary,
    agreement_label,
    compare_raters,
    likert_mean,
    overall_summary,
    permutation_p,
    spearman_rho,
    summarize_survey,
)

__version__ = "1.0.0"

__all__ = [
    "Adjudication",
    "AgreementLabel",
    "AppraisalPolicy",
    "BucketDirection",
    "Corpus",
    "EvidenceBucket",
    "EvidenceClass",
    "GradeLevel",
    "GradeResult",
    "GraspError",
    "LikertSummary",
    "MatchingRule",
    "MatchingVerdict",
    "Phase",
    "QualityRule",
    "QualityVerdict",
    "RaterComparison",
    "ReportFormat",
    "StrengthVerdict",
    "StudyAppraisal",
    "StudyDirection",
    "StudyRecord",
    "StudyType",
    "TieFallback",
    "ToolIndices",
    "ToolProfile",
    "aggregate_bucket",
    "agreement_label",
    "appraise_study",
    "assign_grade",
    "compare_raters",
    "compute_indices",
    "derive_b1",
    "emit_corpus",
    "likert_mean",
    "load_corpus",
    "mixed_protocol",
    "ordinal_rank",
    "overall_summary",
    "parse_corpus",
    "parse_rater_sheet",
    "parse_survey_sheet",
    "permutation_p",
    "render_detailed_report",
    "render_evidence_summary",
    "resolve_matching",
    "resolve_quality",
    "spearman_rho",
    "summarize_survey",
]
