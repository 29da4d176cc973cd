"""Evidence grading for clinical predictive tools.

Implements the GRASP framework: tools are graded from the published
evidence about them along three dimensions (phase of evaluation, level of
evidence, direction of evidence), with a deterministic adjudication cascade
for mixed evidence, detailed report rendering, and ordinal interrater
statistics.

``import grasp`` imports no submodule: each public name imports the module
that defines it on first access (PEP 562).
"""

import importlib

__version__ = "1.0.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "corpus": ("Corpus", "emit_corpus", "load_corpus", "parse_corpus", "parse_rater_sheet",
               "parse_survey_sheet"),
    "engine": ("aggregate_bucket", "appraise_study", "assign_grade", "compute_indices", "derive_b1",
               "mixed_protocol", "resolve_matching", "resolve_quality"),
    "errors": ("GraspError",),
    "model": ("Adjudication", "AppraisalPolicy", "BucketDirection", "EvidenceBucket",
              "EvidenceClass", "GradeLevel", "GradeResult", "MatchingRule", "MatchingVerdict",
              "Phase", "QualityRule", "QualityVerdict", "RaterComparison", "StrengthVerdict",
              "StudyAppraisal", "StudyDirection", "StudyRecord", "StudyType", "TieFallback",
              "ToolIndices", "ToolProfile", "ordinal_rank"),
    "report": ("ReportFormat", "render_detailed_report", "render_evidence_summary"),
    "stats": ("AgreementLabel", "LikertSummary", "agreement_label", "compare_raters",
              "likert_mean", "overall_summary", "permutation_p", "spearman_rho",
              "summarize_survey"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
