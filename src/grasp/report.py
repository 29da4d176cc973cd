"""Rendering of the detailed tool report and the per-study evidence summary.

Two markdown layouts are supported: the current detailed report (with the
bibliometric rows, the three-level B phase, and the tool label) and the
legacy layout that predates them. A structured format mirrors the corpus
JSON conventions for machine consumption. Rendering is pure: identical
inputs give byte-identical documents, with any timestamp injected by the
caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence, Union

from .corpus import study_to_obj, tool_to_obj
from .engine import StudyAppraisal, ToolIndices
from .errors import FormatUnsupported, UnresolvedStrength
from .model import (
    MATCHING_FIELD_KEYS,
    QUALITY_FIELD_KEYS,
    BucketDirection,
    EvidenceBucket,
    GradeLevel,
    GradeResult,
    InputSource,
    InputType,
    MatchingVerdict,
    OutcomeLabel,
    QualityVerdict,
    StrengthVerdict,
    StudyDirection,
    StudyRecord,
    StudyType,
    ToolProfile,
)


class ReportFormat(Enum):
    MARKDOWN_TABLE4 = "markdown_table4"
    MARKDOWN_TABLE3_LEGACY = "markdown_table3_legacy"
    STRUCTURED = "structured"


#: Legend vocabulary for aggregated evidence directions.
DIRECTION_LEGEND = {
    BucketDirection.POSITIVE: "Positive Evidence",
    BucketDirection.NEGATIVE: "Negative Evidence",
    BucketDirection.MIXED_POSITIVE: "Mixed Evidence Supporting Positive Conclusion",
    BucketDirection.MIXED_NEGATIVE: "Mixed Evidence Supporting Negative Conclusion",
}

#: Evidence-summary vocabulary.
STUDY_DIRECTION_TOKENS = {
    StudyDirection.POSITIVE: "Positive",
    StudyDirection.EQUIVOCAL: "Equivocal",
    StudyDirection.NEGATIVE: "Negative",
}
MATCHING_TOKENS = {
    MatchingVerdict.MATCHING: "Matching",
    MatchingVerdict.NON_MATCHING: "Non-Matching",
}
QUALITY_TOKENS = {
    QualityVerdict.HIGH: "High Quality",
    QualityVerdict.LOW: "Low Quality",
}
STRENGTH_TOKENS = {
    StrengthVerdict.STRONG: "Strong Evidence",
    StrengthVerdict.MEDIUM: "Medium Evidence",
    StrengthVerdict.WEAK: "Weak Evidence",
}
STUDY_TYPE_TOKENS = {
    StudyType.DEVELOPMENT: "Development",
    StudyType.INTERNAL_VALIDATION: "Internal Validation",
    StudyType.EXTERNAL_VALIDATION: "External Validation",
    StudyType.USABILITY: "Usability",
    StudyType.POTENTIAL_EFFECT: "Potential Effect",
    StudyType.POST_IMPLEMENTATION_IMPACT: "Post-Implementation Impact",
}

#: Plain-text findings tags standing in for the printed colour code.
FINDINGS_CODES = "[POSITIVE] / [NEGATIVE] / [IMPORTANT]"

ABSENT = "—"

#: Ladder order of the detailed report: phase C block, then B, then A.
LADDER_ORDER = (
    GradeLevel.C0,
    GradeLevel.C3,
    GradeLevel.C2,
    GradeLevel.C1,
    GradeLevel.B3,
    GradeLevel.B2,
    GradeLevel.B1,
    GradeLevel.A3,
    GradeLevel.A2,
    GradeLevel.A1,
)

#: Metadata rows of the detailed report, in layout order.
DETAIL_FIELD_ROWS = (
    "Name",
    "Author",
    "Country",
    "Year",
    "Category",
    "Intended Use",
    "Intended User",
    "Clinical Area",
    "Target Population",
    "Target Outcome",
    "Action",
    "Input Source",
    "Input Type",
    "Local Context",
    "Methodology",
    "Internal Validation",
    "Dedicated Support",
    "Endorsement",
    "Automation Flag",
    "Tool Citations",
    "Studies",
    "Authors No",
    "Sample Size",
    "Journal Name",
    "Journal Rank",
    "Citation Index",
    "Publication Index",
    "Literature Index",
)

#: Trailing rows of the detailed report, after the grade ladder.
DETAIL_RESULT_ROWS = (
    "Final Grade",
    "Tool Label",
    "Direction of Evidence",
    "Justification",
    "Evidence Summary",
    "Findings Codes",
)

# Legacy layout: no bibliometrics, merged author/year row, old B levels.
LEGACY_FIELD_ROWS = (
    "Name",
    "Authors/Year",
    "Intended Use",
    "Intended User",
    "Category",
    "Clinical Area",
    "Target Population",
    "Target Outcome",
    "Action",
    "Input Source",
    "Input Type",
    "Local Context",
    "Methodology",
    "Endorsement",
    "Automation Flag",
)

LEGACY_LADDER_ORDER = (
    GradeLevel.C0,
    GradeLevel.C3,
    GradeLevel.C2,
    GradeLevel.C1,
    GradeLevel.B2,
    GradeLevel.B1,
    GradeLevel.A3,
    GradeLevel.A2,
    GradeLevel.A1,
)

# The legacy ladder has usability at B1 and no joint level; modern B-levels
# map onto the legacy tokens for rendering only. Order fixes which modern
# bucket backs the legacy B1 row when several exist.
_LEGACY_TOKEN = {
    GradeLevel.B1: GradeLevel.B1,
    GradeLevel.B3: GradeLevel.B1,
}

_LEGACY_DESCRIPTOR = {
    GradeLevel.B1: "Usability testing reported",
    GradeLevel.B2: "Potential effect reported",
}


@dataclass(frozen=True)
class RenderedReport:
    """A rendered document plus the provenance needed to reproduce it."""

    tool_id: str
    format: ReportFormat
    body: Union[str, dict]
    engine_policy: str
    generated_at: Optional[str] = None


def _yesno(flag: bool) -> str:
    return "Yes" if flag else "No"


def _escape_cell(value: str) -> str:
    # Free-text fields must not break the table grid.
    return value.replace("|", "\\|").replace("\n", " ")


def _opt(value: Optional[object]) -> str:
    return ABSENT if value in (None, "") else str(value)


def _enum_list(values, enum_cls) -> str:
    order = list(enum_cls)
    names = [member.name.replace("_", "-").title() for member in sorted(values, key=order.index)]
    return ", ".join(names) if names else ABSENT


def _row(label: str, value: str) -> str:
    return f"| {label} | {_escape_cell(value)} |"


def _bucket_for(result: GradeResult, level: GradeLevel) -> Optional[EvidenceBucket]:
    for bucket in result.all_buckets:
        if bucket.level is level:
            return bucket
    return None


def _metadata_rows(tool: ToolProfile, indices: ToolIndices) -> list[str]:
    values = (
        tool.name,
        tool.author,
        tool.country,
        str(tool.year),
        tool.category.value.capitalize(),
        tool.intended_use,
        tool.intended_user,
        tool.clinical_area,
        tool.target_population,
        tool.target_outcome,
        tool.action,
        _enum_list(tool.input_source, InputSource),
        _enum_list(tool.input_type, InputType),
        _yesno(tool.local_context),
        tool.methodology,
        tool.internal_validation_method,
        _opt(tool.dedicated_support),
        _opt(tool.endorsement),
        tool.automation.value.capitalize(),
        str(tool.tool_citations),
        str(tool.studies_count),
        str(tool.authors_count),
        str(tool.sample_size),
        tool.journal_name,
        f"{tool.journal_rank:.2f}",
        f"{indices.citation_index:.2f}",
        f"{indices.publication_index:.2f}",
        str(indices.literature_index),
    )
    return [_row(label, value) for label, value in zip(DETAIL_FIELD_ROWS, values)]


def _ladder_rows(
    result: GradeResult, order: Sequence[GradeLevel], legacy: bool
) -> list[str]:
    rows = [
        "| Phase of Evaluation | Level of Evidence | Grade | Evidence |",
        "| --- | --- | --- | --- |",
    ]
    for level in order:
        bucket = _bucket_for(result, level)
        if legacy and bucket is None and level in _LEGACY_TOKEN.values():
            # Modern usability/joint buckets land on the legacy B1 row.
            for modern, legacy_level in _LEGACY_TOKEN.items():
                if legacy_level is level:
                    bucket = bucket or _bucket_for(result, modern)
        evidence = DIRECTION_LEGEND[bucket.direction] if bucket else ABSENT
        final_here = (
            result.final_grade is level
            or (legacy and _LEGACY_TOKEN.get(result.final_grade) is level)
        )
        if final_here:
            evidence += " <== final grade"
        descriptor = (
            _LEGACY_DESCRIPTOR.get(level, level.descriptor) if legacy else level.descriptor
        )
        if not legacy and level.evidence_label:
            descriptor += f" ({level.evidence_label})"
        rows.append(_row_cells(level.phase.display, descriptor, level.value, evidence))
    return rows


def _row_cells(*cells: str) -> str:
    return "| " + " | ".join(_escape_cell(cell) for cell in cells) + " |"


def _result_rows(result: GradeResult, n_studies: int, legacy: bool) -> list[str]:
    final = result.final_grade
    if legacy:
        final = _LEGACY_TOKEN.get(final, final)
    rows = [
        _row("Final Grade", f"**{final.value}**"),
    ]
    if not legacy:
        rows.append(_row("Tool Label", _opt(result.tool_label)))
    rows.append(_row("Direction of Evidence", DIRECTION_LEGEND[result.direction]))
    rows.append(_row("Justification", result.justification))
    if legacy:
        rows.append(_row("References", f"{n_studies} evaluation studies on record"))
        rows.append(_row("Label/Colour Code", FINDINGS_CODES))
    else:
        rows.append(_row("Evidence Summary", f"{n_studies} evaluation studies on record"))
        rows.append(_row("Findings Codes", FINDINGS_CODES))
    return rows


def _stamp_lines(generated_at: Optional[str], policy: str) -> list[str]:
    lines = [f"Policy: {policy}"]
    if generated_at:
        lines.append(f"Generated: {generated_at}")
    return lines


def _markdown_detailed(
    tool: ToolProfile,
    result: GradeResult,
    indices: ToolIndices,
    legacy: bool,
    generated_at: Optional[str],
) -> str:
    title = "GRASP Detailed Report" if not legacy else "GRASP Detailed Report (legacy layout)"
    lines = [f"# {title}: {tool.name}", ""]
    lines += _stamp_lines(generated_at, result.policy)
    lines += ["", "| Field | Value |", "| --- | --- |"]
    if legacy:
        values = (
            tool.name,
            f"{tool.author}, {tool.country}, {tool.year}",
            tool.intended_use,
            tool.intended_user,
            tool.category.value.capitalize(),
            tool.clinical_area,
            tool.target_population,
            tool.target_outcome,
            tool.action,
            _enum_list(tool.input_source, InputSource),
            _enum_list(tool.input_type, InputType),
            _yesno(tool.local_context),
            tool.methodology,
            _opt(tool.endorsement),
            tool.automation.value.capitalize(),
        )
        lines += [_row(label, value) for label, value in zip(LEGACY_FIELD_ROWS, values)]
    else:
        lines += _metadata_rows(tool, indices)
    lines.append("")
    lines += _ladder_rows(result, LEGACY_LADDER_ORDER if legacy else LADDER_ORDER, legacy)
    lines.append("")
    n_studies = sum(len(b.studies) for b in result.all_buckets)
    lines += ["| Field | Value |", "| --- | --- |"]
    lines += _result_rows(result, n_studies, legacy)
    return "\n".join(lines) + "\n"


def grade_to_obj(result: GradeResult) -> dict:
    """The grade outcome as a JSON-ready mapping, shared by every structured output."""
    return {
        "tool_id": result.tool_id,
        "final_grade": result.final_grade.value,
        "direction": result.direction.value,
        "tool_label": result.tool_label,
        "needs_review": result.needs_review,
        "justification": result.justification,
    }


def _structured_detailed(
    tool: ToolProfile,
    result: GradeResult,
    indices: ToolIndices,
    generated_at: Optional[str],
) -> dict:
    return {
        "tool": tool_to_obj(tool),
        "result": {
            **grade_to_obj(result),
            "buckets": [
                {
                    "level": bucket.level.value,
                    "direction": bucket.direction.value,
                    "needs_review": bucket.needs_review,
                    "study_ids": [s.id for s in bucket.studies],
                    "trace": list(bucket.adjudication_trace),
                }
                for bucket in result.all_buckets
            ],
        },
        "indices": {
            "citation_index": indices.citation_index,
            "publication_index": indices.publication_index,
            "literature_index": indices.literature_index,
        },
        "policy": result.policy,
        "generated_at": generated_at,
    }


def render_detailed_report(
    tool: ToolProfile,
    result: GradeResult,
    indices: ToolIndices,
    format: ReportFormat = ReportFormat.MARKDOWN_TABLE4,
    *,
    generated_at: Optional[str] = None,
) -> RenderedReport:
    """Render the per-tool detailed report.

    Absent optional fields render as an em dash placeholder; the grade
    ladder marks the supporting level; numeric indices render with two
    decimals (the literature index is an exact integer).
    """
    if format is ReportFormat.STRUCTURED:
        body: Union[str, dict] = _structured_detailed(tool, result, indices, generated_at)
    elif format is ReportFormat.MARKDOWN_TABLE4:
        body = _markdown_detailed(tool, result, indices, False, generated_at)
    elif format is ReportFormat.MARKDOWN_TABLE3_LEGACY:
        body = _markdown_detailed(tool, result, indices, True, generated_at)
    else:  # pragma: no cover - enum is closed
        raise FormatUnsupported(f"unsupported report format: {format!r}")
    return RenderedReport(
        tool_id=tool.id,
        format=format,
        body=body,
        engine_policy=result.policy,
        generated_at=generated_at,
    )


#: Evidence-summary columns, one row per study.
SUMMARY_COLUMNS = (
    "Study",
    "Country",
    "Year",
    "Phase",
    "Type",
    "Tools",
    "Sample Size",
    *(key.replace("_", " ").title() for key in MATCHING_FIELD_KEYS),
    *(key.replace("_", " ").title() for key in QUALITY_FIELD_KEYS),
    "Direction of Evidence",
    "Matching of Evidence",
    "Quality of Evidence",
    "Strength of Evidence",
    "Label",
    "Notes",
)


def _flag(record: Mapping[str, bool], key: str) -> str:
    if key not in record:
        return ABSENT
    return _yesno(record[key])


def _summary_cells(record: StudyRecord, appraisal: StudyAppraisal) -> list[str]:
    labels = ", ".join(
        label.display for label in sorted(record.labels, key=list(OutcomeLabel).index)
    )
    return [
        record.citation,
        record.country,
        str(record.year),
        record.phase.display,
        STUDY_TYPE_TOKENS[record.study_type],
        "Comparative Study" if record.comparative else "Single Tool",
        _opt(record.sample_size),
        *(_flag(record.matching_fields, key) for key in MATCHING_FIELD_KEYS),
        *(_flag(record.quality_fields, key) for key in QUALITY_FIELD_KEYS),
        STUDY_DIRECTION_TOKENS[record.direction],
        MATCHING_TOKENS[appraisal.matching],
        QUALITY_TOKENS[appraisal.quality],
        STRENGTH_TOKENS[appraisal.strength],
        labels or ABSENT,
        _opt(record.notes),
    ]


def render_evidence_summary(
    records: Sequence[StudyRecord],
    appraisals: Mapping[str, StudyAppraisal],
    format: ReportFormat = ReportFormat.MARKDOWN_TABLE4,
    *,
    generated_at: Optional[str] = None,
    engine_policy: str = "",
) -> RenderedReport:
    """Render the per-study evidence summary, one row per record.

    ``appraisals`` maps study id to its resolved verdicts; a record without
    one is an error. Rows are ordered by publication year, then id.
    """
    missing = [r.id for r in records if r.id not in appraisals]
    if missing:
        raise UnresolvedStrength(f"no resolved strength for studies: {', '.join(sorted(missing))}")
    ordered = sorted(records, key=lambda r: (r.year, r.id))
    tool_id = records[0].tool_id if records else ""

    if format is ReportFormat.STRUCTURED:
        body: Union[str, dict] = {
            "studies": [
                {
                    **study_to_obj(record),
                    "matching": appraisals[record.id].matching.value,
                    "quality": appraisals[record.id].quality.value,
                    "strength": appraisals[record.id].strength.value,
                    "evidence_class": appraisals[record.id].evidence_class.value,
                }
                for record in ordered
            ],
            "generated_at": generated_at,
        }
    elif format in (ReportFormat.MARKDOWN_TABLE4, ReportFormat.MARKDOWN_TABLE3_LEGACY):
        lines = ["# Evidence Summary", ""]
        if generated_at:
            lines.append(f"Generated: {generated_at}")
            lines.append("")
        lines.append(_row_cells(*SUMMARY_COLUMNS))
        lines.append(_row_cells(*(["---"] * len(SUMMARY_COLUMNS))))
        for record in ordered:
            lines.append(_row_cells(*_summary_cells(record, appraisals[record.id])))
        body = "\n".join(lines) + "\n"
    else:  # pragma: no cover - enum is closed
        raise FormatUnsupported(f"unsupported report format: {format!r}")

    return RenderedReport(
        tool_id=tool_id,
        format=format,
        body=body,
        engine_policy=engine_policy,
        generated_at=generated_at,
    )
