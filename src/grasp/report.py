"""Rendering of the detailed tool report and the per-study evidence summary.

Two markdown layouts are supported: the current detailed report (with the
bibliometric rows, the three-level B phase, and the tool label) and the
legacy layout that predates them. A structured format mirrors the corpus
JSON conventions for machine consumption. Rendering is pure: identical
inputs give byte-identical documents, with any timestamp injected by the
caller.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Optional, Sequence, Union

from .corpus import study_to_obj, tool_to_obj
from .errors import FormatUnsupported
from .model import (
    MATCHING_FIELD_KEYS,
    QUALITY_FIELD_KEYS,
    BucketDirection,
    GradeLevel,
    GradeResult,
    InputSource,
    InputType,
    MatchingVerdict,
    OutcomeLabel,
    QualityVerdict,
    StrengthVerdict,
    StudyAppraisal,
    StudyDirection,
    StudyRecord,
    StudyType,
    ToolIndices,
    ToolProfile,
)


class ReportFormat(Enum):
    MARKDOWN_TABLE4 = "table4"
    MARKDOWN_TABLE3_LEGACY = "table3"
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


def _yesno(flag: bool) -> str:
    return "Yes" if flag else "No"


#: Every character ``str.splitlines`` breaks on (none is printable), folded into one space.
_LINE_BREAKS = str.maketrans(dict.fromkeys("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", " "))


def _one_line(value: str) -> str:
    return value if value.isprintable() else value.translate(_LINE_BREAKS)


def _opt(value: Optional[object]) -> str:
    return ABSENT if value in (None, "") else str(value)


def _enum_list(values, enum_cls) -> str:
    order = list(enum_cls)
    names = [member.name.replace("_", "-").title() for member in sorted(values, key=order.index)]
    return ", ".join(names) if names else ABSENT


def _cell(text: str) -> str:
    """A table cell: its left border, then its text. Free text must not break the grid."""
    return "| " + _one_line(text.replace("|", "\\|")) + " "


def _row_cells(*cells: str) -> str:
    return "".join(map(_cell, cells)) + "|"


def _studies_on_record(result: GradeResult) -> str:
    return f"{sum(len(b.studies) for b in result.all_buckets)} evaluation studies on record"


#: Metadata rows of the detailed report, in layout order: (label, cell(tool, indices)).
DETAIL_FIELDS = (
    ("Name", lambda tool, _: tool.name),
    ("Author", lambda tool, _: tool.author),
    ("Country", lambda tool, _: tool.country),
    ("Year", lambda tool, _: str(tool.year)),
    ("Category", lambda tool, _: tool.category.value.capitalize()),
    ("Intended Use", lambda tool, _: tool.intended_use),
    ("Intended User", lambda tool, _: tool.intended_user),
    ("Clinical Area", lambda tool, _: tool.clinical_area),
    ("Target Population", lambda tool, _: tool.target_population),
    ("Target Outcome", lambda tool, _: tool.target_outcome),
    ("Action", lambda tool, _: tool.action),
    ("Input Source", lambda tool, _: _enum_list(tool.input_source, InputSource)),
    ("Input Type", lambda tool, _: _enum_list(tool.input_type, InputType)),
    ("Local Context", lambda tool, _: _yesno(tool.local_context)),
    ("Methodology", lambda tool, _: tool.methodology),
    ("Internal Validation", lambda tool, _: tool.internal_validation_method),
    ("Dedicated Support", lambda tool, _: _opt(tool.dedicated_support)),
    ("Endorsement", lambda tool, _: _opt(tool.endorsement)),
    ("Automation Flag", lambda tool, _: tool.automation.value.capitalize()),
    ("Tool Citations", lambda tool, _: str(tool.tool_citations)),
    ("Studies", lambda tool, _: str(tool.studies_count)),
    ("Authors No", lambda tool, _: str(tool.authors_count)),
    ("Sample Size", lambda tool, _: str(tool.sample_size)),
    ("Journal Name", lambda tool, _: tool.journal_name),
    ("Journal Rank", lambda tool, _: f"{tool.journal_rank:.2f}"),
    ("Citation Index", lambda _, indices: f"{indices.citation_index:.2f}"),
    ("Publication Index", lambda _, indices: f"{indices.publication_index:.2f}"),
    ("Literature Index", lambda _, indices: str(indices.literature_index)),
)

#: Grade ladder of the detailed report, phase C block first, then B, then A:
#: (levels backing the row, (phase, level of evidence, grade) cells).
DETAIL_LADDER = tuple(
    (
        (level,),
        (
            level.phase.display,
            f"{level.descriptor} ({level.evidence_label})" if level.evidence_label
            else level.descriptor,
            level.value,
        ),
    )
    for level in GradeLevel
)

#: Trailing rows of the detailed report, after the grade ladder: (label, cell(result)).
DETAIL_RESULTS = (
    ("Final Grade", lambda result: f"**{result.final_grade.value}**"),
    ("Tool Label", lambda result: _opt(result.tool_label)),
    ("Direction of Evidence", lambda result: DIRECTION_LEGEND[result.direction]),
    ("Justification", lambda result: result.justification),
    ("Evidence Summary", _studies_on_record),
    ("Findings Codes", lambda result: FINDINGS_CODES),
)

# Legacy layout: no bibliometrics, merged author/year row, old B levels.
_DETAIL_CELLS = dict(DETAIL_FIELDS)
LEGACY_FIELDS = (
    ("Name", _DETAIL_CELLS["Name"]),
    ("Authors/Year", lambda tool, _: f"{tool.author}, {tool.country}, {tool.year}"),
    *((label, _DETAIL_CELLS[label]) for label in (
        "Intended Use", "Intended User", "Category", "Clinical Area", "Target Population",
        "Target Outcome", "Action", "Input Source", "Input Type", "Local Context",
        "Methodology", "Endorsement", "Automation Flag",
    )),
)

# The legacy ladder has usability at B1 and no joint level: its B1 row carries
# the usability descriptor and shows the B1 bucket, else the B3 one.
LEGACY_LADDER = tuple(
    (levels, (levels[0].phase.display, levels[-1].descriptor, levels[0].value))
    for levels in (
        (GradeLevel.C0,),
        (GradeLevel.C3,),
        (GradeLevel.C2,),
        (GradeLevel.C1,),
        (GradeLevel.B2,),
        (GradeLevel.B1, GradeLevel.B3),
        (GradeLevel.A3,),
        (GradeLevel.A2,),
        (GradeLevel.A1,),
    )
)

#: The grade token of the legacy ladder row each grade lands on.
_LEGACY_GRADE = {level: grade for levels, (_, _, grade) in LEGACY_LADDER for level in levels}
_RESULT_CELLS = dict(DETAIL_RESULTS)
LEGACY_RESULTS = (
    ("Final Grade", lambda result: f"**{_LEGACY_GRADE[result.final_grade]}**"),
    ("Direction of Evidence", _RESULT_CELLS["Direction of Evidence"]),
    ("Justification", _RESULT_CELLS["Justification"]),
    ("References", _RESULT_CELLS["Evidence Summary"]),
    ("Label/Colour Code", _RESULT_CELLS["Findings Codes"]),
)

#: Each markdown layout of the detailed report: title, field, ladder and result rows, with
#: every fixed cell (labels, ladder cells) escaped here.
_MARKDOWN_LAYOUTS = {
    layout: (
        title,
        tuple((_cell(label), cell) for label, cell in fields),
        tuple((levels, "".join(map(_cell, cells))) for levels, cells in ladder),
        tuple((_cell(label), cell) for label, cell in results),
    )
    for layout, title, fields, ladder, results in (
        (ReportFormat.MARKDOWN_TABLE4, "GRASP Detailed Report",
         DETAIL_FIELDS, DETAIL_LADDER, DETAIL_RESULTS),
        (ReportFormat.MARKDOWN_TABLE3_LEGACY, "GRASP Detailed Report (legacy layout)",
         LEGACY_FIELDS, LEGACY_LADDER, LEGACY_RESULTS),
    )
}


def _markdown_detailed(
    tool: ToolProfile,
    result: GradeResult,
    indices: ToolIndices,
    layout: tuple,
    generated_at: Optional[str],
) -> str:
    title, fields, ladder, results = layout
    lines = [f"# {title}: {_one_line(tool.name)}", "", f"Policy: {result.policy.fingerprint()}"]
    if generated_at:
        lines.append(f"Generated: {generated_at}")
    lines += ["", "| Field | Value |", "| --- | --- |"]
    lines += [head + _cell(cell(tool, indices)) + "|" for head, cell in fields]
    lines += ["", "| Phase of Evaluation | Level of Evidence | Grade | Evidence |",
              "| --- | --- | --- | --- |"]
    buckets = {bucket.level: bucket for bucket in result.all_buckets}
    for levels, head in ladder:
        bucket = next((buckets[level] for level in levels if level in buckets), None)
        evidence = DIRECTION_LEGEND[bucket.direction] if bucket else ABSENT
        if result.final_grade in levels:
            evidence += " <== final grade"
        lines.append(head + _cell(evidence) + "|")
    lines += ["", "| Field | Value |", "| --- | --- |"]
    lines += [head + _cell(cell(result)) + "|" for head, cell in results]
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
        "indices": indices._asdict(),
        "policy": result.policy.fingerprint(),
        "generated_at": generated_at,
    }


def render_detailed_report(
    tool: ToolProfile,
    result: GradeResult,
    indices: ToolIndices,
    format: ReportFormat = ReportFormat.MARKDOWN_TABLE4,
    *,
    generated_at: Optional[str] = None,
) -> Union[str, dict]:
    """Render the per-tool detailed report: markdown text, or a JSON-ready
    dict for the structured format.

    Absent optional fields render as an em dash placeholder; the grade
    ladder marks the supporting level; numeric indices render with two
    decimals (the literature index is an exact integer).
    """
    if format is ReportFormat.STRUCTURED:
        return _structured_detailed(tool, result, indices, generated_at)
    if format in _MARKDOWN_LAYOUTS:
        return _markdown_detailed(tool, result, indices, _MARKDOWN_LAYOUTS[format], generated_at)
    raise FormatUnsupported(f"unsupported report format: {format!r}")


def _flag(record: Mapping[str, bool], key: str) -> str:
    if key not in record:
        return ABSENT
    return _yesno(record[key])


#: Evidence-summary columns, one row per study: (column, cell(record, appraisal)).
SUMMARY_TABLE = (
    ("Study", lambda record, _: record.citation),
    ("Country", lambda record, _: record.country),
    ("Year", lambda record, _: str(record.year)),
    ("Phase", lambda record, _: record.phase.display),
    ("Type", lambda record, _: STUDY_TYPE_TOKENS[record.study_type]),
    ("Tools", lambda record, _: "Comparative Study" if record.comparative else "Single Tool"),
    ("Sample Size", lambda record, _: _opt(record.sample_size)),
    *(
        (key.replace("_", " ").title(), lambda record, _, k=key: _flag(record.matching_fields, k))
        for key in MATCHING_FIELD_KEYS
    ),
    *(
        (key.replace("_", " ").title(), lambda record, _, k=key: _flag(record.quality_fields, k))
        for key in QUALITY_FIELD_KEYS
    ),
    ("Direction of Evidence", lambda record, _: STUDY_DIRECTION_TOKENS[record.direction]),
    ("Matching of Evidence", lambda _, appraisal: MATCHING_TOKENS[appraisal.matching]),
    ("Quality of Evidence", lambda _, appraisal: QUALITY_TOKENS[appraisal.quality]),
    ("Strength of Evidence", lambda _, appraisal: STRENGTH_TOKENS[appraisal.strength]),
    ("Label", lambda record, _: _enum_list(record.labels, OutcomeLabel)),
    ("Notes", lambda record, _: _opt(record.notes)),
)


def render_evidence_summary(
    rows: Sequence[tuple[StudyRecord, StudyAppraisal]],
    format: ReportFormat = ReportFormat.MARKDOWN_TABLE4,
    *,
    generated_at: Optional[str] = None,
) -> Union[str, dict]:
    """Render the per-study evidence summary, one row per ``(study, appraisal)``
    pair: markdown text, or a JSON-ready dict for the structured format.

    Rows are ordered by publication year, then study id.
    """
    ordered = sorted(rows, key=lambda row: (row[0].year, row[0].id))

    if format is ReportFormat.STRUCTURED:
        return {
            "studies": [
                {
                    **study_to_obj(record),
                    "matching": appraisal.matching.value,
                    "quality": appraisal.quality.value,
                    "strength": appraisal.strength.value,
                    "evidence_class": appraisal.evidence_class.value,
                }
                for record, appraisal in ordered
            ],
            "generated_at": generated_at,
        }
    if format not in _MARKDOWN_LAYOUTS:
        raise FormatUnsupported(f"unsupported report format: {format!r}")
    lines = ["# Evidence Summary", ""]
    if generated_at:
        lines.append(f"Generated: {generated_at}")
        lines.append("")
    lines.append(_row_cells(*(column for column, _ in SUMMARY_TABLE)))
    lines.append(_row_cells(*(["---"] * len(SUMMARY_TABLE))))
    for record, appraisal in ordered:
        lines.append(_row_cells(*(cell(record, appraisal) for _, cell in SUMMARY_TABLE)))
    return "\n".join(lines) + "\n"
