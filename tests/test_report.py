from __future__ import annotations

import json
import re
from dataclasses import replace

import pytest

from grasp.corpus import tool_to_obj
from grasp.engine import (
    AppraisalPolicy,
    appraise_study,
    assign_grade,
    compute_indices,
)
from grasp.errors import FormatUnsupported
from grasp.model import GradeLevel
from grasp.report import (
    DETAIL_FIELDS,
    DETAIL_RESULTS,
    DIRECTION_LEGEND,
    LEGACY_FIELDS,
    LEGACY_RESULTS,
    MATCHING_TOKENS,
    QUALITY_TOKENS,
    STRENGTH_TOKENS,
    STUDY_DIRECTION_TOKENS,
    ReportFormat,
    render_detailed_report,
    render_evidence_summary,
)
from oracles import P, make_study, make_tool

POLICY = AppraisalPolicy()


def _graded(corpus8, tool_id):
    tool = corpus8.tool(tool_id)
    studies = corpus8.studies_for(tool_id)
    result = assign_grade(tool, studies, POLICY)
    indices = compute_indices(tool, 2019)
    return tool, studies, result, indices


def _cells(body: str, label: str) -> list[str]:
    pattern = re.compile(rf"^\| {re.escape(label)} \| (.*) \|$", re.MULTILINE)
    return pattern.findall(body)


class TestDetailedReport:
    def test_every_field_row_exactly_once_in_order(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "ottawa-knee")
        body = render_detailed_report(tool, result, indices)
        positions = []
        for label, _ in DETAIL_FIELDS + DETAIL_RESULTS:
            occurrences = [m.start() for m in re.finditer(rf"^\| {re.escape(label)} \| ", body, re.MULTILINE)]
            assert len(occurrences) == 1, label
            positions.append(occurrences[0])
        assert positions == sorted(positions)
        assert body.count("| Phase of Evaluation |") == 1  # ladder header

    def test_final_grade_marked(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "ottawa-knee")
        body = render_detailed_report(tool, result, indices)
        assert _cells(body, "Final Grade") == ["**A1**"]
        assert _cells(body, "Direction of Evidence") == ["Positive Evidence"]
        ladder_line = next(line for line in body.splitlines() if "| A1 |" in line)
        assert "<== final grade" in ladder_line

    def test_c0_report_has_no_label_value(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "dietrich")
        body = render_detailed_report(tool, result, indices)
        assert _cells(body, "Final Grade") == ["**C0**"]
        assert _cells(body, "Tool Label") == ["—"]
        assert _cells(body, "Direction of Evidence") == ["Negative Evidence"]

    def test_absent_optionals_render_as_dash(self, corpus8):
        tool, studies, result, indices = _graded(corpus8, "taylor")
        bare = replace(tool, dedicated_support=None, endorsement=None)
        body = render_detailed_report(bare, result, indices)
        assert _cells(body, "Dedicated Support") == ["—"]
        assert _cells(body, "Endorsement") == ["—"]
        for label, _ in DETAIL_FIELDS:
            assert f"| {label} |" in body

    def test_indices_rendered_to_two_decimals(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "ottawa-knee")
        body = render_detailed_report(tool, result, indices)
        assert _cells(body, "Citation Index") == [f"{indices.citation_index:.2f}"]
        assert _cells(body, "Publication Index") == [f"{indices.publication_index:.2f}"]
        assert _cells(body, "Literature Index") == [str(indices.literature_index)]

    def test_justification_embedded_verbatim(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "centor")
        body = render_detailed_report(tool, result, indices)
        assert result.justification in body

    def test_direction_vocabulary_closed(self, corpus8):
        legend = set(DIRECTION_LEGEND.values())
        for tool in corpus8.tools:
            _, _, result, indices = _graded(corpus8, tool.id)
            body = render_detailed_report(tool, result, indices)
            for value in _cells(body, "Direction of Evidence"):
                assert value in legend
            for line in body.splitlines():
                if "<== final grade" not in line:
                    continue
                evidence = line.rsplit("|", 2)[-2].strip()
                # The C0 row has no bucket, so its evidence cell is the
                # absent-value placeholder.
                assert evidence.replace(" <== final grade", "") in legend | {"—"}

    def test_determinism(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "pecarn")
        first = render_detailed_report(tool, result, indices)
        second = render_detailed_report(tool, result, indices)
        assert first == second
        assert "Generated:" not in first

    def test_caller_injected_timestamp(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "pecarn")
        body = render_detailed_report(tool, result, indices, generated_at="2020-01-01T00:00:00Z")
        assert "Generated: 2020-01-01T00:00:00Z" in body.splitlines()

    def test_engine_policy_fingerprint_exposed(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "pecarn")
        body = render_detailed_report(tool, result, indices)
        assert f"Policy: {POLICY.fingerprint()}" in body.splitlines()

    def test_format_outside_the_enum_rejected(self, corpus8):
        # Python callers may pass any value; the token string is not the member.
        tool, _, result, indices = _graded(corpus8, "taylor")
        with pytest.raises(FormatUnsupported):
            render_detailed_report(tool, result, indices, "markdown_table4")
        with pytest.raises(FormatUnsupported):
            render_evidence_summary([], "markdown_table4")

    def test_free_text_cells_cannot_break_the_table(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "taylor")
        for newline in ("\n", "\r", "\x85", "\u2028"):
            hostile = replace(tool, intended_use=f"predict a | b{newline}and c")
            body = render_detailed_report(hostile, result, indices)
            assert _cells(body, "Intended Use") == ["predict a \\| b and c"], repr(newline)
            # Every line break str.splitlines knows of is folded, so only "\n" ends a line.
            assert len(body.splitlines()) == body.count("\n"), repr(newline)
            for line in body.splitlines():
                if line.startswith("|"):
                    assert line.replace("\\|", "").count("|") <= len(line.split(" | ")) + 1

    @pytest.mark.parametrize("layout", [ReportFormat.MARKDOWN_TABLE4, ReportFormat.MARKDOWN_TABLE3_LEGACY],
                             ids=["table4", "table3"])
    def test_tool_name_cannot_add_a_heading(self, corpus8, layout):
        tool, _, result, indices = _graded(corpus8, "taylor")
        hostile = replace(tool, name="Taylor\n## Injected heading\u2028x")
        body = render_detailed_report(hostile, result, indices, layout)
        headings = [line for line in body.splitlines() if line.startswith("#")]
        assert len(headings) == 1
        assert headings[0].endswith(": Taylor ## Injected heading x")
        assert _cells(body, "Name") == ["Taylor ## Injected heading x"]


class TestLegacyLayout:
    def test_legacy_rows_present(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "ottawa-knee")
        body = render_detailed_report(tool, result, indices, ReportFormat.MARKDOWN_TABLE3_LEGACY)
        for label, _ in LEGACY_FIELDS + LEGACY_RESULTS:
            assert f"| {label} |" in body, label
        assert "| Tool Label |" not in body
        assert "| Citation Index |" not in body
        assert "| References |" in body
        assert "| Label/Colour Code |" in body

    def test_modern_b3_maps_to_legacy_b1(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "centor")
        assert result.final_grade is GradeLevel.B3
        body = render_detailed_report(tool, result, indices, ReportFormat.MARKDOWN_TABLE3_LEGACY)
        assert _cells(body, "Final Grade") == ["**B1**"]
        assert "| B3 |" not in body

    def test_phase_c_grades_unchanged(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "manuck")
        body = render_detailed_report(tool, result, indices, ReportFormat.MARKDOWN_TABLE3_LEGACY)
        assert _cells(body, "Final Grade") == ["**C2**"]


class TestStructured:
    def test_round_trips_to_inputs(self, corpus8):
        tool, _, result, indices = _graded(corpus8, "pecarn")
        body = render_detailed_report(tool, result, indices, ReportFormat.STRUCTURED)
        assert json.loads(json.dumps(body)) == body  # plain JSON data throughout
        assert body["tool"] == tool_to_obj(tool)
        assert body["result"]["final_grade"] == result.final_grade.value
        assert body["result"]["direction"] == result.direction.value
        assert body["result"]["tool_label"] == result.tool_label
        assert body["result"]["needs_review"] == result.needs_review
        assert body["result"]["justification"] == result.justification
        assert body["indices"]["citation_index"] == indices.citation_index
        assert body["indices"]["literature_index"] == indices.literature_index
        by_level = {b.level.value: b for b in result.all_buckets}
        for bucket_obj in body["result"]["buckets"]:
            bucket = by_level[bucket_obj["level"]]
            assert bucket_obj["direction"] == bucket.direction.value
            assert bucket_obj["study_ids"] == [s.id for s in bucket.studies]


class TestEvidenceSummary:
    def _summary(self, corpus8, tool_id, fmt=ReportFormat.MARKDOWN_TABLE4):
        records = [s for s in corpus8.studies_for(tool_id) if s.is_gradable]
        rows = [(s, appraise_study(s, POLICY)) for s in records]
        return records, render_evidence_summary(rows, fmt)

    def test_one_row_per_study(self, corpus8):
        records, report = self._summary(corpus8, "pecarn")
        rows = [line for line in report.splitlines() if line.startswith("| ")]
        assert len(rows) == len(records) + 2  # header + separator

    def test_rows_ordered_by_year_then_id(self, corpus8):
        records, report = self._summary(corpus8, "centor")
        expected = [r.citation for r in sorted(records, key=lambda r: (r.year, r.id))]
        rows = [line for line in report.splitlines() if line.startswith("| ")][2:]
        rendered = [row.split(" | ")[0].removeprefix("| ") for row in rows]
        assert rendered == expected

    def test_phase_vocabulary(self, corpus8):
        _, report = self._summary(corpus8, "pecarn")
        assert "After Implementation" in report
        assert "Planning for Implementation" in report

    def test_strength_vocabulary_closed(self, corpus8):
        valid = (
            set(STRENGTH_TOKENS.values()) | set(MATCHING_TOKENS.values())
            | set(QUALITY_TOKENS.values()) | set(STUDY_DIRECTION_TOKENS.values())
        )
        for tool_id in ("centor", "lace", "pecarn"):
            records, report = self._summary(corpus8, tool_id)
            rows = [line for line in report.splitlines() if line.startswith("| ")][2:]
            for row in rows:
                cells = [c.strip() for c in row.strip("|").split(" | ")]
                direction, matching, quality, strength = cells[-6:-2]
                assert direction in valid and matching in valid
                assert quality in valid and strength in valid

    def test_strong_evidence_cell(self):
        record = make_study("s001", GradeLevel.C3, P)
        report = render_evidence_summary([(record, appraise_study(record, POLICY))])
        assert "Strong Evidence" in report

    def test_empty_record_list_gives_header_only(self):
        report = render_evidence_summary([])
        rows = [line for line in report.splitlines() if line.startswith("| ")]
        assert len(rows) == 2

    def test_structured_mirrors_corpus_conventions(self, corpus8):
        records = list(corpus8.studies_for("taylor"))
        rows = [(s, appraise_study(s, POLICY)) for s in records]
        report = render_evidence_summary(rows, ReportFormat.STRUCTURED)
        entry = report["studies"][0]
        assert entry["id"] == "taylor-s1"
        assert entry["strength"] == "strong"
        assert entry["direction"] == "positive"
