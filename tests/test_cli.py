from __future__ import annotations

import ast
import gc
import json
import os
import random
import re
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import grasp
import grasp.cli
import grasp.corpus
import grasp.engine
from grasp.cli import build_parser, main
from grasp.corpus import _STUDY_TABLE, _TOOL_TABLE, emit_corpus, load_corpus, parse_corpus
from grasp.engine import assign_grade
from grasp.errors import AdjudicationRequired
from grasp.model import AppraisalPolicy, TieFallback
from conftest import FIXTURES
from gen import random_corpus, strip_overrides, wide_corpus

CORPUS = str(FIXTURES / "grasp8.json")
R1 = str(FIXTURES / "raters" / "r1.csv")
R2 = str(FIXTURES / "raters" / "r2.csv")
AUTHORS = str(FIXTURES / "raters" / "authors.csv")
SURVEY = str(FIXTURES / "survey.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGrade:
    def test_grades_all_tools(self, capsys):
        code, out, err = run(capsys, "grade", CORPUS)
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 8
        assert lines[0].startswith("centor B3 Positive")
        assert any(line.startswith("ottawa-knee A1 Positive") for line in lines)
        assert err == ""

    def test_rows_sorted_by_tool_id(self, capsys):
        _, out, _ = run(capsys, "grade", CORPUS)
        ids = [line.split()[0] for line in out.splitlines()]
        assert ids == sorted(ids)

    def test_single_tool_filter(self, capsys):
        code, out, _ = run(capsys, "grade", CORPUS, "--tool", "dietrich")
        assert code == 0
        assert out.splitlines() == ["dietrich C0 Negative -"]

    def test_tool_id_that_begins_with_a_dash(self, capsys, tmp_path):
        # argparse reads "--tool -x" as a flag with no value; "--tool=-x" passes the id.
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        for record in (*doc["tools"], *doc["studies"]):
            for key in ("id", "tool_id"):
                if record.get(key) == "centor":
                    record[key] = "-x"
        path = tmp_path / "dash.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "grade", str(path), "--tool=-x")
        assert code == 0
        assert out.splitlines() == ['-x B3 Positive "Grade B3 - Workflow"']
        with pytest.raises(SystemExit) as exc:
            main(["grade", str(path), "--tool", "-x"])
        assert exc.value.code == 2

    def test_unknown_tool_filter(self, capsys):
        code, _, err = run(capsys, "grade", CORPUS, "--tool", "nonexistent")
        assert code == 1
        assert "nonexistent" in err

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "grade", "missing.json")
        assert code == 1
        assert "missing.json" in err
        assert out == ""

    def test_structured_format(self, capsys):
        code, out, _ = run(capsys, "grade", CORPUS, "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 8
        by_id = {entry["tool_id"]: entry for entry in payload}
        assert by_id["pecarn"]["final_grade"] == "A2"
        assert by_id["pecarn"]["direction"] == "mixed_positive"
        assert by_id["dietrich"]["tool_label"] is None

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "grade", CORPUS)
        _, second, _ = run(capsys, "grade", CORPUS)
        assert first == second

    def test_policy_flag_changes_outcome(self, capsys, tmp_path):
        # A full adjudication tie: fail-with-review-flag aborts, the default
        # conservative policy grades with a review warning on stderr.
        corpus = {
            "schema_version": "grasp-corpus/1",
            "tools": [json.loads((FIXTURES / "grasp8.json").read_text())["tools"][7]],
            "studies": [
                {
                    "id": f"taylor-x{i}", "tool_id": "taylor",
                    "citation": f"Study {i}", "country": "Canada", "year": 2017,
                    "phase": "after_implementation",
                    "study_type": "post_implementation_impact",
                    "comparative": False, "level": "A2",
                    "impact_subtype": "observational",
                    "direction": direction,
                    "matching_override": "matching",
                    "quality_override": "high",
                }
                for i, direction in enumerate(("positive", "negative"))
            ],
        }
        corpus["tools"][0]["studies_count"] = 2
        path = tmp_path / "tie.json"
        path.write_text(json.dumps(corpus))

        code, out, err = run(capsys, "grade", str(path))
        assert code == 0
        assert "[review]" in out
        assert "needs review" in err

        code, _, err = run(capsys, "grade", str(path), "--tie-fallback", "fail_with_review_flag")
        assert code == 1
        assert "adjudication" in err.lower()

    def test_report_directory(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, _, _ = run(capsys, "grade", CORPUS, "--report", str(out_dir))
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [
            "centor.md", "chalice.md", "dietrich.md", "lace.md",
            "manuck.md", "ottawa-knee.md", "pecarn.md", "taylor.md",
        ]
        assert "**A1**" in (out_dir / "ottawa-knee.md").read_text()

    def test_corpus_policy_honoured_and_flag_takes_precedence(self, capsys, tmp_path):
        # Same adjudication tie as above, but the failing policy is embedded
        # in the corpus; a CLI flag must still win over it.
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        corpus = {
            "schema_version": "grasp-corpus/1",
            "tools": [dict(doc["tools"][7], studies_count=2)],
            "studies": [
                {
                    "id": f"taylor-x{i}", "tool_id": "taylor",
                    "citation": f"Study {i}", "country": "Canada", "year": 2017,
                    "phase": "after_implementation",
                    "study_type": "post_implementation_impact",
                    "comparative": False, "level": "A2",
                    "impact_subtype": "observational",
                    "direction": direction,
                    "matching_override": "matching",
                    "quality_override": "high",
                }
                for i, direction in enumerate(("positive", "negative"))
            ],
            "policy": {"tie_fallback": "fail_with_review_flag"},
        }
        path = tmp_path / "tie.json"
        path.write_text(json.dumps(corpus))

        code, _, err = run(capsys, "grade", str(path))
        assert code == 1 and "adjudication" in err.lower()

        code, out, _ = run(
            capsys, "grade", str(path), "--tie-fallback", "conservative_negative"
        )
        assert code == 0
        assert "[review]" in out


class TestRaters:
    def test_r1_vs_authors(self, capsys):
        code, out, _ = run(capsys, "raters", R1, AUTHORS)
        assert code == 0
        assert out == "rho=0.994 agreement=7/8 p<0.001\n"

    def test_r2_vs_authors(self, capsys):
        _, out, _ = run(capsys, "raters", R2, AUTHORS)
        assert out == "rho=0.994 agreement=7/8 p<0.001\n"

    def test_r1_vs_r2(self, capsys):
        _, out, _ = run(capsys, "raters", R1, R2)
        assert out == "rho=0.988 agreement=6/8 p<0.001\n"

    def test_disjoint_tool_sets(self, capsys, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text("tool_id,grade\nsomething-else,A1\n")
        code, out, err = run(capsys, "raters", R1, str(other))
        assert code == 1
        assert out == ""
        assert "different tools" in err

    def test_disjoint_tool_sets_message(self, capsys, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text("tool_id,grade\nsomething-else,A1\ncentor,C3\n")
        subset = tmp_path / "subset.csv"
        subset.write_text("tool_id,grade\ncentor,C3\n")
        listed = "['chalice', 'dietrich', 'lace', 'manuck', 'ottawa-knee', 'pecarn', 'taylor']"
        assert run(capsys, "raters", R1, str(other)) == (1, "", (
            f"error: rater sheets cover different tools"
            f" (only in r1: {listed}; only in other: ['something-else'])\n"
        ))
        assert run(capsys, "raters", str(subset), R1) == (1, "", (
            f"error: rater sheets cover different tools"
            f" (only in subset: -; only in r1: {listed})\n"
        ))

    def test_large_p_printed_numerically(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("tool_id,grade\nt1,C3\nt2,C2\nt3,C1\nt4,B3\n")
        b.write_text("tool_id,grade\nt1,C2\nt2,C3\nt3,B3\nt4,C1\n")
        code, out, _ = run(capsys, "raters", str(a), str(b))
        assert code == 0
        assert "p=" in out and "p<" not in out

    def test_error_names_the_line_a_record_starts_on(self, capsys, tmp_path):
        # The quoted field spans lines 2 and 3, so the bad grade is on line 4.
        sheet = tmp_path / "r.csv"
        sheet.write_text('tool_id,grade\n"a\nb",A1\nc,Z9\n')
        code, out, err = run(capsys, "raters", str(sheet), str(sheet))
        assert (code, out, err) == (1, "", "error: rater sheet: line 4: unknown grade 'Z9'\n")

    def test_structured_format(self, capsys):
        code, out, _ = run(capsys, "raters", R1, AUTHORS, "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_agreement"] == 7
        assert abs(payload["rho"] - 0.994) < 0.0005
        assert payload["p_value"] < 0.001


class TestSurvey:
    def test_reproduces_reference_table(self, capsys):
        code, out, _ = run(capsys, "survey", SURVEY)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "predictive-performance\t4.87\tStrongly Agree"
        assert "impact-levels\t4.16\tSomewhat Agree" in lines
        assert "evidence-direction\t4.26\tStrongly Agree" in lines
        assert "usability-higher\t2.97\tNeither Agree nor Disagree" in lines
        assert lines[-1] == "overall\t4.35\tStrongly Agree"

    def test_all_threes(self, capsys, tmp_path):
        sheet = tmp_path / "s.csv"
        sheet.write_text("question_id,response\nq1,3\nq1,3\nq1,3\n")
        code, out, _ = run(capsys, "survey", str(sheet))
        assert code == 0
        assert out.splitlines()[0] == "q1\t3.00\tNeither Agree nor Disagree"

    def test_out_of_range_response(self, capsys, tmp_path):
        sheet = tmp_path / "s.csv"
        sheet.write_text("question_id,response\nq1,6\n")
        code, _, err = run(capsys, "survey", str(sheet))
        assert code == 1
        assert "1..5" in err

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        sheet = tmp_path / "s.csv"
        sheet.write_bytes(b"\xef\xbb\xbf" + Path(SURVEY).read_bytes())
        _, plain, _ = run(capsys, "survey", SURVEY)
        code, out, err = run(capsys, "survey", str(sheet))
        assert (code, out, err) == (0, plain, "")

    @pytest.mark.parametrize("row, message", [
        ('"a\tb",3', r"question_id 'a\tb' holds a non-printable character"),
        ('"c\nd",4', r"question_id 'c\nd' holds a non-printable character"),
        ("overall,3", "question_id 'overall' names the pooled row"),
    ], ids=["tab", "newline", "overall"])
    def test_question_id_that_would_break_a_line_is_rejected(self, capsys, tmp_path, row, message):
        # survey prints one tab-separated line per question, then the pooled "overall" line.
        sheet = tmp_path / "s.csv"
        sheet.write_text(f"question_id,response\nq1,3\n{row}\n")
        code, out, err = run(capsys, "survey", str(sheet))
        assert (code, out) == (1, "")
        assert err == f"error: survey sheet: line 3: {message}\n"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_error_names_the_line_a_record_starts_on(self, capsys, tmp_path, newline):
        # The quoted response spans lines 2 and 3, so the bad one is on line 4.
        sheet = tmp_path / "s.csv"
        sheet.write_bytes(newline.join(["question_id,response", 'q1,"3\n"', "q2,9", ""]).encode())
        code, out, err = run(capsys, "survey", str(sheet))
        assert (code, out) == (1, "")
        assert err == "error: survey sheet: line 4: response must be an integer 1..5, got '9'\n"

    def test_structured_format(self, capsys):
        code, out, _ = run(capsys, "survey", SURVEY, "--format", "structured")
        assert code == 0
        payload = json.loads(out)
        assert payload[-1]["question_id"] == "overall"
        assert payload[-1]["label"] == "Strongly Agree"
        assert payload[0]["n"] == 100


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, err = run(capsys, "validate", CORPUS)
        assert code == 0
        assert out == "OK: 8 tools, 30 studies\n"
        assert err == ""

    def test_dangling_reference_listed(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        doc["studies"][0]["tool_id"] = "ghost"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert "DanglingReferenceError" in err and "ghost" in err

    def test_every_violation_listed(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        doc["studies"][0]["tool_id"] = "ghost"
        del doc["tools"][0]["year"]
        doc["tools"][1]["DUPLICATE"] = "x"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"DUPLICATE"', '"name"'))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "ghost" in err and ".year" in err
        assert "$.tools[1].name: duplicate field" in err

    @pytest.mark.parametrize("strictness", ["--strict", "--lenient"])
    def test_tool_without_a_gradable_study_is_rejected(self, capsys, tmp_path, strictness):
        # A metadata-only development record is not graded, so taylor has no
        # evidence at all; validate rejects what grade could not grade.
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        (study,) = [s for s in doc["studies"] if s["tool_id"] == "taylor"]
        study["study_type"] = "development"
        del study["level"]
        path = tmp_path / "bare.json"
        path.write_text(json.dumps(doc))
        for command in ("validate", "grade"):
            code, out, err = run(capsys, command, strictness, str(path))
            assert (code, out) == (1, "")
            prefix = "ConsistencyError: " if command == "validate" else "error: "
            assert err == f"{prefix}$.tools[7]: tool 'taylor' has no gradable study\n"

    @pytest.mark.parametrize("tool_id, message", [
        ("a|b\nc", r"tool id 'a|b\nc' holds a non-printable character"),
        ("a|b\tc", r"tool id 'a|b\tc' holds a non-printable character"),
        ("a|b\x00c", r"tool id 'a|b\x00c' holds a non-printable character"),
        ("a|b\u2028c", r"tool id 'a|b\u2028c' holds a non-printable character"),
        ("", "tool id must not be empty"),
        ("a b", "tool id 'a b' holds a space or a path separator"),
        ("x/y", "tool id 'x/y' holds a space or a path separator"),
        ("a\\b", r"tool id 'a\\b' holds a space or a path separator"),
        ("z" * 201, "tool id is longer than 200 bytes"),
        ("é" * 101, "tool id is longer than 200 bytes"),
    ], ids=["\n", "\t", "\x00", "\u2028", "empty", "space", "slash", "backslash", "201-bytes",
            "202-utf8-bytes"])
    def test_tool_id_with_a_non_printable_character_is_rejected(
        self, capsys, tmp_path, tool_id, message
    ):
        # grade prints one line of space-separated fields per tool, and a report
        # file is named after its tool, so an id must not break, hide, blank or
        # shift a line, nor name a path or a file name too long for the platform.
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        doc["tools"][7]["id"] = tool_id
        for study in doc["studies"]:
            if study["tool_id"] == "taylor":
                study["tool_id"] = tool_id
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err == f"SchemaError: $.tools[7].id: {message}\n"
        code, out, _ = run(capsys, "grade", str(path))
        assert (code, out) == (1, "")
        code, out, _ = run(capsys, "grade", str(path), "--report", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert not (tmp_path / "out").exists()

    def test_tool_id_of_200_bytes_is_accepted(self, capsys, tmp_path):
        tool_id = "é" * 99 + "zz"
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        doc["tools"][7]["id"] = tool_id
        for study in doc["studies"]:
            if study["tool_id"] == "taylor":
                study["tool_id"] = tool_id
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "grade", str(path), "--report", str(tmp_path / "out"))
        assert code == 0
        assert (tmp_path / "out" / f"{tool_id}.md").is_file()

    def test_forged_study_id_gives_one_line(self, capsys, tmp_path):
        # Each fault is one stderr line, whatever text a corpus string holds.
        forged = "x\nSchemaError: fake"
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        doc["studies"][0]["id"] = doc["studies"][1]["id"] = forged
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err == (
            "SchemaError: $.studies[1].id: duplicate study id 'x\\nSchemaError: fake'"
            " (also at $.studies[0])\n"
        )

    @pytest.mark.parametrize("repeat, message", [
        (False, "unknown field"), (True, "duplicate field"),
    ], ids=["unknown", "repeated"])
    def test_forged_key_gives_one_line(self, capsys, tmp_path, repeat, message):
        forged = "x\nSchemaError: fake"
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        doc["tools"][0]["KEY1"] = 1
        if repeat:
            doc["tools"][0]["KEY2"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"KEY1"', json.dumps(forged))
                        .replace('"KEY2"', json.dumps(forged)))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err == f"SchemaError: $.tools[0].'x\\nSchemaError: fake': {message}\n"

    def test_lenient_unknown_field_warns_but_passes(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        doc["tools"][0]["extra_field"] = "x"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path), "--lenient")
        assert code == 0
        assert out == "OK: 8 tools, 30 studies\n"
        assert "extra_field" in err
        code, _, _ = run(capsys, "validate", str(path))
        assert code == 1


class TestReportCommand:
    def test_stdout_single_tool(self, capsys):
        code, out, _ = run(capsys, "report", CORPUS, "--tool", "ottawa-knee")
        assert code == 0
        assert "# GRASP Detailed Report: Ottawa Knee Rule" in out
        assert "**A1**" in out

    def test_out_directory_structured(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        code, _, _ = run(
            capsys, "report", CORPUS, "--tool", "pecarn",
            "--out", str(out_dir), "--layout", "structured",
        )
        assert code == 0
        payload = json.loads((out_dir / "pecarn.json").read_text())
        assert payload["result"]["final_grade"] == "A2"

    def test_legacy_layout(self, capsys):
        code, out, _ = run(capsys, "report", CORPUS, "--tool", "centor", "--layout", "table3")
        assert code == 0
        assert "**B1**" in out  # modern B3 rendered with the legacy token

    def test_summary_appended(self, capsys):
        code, out, _ = run(capsys, "report", CORPUS, "--tool", "taylor", "--summary")
        assert code == 0
        assert "# Evidence Summary" in out
        assert "Strong Evidence" in out

    @pytest.mark.parametrize("layout", ["table4", "structured"])
    def test_summary_reaches_report_files(self, capsys, tmp_path, layout):
        argv = ("report", CORPUS, "--tool", "lace", "--summary", "--layout", layout)
        _, printed, _ = run(capsys, *argv)
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0
        if layout == "structured":
            written = json.loads((tmp_path / "lace.json").read_text(encoding="utf-8"))
            assert written == json.loads(printed)
            assert set(written) == {"report", "evidence_summary"}
        else:
            assert (tmp_path / "lace.md").read_bytes() == printed.encode("utf-8")
            assert "# Evidence Summary" in printed

    def test_reference_year_flag(self, capsys):
        code, out, _ = run(
            capsys, "report", CORPUS, "--tool", "taylor", "--reference-year", "2017"
        )
        assert code == 0
        assert "| Citation Index | 105.00 |" in out  # 210 citations / 2 years

    def test_stamp_injects_timestamp(self, capsys):
        _, plain, _ = run(capsys, "report", CORPUS, "--tool", "taylor")
        assert "Generated:" not in plain
        _, stamped, _ = run(capsys, "report", CORPUS, "--tool", "taylor", "--stamp")
        assert "Generated:" in stamped

    @pytest.mark.parametrize("argv", [
        ("grade",), ("report",), ("report", "--summary"), ("report", "--layout", "structured"),
    ], ids=["grade", "report", "report-summary", "report-structured"])
    @pytest.mark.parametrize("to_files", [False, True], ids=["stdout", "out-dir"])
    def test_review_flagged_grade_warns(self, capsys, tmp_path, argv, to_files):
        # centor-s6 as a class-A study ties centor's A1 bucket one positive to
        # one negative, so the conservative fallback flags the grade for review.
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        study = next(s for s in doc["studies"] if s["id"] == "centor-s6")
        study.update(matching_override="matching", quality_override="high")
        path = tmp_path / "review.json"
        path.write_text(json.dumps(doc))
        out_flag = ("--report" if argv[0] == "grade" else "--out", str(tmp_path / "out"))
        code, _, err = run(capsys, argv[0], str(path), "--tool", "centor", *argv[1:],
                           *(out_flag if to_files else ()))
        assert code == 0
        assert err.splitlines() == [
            "warning: centor: grade needs review (final grade B3: positive evidence at B3"
            " (usability testing reported); higher levels not qualifying: A1 mixed_negative;"
            " policy[matching=strict_all quality=override_only equivocal=negative"
            " tie_fallback=conservative_negative])"
        ]


class TestReportFailures:
    @pytest.mark.parametrize("flags, cause", [
        # centor (1981) precedes the reference year and sorts first; chalice (2006) follows it.
        (["--reference-year", "2000"], "tool year 2006"),
        # taylor, the last tool, has one study without the quality override only the summary needs.
        (["--summary"], "taylor-s1"),
    ], ids=["reference-year", "summary"])
    def test_a_failing_document_stops_every_write(self, capsys, tmp_path, flags, cause):
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        del next(s for s in doc["studies"] if s["id"] == "taylor-s1")["quality_override"]
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        code, _, err = run(capsys, "report", str(corpus), *flags, "--out", str(out_dir))
        assert code == 1
        assert cause in err
        assert not out_dir.exists() or list(out_dir.iterdir()) == []


class TestAppraisalsPerRun:
    """Each gradable study is appraised once per command: ``report --summary``
    reads the appraisals grading made in mixed buckets and makes only the rest."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # Counted where appraise_study looks it up, as the benchmark's tracer does.
        count = [0]
        resolve = grasp.engine.resolve_matching

        def counting(*args):
            count[0] += 1
            return resolve(*args)

        monkeypatch.setattr(grasp.engine, "resolve_matching", counting)
        return count

    @pytest.mark.parametrize("argv, expected", [
        (("grade",), 8),  # the studies of the fixture's mixed buckets
        (("report", "--summary"), 29),  # the fixture's gradable studies
    ], ids=["grade", "report-summary"])
    def test_fixture(self, capsys, calls, argv, expected):
        code, _, _ = run(capsys, argv[0], CORPUS, *argv[1:])
        assert (code, calls[0]) == (0, expected)

    def test_generated_corpus_with_mixed_buckets(self, capsys, tmp_path, calls):
        corpus = replace(random_corpus(random.Random(5), 40), policy=AppraisalPolicy())
        path = tmp_path / "corpus.json"
        path.write_bytes(emit_corpus(corpus))
        mixed = sum(
            bucket.adjudication is not None
            for tool in corpus.tools
            for bucket in assign_grade(tool, corpus.studies_for(tool.id)).all_buckets
        )
        assert mixed > 5
        calls[0] = 0
        code, _, _ = run(capsys, "report", str(path), "--summary")
        assert code == 0
        assert calls[0] == sum(s.is_gradable for s in corpus.studies)


def test_grade_prints_the_lines_of_each_tool_graded_alone(capsys, tmp_path):
    # Grading the corpus equals grading each tool alone, in tool-id order: the
    # same stdout lines and review warnings, and a failure of any tool fails both.
    path, codes = tmp_path / "corpus.json", []
    for seed in range(20):
        rng = random.Random(seed)
        corpus = random_corpus(rng, 6)
        if seed % 2:
            corpus = strip_overrides(rng, corpus)
        path.write_bytes(emit_corpus(corpus))
        alone = [run(capsys, "grade", str(path), f"--tool={tool.id}") for tool in corpus.tools]
        code, out, err = run(capsys, "grade", str(path))
        assert code == max(c for c, _, _ in alone)
        if code == 0:
            assert out == "".join(o for _, o, _ in alone)
            assert err == "".join(e for _, _, e in alone)
        codes.append(code)
    assert codes.count(0) > 10 and codes.count(1) > 2


def test_renaming_study_ids_leaves_the_grades_unchanged(capsys, tmp_path):
    # A one-to-one renaming of study ids (here, shuffling them) changes no
    # grade, although it reorders the studies of every bucket.
    path, graded = tmp_path / "corpus.json", 0
    for seed in range(15):
        rng = random.Random(seed)
        corpus = random_corpus(rng, 6)
        ids = [study.id for study in corpus.studies]
        renamed = dict(zip(ids, rng.sample(ids, len(ids))))
        outputs = []
        for studies in (corpus.studies, [replace(s, id=renamed[s.id]) for s in corpus.studies]):
            path.write_bytes(emit_corpus(replace(corpus, studies=tuple(studies))))
            outputs.append(run(capsys, "grade", str(path), "--format", "structured")[:2])
        assert outputs[0] == outputs[1]
        graded += outputs[0][0] == 0
    assert graded > 10


class TestAppraisalErrors:
    """A study grading never had to appraise fails only the evidence summary;
    one in a mixed bucket fails grading too."""

    @staticmethod
    def _without_quality_override(tmp_path, study_id):
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        del next(s for s in doc["studies"] if s["id"] == study_id)["quality_override"]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_study_in_a_unanimous_bucket(self, capsys, tmp_path):
        path = self._without_quality_override(tmp_path, "taylor-s1")
        graded = run(capsys, "grade", path)
        assert graded[0] == 0 and graded == run(capsys, "grade", CORPUS)
        assert run(capsys, "report", path, "--summary") == (
            1, "", "error: study 'taylor-s1': no quality override and policy is override_only\n"
        )

    @pytest.mark.parametrize("argv", [("grade",), ("report", "--summary")], ids=["grade", "report-summary"])
    def test_study_in_a_mixed_bucket(self, capsys, tmp_path, argv):
        path = self._without_quality_override(tmp_path, "centor-s5")
        assert run(capsys, argv[0], path, *argv[1:]) == (
            1, "", "error: study 'centor-s5': no quality override and policy is override_only\n"
        )

    @pytest.mark.parametrize("strictness", ["--strict", "--lenient"])
    def test_validate_lists_each_study_in_input_order(self, capsys, tmp_path, strictness):
        # validate appraises every gradable study under the corpus's own policy,
        # as report --summary does, whether grading would reach it or not. The
        # studies are reversed, so that input order is not id order.
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        doc["studies"].reverse()
        ids = ("taylor-s1", "centor-s5")
        for study in doc["studies"]:
            if study["id"] in ids:
                del study["quality_override"]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(doc))
        expected = "".join(
            f"ConsistencyError: $.studies[{i}]: study {s['id']!r}:"
            " no quality override and policy is override_only\n"
            for i, s in enumerate(doc["studies"]) if s["id"] in ids
        )
        assert expected.count("\n") == 2
        assert run(capsys, "validate", strictness, str(path)) == (1, "", expected)
        doc["policy"] = {"quality_rule": "majority_of_flags"}
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate", strictness, str(path)) == (0, "OK: 8 tools, 30 studies\n", "")


class TestFullTies:
    """Under ``"tie_fallback": "fail_with_review_flag"`` grading fails on a full
    tie, so validate grades each tool whose studies all appraise and lists each
    tie at the tool's place in the input."""

    def test_validate_lists_every_tool_that_grading_rejects(self, capsys, tmp_path):
        doc = json.loads(emit_corpus(wide_corpus(random.Random(1), 400)))
        doc["tools"].reverse()  # so that a tool's place in the input is not its place by id
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "validate", str(path)) == (0, "OK: 400 tools, 2480 studies\n", "")
        doc["policy"] = {"tie_fallback": "fail_with_review_flag"}
        path.write_text(json.dumps(doc))
        corpus, expected = parse_corpus(path.read_bytes()), []
        for i, tool in enumerate(doc["tools"]):
            try:
                assign_grade(corpus.tool(tool["id"]), corpus.studies_for(tool["id"]), corpus.policy)
            except AdjudicationRequired as exc:
                expected.append(f"ConsistencyError: $.tools[{i}]: {exc}\n")
        assert len(expected) == 45
        assert run(capsys, "validate", str(path)) == (1, "", "".join(expected))
        assert run(capsys, "grade", str(path))[0] == 1

    def test_a_tool_with_an_unappraisable_study_is_listed_at_the_study(self, capsys, tmp_path):
        doc = json.loads(emit_corpus(wide_corpus(random.Random(1), 400)))
        doc["policy"] = {"tie_fallback": "fail_with_review_flag"}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        _, _, err = run(capsys, "validate", str(path))
        tied = doc["tools"][int(re.match(r"ConsistencyError: \$\.tools\[(\d+)\]", err)[1])]["id"]
        i, study = next((i, s) for i, s in enumerate(doc["studies"])
                        if s["tool_id"] == tied and "quality_override" in s)
        del study["quality_override"]
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        lines = err.splitlines()
        assert code == 1 and len(lines) == 45
        assert lines[0] == (f"ConsistencyError: $.studies[{i}]: study {study['id']!r}:"
                            " no quality override and policy is override_only")
        assert not any(f"tool {tied!r}" in line for line in lines)

    def test_random_corpora_that_validate_grade_and_report(self, capsys, tmp_path):
        path = tmp_path / "corpus.json"
        outcomes = {0: 0, 1: 0}
        for seed in range(200):
            corpus = random_corpus(random.Random(seed))
            policy = replace(corpus.policy, tie_fallback=TieFallback.FAIL_WITH_REVIEW_FLAG)
            path.write_bytes(emit_corpus(replace(corpus, policy=policy)))
            code, _, err = run(capsys, "validate", str(path))
            outcomes[code] += 1
            if code == 0:
                for argv in (("grade",), ("report", "--summary")):
                    assert run(capsys, *argv, str(path))[0] == 0, (seed, argv)
            else:
                assert "$.tools[" in err, (seed, err)
        assert outcomes[0] > 100 and outcomes[1] > 20, outcomes


class TestReportContainment:
    @staticmethod
    def _corpus_with_ids(tmp_path, *tool_ids):
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        taylor = next(t for t in doc["tools"] if t["id"] == "taylor")
        study = next(s for s in doc["studies"] if s["tool_id"] == "taylor")
        doc["tools"] = [dict(taylor, id=tool_id) for tool_id in tool_ids]
        doc["studies"] = [
            dict(study, id=f"s{i}", tool_id=tool_id) for i, tool_id in enumerate(tool_ids)
        ]
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("bad_id", ["../escaped", "a/b"])
    @pytest.mark.parametrize("command, flag", [("grade", "--report"), ("report", "--out")])
    def test_tool_id_cannot_leave_the_report_directory(
        self, capsys, tmp_path, bad_id, command, flag
    ):
        # "+first" sorts before both bad ids, so its report would come first.
        corpus = self._corpus_with_ids(tmp_path, "+first", bad_id)
        out_dir = tmp_path / "out" / "sub"
        code, _, err = run(capsys, command, corpus, flag, str(out_dir))
        assert code == 1
        assert repr(bad_id) in err
        written = [p for p in tmp_path.rglob("*") if p.name != "corpus.json"]
        assert written == []
        code, out, err = run(capsys, "validate", corpus)
        assert (code, out) == (1, "")
        assert err.startswith(f"SchemaError: $.tools[1].id: tool id {bad_id!r} ")

    def test_plain_ids_still_written(self, capsys, tmp_path):
        corpus = self._corpus_with_ids(tmp_path, "+first", "..dots")
        code, _, _ = run(capsys, "grade", corpus, "--report", str(tmp_path / "out"))
        assert code == 0
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["+first.md", "..dots.md"]


class TestAtomicReportWrites:
    def test_failed_write_keeps_the_old_report(self, capsys, monkeypatch, tmp_path):
        out_dir = tmp_path / "out"
        assert run(capsys, "grade", CORPUS, "--report", str(out_dir))[0] == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}

        def write_half_then_fail(path, text, *args, **kwargs):
            with open(path, "w") as handle:
                handle.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        code, _, err = run(capsys, "grade", CORPUS, "--report", str(out_dir))
        assert code == 1
        assert "No space left on device" in err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


class TestReportEncoding:
    ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    @pytest.mark.parametrize("command, flag, non_ascii_id", [
        pytest.param(command, flag, non_ascii_id, id=f"{command}-{flag}{'-renamed' * non_ascii_id}")
        for non_ascii_id in (False, True)
        for command, flag in (("grade", "--report"), ("report", "--out"), ("report", "--tool taylor"))
    ])
    def test_reports_are_utf8_under_an_ascii_locale(self, tmp_path, renamed, command, flag, non_ascii_id):
        # Every markdown report holds an em dash, which an ASCII locale cannot encode,
        # and the renamed corpus names one report file with a non-ASCII tool id.
        # A directory flag sends the reports to files, any other flag to stdout.
        src = str(Path(grasp.__file__).resolve().parents[1])
        outputs = {}
        for name, locale in (("default", {}), ("ascii", self.ASCII_LOCALE)):
            out_dir = tmp_path / name
            argv = [command, renamed if non_ascii_id else CORPUS, *flag.split()]
            if flag in ("--report", "--out"):
                argv.append(str(out_dir))
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from grasp.cli import main; sys.exit(main())",
                 *argv],
                env=dict(os.environ, PYTHONPATH=src, **locale),
                capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr.decode(errors="replace")
            written = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
            outputs[name] = (done.stdout, written)
        stdout, written = outputs["ascii"]
        if flag == "--tool taylor":
            assert "—".encode("utf-8") in stdout
        else:
            assert len(written) == 8
            assert (f"{self.TOOL_ID}.md" in written) is non_ascii_id
        assert outputs["ascii"] == outputs["default"]

    #: The fixture's first tool, renamed: a non-ASCII id and name.
    TOOL_ID, TOOL_NAME = "céntor", "Centor Scöre 安全"

    @pytest.fixture
    def renamed(self, tmp_path):
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        for record in (*doc["tools"], *doc["studies"]):
            if record.get("tool_id") == "centor":
                record["tool_id"] = self.TOOL_ID
        assert doc["tools"][0]["id"] == "centor"
        doc["tools"][0].update(id=self.TOOL_ID, name=self.TOOL_NAME)
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _stdout(self, capsys, argv, locale):
        """Standard output of ``grasp *argv``: in this process, or in a child under ``locale``."""
        if locale is None:
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, ""), err
            return out.encode("utf-8")
        # The argv travels as ASCII-escaped JSON, which no locale decodes differently.
        src = str(Path(grasp.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c",
             "import json, sys; from grasp.cli import main; sys.exit(main(json.loads(sys.argv[1])))",
             json.dumps(argv)],
            env=dict(os.environ, PYTHONPATH=src, **locale), capture_output=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b""), done.stderr.decode(errors="replace")
        return done.stdout

    @pytest.mark.parametrize("layout, summary, locale", [
        *(pytest.param(layout, summary, None, id=f"{layout}{'-summary' * len(summary)}")
          for layout in ("table4", "table3", "structured") for summary in ((), ("--summary",))),
        pytest.param("structured", ("--summary",), ASCII_LOCALE, id="structured-summary-ascii"),
    ])
    def test_stdout_holds_the_bytes_of_the_report_file(self, capsys, tmp_path, renamed,
                                                       layout, summary, locale):
        argv = ["report", renamed, "--tool", self.TOOL_ID, "--layout", layout, *summary]
        stdout = self._stdout(capsys, argv, locale)
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
        assert (code, err) == (0, "")
        suffix = ".json" if layout == "structured" else ".md"
        assert stdout == (tmp_path / "out" / f"{self.TOOL_ID}{suffix}").read_bytes()
        assert self.TOOL_NAME.encode("utf-8") in stdout

    def test_structured_stdout_leaves_non_ascii_unescaped(self, capsys, renamed):
        graded = self._stdout(capsys, ["grade", renamed, "--format", "structured"], None)
        reported = self._stdout(capsys, ["report", renamed, "--layout", "structured"], None)
        assert f'"tool_id": "{self.TOOL_ID}"'.encode("utf-8") in graded
        assert f'"name": "{self.TOOL_NAME}"'.encode("utf-8") in reported
        assert b"\\u" not in graded + reported


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("token", [
        "NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="1e400-int"),
    ])
    def test_validate_names_the_field(self, capsys, tmp_path, token):
        text = (FIXTURES / "grasp8.json").read_text()
        path = tmp_path / "bad.json"
        path.write_text(text.replace('"journal_rank": 3.1', f'"journal_rank": {token}', 1))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert "SchemaError: $.tools[" in err and "].journal_rank" in err and "finite" in err


    @pytest.mark.parametrize("field", ["tool_citations", "studies_count"])
    def test_integer_beyond_the_double_range_is_rejected(self, capsys, tmp_path, field):
        doc = json.loads((FIXTURES / "grasp8.json").read_text())
        doc["tools"][7][field] = 10**400
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", str(path), "--lenient")
        assert (code, out) == (1, "")
        assert f"SchemaError: $.tools[7].{field}: expected a finite number\n" in err
        for argv in (["report", "--tool", "taylor"], ["grade", "--report", str(tmp_path / "out")]):
            code, out, err = run(capsys, *argv, str(path), "--lenient")
            assert (code, out) == (1, ""), err
            assert err.startswith("error: $.tools[7]")


#: Values put in place of a record field by the sweep below.
EXTREMES = (0, -1, 10**300, 10**400, -10**400, 1e308, "", "a|b\nc", None, True, [], {})

#: The sweep's commands after ``validate``; each takes the corpus path last.
SWEEP_COMMANDS = (
    ("grade", "--lenient", "--format", "structured"),
    ("report", "--lenient", "--summary", "--layout", "structured"),
)


def test_extreme_field_values_never_break_the_cli(capsys, tmp_path):
    """Each field of one tool and one study, present or optional, takes each
    of the extreme values: every command rejects the corpus (exit 1) or
    processes it (exit 0), and structured output then parses as JSON. A
    corpus ``validate`` rejects is rejected by ``report`` too; ``grade``
    loads it through the same function, so it is not run again."""
    fixture = json.loads((FIXTURES / "grasp8.json").read_text())
    # pecarn-s5 carries a level, an impact subtype, both flag maps, labels and notes.
    targets = (
        ("tools", 6, _TOOL_TABLE),
        ("studies", next(i for i, s in enumerate(fixture["studies"]) if s["id"] == "pecarn-s5"),
         _STUDY_TABLE),
    )
    path = tmp_path / "edited.json"
    accepted = 0
    for kind, index, table in targets:
        for field in table.fields:
            for value in EXTREMES:
                doc = json.loads(json.dumps(fixture))
                doc[kind][index][field.key] = value
                path.write_text(json.dumps(doc))
                where = f"{kind}[{index}].{field.key} = {value!r:.20}"
                valid, _, err = run(capsys, "validate", "--lenient", str(path))
                assert valid in (0, 1), f"validate with {where}: exit {valid}: {err}"
                accepted += valid == 0
                for command in SWEEP_COMMANDS if valid == 0 else SWEEP_COMMANDS[1:]:
                    code, out, err = run(capsys, *command, str(path))
                    assert code in ((0, 1) if valid == 0 else (1,)), \
                        f"{command[0]} with {where}: exit {code}: {err}"
                    if code == 0:
                        json.loads(out)
    assert 0 < accepted < len(EXTREMES) * (len(_TOOL_TABLE.fields) + len(_STUDY_TABLE.fields))


def _edited_corpora(fixture: dict, count: int):
    """``count`` seeded copies of ``fixture``, each with 1-3 edits: a value
    swapped between two records (the same key or any two), a key dropped, or
    a study removed together with one from its tool's ``studies_count``."""
    rng = random.Random(0)
    for _ in range(count):
        doc = json.loads(json.dumps(fixture))
        for _ in range(rng.randint(1, 3)):
            edit = rng.randrange(3)
            if edit == 0:
                a, b = rng.sample(doc["tools"] + doc["studies"], 2)
                key_a = rng.choice(sorted(a))
                key_b = key_a if key_a in b and rng.random() < 0.5 else rng.choice(sorted(b))
                a[key_a], b[key_b] = b[key_b], a[key_a]
            elif edit == 1:
                record = rng.choice(doc["tools"] + doc["studies"])
                del record[rng.choice(sorted(record))]
            elif doc["studies"]:
                study = doc["studies"].pop(rng.randrange(len(doc["studies"])))
                for tool in doc["tools"]:
                    declared = tool.get("studies_count")
                    if tool.get("id") == study.get("tool_id") and isinstance(declared, int):
                        tool["studies_count"] = declared - 1
        yield doc


#: Keys that a field path must quote, so that each reads back as one step.
AWKWARD_KEYS = ("a.b", "x[0]", "", "k: v", "'q'", "\u00e9")


def _awkward_corpora(fixture: dict, rounds: int):
    """``rounds`` seeded copies of ``fixture`` per awkward key, each with that
    key added to one tool, study or flag map."""
    rng = random.Random(0)
    for _ in range(rounds):
        for key in AWKWARD_KEYS:
            doc = json.loads(json.dumps(fixture))
            flag_maps = [study[name] for study in doc["studies"]
                         for name in ("matching_fields", "quality_fields") if name in study]
            rng.choice(doc["tools"] + doc["studies"] + flag_maps)[key] = True
            yield doc


#: One step of a field path: ``.key`` with a bare identifier or a quoted repr, or ``[i]``.
_STEP = re.compile(r"""\.([^\W\d]\w*|'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")|\[(\d+)\]""")


def _names_a_place(document, path: str) -> bool:
    """Whether ``path`` reaches a node of ``document``, or ends in a key that
    an object node does not hold."""
    if not path.startswith("$"):
        return False
    node, at = document, 1
    while at < len(path):
        step = _STEP.match(path, at)
        if step is None:
            return False
        at = step.end()
        key, index = step.groups()
        if index is not None:
            if not isinstance(node, list) or int(index) >= len(node):
                return False
            node = node[int(index)]
            continue
        key = ast.literal_eval(key) if key[0] in "'\"" else key
        if not isinstance(node, dict):
            return False
        if key not in node:
            return at == len(path)
        node = node[key]
    return True


def test_every_reported_path_names_a_place_in_the_input():
    """Each error ``load_corpus`` lists for an edited corpus, or for one with an
    awkward key added, names a node of the document or a key missing from one."""
    fixture = json.loads((FIXTURES / "grasp8.json").read_text())
    checked = 0
    for doc in [*_edited_corpora(fixture, 300), *_awkward_corpora(fixture, 10)]:
        _, errors, _ = load_corpus(json.dumps(doc), strict=True)
        for error in errors:
            assert _names_a_place(doc, error.path), str(error)
        checked += len(errors)
    assert checked > 300


def test_edited_corpora_that_validate_never_break_the_cli(capsys, tmp_path):
    """A corpus ``validate --strict`` accepts is graded and reported (exit 0)
    by every command under its own policy; structured output parses as JSON,
    and each ``grade`` line starts with one of the corpus's tool ids and a
    grade token. Where it rejects, each study path it prints is the input's
    place of the study it names."""
    fixture = json.loads((FIXTURES / "grasp8.json").read_text())
    grades = {level.value for level in grasp.GradeLevel}
    path = tmp_path / "edited.json"
    accepted = 0
    for doc in _edited_corpora(fixture, 300):
        doc["studies"].reverse()  # so that a study's place in the input is not its place by id
        path.write_text(json.dumps(doc))
        valid, _, err = run(capsys, "validate", "--strict", str(path))
        assert valid in (0, 1), err
        if valid:
            for i, study_id in re.findall(r"\$\.studies\[(\d+)\]: study '([^']*)'", err):
                assert doc["studies"][int(i)]["id"] == study_id, err
            continue
        accepted += 1
        tool_ids = {tool["id"] for tool in doc["tools"]}
        code, out, err = run(capsys, "grade", str(path))
        assert code == 0, err
        assert "no gradable study" not in err
        for line in out.splitlines():
            tool_id, grade, _ = line.split(" ", 2)
            assert tool_id in tool_ids and grade in grades, line
        for argv in (("grade", "--format", "structured"),
                     ("report", "--summary", "--layout", "structured")):
            code, out, err = run(capsys, *argv, str(path))
            assert code == 0, f"{argv}: exit {code}: {err}"
            assert "no gradable study" not in err, argv
            json.loads(out)
    assert accepted > 0


def _mutations(data: bytes, count: int):
    """``count`` seeded copies of ``data``, each with 1-4 bytes overwritten at random."""
    rng = random.Random(0)
    for _ in range(count):
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        yield bytes(mutated)


@pytest.mark.parametrize("sheet, command", [
    (R1, ("raters", "{path}", "{path}")),
    (SURVEY, ("survey", "{path}")),
], ids=["raters", "survey"])
def test_mutated_sheets_never_break_the_cli(capsys, tmp_path, sheet, command):
    """A sheet with a few bytes overwritten is rejected (exit 1) or processed
    (exit 0, and the structured output parses as JSON); a rater sheet is
    compared with itself."""
    path = tmp_path / "mutated.csv"
    codes = []
    for mutated in _mutations(Path(sheet).read_bytes(), 300):
        path.write_bytes(mutated)
        argv = [arg.format(path=path) for arg in command]
        code, out, err = run(capsys, *argv, "--format", "structured")
        assert code in (0, 1), f"{mutated!r}: exit {code}: {err}"
        if code == 0:
            json.loads(out)
        codes.append(code)
    assert set(codes) == {0, 1}


def test_parser_is_built_once():
    assert build_parser() is build_parser()


class TestInternalErrors:
    def test_stray_key_error_is_an_internal_error(self, capsys, monkeypatch):
        def broken(*_):
            raise KeyError("bug")
        monkeypatch.setattr("grasp.cli.assign_grade", broken)
        code, out, err = run(capsys, "grade", CORPUS)
        assert code == 3
        assert out == ""
        assert err == "internal error: KeyError: 'bug'\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_each_command_runs_with_the_collector_off(enabled, capsys, monkeypatch, tmp_path, corpus8_bytes):
    """main owns the collector policy: a command runs with the cyclic collector
    off, and the caller's setting is back however the command ends. A usage
    error never touches the collector, nor does load_corpus called directly."""
    seen, touched = [], []

    def loads(*args, **kwargs):
        seen.append(gc.isenabled())
        return json.loads(*args, **kwargs)

    def spy(name):
        def call():
            touched.append(name)
            return getattr(gc, name)()
        return call

    def broken(*_):
        raise KeyError("bug")

    monkeypatch.setattr(grasp.corpus, "json", types.SimpleNamespace(
        loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError,
    ))
    monkeypatch.setattr(grasp.cli, "gc", types.SimpleNamespace(
        **{name: spy(name) for name in ("isenabled", "enable", "disable")}
    ))
    rejected = tmp_path / "rejected.json"
    rejected.write_bytes(b'{"schema_version": "grasp-corpus/1", "tools": [{}], "studies": []}')
    commands = (
        (["grade", CORPUS], 0),
        (["validate", str(rejected)], 1),
        (["grade", str(rejected)], 1),
        (["report", CORPUS, "--tool", "centor"], 3),
    )
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, expected in commands:
            seen.clear()
            with monkeypatch.context() as patch:
                if expected == 3:
                    patch.setattr("grasp.cli.render_detailed_report", broken)
                assert run(capsys, *argv)[0] == expected
            assert seen and not any(seen), argv
            assert gc.isenabled() is enabled
        touched.clear()
        with pytest.raises(SystemExit) as exc:
            main(["grade", CORPUS, "--frobnicate"])
        assert exc.value.code == 2
        assert touched == [] and gc.isenabled() is enabled
        seen.clear()
        for data in (corpus8_bytes, b'{"tools": [', rejected.read_bytes()):
            load_corpus(data)
            assert gc.isenabled() is enabled
        assert seen == [enabled] * 3
    finally:
        (gc.enable if was else gc.disable)()


class TestUsageErrors:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grade", CORPUS, "--frobnicate"])
        assert exc.value.code == 2
