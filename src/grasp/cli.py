"""Command-line interface binding corpus ingestion, grading, reporting, and
statistics into operator workflows.

Standard output carries only data; warnings and errors go to stderr. Exit
codes: 0 success (including needs-review results, which warn on stderr),
1 validation or grading error, 2 usage error, 3 internal invariant breach.
Output is byte-identical for identical inputs and flags unless ``--stamp``
injects a timestamp.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import fields, replace
from enum import IntEnum
from functools import cache
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from . import corpus as corpus_io
from .engine import appraise_study, assign_grade, compute_indices
from .errors import ConsistencyError, GraspError
from .model import AppraisalPolicy, GradeResult, TieFallback, ToolProfile
from .report import ReportFormat, grade_to_obj, render_detailed_report, render_evidence_summary

gc.freeze()  # what the imports made lives until exit, so no collection (the one at exit too) walks it


class ExitStatus(IntEnum):
    OK = 0
    DATA_ERROR = 1
    USAGE = 2
    INTERNAL = 3


#: Help of the policy flags of ``grade`` and ``report``, one per AppraisalPolicy field.
_POLICY_HELP = {
    "matching_rule": "override the matching resolution rule",
    "quality_rule": "override the quality resolution rule",
    "tie_fallback": "override the full-tie fallback of the mixed evidence protocol",
}

def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _add_strictness(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--strict", dest="strict", action="store_true", default=True,
        help="reject unknown fields (default)",
    )
    group.add_argument(
        "--lenient", dest="strict", action="store_false",
        help="warn about unknown fields instead of rejecting them",
    )


def _grading_parser() -> argparse.ArgumentParser:
    """The arguments ``grade`` and ``report`` share, declared once."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("corpus", help="corpus JSON file")
    parser.add_argument("--tool", help="only this tool id")
    parser.add_argument("--layout", choices=sorted(f.value for f in ReportFormat), default="table4")
    parser.add_argument("--reference-year", type=int,
                        help="reference year for bibliometric indices (default: newest record year)")
    _add_strictness(parser)
    for f in fields(AppraisalPolicy):
        parser.add_argument("--" + f.name.replace("_", "-"), choices=[m.value for m in type(f.default)],
                            help=_POLICY_HELP[f.name])
    parser.add_argument(
        "--stamp", action="store_true",
        help="include a generation timestamp (output is otherwise reproducible)",
    )
    return parser


def _grade_selected(
    args: argparse.Namespace,
) -> tuple[corpus_io.Corpus, list[tuple[ToolProfile, GradeResult]]]:
    """Load the corpus, grade every tool (or only ``--tool``), then warn of each review flag."""
    corpus = corpus_io.parse_corpus(Path(args.corpus).read_bytes(), strict=args.strict, on_warning=_warn)
    # Precedence: flag > corpus-embedded > default.
    flags = {f.name: type(f.default)(getattr(args, f.name))
             for f in fields(AppraisalPolicy) if getattr(args, f.name)}
    policy = replace(corpus.policy, **flags)
    tools = corpus.tools if args.tool is None else (corpus.tool(args.tool),)
    graded = [(tool, assign_grade(tool, corpus.studies_for(tool.id), policy)) for tool in tools]
    for _, result in graded:
        if result.needs_review:
            _warn(f"{result.tool_id}: grade needs review ({result.justification})")
    return corpus, graded


def _grade_line(result: GradeResult) -> str:
    label = result.tool_label
    label = f'"{label}"' if label else "-"
    direction = result.direction.value.title().replace("_", "")  # mixed_positive: MixedPositive
    line = f"{result.tool_id} {result.final_grade.value} {direction} {label}"
    if result.needs_review:
        line += " [review]"
    return line


def _documents(
    args: argparse.Namespace,
    corpus: corpus_io.Corpus,
    graded: list[tuple[ToolProfile, GradeResult]],
) -> Iterator[tuple[ToolProfile, Union[str, dict]]]:
    """Yield each graded tool's document: its detailed report and, with
    ``--summary``, the evidence summary of its gradable studies."""
    layout, stamp = ReportFormat(args.layout), None
    if args.stamp:
        from datetime import datetime, timezone
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    for tool, result in graded:
        year = args.reference_year
        if year is None:
            year = max(record.year for record in (tool, *corpus.studies_for(tool.id)))
        indices = compute_indices(tool, year)
        report = render_detailed_report(tool, result, indices, layout, generated_at=stamp)
        if not args.summary:
            yield tool, report
            continue
        # Grading appraised the studies of mixed buckets; appraise only the rest.
        appraised = {s.id: a for b in result.all_buckets for s, a in zip(b.studies, b.appraisals)}
        rows = [(s, appraised[s.id] if s.id in appraised else appraise_study(s, result.policy))
                for s in corpus.studies_for(tool.id) if s.is_gradable]
        summary = render_evidence_summary(rows, layout, generated_at=stamp)
        if layout is ReportFormat.STRUCTURED:
            yield tool, {"report": report, "evidence_summary": summary}
        else:
            yield tool, report + "\n" + summary


def _write_reports(
    args: argparse.Namespace,
    corpus: corpus_io.Corpus,
    graded: list[tuple[ToolProfile, GradeResult]],
) -> None:
    directory, layout = Path(args.out), ReportFormat(args.layout)
    suffix = ".json" if layout is ReportFormat.STRUCTURED else ".md"
    # Every document is built before anything is written.
    files = []
    for tool, document in _documents(args, corpus, graded):
        if layout is ReportFormat.STRUCTURED:
            document = corpus_io.json_text(document)
        # A file name is UTF-8 whatever the locale, like the text inside it.
        files.append((directory / os.fsdecode(f"{tool.id}{suffix}".encode("utf-8")), document))
    directory.mkdir(parents=True, exist_ok=True)
    for path, text in files:
        _write_atomically(path, text)


def _write_atomically(path: Path, text: str) -> None:
    """Write through a temporary file beside ``path``, so a failed write
    leaves any earlier file there intact and no partial file behind."""
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _cmd_grade(args: argparse.Namespace) -> int:
    corpus, graded = _grade_selected(args)
    if args.format == "structured":
        print(corpus_io.json_text([grade_to_obj(r) for _, r in graded]), end="")
    else:
        for _, result in graded:
            print(_grade_line(result))
    if args.out:
        _write_reports(args, corpus, graded)
    return ExitStatus.OK


def _cmd_report(args: argparse.Namespace) -> int:
    corpus, graded = _grade_selected(args)
    if args.out:
        _write_reports(args, corpus, graded)
        return ExitStatus.OK
    documents = [document for _, document in _documents(args, corpus, graded)]
    if ReportFormat(args.layout) is ReportFormat.STRUCTURED:
        print(corpus_io.json_text(documents if args.tool is None else documents[0]), end="")
    else:
        print("\n".join(documents), end="")
    return ExitStatus.OK


def _format_p(p_value: float) -> str:
    return "p<0.001" if p_value < 0.001 else f"p={p_value:.3f}"


def _cmd_raters(args: argparse.Namespace) -> int:
    from . import stats  # imported here, so that grade, report and validate never load it
    name_a, name_b = Path(args.sheet_a).stem, Path(args.sheet_b).stem
    grades_a = corpus_io.parse_rater_sheet(Path(args.sheet_a).read_bytes())
    grades_b = corpus_io.parse_rater_sheet(Path(args.sheet_b).read_bytes())
    if grades_a.keys() != grades_b.keys():
        only_a = sorted(grades_a.keys() - grades_b.keys())
        only_b = sorted(grades_b.keys() - grades_a.keys())
        raise ConsistencyError(
            "", "rater sheets cover different tools"
            f" (only in {name_a}: {only_a or '-'}; only in {name_b}: {only_b or '-'})"
        )
    tool_ids = sorted(grades_a)
    comparison = stats.compare_raters(
        [grades_a[t] for t in tool_ids], [grades_b[t] for t in tool_ids]
    )
    n = len(tool_ids)
    if args.format == "structured":
        document = {"rater_a": name_a, "rater_b": name_b, "n": n, **comparison._asdict()}
        print(corpus_io.json_text(document), end="")
    else:
        print(
            f"rho={comparison.rho:.3f}"
            f" agreement={comparison.exact_agreement}/{n}"
            f" {_format_p(comparison.p_value)}"
        )
    return ExitStatus.OK


def _cmd_survey(args: argparse.Namespace) -> int:
    from . import stats
    responses = corpus_io.parse_survey_sheet(Path(args.responses).read_bytes())
    summaries = stats.summarize_survey(responses) + [stats.overall_summary(responses)]
    if args.format == "structured":
        print(corpus_io.json_text([{**s._asdict(), "label": s.label.display} for s in summaries]), end="")
    else:
        for summary in summaries:
            print(f"{summary.question_id}\t{summary.mean_score:.2f}\t{summary.label.display}")
    return ExitStatus.OK


def _grading_faults(data: bytes, corpus: corpus_io.Corpus) -> list[ConsistencyError]:
    """What grading under the corpus's own policy fails on, at each record's place in the input:
    studies that cannot be appraised, then tools whose mixed evidence ties under the failing fallback."""
    studies, tools, policy = {}, {}, corpus.policy
    for study in corpus.studies:
        if study.is_gradable:
            try:
                appraise_study(study, policy)
            except GraspError as error:
                studies[study.id] = str(error)
    if policy.tie_fallback is TieFallback.FAIL_WITH_REVIEW_FLAG:
        for tool in corpus.tools:
            attached = corpus.studies_for(tool.id)
            if not any(study.id in studies for study in attached):
                try:
                    assign_grade(tool, attached, policy)
                except GraspError as error:
                    tools[tool.id] = str(error)
    return corpus_io.faults_at_records(data, {"studies": studies, "tools": tools})


def _cmd_validate(args: argparse.Namespace) -> int:
    data = Path(args.corpus).read_bytes()
    corpus, errors, warnings = corpus_io.load_corpus(data, strict=args.strict)
    for message in warnings:
        _warn(message)
    if not errors:
        assert corpus is not None
        errors = _grading_faults(data, corpus)
    if errors:
        for error in errors:
            print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return ExitStatus.DATA_ERROR
    print(f"OK: {len(corpus.tools)} tools, {len(corpus.studies)} studies")
    return ExitStatus.OK


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasp",
        description="Grade clinical predictive tools from structured records of their published evidence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grading = [_grading_parser()]

    grade = sub.add_parser("grade", parents=grading, help="grade every tool in a corpus")
    grade.add_argument("--format", choices=["text", "structured"], default="text")
    grade.add_argument("--report", dest="out", metavar="DIR", help="also write detailed reports to DIR")
    grade.set_defaults(func=_cmd_grade, summary=False)

    report = sub.add_parser("report", parents=grading, help="render detailed reports")
    report.add_argument("--out", metavar="DIR", help="write reports to DIR instead of stdout")
    report.add_argument("--summary", action="store_true", help="append the evidence summary")
    report.set_defaults(func=_cmd_report)

    raters = sub.add_parser("raters", help="compare two rater grade sheets")
    raters.add_argument("sheet_a", help="first rater sheet (CSV: tool_id,grade)")
    raters.add_argument("sheet_b", help="second rater sheet")
    raters.add_argument("--format", choices=["text", "structured"], default="text")
    raters.set_defaults(func=_cmd_raters)

    survey = sub.add_parser("survey", help="summarize Likert survey responses")
    survey.add_argument("responses", help="survey sheet (CSV: question_id,response)")
    survey.add_argument("--format", choices=["text", "structured"], default="text")
    survey.set_defaults(func=_cmd_survey)

    validate = sub.add_parser("validate", help="validate a corpus file")
    validate.add_argument("corpus", help="corpus JSON file")
    _add_strictness(validate)
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Stdout is UTF-8 whatever the locale, like report files. A stream that is
    # not a real text file, such as an io.StringIO, has no encoding to set.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    args = build_parser().parse_args(argv)
    # A command's objects live until it returns and decoded JSON holds no cycle,
    # so a collection during a command would walk a growing heap to free little.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return int(args.func(args))
    except (GraspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ExitStatus.DATA_ERROR
    except Exception as exc:  # pragma: no cover - invariant breach
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return ExitStatus.INTERNAL
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
