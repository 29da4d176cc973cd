"""Seeded inputs and the fixed operation list of each benchmark workload.

A workload generates its input files from the seed alone, writes them to a
directory, and lists the ``grasp`` invocations of one pass. ``grasp`` only
ever sees the written files. Each operation carries what the checker needs
to judge its output and the counts the metrics are based on.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import gen  # tests/gen.py: seeded generators of valid records
from grasp.corpus import Corpus, emit_corpus

import checker

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

#: Tools in the wide corpus; the scaling probe also runs half of it.
WIDE_TOOLS = 400


@dataclass
class Op:
    """One ``grasp`` invocation and what its output must satisfy."""

    argv: list[str]
    #: Returns a description of each way the output is wrong.
    check: Callable[[str, Optional[Path]], list[str]]
    #: Study records the command reads from a corpus.
    records: int = 0
    #: Gradable studies the command grades.
    graded: int = 0
    #: Directory the command writes report files into, if any.
    report_dir: Optional[Path] = None


@dataclass
class Prepared:
    """A workload's inputs written to a directory, with its operations."""

    ops: list[Op]
    #: Records the working set; called after set-up is timed, because the
    #: bucket counts come from the reference grader.
    describe: Callable[[], dict]


def _wide_corpus(rng: random.Random, n_tools: int) -> Corpus:
    tools, studies, counter = [], [], 0
    for index in range(n_tools):
        tool = gen.random_tool(rng, index)
        tool_studies, counter = gen.random_tool_studies(rng, tool, counter)
        tools.append(replace(tool, studies_count=len(tool_studies)))
        studies.extend(tool_studies)
    return Corpus(tools=tuple(tools), studies=tuple(studies))


def _corpus_shape(corpus: Corpus, data: bytes, ref: checker.CorpusReference) -> dict:
    return {
        "tools": len(corpus.tools),
        "studies": len(corpus.studies),
        "gradable_studies": sum(s.is_gradable for s in corpus.studies),
        "buckets": ref.buckets,
        "mixed_buckets": ref.mixed_buckets,
        "input_bytes": len(data),
    }


def _write_corpus(corpus: Corpus, directory: Path, name: str) -> tuple[Path, bytes]:
    data = emit_corpus(corpus)
    path = directory / name
    path.write_bytes(data)
    return path, data


def prepare_wide(seed: int, directory: Path, n_tools: int = WIDE_TOOLS) -> Prepared:
    corpus = _wide_corpus(random.Random(seed), n_tools)
    path, data = _write_corpus(corpus, directory, "wide.json")
    ref = checker.CorpusReference(corpus)
    n, graded = len(corpus.studies), sum(s.is_gradable for s in corpus.studies)
    report_dir = directory / "reports"
    ops = [
        Op(["validate", str(path)], ref.check_validate, records=n),
        Op(["grade", str(path), "--format", "structured"], ref.check_grade_structured,
           records=n, graded=graded),
        Op(["grade", str(path), "--report", str(report_dir)], ref.check_grade_report,
           records=n, graded=graded, report_dir=report_dir),
    ]
    return Prepared(ops, lambda: _corpus_shape(corpus, data, ref))


def prepare_fixtures(seed: int, directory: Path) -> Prepared:
    """The committed fixtures; the seed has nothing to vary here."""
    del seed
    shutil.copy(FIXTURES / "grasp8.json", directory / "grasp8.json")
    shutil.copy(FIXTURES / "survey.csv", directory / "survey.csv")
    (directory / "raters").mkdir()
    for name in ("r1", "r2", "authors"):
        shutil.copy(FIXTURES / "raters" / f"{name}.csv", directory / "raters" / f"{name}.csv")
    corpus_path = directory / "grasp8.json"
    document = json.loads(corpus_path.read_bytes())
    ref = checker.FixtureReference(document)
    n = len(document["studies"])
    graded = sum(ref.gradable.values())
    ops = [
        Op(["grade", str(corpus_path)], ref.check_grade_text, records=n, graded=graded),
        Op(["grade", str(corpus_path), "--format", "structured"], ref.check_grade_structured,
           records=n, graded=graded),
    ]
    for tool_id in sorted(checker.AUTHOR_GRADES):
        ops.append(Op(
            ["report", str(corpus_path), "--tool", tool_id, "--summary"],
            ref.summary_checker(tool_id), records=n, graded=ref.gradable[tool_id],
        ))
    sheets = {name: _read_sheet(directory / "raters" / f"{name}.csv")
              for name in ("r1", "r2", "authors")}
    pairs = []
    for a, b in checker.FIXTURE_RHO:
        ops.append(Op(
            ["raters", str(directory / "raters" / f"{a}.csv"),
             str(directory / "raters" / f"{b}.csv"), "--format", "structured"],
            ref.raters_checker(a, b, sheets[a], sheets[b]),
        ))
        pairs.append({"pair": f"{a}/{b}", "n": len(sheets[a].keys() & sheets[b].keys()),
                      "ties_a": _ties(sheets[a].values()), "ties_b": _ties(sheets[b].values())})
    ops.append(Op(["survey", str(directory / "survey.csv")], ref.check_survey))
    ops.append(Op(["validate", str(corpus_path)], ref.check_validate, records=n))
    shape = {
        "tools": len(document["tools"]),
        "studies": n,
        "gradable_studies": graded,
        "input_bytes": sum(p.stat().st_size for p in directory.rglob("*") if p.is_file()),
        "rater_pairs": pairs,
        "ops_per_pass": len(ops),
    }
    return Prepared(ops, lambda: shape)


def _read_sheet(path: Path) -> dict[str, str]:
    """A ``tool_id,grade`` sheet as {tool id: grade}."""
    with open(path, newline="") as sheet:
        return {row["tool_id"]: row["grade"] for row in csv.DictReader(sheet)}


def _ties(grades) -> int:
    """Observations sharing their value with another observation."""
    return sum(c for c in Counter(grades).values() if c > 1)


PREPARE = {
    "corpus-wide": prepare_wide,
    "cli-fixtures": prepare_fixtures,
}
