"""Traced in-process pass: spans around the calls into each ``grasp`` module.

Every public function a caller reaches is replaced, at the name that caller
looks up, by a wrapper that records a span: name, start, end, parent span
and the index of the operation it belongs to. The spans stay in memory and
are written out when the pass ends; per-layer metrics are computed from
them. Self time is a span's duration minus the time its child spans cover.
Nothing inside ``src/`` is changed; the wrappers are removed after the pass.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
import types
from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import wraps
from pathlib import Path
from typing import Callable, Iterator, Optional

import grasp.cli
import grasp.corpus
import grasp.engine
import grasp.stats

@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: Optional[int]
    start: float = 0.0
    end: float = 0.0
    #: Records parsed (corpus loads) or n (permutation tests).
    count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``op`` is set by the runner before each operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._started = 0
        self._stack: list[Span] = []

    def wrap(self, fn: Callable, name: str, count: Optional[Callable] = None) -> Callable:
        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(id=self._started, name=name, op=self.op, parent=parent)
            self._started += 1
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if count is not None:
                span.count = count(args, result)
            return result
        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s.id):
                out.write(json.dumps(asdict(span)) + "\n")


def _loaded_records(args, result) -> int:
    corpus = result[0] if isinstance(result, tuple) else result
    return len(corpus.tools) + len(corpus.studies) if corpus is not None else 0


# (owner, attribute, span name, count). The owner is the
# namespace the caller looks the name up in: grasp.cli imports the engine
# and report functions by name, and reaches corpus and stats through their
# modules, which in turn call their own module globals.
PATCHES = (
    (grasp.cli, "main", "cli.main", None),
    (grasp.corpus, "parse_corpus", "corpus.parse_corpus", None),
    (grasp.corpus, "load_corpus", "corpus.load_corpus", _loaded_records),
    (grasp.corpus.Corpus, "studies_for", "corpus.studies_for", None),
    (grasp.corpus.Corpus, "tool", "corpus.tool", None),
    (grasp.corpus, "parse_rater_sheet", "corpus.parse_rater_sheet", None),
    (grasp.corpus, "parse_survey_sheet", "corpus.parse_survey_sheet", None),
    (grasp.cli, "assign_grade", "engine.assign_grade", None),
    (grasp.engine, "mixed_protocol", "engine.mixed_protocol", None),
    (grasp.engine, "resolve_matching", "engine.resolve_matching", None),
    (grasp.cli, "appraise_study", "engine.appraise_study", None),
    (grasp.cli, "render_detailed_report", "report.render_detailed_report", None),
    (grasp.cli, "render_evidence_summary", "report.render_evidence_summary", None),
    (grasp.stats, "compare_raters", "stats.compare_raters", None),
    (grasp.stats, "permutation_p", "stats.permutation_p", lambda args, _: len(args[0])),
    (grasp.stats, "summarize_survey", "stats.summarize_survey", None),
    (grasp.stats, "overall_summary", "stats.overall_summary", None),
)


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every patched name, and ``json.loads`` as grasp.corpus sees it.

    A name the program no longer has stops the run: its metrics would read
    0, which looks like a gain, so a refactored program needs PATCHES updated.
    """
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in PATCHES
               if attr not in vars(owner)]
    if vars(grasp.corpus).get("json") is not json:
        missing.append("grasp.corpus.json")
    if missing:
        raise LookupError(f"traced names not found, update perfbench/tracer.py: {', '.join(missing)}")
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, *_ in PATCHES]
    saved.append((grasp.corpus, "json", grasp.corpus.json))
    try:
        for owner, attr, name, count in PATCHES:
            setattr(owner, attr, tracer.wrap(vars(owner)[attr], name, count))
        grasp.corpus.json = types.SimpleNamespace(
            loads=tracer.wrap(json.loads, "corpus.json_loads"),
            dumps=json.dumps,
            JSONDecodeError=json.JSONDecodeError,
        )
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def run_in_process(ops, tracer: Optional[Tracer] = None) -> tuple[float, list[tuple[int, str]]]:
    """Run the operations through ``grasp.cli.main``; returns (wall, [(exit code, stdout)]).

    The benchmark's own objects (generated corpora, references) are frozen
    out of the garbage collector first, so collections during the pass scan
    no more than they would in a fresh ``grasp`` process.
    """
    results = []
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.op = index
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = grasp.cli.main(op.argv)
            results.append((code, out.getvalue()))
        wall = time.perf_counter() - start
    finally:
        gc.unfreeze()
    return wall, results


def layer_metrics(spans: list[Span], ops, results: list[tuple[int, str]]) -> dict[str, float]:
    """Per-layer metrics of one traced pass. A layer the pass never enters reads 0."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            covered[span.parent] += span.duration

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(s.duration - covered[s.id] for s in by_name[name])

    def calls(name: str) -> int:
        return len(by_name[name])

    load_s = total("corpus.load_corpus")
    records = sum(s.count for s in by_name["corpus.load_corpus"])
    graded = sum(op.graded for op in ops)
    stdout_bytes = [len(out.encode()) for _, out in results]
    report_files = [p for op in ops if op.report_dir and op.report_dir.is_dir()
                    for p in op.report_dir.iterdir()]
    report_stdout = sum(n for op, n in zip(ops, stdout_bytes) if op.argv[0] == "report")
    return {
        "corpus.load_s": self_time("corpus.load_corpus") + self_time("corpus.parse_corpus"),
        "corpus.json_decode_s": total("corpus.json_loads"),
        "corpus.records_per_s": records / load_s if load_s else 0.0,
        "corpus.studies_for_calls": calls("corpus.studies_for"),
        "corpus.studies_for_s": total("corpus.studies_for"),
        "corpus.tool_calls": calls("corpus.tool"),
        "corpus.sheet_parse_s": total("corpus.parse_rater_sheet") + total("corpus.parse_survey_sheet"),
        "engine.assign_grade_calls": calls("engine.assign_grade"),
        "engine.assign_grade_self_s": self_time("engine.assign_grade"),
        "engine.mixed_protocol_calls": calls("engine.mixed_protocol"),
        "engine.mixed_protocol_s": total("engine.mixed_protocol"),
        "engine.resolve_matching_calls": calls("engine.resolve_matching"),
        "engine.gradable_studies": graded,
        "engine.appraisals_per_study": calls("engine.resolve_matching") / graded if graded else 0.0,
        "engine.grade_s": total("engine.assign_grade") + total("corpus.studies_for"),
        "report.detailed_calls": calls("report.render_detailed_report"),
        "report.detailed_s": total("report.render_detailed_report"),
        "report.summary_s": total("report.render_evidence_summary"),
        "report.bytes_out": sum(p.stat().st_size for p in report_files) + report_stdout,
        "stats.permutation_p_s": total("stats.permutation_p"),
        "stats.arrangements": sum(math.factorial(s.count) for s in by_name["stats.permutation_p"]),
        "stats.survey_s": total("stats.summarize_survey") + total("stats.overall_summary"),
        "cli.main_self_s": self_time("cli.main"),
        "cli.report_files": len(report_files),
        "cli.stdout_bytes": sum(stdout_bytes),
    }


def alloc_peak_mb(ops) -> tuple[float, list[tuple[int, str]]]:
    """Largest tracemalloc peak of one ``permutation_p`` call, over the ``raters`` ops.

    Measured in a pass of its own because tracemalloc slows the call two- to
    fourfold, which would distort the span times.
    """
    original = grasp.stats.permutation_p
    peaks = [0]

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    grasp.stats.permutation_p = measured
    try:
        _, results = run_in_process([op for op in ops if op.argv[0] == "raters"])
    finally:
        grasp.stats.permutation_p = original
    return max(peaks) / 2**20, results


def scaling(small: dict[str, float], large: dict[str, float], ratio: float) -> dict[str, float]:
    """Fitted exponents k of time ~ size**k between two corpus sizes."""
    def exponent(key: str) -> float:
        if not (large[key] and small[key]):
            return 0.0
        return math.log(large[key] / small[key]) / math.log(ratio)
    return {
        "corpus.load_scaling": exponent("corpus.load_s"),
        "corpus.studies_for_scaling": exponent("corpus.studies_for_s"),
        "engine.grade_scaling": exponent("engine.grade_s"),
    }


def import_times(root: Path, env: dict, runs: int = 3) -> tuple[float, float]:
    """Median cumulative import time of grasp (with grasp.cli) and of numpy, in seconds."""
    grasp_s, numpy_s = [], []
    for _ in range(runs):
        report = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import grasp.cli"],
            cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, check=True, timeout=60,
        ).stderr
        top, numpy = 0, 0
        for line in report.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line.split("|")
            stripped = name.strip()
            if name.startswith(" ") and not name.startswith("  ") and (
                stripped == "grasp" or stripped.startswith("grasp.")
            ):
                top += int(cumulative)
            if stripped == "numpy":
                numpy = int(cumulative)
        grasp_s.append(top / 1e6)
        numpy_s.append(numpy / 1e6)
    return statistics.median(grasp_s), statistics.median(numpy_s)
