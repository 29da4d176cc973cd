"""Independent reference for every output the benchmark asks ``grasp`` for.

Nothing here calls the grading engine, the statistics module or the CLI.
Generated corpora are graded again from the generated records with the
literal oracles of ``tests/oracles.py`` and the documented ladder rules;
the fixture expectations are the published values quoted in the README and
the acceptance tests; rater p-values come from an exact count of
arrangements by dynamic programming and rho from ``scipy.stats.spearmanr``.
Each ``check_*`` returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import json
import re
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property
from math import factorial
from pathlib import Path
from typing import Optional

from grasp.model import (
    MATCHING_FIELD_KEYS,
    BucketDirection,
    EvidenceClass,
    MatchingVerdict,
    QualityVerdict,
    StudyDirection,
    StudyType,
)
from oracles import oracle_direction, oracle_matching

#: Authors' grades of the eight reference tools (README, tests/conftest.py).
AUTHOR_GRADES = {
    "centor": "B3",
    "chalice": "B2",
    "dietrich": "C0",
    "lace": "C1",
    "manuck": "C2",
    "ottawa-knee": "A1",
    "pecarn": "A2",
    "taylor": "C3",
}
#: Published interrater correlations of the fixture sheets, all with p < 0.001.
FIXTURE_RHO = {("r1", "authors"): 0.994, ("r2", "authors"): 0.994, ("r1", "r2"): 0.988}
#: Published survey means and meanings (tests/test_acceptance.py, criterion 3).
SURVEY_EXPECTED = {
    "predictive-performance": ("4.87", "Strongly Agree"),
    "performance-levels": ("4.44", "Strongly Agree"),
    "usability": ("4.68", "Strongly Agree"),
    "potential-effect": ("4.61", "Strongly Agree"),
    "usability-higher": ("2.97", "Neither Agree nor Disagree"),
    "impact": ("4.78", "Strongly Agree"),
    "impact-levels": ("4.16", "Somewhat Agree"),
    "evidence-direction": ("4.26", "Strongly Agree"),
    "overall": ("4.35", "Strongly Agree"),
}
#: ``grasp validate fixtures/grasp8.json`` as documented in the README.
FIXTURE_VALIDATE = "OK: 8 tools, 30 studies\n"

#: Ladder from the highest grade down; C0 is the fallback.
SCAN_ORDER = ("A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3")
_QUALIFYING = (BucketDirection.POSITIVE, BucketDirection.MIXED_POSITIVE)
_FINAL_GRADE_ROW = re.compile(r"^\| Final Grade \| \*\*(\w+)\*\* \|$", re.MULTILINE)
_DETAILED_TITLE = "# GRASP Detailed Report"
_SUMMARY_TITLE = "# Evidence Summary"

Verdict = tuple[str, str, bool]  # final grade, direction, needs review


def evidence_class(study) -> EvidenceClass:
    """Class under the default policy: strict matching, quality by override only."""
    matching = oracle_matching(
        dict(study.matching_fields), study.matching_override,
        strict=True, n_keys=len(MATCHING_FIELD_KEYS),
    )
    high = study.quality_override is QualityVerdict.HIGH
    if matching is MatchingVerdict.MATCHING and high:
        return EvidenceClass.A
    if matching is MatchingVerdict.NON_MATCHING and not high:
        return EvidenceClass.C
    return EvidenceClass.B


def grade_tool(studies) -> tuple[Verdict, int, int]:
    """Reference grade of one tool from its records: (verdict, buckets, mixed buckets)."""
    by_level: dict[str, list] = defaultdict(list)
    external = [s for s in studies if s.level and s.study_type is StudyType.EXTERNAL_VALIDATION]
    for study in studies:
        if study.level and study.study_type is not StudyType.EXTERNAL_VALIDATION:
            by_level[study.level.value].append(study)
    if external:
        by_level["C1" if len({s.id for s in external}) >= 2 else "C2"] = external

    buckets: dict[str, tuple[BucketDirection, bool]] = {}
    mixed = 0
    for level, group in by_level.items():
        buckets[level] = oracle_direction((evidence_class(s), s.direction) for s in group)
        positives = sum(s.direction is StudyDirection.POSITIVE for s in group)
        mixed += 0 < positives < len(group)
    if "B2" in buckets and "B3" in buckets:
        (d2, r2), (d3, r3) = buckets["B2"], buckets["B3"]
        if d2 in _QUALIFYING and d3 in _QUALIFYING:
            both = d2 is d3 is BucketDirection.POSITIVE
            buckets["B1"] = (
                BucketDirection.POSITIVE if both else BucketDirection.MIXED_POSITIVE, r2 or r3
            )

    review = any(r for _, r in buckets.values())
    for level in SCAN_ORDER:
        if level in buckets and buckets[level][0] in _QUALIFYING:
            verdict = (level, buckets[level][0].value, review)
            break
    else:
        highest = next(level for level in SCAN_ORDER if level in buckets)
        verdict = ("C0", buckets[highest][0].value, review)
    return verdict, len(buckets), mixed


def _load_json(text: str, what: str) -> tuple[object, list[str]]:
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"{what}: output is not JSON ({exc.msg})"]


def _compare(expected: dict, got: dict, what: str) -> list[str]:
    if set(got) != set(expected):
        missing, extra = set(expected) - set(got), set(got) - set(expected)
        return [f"{what}: tool set differs ({len(missing)} missing, {len(extra)} unexpected)"]
    return [
        f"{what}: {tool_id} is {got[tool_id]}, reference says {expected[tool_id]}"
        for tool_id in sorted(expected)
        if got[tool_id] != expected[tool_id]
    ]


class CorpusReference:
    """Expected outputs for a generated corpus, graded from its records."""

    def __init__(self, corpus):
        self.corpus = corpus

    @cached_property
    def _graded(self) -> tuple[dict[str, Verdict], int, int]:
        by_tool = defaultdict(list)
        for study in self.corpus.studies:
            by_tool[study.tool_id].append(study)
        verdicts, buckets, mixed = {}, 0, 0
        for tool in self.corpus.tools:
            verdicts[tool.id], b, m = grade_tool(by_tool[tool.id])
            buckets += b
            mixed += m
        return verdicts, buckets, mixed

    @property
    def verdicts(self) -> dict[str, Verdict]:
        return self._graded[0]

    @property
    def buckets(self) -> int:
        return self._graded[1]

    @property
    def mixed_buckets(self) -> int:
        """Buckets holding both positive and non-positive studies."""
        return self._graded[2]

    def check_validate(self, stdout: str, _dir: Optional[Path] = None) -> list[str]:
        expected = f"OK: {len(self.corpus.tools)} tools, {len(self.corpus.studies)} studies\n"
        return [] if stdout == expected else [f"validate: printed {stdout[:80]!r}"]

    def check_grade_structured(self, stdout: str, _dir: Optional[Path] = None) -> list[str]:
        rows, problems = _load_json(stdout, "grade --format structured")
        if problems:
            return problems
        got = {r["tool_id"]: (r["final_grade"], r["direction"], r["needs_review"]) for r in rows}
        return _compare(self.verdicts, got, "grade --format structured")

    def check_grade_report(self, stdout: str, report_dir: Optional[Path]) -> list[str]:
        got = {}
        for line in stdout.splitlines():
            tool_id, grade = line.split()[:2]
            got[tool_id] = grade
        problems = _compare({t: v[0] for t, v in self.verdicts.items()}, got, "grade text")
        files = sorted(report_dir.iterdir()) if report_dir and report_dir.is_dir() else []
        if [p.name for p in files] != sorted(f"{t.id}.md" for t in self.corpus.tools):
            return problems + [f"grade --report: wrote {len(files)} files for {len(self.corpus.tools)} tools"]
        for path in files:
            text = path.read_text()
            grades = _FINAL_GRADE_ROW.findall(text)
            if text.count(_DETAILED_TITLE) != 1 or grades != [self.verdicts[path.stem][0]]:
                problems.append(f"grade --report: {path.name} has grade rows {grades}")
        return problems

class FixtureReference:
    """Expected outputs on the committed fixtures, from the published values."""

    def __init__(self, document: dict):
        self.gradable = Counter(s["tool_id"] for s in document["studies"] if "level" in s)

    def check_grade_text(self, stdout: str, _dir: Optional[Path] = None) -> list[str]:
        got = {line.split()[0]: line.split()[1] for line in stdout.splitlines()}
        return _compare(AUTHOR_GRADES, got, "grade")

    def check_grade_structured(self, stdout: str, _dir: Optional[Path] = None) -> list[str]:
        rows, problems = _load_json(stdout, "grade --format structured")
        if problems:
            return problems
        return _compare(AUTHOR_GRADES, {r["tool_id"]: r["final_grade"] for r in rows}, "grade")

    def summary_checker(self, tool_id: str):
        def check(stdout: str, _dir: Optional[Path] = None) -> list[str]:
            problems = []
            grades = _FINAL_GRADE_ROW.findall(stdout)
            if grades != [AUTHOR_GRADES[tool_id]]:
                problems.append(f"report --tool {tool_id}: grade rows {grades}")
            _, _, summary = stdout.partition(_SUMMARY_TITLE)
            rows = sum(line.startswith("| ") for line in summary.splitlines()) - 2
            if rows != self.gradable[tool_id]:
                problems.append(f"report --tool {tool_id}: {rows} summary rows")
            return problems
        return check

    @staticmethod
    def raters_checker(a: str, b: str, sheet_a: dict[str, str], sheet_b: dict[str, str]):
        """Checks ``raters --format structured`` on two fixture sheets ({tool id: grade}).

        rho, the exact p and the agreement must match ExactRatersReference on
        the grades paired by tool id, and rho and p the published values.
        """
        paired = sorted(sheet_a.keys() & sheet_b.keys())
        exact = ExactRatersReference([sheet_a[t] for t in paired], [sheet_b[t] for t in paired])

        def check(stdout: str, _dir: Optional[Path] = None) -> list[str]:
            problems = exact.check(stdout)
            if problems:
                return problems
            result = json.loads(stdout)
            if round(result["rho"], 3) != FIXTURE_RHO[(a, b)] or not result["p_value"] < 0.001:
                return [f"raters {a} {b}: rho={result['rho']} p={result['p_value']},"
                        f" published rho={FIXTURE_RHO[(a, b)]} p<0.001"]
            return []
        return check

    @staticmethod
    def check_survey(stdout: str, _dir: Optional[Path] = None) -> list[str]:
        got = {}
        for line in stdout.splitlines():
            question, mean, label = line.split("\t")
            got[question] = (mean, label)
        return _compare(SURVEY_EXPECTED, got, "survey")

    @staticmethod
    def check_validate(stdout: str, _dir: Optional[Path] = None) -> list[str]:
        return [] if stdout == FIXTURE_VALIDATE else [f"validate: printed {stdout[:80]!r}"]


_ORDINAL = {g: i for i, g in enumerate(("C0", "C3", "C2", "C1", "B3", "B2", "B1", "A3", "A2", "A1"))}


def doubled_midranks(values) -> list[int]:
    """Twice the mid-rank of each value (1-based), so tied ranks stay integers."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0] * len(values)
    start = 0
    while start < len(order):
        end = start
        while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
            end += 1
        for i in order[start:end + 1]:
            ranks[i] = start + end + 2
        start = end + 1
    return ranks


def exact_p(x, y) -> Fraction:
    """Share of the n! arrangements of y whose |rank correlation| reaches the observed one.

    Counts by dynamic programming over positions: the state is the multiset
    of y-ranks still unplaced and the partial sum of centred rank products.
    Placing one of c equal ranks counts c arrangements, so tied arrangements
    count separately, as in a plain enumeration of permutations.
    """
    n = len(x)
    dx = [r - (n + 1) for r in doubled_midranks(x)]
    dy = [r - (n + 1) for r in doubled_midranks(y)]
    observed = abs(sum(a * b for a, b in zip(dx, dy)))
    counts = Counter(dy)
    values = sorted(counts)
    layer = {tuple(counts[v] for v in values): Counter({0: 1})}
    for a in dx:
        following: dict[tuple, Counter] = defaultdict(Counter)
        for remaining, sums in layer.items():
            for k, c in enumerate(remaining):
                if c:
                    target = following[remaining[:k] + (c - 1,) + remaining[k + 1:]]
                    step = a * values[k]
                    for total, ways in sums.items():
                        target[total + step] += ways * c
        layer = following
    (sums,) = layer.values()
    if sum(sums.values()) != factorial(n):
        raise RuntimeError("arrangement count does not add up to n!")
    return Fraction(sum(w for s, w in sums.items() if abs(s) >= observed), factorial(n))


class ExactRatersReference:
    """Expected ``raters --format structured`` output for two paired grade lists."""

    def __init__(self, grades_a: list[str], grades_b: list[str]):
        self.a, self.b = grades_a, grades_b

    @cached_property
    def expected(self) -> tuple[float, float, int]:
        from scipy.stats import spearmanr

        x = [_ORDINAL[g] for g in self.a]
        y = [_ORDINAL[g] for g in self.b]
        rho = float(spearmanr(x, y).statistic)
        return rho, float(exact_p(x, y)), sum(g == h for g, h in zip(self.a, self.b))

    def check(self, stdout: str, _dir: Optional[Path] = None) -> list[str]:
        result, problems = _load_json(stdout, "raters --format structured")
        if problems:
            return problems
        rho, p, agreement = self.expected
        n = len(self.a)
        if (
            result["n"] != n
            or abs(result["rho"] - rho) > 1e-9
            or abs(result["p_value"] - p) > 1e-12
            or result["exact_agreement"] != agreement
        ):
            return [
                f"raters n={n}: got rho={result['rho']} p={result['p_value']}"
                f" agreement={result['exact_agreement']}, reference rho={rho} p={p}"
                f" agreement={agreement}"
            ]
        return []
