"""Golden outputs: CLI bytes and grade outcomes pinned by SHA-256 digest.

``golden_digests.json`` holds one digest per case. A CLI case digests the
exit code, stdout, stderr and every file the command wrote; a grade case
digests a canonical projection of ``assign_grade`` results (or the error
type and message) over a slice of seeded random corpora; a decode case
digests what ``load_corpus`` returns, strict and lenient, for one family of
corpus documents (``test_corpus.DECODE_INPUTS``). Refactors must reproduce
every digest. After a deliberate output change, regenerate the file with
``PYTHONPATH=src python tests/test_golden.py`` and review why each changed
digest changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from conftest import FIXTURES
from gen import random_corpus, strip_overrides
from grasp.cli import main
from grasp.engine import assign_grade
from grasp.errors import GraspError
from test_corpus import DECODE_INPUTS, decode_outcomes

DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"

_FILES = {
    "{corpus}": FIXTURES / "grasp8.json",
    "{r1}": FIXTURES / "raters" / "r1.csv",
    "{r2}": FIXTURES / "raters" / "r2.csv",
    "{authors}": FIXTURES / "raters" / "authors.csv",
    "{survey}": FIXTURES / "survey.csv",
}
_TOOLS = ("centor", "chalice", "dietrich", "lace", "manuck", "ottawa-knee", "pecarn", "taylor")
_LAYOUTS = ("table4", "table3", "structured")
_FORMATS = ("text", "structured")


def _cli_cases() -> list[str]:
    """Argument lists with placeholders for the fixture paths; each is its own name."""
    cases = []
    for fmt in _FORMATS:
        cases.append(f"grade {{corpus}} --format {fmt}")
        cases.append(f"grade {{corpus}} --format {fmt} --tool dietrich")
        for layout in _LAYOUTS:
            cases.append(f"grade {{corpus}} --format {fmt} --layout {layout} --report {{out}}")
    cases += [
        "grade {corpus} --tool nope",
        "grade {corpus} --matching-rule ignore_missing --quality-rule majority_of_flags",
        "grade {corpus} --tie-fallback fail_with_review_flag --report {out}",
        "report {corpus} --tool nope",
        "report {corpus} --reference-year 2030 --tool lace",
        "report {corpus} --summary --out {out}",
    ]
    for layout in _LAYOUTS:
        cases.append(f"report {{corpus}} --layout {layout}")
        cases.append(f"report {{corpus}} --layout {layout} --out {{out}}")
        cases.append(f"report {{corpus}} --layout {layout} --summary")
        for tool in _TOOLS:
            cases.append(f"report {{corpus}} --layout {layout} --tool {tool}")
            cases.append(f"report {{corpus}} --layout {layout} --tool {tool} --summary")
    for fmt in _FORMATS:
        for a, b in (("{r1}", "{authors}"), ("{r2}", "{authors}"), ("{r1}", "{r2}")):
            cases.append(f"raters {a} {b} --format {fmt}")
        cases.append(f"survey {{survey}} --format {fmt}")
    for strictness in ("--strict", "--lenient"):
        cases.append(f"validate {{corpus}} {strictness}")
        cases.append(f"validate {{broken}} {strictness}")
        cases.append(f"grade {{broken}} {strictness}")
        for name in _MUTANTS:
            cases.append(f"validate {{mutant:{name}}} {strictness}")
    cases.append("--help")
    cases += [f"{command} --help" for command in ("grade", "report", "raters", "survey", "validate")]
    cases.append("grade")
    return cases


def _broken_corpus() -> bytes:
    """The fixture with several cross-check faults at once.

    lace is listed twice (duplicate id, and every per-tool check runs for
    both copies), one lace external validation carries the wrong level,
    centor declares one study too many, one study names a missing tool, and
    an unknown field is present.
    """
    document = json.loads(_FILES["{corpus}"].read_text())
    tools = document["tools"]
    lace = next(t for t in tools if t["id"] == "lace")
    tools.append(dict(lace))
    next(t for t in tools if t["id"] == "centor")["studies_count"] += 1
    next(s for s in document["studies"] if s["id"] == "lace-s3")["level"] = "C2"
    document["studies"].append(dict(document["studies"][-1], id="ghost-s1", tool_id="ghost"))
    document["studies"][0]["colour"] = "green"
    return json.dumps(document, indent=2).encode()


def _parent(document, path: str):
    """The container of a dotted path (``tools.0.name``) and its last key."""
    *parents, last = path.split(".")
    node = document
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node, int(last) if isinstance(node, list) else last


def _set(path: str, value):
    def edit(document):
        node, key = _parent(document, path)
        node[key] = value
    return edit


def _delete(path: str):
    def edit(document):
        node, key = _parent(document, path)
        del node[key]
    return edit


def _repeat_year(text: str) -> str:
    """Repeat the first tool's ``year`` key, which ``json.dumps`` cannot write."""
    return text.replace('"year": 1981,', '"year": 1981, "year": 1700,', 1)


#: Fixed mutations of the fixture, one per decode path: each is a list of
#: edits of the parsed document, or a function of its JSON text.
_MUTANTS = {
    "string-wrong-type": [_set("tools.0.name", 5)],
    "int-wrong-type": [_set("tools.0.year", "1981")],
    "int-given-bool": [_set("studies.0.year", True)],
    "bool-wrong-type": [_set("tools.0.local_context", 0)],
    "number-wrong-type": [_set("tools.0.journal_rank", "3.1")],
    "enum-wrong-type": [_set("tools.0.category", ["diagnostic"])],
    "enum-set-wrong-type": [_set("tools.0.input_type", "objective")],
    "flag-map-wrong-type": [_set("studies.0.matching_fields", [True])],
    "flag-wrong-type": [_set("studies.0.quality_fields.multi_site", "no")],
    "policy-wrong-type": [_set("policy", "strict_all")],
    "policy-rule-wrong-type": [_set("policy", {"matching_rule": 1})],
    "enum-unknown-token": [_set("studies.0.direction", "sideways")],
    "level-unknown-token": [_set("studies.0.level", "D1")],
    "enum-set-unknown-token": [_set("studies.3.label", ["workflow", "speed"])],
    "policy-unknown-token": [_set("policy", {"tie_fallback": "coin_flip"})],
    "enum-token-not-string": [_set("studies.29.matching_override", True)],
    "enum-set-token-not-string": [_set("tools.0.input_source", ["clinical", 7])],
    "padded-mixed-case-tokens": [
        _set("tools.0.category", " Diagnostic "),
        _set("tools.0.input_source", [" CLINICAL"]),
        _set("tools.0.input_type", ["Objective ", "SUBJECTIVE"]),
        _set("tools.0.automation", "Manual"),
        _set("studies.0.phase", " Before_Implementation"),
        _set("studies.0.study_type", "DEVELOPMENT "),
        _set("studies.0.level", " c3 "),
        _set("studies.0.direction", " Positive "),
        _set("studies.0.quality_override", "HIGH"),
        _set("studies.4.impact_subtype", " Experimental "),
        _set("studies.25.label", ["Efficiency", " SAFETY "]),
        _set("studies.29.matching_override", " Matching"),
        _set("policy", {
            "matching_rule": " Strict_All ",
            "quality_rule": "OVERRIDE_ONLY",
            "tie_fallback": "conservative_negative ",
        }),
    ],
    "tool-unknown-keys": [_set("tools.0.zeta", 1), _set("tools.0.alpha", 2)],
    "study-unknown-keys": [_set("studies.0.zeta", 1), _set("studies.0.alpha", 2)],
    "flag-map-unknown-keys": [
        _set("studies.0.matching_fields.zeta", True),
        _set("studies.0.quality_fields.alpha", False),
    ],
    "policy-unknown-key": [_set("policy", {"matching_rule": "strict_all", "colour": "green"})],
    "top-unknown-keys": [_set("zeta", 1), _set("alpha", 2)],
    "tool-field-missing": [_delete("tools.0.year")],
    "study-field-missing": [_delete("studies.0.direction")],
    "field-repeated": _repeat_year,
}


def _mutant_corpus(name: str) -> bytes:
    document = json.loads(_FILES["{corpus}"].read_text())
    mutation = _MUTANTS[name]
    if callable(mutation):
        return mutation(json.dumps(document, indent=2)).encode()
    for edit in mutation:
        edit(document)
    return json.dumps(document, indent=2).encode()


def run_cli(template: str, tmp: Path) -> dict:
    broken = tmp / "broken.json"
    broken.write_bytes(_broken_corpus())
    mutant = tmp / "mutant.json"
    out = tmp / "out"
    paths = {**_FILES, "{broken}": broken, "{mutant}": mutant, "{out}": out}
    argv = []
    for token in template.split():
        if token.startswith("{mutant:"):
            mutant.write_bytes(_mutant_corpus(token[len("{mutant:"):-1]))
            token = "{mutant}"
        argv.append(str(paths.get(token, token)))
    stdout, stderr = io.StringIO(), io.StringIO()
    # argparse wraps its help and usage text to the terminal width, read from COLUMNS.
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    files = {
        path.relative_to(tmp).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp.rglob("*"))
        if path.is_file() and path not in (broken, mutant)
    }
    return {
        "code": int(code),
        "stdout": stdout.getvalue().replace(str(tmp), "<tmp>"),
        "stderr": stderr.getvalue().replace(str(tmp), "<tmp>"),
        "files": files,
    }


_SEEDS_PER_CHUNK = 20
_GRADE_CHUNKS = tuple(range(10))


def _project(result) -> dict:
    return {
        "tool_id": result.tool_id,
        "final_grade": result.final_grade.value,
        "direction": result.direction.value,
        "justification": result.justification,
        "needs_review": result.needs_review,
        "tool_label": result.tool_label,
        "supporting": result.supporting_bucket.level.value if result.supporting_bucket else None,
        "buckets": [
            [
                bucket.level.value,
                bucket.direction.value,
                bucket.needs_review,
                [s.id for s in bucket.studies],
                list(bucket.adjudication_trace),
                [source.level.value for source in bucket.sources],
            ]
            for bucket in result.all_buckets
        ],
    }


def grade_outcomes(seed: int) -> list[dict]:
    rng = random.Random(seed)
    corpus = strip_overrides(rng, random_corpus(rng))
    outcomes = []
    for tool in corpus.tools:
        try:
            outcomes.append(_project(assign_grade(tool, corpus.studies_for(tool.id), corpus.policy)))
        except GraspError as exc:
            outcomes.append({"tool_id": tool.id, "error": type(exc).__name__, "message": str(exc)})
    return outcomes


def _chunk_seeds(chunk: int) -> range:
    return range(chunk * _SEEDS_PER_CHUNK, (chunk + 1) * _SEEDS_PER_CHUNK)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _grade_key(chunk: int) -> str:
    seeds = _chunk_seeds(chunk)
    return f"seeds {seeds.start}-{seeds.stop - 1}"


def compute_digests() -> dict:
    cli = {}
    for case in _cli_cases():
        with tempfile.TemporaryDirectory() as tmp:
            cli[case] = _digest(run_cli(case, Path(tmp)))
    grades = {
        _grade_key(chunk): _digest([grade_outcomes(seed) for seed in _chunk_seeds(chunk)])
        for chunk in _GRADE_CHUNKS
    }
    decode = {source: _digest(decode_outcomes(source)) for source in DECODE_INPUTS}
    return {"cli": cli, "grades": grades, "decode": decode}


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("case", _cli_cases())
def test_cli_output_unchanged(case, golden, tmp_path):
    assert _digest(run_cli(case, tmp_path)) == golden["cli"][case]


@pytest.mark.parametrize("chunk", _GRADE_CHUNKS)
def test_grade_outcomes_unchanged(chunk, golden):
    outcomes = [grade_outcomes(seed) for seed in _chunk_seeds(chunk)]
    assert _digest(outcomes) == golden["grades"][_grade_key(chunk)]


@pytest.mark.parametrize("source", DECODE_INPUTS)
def test_decode_outcomes_unchanged(source, golden):
    assert _digest(decode_outcomes(source)) == golden["decode"][source]


def test_every_case_has_a_digest(golden):
    assert sorted(golden["cli"]) == sorted(_cli_cases())
    assert sorted(golden["grades"]) == sorted(_grade_key(c) for c in _GRADE_CHUNKS)
    assert sorted(golden["decode"]) == sorted(DECODE_INPUTS)


def test_random_corpora_reach_every_grading_error():
    errors = {
        outcome.get("error")
        for chunk in _GRADE_CHUNKS
        for seed in _chunk_seeds(chunk)
        for outcome in grade_outcomes(seed)
    }
    assert {"UnresolvableMatching", "UnresolvableQuality", "AdjudicationRequired"} <= errors
    assert None in errors  # and plenty of graded tools


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
