from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasp.corpus import (
    _POLICY_TABLE,
    _STUDY_TABLE,
    _TOOL_TABLE,
    Corpus,
    _enum,
    emit_corpus,
    load_corpus,
    parse_corpus,
    parse_rater_sheet,
    parse_survey_sheet,
)
from grasp.engine import AppraisalPolicy, MatchingRule, QualityRule, TieFallback
from grasp.errors import (
    ConsistencyError,
    CorpusError,
    CorpusSyntaxError,
    DanglingReferenceError,
    DuplicateTool,
    OutOfRange,
    SchemaError,
    UnknownGrade,
    UnknownTool,
)
from grasp.model import (
    Automation,
    GradeLevel,
    ImpactSubtype,
    InputSource,
    InputType,
    MatchingVerdict,
    OutcomeLabel,
    Phase,
    QualityVerdict,
    StudyDirection,
    StudyRecord,
    StudyType,
    ToolCategory,
    ToolProfile,
)
from conftest import FIXTURES
from gen import random_corpus

EMPTY = b'{"schema_version": "grasp-corpus/1", "tools": [], "studies": []}'


def _doc(corpus_bytes):
    return json.loads(corpus_bytes)


def _mutate_study(corpus_bytes, index, **changes):
    doc = _doc(corpus_bytes)
    for key, value in changes.items():
        if value is None:
            doc["studies"][index].pop(key, None)
        else:
            doc["studies"][index][key] = value
    return json.dumps(doc).encode()


#: Every enumeration the corpus decoder reads.
DECODED_ENUMS = (
    ToolCategory, InputSource, InputType, Automation, Phase, StudyType, GradeLevel,
    StudyDirection, MatchingVerdict, QualityVerdict, ImpactSubtype, OutcomeLabel,
    MatchingRule, QualityRule, TieFallback,
)

#: The fields of each record kind that hold enum tokens (a list holds a set).
ENUM_FIELDS = {
    "tools": ("category", "automation", "input_source", "input_type"),
    "studies": ("phase", "study_type", "level", "direction", "matching_override",
                "quality_override", "impact_subtype", "label"),
}


def _spellings(token: str) -> tuple[str, ...]:
    """Canonical, upper-case, lower-case and whitespace-padded spellings."""
    return (token, token.upper(), token.lower(),
            f" {token.capitalize()} ", f"\t{token.swapcase()}\n")


FIXTURE_TEXT = (FIXTURES / "grasp8.json").read_text()

#: Enum tokens in several spellings, plus tokens no enum has.
_TOKENS = st.one_of(
    st.sampled_from([member.value for cls in DECODED_ENUMS for member in cls]).flatmap(
        lambda token: st.sampled_from(_spellings(token))),
    st.sampled_from(["", "sideways", "D1", "B4"]),
)

#: Values of every JSON type, and values that decode but cannot be stored.
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3000), st.floats(),
    st.just(10 ** 400), st.text(max_size=4), _TOKENS,
    st.lists(_TOKENS, max_size=3), st.just({}),
)

#: Keys to add: fields some object may take, and one no object takes.
_KEYS = st.sampled_from(sorted(
    {key for record in json.loads(FIXTURE_TEXT)["studies"] for key in record}
    | {"policy", "matching_rule", "quality_rule", "tie_fallback", "endorsement",
       "data_collection_prospective", "colour"}
))


def _nodes(document: dict) -> list[tuple[tuple, object]]:
    """Every (path, value) of a JSON tree below its root."""
    found, index = [((), document)], 0
    while index < len(found):
        path, node = found[index]
        index += 1
        if isinstance(node, dict):
            found.extend(((*path, key), child) for key, child in node.items())
        elif isinstance(node, list):
            found.extend(((*path, i), child) for i, child in enumerate(node))
    return found[1:]


def _apply_edit(data, document: dict) -> None:
    """Replace a value, delete a key or add a key, at a drawn path below the root."""
    # Positions are drawn as indexes: sampling from a list of ~1,200 nodes is slow.
    nodes = _nodes(document)
    path, _ = nodes[data.draw(st.integers(0, len(nodes) - 1), label="path")]
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    edit = data.draw(st.sampled_from(("replace", "delete", "add")), label="edit")
    if edit == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif edit == "add":
        containers = [node for _, node in nodes if isinstance(node, dict)] + [document]
        target = containers[data.draw(st.integers(0, len(containers) - 1), label="object")]
        target[data.draw(_KEYS, label="key")] = data.draw(_VALUES, label="value")
    else:
        parent[path[-1]] = data.draw(_VALUES, label="value")


class TestParse:
    def test_fixture_parses_strictly(self, corpus8):
        assert len(corpus8.tools) == 8
        assert len(corpus8.studies) == 30
        assert corpus8.schema_version == "grasp-corpus/1"

    def test_schema_version_is_not_a_field(self):
        # The decoder accepts one version only, so a corpus cannot hold another.
        with pytest.raises(TypeError):
            Corpus(tools=(), studies=(), schema_version="grasp-corpus/2")

    def test_empty_corpus_is_valid(self):
        corpus = parse_corpus(EMPTY)
        assert corpus.tools == () and corpus.studies == ()

    def test_tools_and_studies_sorted_by_id(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        doc["tools"].reverse()
        doc["studies"].reverse()
        corpus = parse_corpus(json.dumps(doc).encode())
        assert [t.id for t in corpus.tools] == sorted(t.id for t in corpus.tools)
        assert [s.id for s in corpus.studies] == sorted(s.id for s in corpus.studies)

    def test_lookups_by_tool_id(self, corpus8):
        assert corpus8.tool("lace").id == "lace"
        assert [s.id for s in corpus8.studies_for("lace")] == [
            s.id for s in corpus8.studies if s.tool_id == "lace"
        ]
        assert corpus8.studies_for("nope") == ()
        with pytest.raises(UnknownTool) as err:
            corpus8.tool("nope")
        assert str(err.value) == "unknown tool id 'nope'"

    def test_lookup_indexes_stay_out_of_equality_and_repr(self, corpus8):
        fresh = Corpus(corpus8.tools, corpus8.studies, corpus8.policy)
        before = repr(fresh)
        fresh.tool("lace")
        fresh.studies_for("lace")
        assert repr(fresh) == before
        assert fresh == Corpus(corpus8.tools, corpus8.studies, corpus8.policy)

    def test_malformed_json(self):
        with pytest.raises(CorpusSyntaxError) as err:
            parse_corpus(b'{"schema_version": ')
        assert "line" in str(err.value)

    def test_bad_utf8(self):
        with pytest.raises(CorpusSyntaxError):
            parse_corpus(b'\xff\xfe{"schema_version"}')

    @pytest.mark.parametrize(
        "payload",
        [
            b"[1, 2, 3]",
            b'"a corpus"',
            b"null",
            b'{"schema_version": 3, "tools": [], "studies": []}',
            b'{"schema_version": "grasp-corpus/1", "tools": {}, "studies": []}',
            b'{"schema_version": "grasp-corpus/1", "tools": [17], "studies": []}',
            b'{"schema_version": "grasp-corpus/1", "tools": [], "studies": [], "policy": 4}',
        ],
    )
    def test_wrong_shapes_yield_typed_errors(self, payload):
        with pytest.raises(CorpusError):
            parse_corpus(payload)

    def test_overlong_integer_yields_typed_error(self, corpus8_bytes):
        data = corpus8_bytes.replace(b'"year": 1981', b'"year": 1' + b"0" * 5000, 1)
        with pytest.raises(CorpusSyntaxError):
            parse_corpus(data)

    def test_pathological_nesting_yields_typed_error(self):
        with pytest.raises(CorpusSyntaxError):
            parse_corpus(b"[" * 200_000 + b"]" * 200_000)

    def test_wrong_schema_version(self):
        with pytest.raises(SchemaError) as err:
            parse_corpus(b'{"schema_version": "grasp-corpus/2", "tools": [], "studies": []}')
        assert "schema_version" in str(err.value)

    def test_missing_required_field(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        del doc["tools"][0]["year"]
        with pytest.raises(SchemaError) as err:
            parse_corpus(json.dumps(doc).encode())
        assert ".year" in str(err.value)

    @pytest.mark.parametrize("kind, edits, first", [
        ("tools", {"id": 5, "year": None}, "$.tools[1].id: expected a string, got int"),
        ("tools", {"id": None, "year": "x"}, "$.tools[1].id: required field is missing"),
        ("studies", {"citation": 7, "direction": None},
         "$.studies[1].citation: expected a string, got int"),
    ], ids=["tool-bad-then-missing", "tool-missing-then-bad", "study-bad-then-missing"])
    def test_first_fault_in_key_order_is_listed_first(self, corpus8_bytes, kind, edits, first):
        # A missing field counts in canonical key order like a bad one.
        doc = _doc(corpus8_bytes)
        for key, value in edits.items():
            if value is None:
                del doc[kind][1][key]
            else:
                doc[kind][1][key] = value
        _, errors, _ = load_corpus(json.dumps(doc))
        assert str(errors[0]) == first

    def test_wrong_type_names_path(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        doc["tools"][0]["year"] = "1981"
        with pytest.raises(SchemaError) as err:
            parse_corpus(json.dumps(doc).encode())
        assert "year" in str(err.value) and "integer" in str(err.value)

    @pytest.mark.parametrize("field, value, expected", [
        ("name", {}, "a string, got object"),
        ("input_source", {"a": 1}, "an array, got object"),
        ("name", [], "a string, got list"),
        ("input_source", "ehr", "an array, got str"),
        ("name", 5, "a string, got int"),
        ("name", True, "a string, got bool"),
        ("name", None, "a string, got NoneType"),
    ])
    def test_wrong_type_names_the_json_type(self, corpus8_bytes, field, value, expected):
        doc = _doc(corpus8_bytes)
        doc["tools"][0][field] = value
        with pytest.raises(SchemaError) as err:
            parse_corpus(json.dumps(doc).encode())
        assert str(err.value) == f"$.tools[0].{field}: expected {expected}"

    @pytest.mark.parametrize("where, field", [
        ("tools", "name"), ("tools", "category"), ("studies", "notes"), ("studies", "direction"),
    ])
    def test_lone_surrogate_rejected(self, corpus8_bytes, where, field):
        doc = _doc(corpus8_bytes)
        doc[where][0][field] += "\ud800"
        data = json.dumps(doc).encode()  # ASCII: the surrogate is written as an escape
        with pytest.raises(SchemaError) as err:
            parse_corpus(data)
        assert str(err.value) == f"$.{where}[0].{field}: string holds a lone UTF-16 surrogate"

    def test_surrogate_pair_escapes_still_accepted(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        doc["tools"][0]["name"] = "Centor \u00e9\U0001f600"
        assert parse_corpus(json.dumps(doc).encode()).tool("centor").name.endswith("\U0001f600")

    def test_unknown_field_strict_vs_lenient(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        doc["tools"][0]["shoe_size"] = 42
        data = json.dumps(doc).encode()
        with pytest.raises(SchemaError) as err:
            parse_corpus(data)
        assert "shoe_size" in str(err.value)
        warnings = []
        corpus = parse_corpus(data, strict=False, on_warning=warnings.append)
        assert len(corpus.tools) == 8
        assert any("shoe_size" in w for w in warnings)

    def test_enum_tokens_case_insensitive(self, corpus8_bytes):
        # Index 1 is an external validation carrying level C1.
        data = _mutate_study(corpus8_bytes, 1, direction="Positive", level="c1")
        corpus = parse_corpus(data)
        record = corpus.studies[1]
        assert record.direction is StudyDirection.POSITIVE
        assert record.level is GradeLevel.C1

    def test_unknown_enum_token(self, corpus8_bytes):
        data = _mutate_study(corpus8_bytes, 0, direction="sideways")
        with pytest.raises(SchemaError) as err:
            parse_corpus(data)
        assert "sideways" in str(err.value)

    def test_level_study_type_mismatch(self, corpus8_bytes):
        # A usability study must not carry a phase-C level.
        doc = _doc(corpus8_bytes)
        idx = next(i for i, s in enumerate(doc["studies"]) if s["study_type"] == "usability")
        doc["studies"][idx]["level"] = "C3"
        doc["studies"][idx]["phase"] = "before_implementation"
        with pytest.raises(ConsistencyError) as err:
            parse_corpus(json.dumps(doc).encode())
        assert "usability" in str(err.value) and "C3" in str(err.value)

    def test_phase_level_mismatch(self, corpus8_bytes):
        data = _mutate_study(corpus8_bytes, 0, phase="after_implementation")
        with pytest.raises(ConsistencyError):
            parse_corpus(data)

    def test_impact_subtype_required_and_pinned(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        idx = next(
            i for i, s in enumerate(doc["studies"])
            if s["study_type"] == "post_implementation_impact" and s["level"] == "A1"
        )
        missing = json.loads(json.dumps(doc))
        del missing["studies"][idx]["impact_subtype"]
        with pytest.raises(ConsistencyError):
            parse_corpus(json.dumps(missing).encode())
        wrong = json.loads(json.dumps(doc))
        wrong["studies"][idx]["impact_subtype"] = "observational"
        with pytest.raises(ConsistencyError):
            parse_corpus(json.dumps(wrong).encode())

    def test_raw_b1_and_c0_levels_rejected(self, corpus8_bytes):
        for bad in ("B1", "C0"):
            data = _mutate_study(corpus8_bytes, 0, level=bad)
            with pytest.raises(ConsistencyError):
                parse_corpus(data)

    def test_dangling_tool_reference(self, corpus8_bytes):
        data = _mutate_study(corpus8_bytes, 0, tool_id="ghost")
        with pytest.raises(DanglingReferenceError) as err:
            parse_corpus(data)
        assert "ghost" in str(err.value)

    def test_duplicate_ids(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        doc["tools"].append(doc["tools"][0])
        with pytest.raises(SchemaError) as err:
            parse_corpus(json.dumps(doc).encode())
        assert "duplicate" in str(err.value)

    def test_studies_count_checked_only_in_strict(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        doc["tools"][0]["studies_count"] = 99
        data = json.dumps(doc).encode()
        with pytest.raises(ConsistencyError):
            parse_corpus(data)
        warnings = []
        corpus = parse_corpus(data, strict=False, on_warning=warnings.append)
        assert corpus is not None
        assert any("studies_count" in w for w in warnings)

    def test_external_validation_level_must_match_multiplicity(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        # manuck has exactly one external validation at C2; claim C1 instead.
        idx = next(i for i, s in enumerate(doc["studies"]) if s["id"] == "manuck-s2")
        doc["studies"][idx]["level"] = "C1"
        with pytest.raises(ConsistencyError) as err:
            parse_corpus(json.dumps(doc).encode())
        assert "C2" in str(err.value)

    def test_metadata_development_record_allowed(self, corpus8):
        record = next(s for s in corpus8.studies if s.id == "chalice-s1")
        assert record.level is None
        assert not record.is_gradable

    def test_policy_block(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        doc["policy"] = {"matching_rule": "ignore_missing"}
        corpus = parse_corpus(json.dumps(doc).encode())
        assert corpus.policy == AppraisalPolicy(matching_rule=MatchingRule.IGNORE_MISSING)
        doc["policy"] = {}
        assert parse_corpus(json.dumps(doc).encode()).policy == AppraisalPolicy()
        doc["policy"] = {"verbosity": "high"}
        with pytest.raises(SchemaError):
            parse_corpus(json.dumps(doc).encode())

    def test_load_corpus_lists_every_violation(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        doc["studies"][0]["tool_id"] = "ghost"
        del doc["tools"][1]["year"]
        doc["tools"][2]["unknown_key"] = 1
        corpus, errors, _ = load_corpus(json.dumps(doc).encode())
        assert corpus is None
        assert len(errors) >= 3
        kinds = {type(e) for e in errors}
        assert DanglingReferenceError in kinds and SchemaError in kinds

    @pytest.mark.parametrize("token", [
        "NaN", "Infinity", "-Infinity", "1e400", pytest.param("1" + "0" * 400, id="1e400-int"),
    ])
    def test_non_finite_number_rejected(self, corpus8_bytes, token):
        # Accepting one would make emit_corpus write a document that is not JSON.
        doc = _doc(corpus8_bytes)
        doc["tools"][2]["journal_rank"] = 0.0
        data = json.dumps(doc).replace('"journal_rank": 0.0', f'"journal_rank": {token}')
        with pytest.raises(SchemaError) as err:
            parse_corpus(data.encode())
        assert str(err.value).startswith("$.tools[2].journal_rank: ")
        corpus, errors, _ = load_corpus(data)
        assert corpus is None and str(errors[0]) == str(err.value)

    def test_duplicate_tool_field_rejected(self, corpus8_bytes):
        # A repeated key must not silently win over the first one.
        doc = _doc(corpus8_bytes)
        doc["tools"][0]["DUPLICATE"] = 1700
        data = json.dumps(doc).replace('"DUPLICATE"', '"year"')
        with pytest.raises(SchemaError, match=r"^\$\.tools\[0\]\.year: duplicate field$"):
            parse_corpus(data.encode())

    def test_duplicate_matching_field_rejected(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        index = next(i for i, s in enumerate(doc["studies"]) if "matching_fields" in s)
        doc["studies"][index]["matching_fields"]["DUPLICATE"] = False
        data = json.dumps(doc).replace('"DUPLICATE"', '"predictive_task"')
        corpus, errors, _ = load_corpus(data)
        assert corpus is None
        assert str(errors[0]) == f"$.studies[{index}].matching_fields.predictive_task: duplicate field"


#: The fields of a tool and of a study, less the identities (``id``,
#: ``tool_id``) without which a rejection cannot name its record.
TOOL_FIELDS = (
    "name", "author", "country", "year", "category", "intended_use", "intended_user",
    "clinical_area", "target_population", "target_outcome", "action", "input_source",
    "input_type", "local_context", "methodology", "internal_validation_method",
    "dedicated_support", "endorsement", "automation", "tool_citations", "studies_count",
    "authors_count", "sample_size", "journal_name", "journal_rank",
)
STUDY_FIELDS = (
    "citation", "country", "year", "phase", "study_type", "comparative", "level", "direction",
    "matching_fields", "quality_fields", "matching_override", "quality_override",
    "impact_subtype", "label", "sample_size", "notes",
)


class TestOneFaultOneError:
    # studies[1] is centor-s2, one of centor's two external validations: once
    # it is rejected, neither centor's study count nor the level its remaining
    # external validation needs may be checked against the records left.
    @pytest.mark.parametrize("where, index, field", [
        *(("tools", 0, field) for field in TOOL_FIELDS),
        *(("studies", 1, field) for field in STUDY_FIELDS),
    ])
    def test_wrong_type_is_listed_once_at_its_field(self, corpus8_bytes, where, index, field):
        doc = _doc(corpus8_bytes)
        doc[where][index][field] = [] if field.endswith("_fields") else {}
        data = json.dumps(doc).encode()
        corpus, errors, _ = load_corpus(data, strict=True)
        assert corpus is None
        assert [e.path for e in errors] == [f"$.{where}[{index}].{field}"]
        corpus, errors, warnings = load_corpus(data, strict=False)
        assert len(errors) == 1 and warnings == []


class TestErrorFields:
    """A rejection carries its path and its detail as fields; ``str`` joins them."""

    def test_str_joins_path_and_detail(self):
        error = SchemaError("$.tools[0].year", "expected an integer, got str")
        assert (error.path, error.detail) == ("$.tools[0].year", "expected an integer, got str")
        assert str(error) == "$.tools[0].year: expected an integer, got str"
        assert str(CorpusSyntaxError("", "not valid UTF-8")) == "not valid UTF-8"

    def test_error_survives_copy_and_pickle(self):
        error = DanglingReferenceError("$.studies[3].tool_id", "no tool with id 'ghost'")
        for clone in (copy.copy(error), pickle.loads(pickle.dumps(error))):
            assert type(clone) is DanglingReferenceError
            assert (clone.path, clone.detail, str(clone)) == (error.path, error.detail, str(error))

    def test_fault_of_the_whole_input_has_no_path(self):
        _, errors, _ = load_corpus(b'{"schema_version": ')
        assert errors[0].path == "" and str(errors[0]) == errors[0].detail

    @pytest.mark.parametrize("key, shown", [
        ("a.b", "'a.b'"), ("x[0]", "'x[0]'"), ("", "''"), ("k: v", "'k: v'"),
        ("'q'", '"\'q\'"'), ("\u00e9", "\u00e9"), ("tab\there", "'tab\\there'"),
    ])
    def test_a_key_that_is_not_an_identifier_shows_as_its_repr(self, corpus8_bytes, key, shown):
        doc = _doc(corpus8_bytes)
        doc["tools"][7][key] = 1
        _, errors, _ = load_corpus(json.dumps(doc))
        assert [str(e) for e in errors] == [f"$.tools[7].{shown}: unknown field"]
        assert errors[0].path == f"$.tools[7].{shown}"
        _, _, warnings = load_corpus(json.dumps(doc), strict=False)
        assert warnings == [f"$.tools[7].{shown}: unknown field ignored"]

    def test_metadata_development_record_after_implementation(self, corpus8_bytes):
        # studies[0] is centor-s1, a development study at C3.
        data = _mutate_study(corpus8_bytes, 0, level=None, phase="after_implementation")
        _, errors, _ = load_corpus(data)
        assert [(type(e), e.path, e.detail) for e in errors] == [(
            ConsistencyError, "$.studies[0].phase",
            "metadata-only development record must be 'before_implementation',"
            " got 'after_implementation'",
        )]
        assert str(errors[0]) == (
            "$.studies[0].phase: metadata-only development record must be"
            " 'before_implementation', got 'after_implementation'"
        )

    def test_impact_subtype_on_a_usability_study(self, corpus8_bytes):
        # studies[3] is centor-s4, a usability study at B3.
        data = _mutate_study(corpus8_bytes, 3, impact_subtype="experimental")
        _, errors, _ = load_corpus(data)
        assert [(type(e), e.path, e.detail) for e in errors] == [(
            ConsistencyError, "$.studies[3].impact_subtype",
            "only valid for post_implementation_impact studies",
        )]
        assert str(errors[0]) == (
            "$.studies[3].impact_subtype: only valid for post_implementation_impact studies"
        )

    @pytest.mark.parametrize("parse, sheet, path, detail", [
        (parse_rater_sheet, b"tool_id,grade\n,A1\n", "rater sheet: line 2", "empty tool_id"),
        (parse_survey_sheet, b"question_id,response\n ,3\n", "survey sheet: line 2",
         "empty question_id"),
        (parse_rater_sheet, b"tool,grade\nottawa,A1\n", "rater sheet",
         "header row must be 'tool_id,grade'"),
    ], ids=["empty-tool-id", "empty-question-id", "bad-header"])
    def test_sheet_rejection_names_its_line(self, parse, sheet, path, detail):
        with pytest.raises(SchemaError) as err:
            parse(sheet)
        assert (err.value.path, err.value.detail) == (path, detail)
        assert str(err.value) == f"{path}: {detail}"


class TestFieldOrder:
    """A record's fields are checked in canonical key order; the first bad one is reported."""

    def test_tool_reports_its_first_bad_field(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        doc["tools"][0].update(name=7, input_source="clinical")
        _, errors, _ = load_corpus(json.dumps(doc))
        assert str(errors[0]) == "$.tools[0].name: expected a string, got int"

    def test_study_reports_its_first_bad_field(self, corpus8_bytes):
        data = _mutate_study(corpus8_bytes, 0, country=False, level="Z9")
        _, errors, _ = load_corpus(data)
        assert str(errors[0]) == "$.studies[0].country: expected a string, got bool"

    def test_unknown_flag_before_a_bad_field_is_listed(self, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        index = next(i for i, s in enumerate(doc["studies"]) if "matching_fields" in s)
        doc["studies"][index]["matching_fields"]["colour"] = True
        doc["studies"][index]["sample_size"] = 0
        _, errors, _ = load_corpus(json.dumps(doc), strict=True)
        assert [str(e) for e in errors[:2]] == [
            f"$.studies[{index}].matching_fields.colour: unknown field",
            f"$.studies[{index}].sample_size: must be positive, got 0",
        ]


@pytest.mark.parametrize("table, model", [
    (_TOOL_TABLE, ToolProfile), (_STUDY_TABLE, StudyRecord), (_POLICY_TABLE, AppraisalPolicy),
])
def test_field_table_covers_the_model(table, model):
    # A model field without a table entry would never be read or written.
    assert table.model is model
    assert {f.attr for f in table.fields} == {f.name for f in dataclasses.fields(model)}
    assert len(table.keys) == len(table.fields)


class TestEmit:
    def test_emit_is_a_fixed_point_on_the_fixture(self, corpus8, corpus8_bytes):
        assert emit_corpus(corpus8) == corpus8_bytes
        assert emit_corpus(parse_corpus(emit_corpus(corpus8))) == emit_corpus(corpus8)

    def test_round_trip_identity(self, corpus8):
        assert parse_corpus(emit_corpus(corpus8)) == corpus8

    def test_emit_sorts_shuffled_input(self, corpus8, corpus8_bytes):
        doc = _doc(corpus8_bytes)
        rng = random.Random(0)
        rng.shuffle(doc["tools"])
        rng.shuffle(doc["studies"])
        assert emit_corpus(parse_corpus(json.dumps(doc).encode())) == corpus8_bytes

    def test_single_tool_zero_studies(self, corpus8):
        tool = next(t for t in corpus8.tools if t.id == "taylor")
        corpus = Corpus(tools=(replace(tool, studies_count=0),), studies=())
        emitted = emit_corpus(corpus)
        doc = _doc(emitted)
        assert doc["studies"] == []
        assert doc["tools"][0]["id"] == "taylor"
        assert parse_corpus(emitted).tools[0].studies_count == 0

    def test_non_finite_number_is_not_emitted(self, corpus8):
        # A corpus built in code bypasses the parser's finiteness check.
        tool = replace(corpus8.tools[0], journal_rank=float("nan"))
        with pytest.raises(ValueError):
            emit_corpus(Corpus(tools=(tool,), studies=()))

    def test_policy_block_has_one_canonical_form(self):
        def parse(block):
            return parse_corpus(json.dumps(dict(json.loads(EMPTY), policy=block)).encode())

        corpus = parse({"tie_fallback": "fail_with_review_flag"})
        assert corpus.policy == AppraisalPolicy(tie_fallback=TieFallback.FAIL_WITH_REVIEW_FLAG)
        emitted = emit_corpus(corpus)
        assert _doc(emitted)["policy"] == {
            "matching_rule": "strict_all",
            "quality_rule": "override_only",
            "tie_fallback": "fail_with_review_flag",
        }
        assert emit_corpus(parse_corpus(emitted)) == emitted
        for block in ({}, {"matching_rule": "strict_all"}):
            emitted = emit_corpus(parse(block))
            assert "policy" not in _doc(emitted)
            assert emit_corpus(parse_corpus(emitted)) == emitted

    def test_two_space_indent_and_trailing_newline(self, corpus8_bytes):
        text = corpus8_bytes.decode()
        assert text.endswith("}\n")
        assert '\n  "tools"' in text

    def test_random_corpora_round_trip(self):
        rng = random.Random(2024)
        for _ in range(100):
            corpus = random_corpus(rng)
            emitted = emit_corpus(corpus)
            assert parse_corpus(emitted) == corpus
            assert emit_corpus(parse_corpus(emitted)) == emitted

    def test_fixture_builder_reproduces_the_fixtures(self, tmp_path):
        # The builder emits records made in code, never parsed, e.g. an empty flag map.
        root = Path(__file__).resolve().parent.parent
        (tmp_path / "scripts").mkdir()
        (tmp_path / "fixtures").mkdir()
        shutil.copy(root / "scripts" / "build_fixtures.py", tmp_path / "scripts")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        subprocess.run([sys.executable, str(tmp_path / "scripts" / "build_fixtures.py")],
                       env=env, check=True, capture_output=True)
        built = {p.relative_to(tmp_path / "fixtures"): p.read_bytes()
                 for p in (tmp_path / "fixtures").rglob("*") if p.is_file()}
        shipped = {p.relative_to(FIXTURES): p.read_bytes()
                   for p in FIXTURES.rglob("*") if p.is_file()}
        assert built.keys() == shipped.keys()
        for name, data in shipped.items():
            assert built[name] == data, name


class TestFuzz:
    def test_byte_mutations_never_crash(self, corpus8_bytes):
        rng = random.Random(99)
        data = bytearray(corpus8_bytes)
        for _ in range(300):
            mutated = bytearray(data)
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(3)
                pos = rng.randrange(len(mutated))
                if op == 0:
                    mutated[pos] = rng.randrange(256)
                elif op == 1:
                    del mutated[pos]
                else:
                    mutated.insert(pos, rng.randrange(256))
            try:
                parse_corpus(bytes(mutated))
            except CorpusError:
                pass  # typed rejection is the only acceptable failure

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_tree_edits_are_rejected_by_path_or_round_trip(self, data):
        document = json.loads(FIXTURE_TEXT)
        for _ in range(data.draw(st.integers(1, 3), label="edits")):
            _apply_edit(data, document)
        text = json.dumps(document)
        for strict in (True, False):
            corpus, errors, _ = load_corpus(text, strict=strict)
            if corpus is None:
                assert errors and all(isinstance(e, CorpusError) for e in errors)
                assert all(str(e).startswith("$") for e in errors), errors
            else:
                assert not errors
                emitted = emit_corpus(corpus)
                reparsed, _, _ = load_corpus(emitted, strict=strict)
                assert reparsed == corpus and emit_corpus(reparsed) == emitted


class TestEnumTokens:
    @pytest.mark.parametrize("enum_cls", DECODED_ENUMS, ids=lambda cls: cls.__name__)
    def test_every_member_decodes_from_each_spelling(self, enum_cls):
        decode, _ = _enum(enum_cls)
        for member in enum_cls:
            for token in _spellings(member.value):
                assert decode(token, "$.x", None) is member

    def test_unknown_token_lists_lowercase_tokens(self):
        with pytest.raises(SchemaError) as err:
            _enum(GradeLevel)[0](" D1 ", "$.x", None)
        assert str(err.value) == (
            "$.x: unknown token ' D1 '; expected one of: a1, a2, a3, b1, b2, b3, c0, c1, c2, c3"
        )

    def test_non_string_token(self):
        with pytest.raises(SchemaError, match=r"^\$\.x: expected a string, got int$"):
            _enum(GradeLevel)[0](1, "$.x", None)

    def test_respelled_fixture_parses_and_emits_canonically(self, corpus8, corpus8_bytes):
        def respell(value):
            if isinstance(value, list):
                return [respell(item) for item in value]
            return f" {value.swapcase()} "

        doc = _doc(corpus8_bytes)
        for kind, fields in ENUM_FIELDS.items():
            for record in doc[kind]:
                for key in fields:
                    if key in record:
                        record[key] = respell(record[key])
        assert '" POSITIVE "' in json.dumps(doc) and '" c3 "' in json.dumps(doc)
        parsed = parse_corpus(json.dumps(doc).encode())
        assert parsed == corpus8
        assert emit_corpus(parsed) == corpus8_bytes

        doc["policy"] = {
            "matching_rule": " Ignore_Missing ",
            "quality_rule": "MAJORITY_OF_FLAGS",
            "tie_fallback": "fail_with_review_flag\n",
        }
        assert parse_corpus(json.dumps(doc).encode()).policy == AppraisalPolicy(
            matching_rule=MatchingRule.IGNORE_MISSING,
            quality_rule=QualityRule.MAJORITY_OF_FLAGS,
            tie_fallback=TieFallback.FAIL_WITH_REVIEW_FLAG,
        )

    @pytest.mark.parametrize("level", list(GradeLevel), ids=lambda level: level.value)
    def test_rater_sheet_grade_spellings(self, level):
        for token in _spellings(level.value):
            sheet = parse_rater_sheet(f"tool_id,grade\nt,{token}\n".encode())
            assert sheet["t"] is level


class TestRaterSheet:
    def test_fixture_authors(self, rater_sheets):
        sheet = rater_sheets["authors"]
        assert len(sheet) == 8
        assert sheet["ottawa-knee"] is GradeLevel.A1

    def test_lowercase_tokens(self):
        sheet = parse_rater_sheet(b"tool_id,grade\nottawa,a1\n")
        assert sheet["ottawa"] is GradeLevel.A1

    def test_duplicate_tool(self):
        with pytest.raises(DuplicateTool):
            parse_rater_sheet(b"tool_id,grade\nottawa,A1\nottawa,A2\n")

    def test_unknown_grade(self):
        with pytest.raises(UnknownGrade) as err:
            parse_rater_sheet(b"tool_id,grade\nottawa,A4\n")
        assert "A4" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(SchemaError):
            parse_rater_sheet(b"tool,grade\nottawa,A1\n")


@pytest.mark.parametrize("parse, sheet", [
    (parse_survey_sheet, FIXTURES / "survey.csv"),
    (parse_rater_sheet, FIXTURES / "raters" / "r1.csv"),
], ids=["survey", "rater"])
def test_sheet_with_a_byte_order_mark_parses_as_without(parse, sheet):
    # Spreadsheet programs start a "CSV UTF-8" file with U+FEFF.
    data = sheet.read_bytes()
    assert parse(b"\xef\xbb\xbf" + data) == parse(data)
    assert parse("\ufeff" + data.decode()) == parse(data)


def test_corpus_with_a_byte_order_mark_is_rejected_by_name(corpus8_bytes):
    _, errors, _ = load_corpus(b"\xef\xbb\xbf" + corpus8_bytes)
    assert len(errors) == 1 and "BOM" in str(errors[0])


class TestSurveySheet:
    def test_fixture(self):
        responses = parse_survey_sheet((FIXTURES / "survey.csv").read_bytes())
        assert len(responses) == 8
        assert all(len(v) == 100 for v in responses.values())
        assert list(responses)[0] == "predictive-performance"

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            parse_survey_sheet(b"question_id,response\nq1,6\n")

    def test_non_integer(self):
        # int() would read the Arabic-Indic digit three, a sign, a leading
        # zero and an underscore, each as 3.
        for token in ("yes", "\u0663", "+3", "03", "0_3"):
            with pytest.raises(OutOfRange):
                parse_survey_sheet(f"question_id,response\nq1,{token}\n".encode())
