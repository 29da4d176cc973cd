"""Corpus file format: parsing, validation, and canonical serialization.

A corpus is a UTF-8 JSON document with top-level keys ``schema_version``,
``tools``, ``studies``, and optional ``policy``. Enumerations are encoded as
lowercase tokens (grade levels as ``"C1"``-style tokens); every token decodes
case-insensitively, ignoring surrounding whitespace. Canonical form fixes key
order, sorts tools and studies by id, and indents with two spaces, so emitting
is a fixed point and ``parse(emit(c)) == c`` for every valid corpus.

Rater grade sheets and survey response sheets are flat CSV files.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property
from typing import AbstractSet, Any, Callable, Mapping, Optional, Sequence

from .engine import MatchingRule, PolicyOverrides, QualityRule, TieFallback
from .errors import (
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
from .model import (
    LEVEL_BY_IMPACT_SUBTYPE,
    LEVELS_BY_STUDY_TYPE,
    MATCHING_FIELD_KEYS,
    QUALITY_FIELD_KEYS,
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

SCHEMA_VERSION = "grasp-corpus/1"


@dataclass(frozen=True)
class Corpus:
    """A validated set of tools and their study records.

    Lookups by tool id go through indexes built on first use; they are
    derived data, so they take no part in equality or repr.
    """

    tools: tuple[ToolProfile, ...]
    studies: tuple[StudyRecord, ...]
    policy: Optional[PolicyOverrides] = None
    schema_version: str = SCHEMA_VERSION

    @cached_property
    def _tools_by_id(self) -> dict[str, ToolProfile]:
        # Reversed so that the first of any duplicate ids wins.
        return {tool.id: tool for tool in reversed(self.tools)}

    @cached_property
    def _studies_by_tool(self) -> dict[str, tuple[StudyRecord, ...]]:
        grouped: dict[str, list[StudyRecord]] = {}
        for study in self.studies:
            grouped.setdefault(study.tool_id, []).append(study)
        return {tool_id: tuple(group) for tool_id, group in grouped.items()}

    def tool(self, tool_id: str) -> ToolProfile:
        try:
            return self._tools_by_id[tool_id]
        except KeyError:
            raise UnknownTool(f"unknown tool id {tool_id!r}") from None

    def studies_for(self, tool_id: str) -> tuple[StudyRecord, ...]:
        return self._studies_by_tool.get(tool_id, ())


@dataclass(frozen=True)
class RaterSheet:
    """One rater's grades. Sheets carry no name; callers supply one."""

    name: str
    grades: Mapping[str, GradeLevel]


class _Collector:
    """Error sink: raises immediately or accumulates for a full listing."""

    def __init__(self, collect: bool):
        self.collect = collect
        self.errors: list[CorpusError] = []
        self.warnings: list[str] = []

    def error(self, exc: CorpusError) -> None:
        if not self.collect:
            raise exc
        self.errors.append(exc)

    def warn(self, message: str) -> None:
        self.warnings.append(message)


# --- typed accessors; every rejection names the offending field path ---


class _Object(dict):
    """A decoded JSON object that remembers the keys its text repeats."""
    repeated: tuple[str, ...] = ()


def _decode_object(pairs: list[tuple[str, Any]]) -> _Object:
    obj = _Object(pairs)
    if len(obj) < len(pairs):
        obj.repeated = tuple(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
    return obj


def _as_obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object, got {type(value).__name__}")
    if isinstance(value, _Object) and value.repeated:
        raise SchemaError(f"{path}.{value.repeated[0]}: duplicate field")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{path}: expected a boolean, got {type(value).__name__}")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _as_number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    # json.loads reads NaN and +-Infinity (1e400 too), which cannot be emitted
    # as JSON; an integer beyond the float range cannot be stored at all.
    if not abs(value) <= sys.float_info.max:
        raise SchemaError(f"{path}: expected a finite number")
    return float(value)


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}.{key}: required field is missing")
    return obj[key]


@cache
def _enum_tokens(enum_cls) -> dict[str, Any]:
    return {member.value.lower(): member for member in enum_cls}


def _decode_enum(value: Any, enum_cls, path: str):
    token = _as_str(value, path).strip().lower()
    members = _enum_tokens(enum_cls)
    if token not in members:
        allowed = ", ".join(sorted(members))
        raise SchemaError(f"{path}: unknown token {value!r}; expected one of: {allowed}")
    return members[token]


def _decode_enum_set(value: Any, enum_cls, path: str) -> frozenset:
    items = _as_list(value, path)
    return frozenset(_decode_enum(item, enum_cls, f"{path}[{i}]") for i, item in enumerate(items))


def _check_unknown(
    obj: dict, allowed: AbstractSet[str], path: str, strict: bool, sink: _Collector
) -> None:
    if obj.keys() <= allowed:
        return
    for key in sorted(obj.keys() - allowed):
        if strict:
            sink.error(SchemaError(f"{path}.{key}: unknown field"))
        else:
            sink.warn(f"{path}.{key}: unknown field ignored")


#: Each flag map's keys in canonical order, and as a set for the unknown-key check.
_FLAG_KEY_SETS = {keys: frozenset(keys) for keys in (MATCHING_FIELD_KEYS, QUALITY_FIELD_KEYS)}


def _decode_flag_map(value: Any, allowed: Sequence[str], path: str,
                     strict: bool, sink: _Collector) -> dict[str, bool]:
    obj = _as_obj(value, path)
    _check_unknown(obj, _FLAG_KEY_SETS[allowed], path, strict, sink)
    return {
        key: _as_bool(obj[key], f"{path}.{key}") for key in allowed if key in obj
    }


# --- tools ---

_TOOL_KEYS = (
    "id",
    "name",
    "author",
    "country",
    "year",
    "category",
    "intended_use",
    "intended_user",
    "clinical_area",
    "target_population",
    "target_outcome",
    "action",
    "input_source",
    "input_type",
    "local_context",
    "methodology",
    "internal_validation_method",
    "dedicated_support",
    "endorsement",
    "automation",
    "tool_citations",
    "studies_count",
    "authors_count",
    "sample_size",
    "journal_name",
    "journal_rank",
)

_TOOL_KEY_SET = frozenset(_TOOL_KEYS)
_TOOL_OPTIONAL = frozenset({"dedicated_support", "endorsement"})


def _nonneg(value: int, path: str) -> int:
    if value < 0:
        raise SchemaError(f"{path}: must be non-negative, got {value}")
    return value


def _positive(value: int, path: str) -> int:
    if value < 1:
        raise SchemaError(f"{path}: must be positive, got {value}")
    return value


def _parse_tool(value: Any, path: str, strict: bool, sink: _Collector) -> ToolProfile:
    obj = _as_obj(value, path)
    _check_unknown(obj, _TOOL_KEY_SET, path, strict, sink)
    for key in _TOOL_KEYS:
        if key not in _TOOL_OPTIONAL:
            _require(obj, key, path)

    def opt_str(key: str) -> Optional[str]:
        return _as_str(obj[key], f"{path}.{key}") if key in obj else None

    input_source = _decode_enum_set(obj["input_source"], InputSource, f"{path}.input_source")
    input_type = _decode_enum_set(obj["input_type"], InputType, f"{path}.input_type")
    if not input_source:
        raise SchemaError(f"{path}.input_source: must name at least one source")
    if not input_type:
        raise SchemaError(f"{path}.input_type: must name at least one type")

    rank = _as_number(obj["journal_rank"], f"{path}.journal_rank")
    if rank < 0:
        raise SchemaError(f"{path}.journal_rank: must be non-negative, got {rank}")

    return ToolProfile(
        id=_as_str(obj["id"], f"{path}.id"),
        name=_as_str(obj["name"], f"{path}.name"),
        author=_as_str(obj["author"], f"{path}.author"),
        country=_as_str(obj["country"], f"{path}.country"),
        year=_as_int(obj["year"], f"{path}.year"),
        category=_decode_enum(obj["category"], ToolCategory, f"{path}.category"),
        intended_use=_as_str(obj["intended_use"], f"{path}.intended_use"),
        intended_user=_as_str(obj["intended_user"], f"{path}.intended_user"),
        clinical_area=_as_str(obj["clinical_area"], f"{path}.clinical_area"),
        target_population=_as_str(obj["target_population"], f"{path}.target_population"),
        target_outcome=_as_str(obj["target_outcome"], f"{path}.target_outcome"),
        action=_as_str(obj["action"], f"{path}.action"),
        input_source=input_source,
        input_type=input_type,
        local_context=_as_bool(obj["local_context"], f"{path}.local_context"),
        methodology=_as_str(obj["methodology"], f"{path}.methodology"),
        internal_validation_method=_as_str(
            obj["internal_validation_method"], f"{path}.internal_validation_method"
        ),
        dedicated_support=opt_str("dedicated_support"),
        endorsement=opt_str("endorsement"),
        automation=_decode_enum(obj["automation"], Automation, f"{path}.automation"),
        tool_citations=_nonneg(_as_int(obj["tool_citations"], f"{path}.tool_citations"),
                               f"{path}.tool_citations"),
        studies_count=_nonneg(_as_int(obj["studies_count"], f"{path}.studies_count"),
                              f"{path}.studies_count"),
        authors_count=_positive(_as_int(obj["authors_count"], f"{path}.authors_count"),
                                f"{path}.authors_count"),
        sample_size=_positive(_as_int(obj["sample_size"], f"{path}.sample_size"),
                              f"{path}.sample_size"),
        journal_name=_as_str(obj["journal_name"], f"{path}.journal_name"),
        journal_rank=rank,
    )


# --- studies ---

_STUDY_KEYS = frozenset({
    "id",
    "tool_id",
    "citation",
    "country",
    "year",
    "phase",
    "study_type",
    "comparative",
    "level",
    "direction",
    "matching_fields",
    "quality_fields",
    "matching_override",
    "quality_override",
    "impact_subtype",
    "label",
    "sample_size",
    "notes",
})

_STUDY_REQUIRED = (
    "id",
    "tool_id",
    "citation",
    "country",
    "year",
    "phase",
    "study_type",
    "comparative",
    "direction",
)


def _study_consistency(study: StudyRecord, path: str) -> None:
    if study.level is None:
        if study.study_type is not StudyType.DEVELOPMENT:
            raise ConsistencyError(
                f"{path}.level: required for study_type '{study.study_type.value}'"
            )
        if study.phase is not Phase.BEFORE_IMPLEMENTATION:
            raise ConsistencyError(
                f"{path}.phase: metadata-only development record must be"
                f" 'before_implementation', got '{study.phase.value}'"
            )
        return
    allowed = LEVELS_BY_STUDY_TYPE[study.study_type]
    if study.level not in allowed:
        tokens = ", ".join(sorted(level.value for level in allowed))
        raise ConsistencyError(
            f"{path}: study_type '{study.study_type.value}' is inconsistent with"
            f" level '{study.level.value}' (allowed: {tokens})"
        )
    if study.phase is not study.level.phase:
        raise ConsistencyError(
            f"{path}.phase: level {study.level.value} belongs to phase"
            f" '{study.level.phase.value}', got '{study.phase.value}'"
        )
    if study.study_type is StudyType.POST_IMPLEMENTATION_IMPACT:
        if study.impact_subtype is None:
            raise ConsistencyError(f"{path}.impact_subtype: required for impact studies")
        pinned = LEVEL_BY_IMPACT_SUBTYPE[study.impact_subtype]
        if study.level is not pinned:
            raise ConsistencyError(
                f"{path}: impact_subtype '{study.impact_subtype.value}' requires level"
                f" {pinned.value}, got {study.level.value}"
            )
    elif study.impact_subtype is not None:
        raise ConsistencyError(
            f"{path}.impact_subtype: only valid for post_implementation_impact studies"
        )


def _parse_study(value: Any, path: str, strict: bool, sink: _Collector) -> StudyRecord:
    obj = _as_obj(value, path)
    _check_unknown(obj, _STUDY_KEYS, path, strict, sink)
    for key in _STUDY_REQUIRED:
        _require(obj, key, path)

    level = (
        _decode_enum(obj["level"], GradeLevel, f"{path}.level") if "level" in obj else None
    )
    sample_size = (
        _positive(_as_int(obj["sample_size"], f"{path}.sample_size"), f"{path}.sample_size")
        if "sample_size" in obj
        else None
    )
    study = StudyRecord(
        id=_as_str(obj["id"], f"{path}.id"),
        tool_id=_as_str(obj["tool_id"], f"{path}.tool_id"),
        citation=_as_str(obj["citation"], f"{path}.citation"),
        country=_as_str(obj["country"], f"{path}.country"),
        year=_as_int(obj["year"], f"{path}.year"),
        phase=_decode_enum(obj["phase"], Phase, f"{path}.phase"),
        study_type=_decode_enum(obj["study_type"], StudyType, f"{path}.study_type"),
        comparative=_as_bool(obj["comparative"], f"{path}.comparative"),
        level=level,
        direction=_decode_enum(obj["direction"], StudyDirection, f"{path}.direction"),
        matching_fields=_decode_flag_map(
            obj.get("matching_fields", {}), MATCHING_FIELD_KEYS,
            f"{path}.matching_fields", strict, sink,
        ),
        quality_fields=_decode_flag_map(
            obj.get("quality_fields", {}), QUALITY_FIELD_KEYS,
            f"{path}.quality_fields", strict, sink,
        ),
        matching_override=(
            _decode_enum(obj["matching_override"], MatchingVerdict, f"{path}.matching_override")
            if "matching_override" in obj
            else None
        ),
        quality_override=(
            _decode_enum(obj["quality_override"], QualityVerdict, f"{path}.quality_override")
            if "quality_override" in obj
            else None
        ),
        impact_subtype=(
            _decode_enum(obj["impact_subtype"], ImpactSubtype, f"{path}.impact_subtype")
            if "impact_subtype" in obj
            else None
        ),
        labels=(
            _decode_enum_set(obj["label"], OutcomeLabel, f"{path}.label")
            if "label" in obj
            else frozenset()
        ),
        sample_size=sample_size,
        notes=_as_str(obj["notes"], f"{path}.notes") if "notes" in obj else None,
    )
    _study_consistency(study, path)
    return study


# --- policy ---

#: Policy block keys and the rule each one sets.
_POLICY_RULES = {
    "matching_rule": MatchingRule,
    "quality_rule": QualityRule,
    "tie_fallback": TieFallback,
}


def _parse_policy(value: Any, path: str, strict: bool,
                  sink: _Collector) -> Optional[PolicyOverrides]:
    obj = _as_obj(value, path)
    _check_unknown(obj, _POLICY_RULES.keys(), path, strict, sink)
    overrides = PolicyOverrides(**{
        key: _decode_enum(obj[key], rule, f"{path}.{key}")
        for key, rule in _POLICY_RULES.items()
        if key in obj
    })
    return None if overrides == PolicyOverrides() else overrides


# --- whole-corpus parsing ---

_TOP_KEYS = frozenset({"schema_version", "tools", "studies", "policy"})


def _cross_checks(
    tools: list[tuple[str, ToolProfile]],
    studies: list[tuple[str, StudyRecord]],
    strict: bool,
    sink: _Collector,
) -> None:
    seen_tools: dict[str, str] = {}
    for path, tool in tools:
        if tool.id in seen_tools:
            sink.error(SchemaError(
                f"{path}.id: duplicate tool id '{tool.id}' (also at {seen_tools[tool.id]})"
            ))
        seen_tools[tool.id] = path

    seen_studies: dict[str, str] = {}
    by_tool: dict[str, list[tuple[str, StudyRecord]]] = {}
    for path, study in studies:
        if study.id in seen_studies:
            sink.error(SchemaError(
                f"{path}.id: duplicate study id '{study.id}' (also at {seen_studies[study.id]})"
            ))
        seen_studies[study.id] = path
        if study.tool_id not in seen_tools:
            sink.error(DanglingReferenceError(
                f"{path}.tool_id: no tool with id '{study.tool_id}'"
            ))
        by_tool.setdefault(study.tool_id, []).append((path, study))

    for tool_path, tool in tools:
        attached = by_tool.get(tool.id, [])
        external = [(p, s) for p, s in attached if s.study_type is StudyType.EXTERNAL_VALIDATION]
        if external:
            derived = GradeLevel.C1 if len({s.id for _, s in external}) >= 2 else GradeLevel.C2
            for path, study in external:
                if study.level is not derived:
                    sink.error(ConsistencyError(
                        f"{path}.level: tool '{tool.id}' has {len(external)} external"
                        f" validation(s), so the level must be {derived.value},"
                        f" got {study.level.value if study.level else 'none'}"
                    ))
        if tool.studies_count != len(attached):
            message = (
                f"{tool_path}.studies_count: declared {tool.studies_count} but"
                f" {len(attached)} study records reference '{tool.id}'"
            )
            if strict:
                sink.error(ConsistencyError(message))
            else:
                sink.warn(message)


def load_corpus(
    data: bytes | str, *, strict: bool = True
) -> tuple[Optional[Corpus], list[CorpusError], list[str]]:
    """Parse with full error collection.

    Returns ``(corpus, errors, warnings)``; ``corpus`` is None whenever any
    error was recorded. Arbitrary byte input never raises, it only yields
    typed errors in the list.
    """
    sink = _Collector(collect=True)
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        return None, [CorpusSyntaxError(f"not valid UTF-8: {exc}")], []
    try:
        document = json.loads(text, object_pairs_hook=_decode_object)
    except json.JSONDecodeError as exc:
        return None, [CorpusSyntaxError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )], []
    except RecursionError:
        return None, [CorpusSyntaxError("document nesting exceeds the parser limit")], []
    except ValueError as exc:  # an integer literal past int()'s digit limit
        return None, [CorpusSyntaxError(f"malformed JSON: {exc}")], []

    try:
        top = _as_obj(document, "$")
        _check_unknown(top, _TOP_KEYS, "$", strict, sink)
        version = _as_str(_require(top, "schema_version", "$"), "$.schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError(
                f"$.schema_version: expected '{SCHEMA_VERSION}', got '{version}'"
            )
        raw_tools = _as_list(_require(top, "tools", "$"), "$.tools")
        raw_studies = _as_list(_require(top, "studies", "$"), "$.studies")
    except CorpusError as exc:
        return None, [exc, *sink.errors], sink.warnings

    tools: list[tuple[str, ToolProfile]] = []
    for i, raw in enumerate(raw_tools):
        path = f"$.tools[{i}]"
        try:
            tools.append((path, _parse_tool(raw, path, strict, sink)))
        except CorpusError as exc:
            sink.error(exc)
    studies: list[tuple[str, StudyRecord]] = []
    for i, raw in enumerate(raw_studies):
        path = f"$.studies[{i}]"
        try:
            studies.append((path, _parse_study(raw, path, strict, sink)))
        except CorpusError as exc:
            sink.error(exc)

    policy = None
    if "policy" in top:
        try:
            policy = _parse_policy(top["policy"], "$.policy", strict, sink)
        except CorpusError as exc:
            sink.error(exc)

    _cross_checks(tools, studies, strict, sink)
    if sink.errors:
        return None, sink.errors, sink.warnings

    corpus = Corpus(
        tools=tuple(sorted((t for _, t in tools), key=lambda t: t.id)),
        studies=tuple(sorted((s for _, s in studies), key=lambda s: s.id)),
        policy=policy,
    )
    return corpus, [], sink.warnings


def parse_corpus(
    data: bytes | str,
    *,
    strict: bool = True,
    on_warning: Optional[Callable[[str], None]] = None,
) -> Corpus:
    """Parse and fully validate a corpus document, raising the first error."""
    corpus, errors, warnings = load_corpus(data, strict=strict)
    if on_warning is not None:
        for message in warnings:
            on_warning(message)
    if errors:
        raise errors[0]
    assert corpus is not None
    return corpus


# --- canonical serialization ---


def _sorted_enum_values(values, enum_cls) -> list[str]:
    order = list(enum_cls)
    return [member.value for member in sorted(values, key=order.index)]


def tool_to_obj(tool: ToolProfile) -> dict:
    """Tool as a JSON-ready mapping in canonical key order (optionals omitted)."""
    obj = {
        "id": tool.id,
        "name": tool.name,
        "author": tool.author,
        "country": tool.country,
        "year": tool.year,
        "category": tool.category.value,
        "intended_use": tool.intended_use,
        "intended_user": tool.intended_user,
        "clinical_area": tool.clinical_area,
        "target_population": tool.target_population,
        "target_outcome": tool.target_outcome,
        "action": tool.action,
        "input_source": _sorted_enum_values(tool.input_source, InputSource),
        "input_type": _sorted_enum_values(tool.input_type, InputType),
        "local_context": tool.local_context,
        "methodology": tool.methodology,
        "internal_validation_method": tool.internal_validation_method,
        "dedicated_support": tool.dedicated_support,
        "endorsement": tool.endorsement,
        "automation": tool.automation.value,
        "tool_citations": tool.tool_citations,
        "studies_count": tool.studies_count,
        "authors_count": tool.authors_count,
        "sample_size": tool.sample_size,
        "journal_name": tool.journal_name,
        "journal_rank": tool.journal_rank,
    }
    return {k: v for k, v in obj.items() if v is not None}


def study_to_obj(study: StudyRecord) -> dict:
    """Study as a JSON-ready mapping in canonical key order (optionals omitted)."""
    obj = {
        "id": study.id,
        "tool_id": study.tool_id,
        "citation": study.citation,
        "country": study.country,
        "year": study.year,
        "phase": study.phase.value,
        "study_type": study.study_type.value,
        "comparative": study.comparative,
        "level": study.level.value if study.level else None,
        "direction": study.direction.value,
        "matching_fields": {
            key: study.matching_fields[key]
            for key in MATCHING_FIELD_KEYS
            if key in study.matching_fields
        } or None,
        "quality_fields": {
            key: study.quality_fields[key]
            for key in QUALITY_FIELD_KEYS
            if key in study.quality_fields
        } or None,
        "matching_override": study.matching_override.value if study.matching_override else None,
        "quality_override": study.quality_override.value if study.quality_override else None,
        "impact_subtype": study.impact_subtype.value if study.impact_subtype else None,
        "label": _sorted_enum_values(study.labels, OutcomeLabel) or None,
        "sample_size": study.sample_size,
        "notes": study.notes,
    }
    return {k: v for k, v in obj.items() if v is not None}


def emit_corpus(corpus: Corpus) -> bytes:
    """Serialize to canonical form: fixed key order, ids sorted, 2-space indent."""
    document: dict[str, Any] = {
        "schema_version": corpus.schema_version,
        "tools": [tool_to_obj(t) for t in sorted(corpus.tools, key=lambda t: t.id)],
        "studies": [study_to_obj(s) for s in sorted(corpus.studies, key=lambda s: s.id)],
    }
    if corpus.policy is not None and corpus.policy != PolicyOverrides():
        rules = {key: getattr(corpus.policy, key) for key in _POLICY_RULES}
        document["policy"] = {key: rule.value for key, rule in rules.items() if rule is not None}
    text = json.dumps(document, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    return text.encode("utf-8")


# --- rater sheets and survey sheets ---


def _csv_rows(data: bytes | str, expected_header: tuple[str, str], what: str) -> list[tuple[int, list[str]]]:
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise CorpusSyntaxError(f"{what}: not valid UTF-8: {exc}") from exc
    try:
        parsed = list(csv.reader(io.StringIO(text)))
    except csv.Error as exc:
        raise CorpusSyntaxError(f"{what}: malformed CSV: {exc}") from exc
    rows = [
        (lineno, row)
        for lineno, row in enumerate(parsed, start=1)
        if any(cell.strip() for cell in row)
    ]
    if not rows or tuple(cell.strip().lower() for cell in rows[0][1]) != expected_header:
        raise SchemaError(f"{what}: header row must be '{','.join(expected_header)}'")
    for lineno, row in rows[1:]:
        if len(row) != 2:
            raise CorpusSyntaxError(f"{what}: line {lineno}: expected 2 fields, got {len(row)}")
    return rows[1:]


def parse_rater_sheet(data: bytes | str, *, name: str = "") -> RaterSheet:
    """Parse a ``tool_id,grade`` CSV; grade tokens decode case-insensitively."""
    grades: dict[str, GradeLevel] = {}
    for lineno, row in _csv_rows(data, ("tool_id", "grade"), "rater sheet"):
        tool_id, token = row[0].strip(), row[1].strip()
        if not tool_id:
            raise SchemaError(f"rater sheet: line {lineno}: empty tool_id")
        if token.lower() not in _enum_tokens(GradeLevel):
            raise UnknownGrade(f"rater sheet: line {lineno}: unknown grade '{token}'")
        if tool_id in grades:
            raise DuplicateTool(f"rater sheet: line {lineno}: tool '{tool_id}' listed twice")
        grades[tool_id] = _enum_tokens(GradeLevel)[token.lower()]
    return RaterSheet(name=name, grades=grades)


def parse_survey_sheet(data: bytes | str) -> dict[str, list[int]]:
    """Parse a ``question_id,response`` CSV into responses per question.

    Question order follows first appearance; responses must be integers 1-5.
    """
    responses: dict[str, list[int]] = {}
    for lineno, row in _csv_rows(data, ("question_id", "response"), "survey sheet"):
        question_id, token = row[0].strip(), row[1].strip()
        if not question_id:
            raise SchemaError(f"survey sheet: line {lineno}: empty question_id")
        try:
            # ASCII only: int() also reads the digits of other scripts.
            value = int(token.encode("ascii"))
        except ValueError:  # UnicodeEncodeError included
            raise OutOfRange(
                f"survey sheet: line {lineno}: response must be an integer 1..5, got '{token}'"
            ) from None
        if not 1 <= value <= 5:
            raise OutOfRange(
                f"survey sheet: line {lineno}: response must be 1..5, got {value}"
            )
        responses.setdefault(question_id, []).append(value)
    return responses
