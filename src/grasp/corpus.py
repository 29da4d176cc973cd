"""Corpus file format: parsing, validation, and canonical serialization.

A corpus is a UTF-8 JSON document with top-level keys ``schema_version``,
``tools``, ``studies``, and optional ``policy``. Enumerations are encoded as
lowercase tokens (grade levels as ``"C1"``-style tokens); every token decodes
case-insensitively, ignoring surrounding whitespace. A record's fields are
checked in canonical key order, and the first bad field is the one reported.
Every record is decoded on its own, so a rejected record is listed at its path
and the records after it are still checked.
Canonical form fixes key order, sorts tools and studies by id, and indents
with two spaces, so emitting is a fixed point and ``parse(emit(c)) == c`` for
every valid corpus.

Rater grade sheets and survey response sheets are flat CSV files.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from functools import cache, cached_property
from operator import attrgetter
from typing import AbstractSet, Any, Callable, ClassVar, Mapping, Optional, Sequence

from .errors import (
    ConsistencyError,
    CorpusError,
    CorpusSyntaxError,
    DanglingReferenceError,
    DuplicateTool,
    ResponseOutOfRange,
    SchemaError,
    UnknownGrade,
    UnknownTool,
)
from .model import (
    LEVEL_BY_IMPACT_SUBTYPE,
    LEVELS_BY_STUDY_TYPE,
    MATCHING_FIELD_KEYS,
    QUALITY_FIELD_KEYS,
    AppraisalPolicy,
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
    external_validation_level,
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
    policy: AppraisalPolicy = AppraisalPolicy()
    schema_version: ClassVar[str] = SCHEMA_VERSION  # the one version the decoder reads

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


class _Collector:
    """Error sink of one load: accumulates errors and warnings for a full listing."""

    def __init__(self, strict: bool):
        self.strict = strict
        self.errors: list[CorpusError] = []
        self.warnings: list[str] = []

    def tolerable(self, fault: CorpusError, ignored: str = "") -> None:
        """A fault that ``strict`` makes an error (an unknown field, a wrong
        ``studies_count``); otherwise a warning: its text, then ``ignored``."""
        if self.strict:
            self.errors.append(fault)
        else:
            self.warnings.append(f"{fault}{ignored}")


# --- typed accessors; every rejection names the offending field path ---
# A scalar accessor also takes a codec's ``sink``, so it serves as its codec's ``decode``.


class _Object(dict):
    """A decoded JSON object that remembers the keys its text repeats."""
    repeated: tuple[str, ...] = ()


def _decode_object(pairs: list[tuple[str, Any]]) -> _Object:
    obj = _Object(pairs)
    if len(obj) < len(pairs):
        obj.repeated = tuple(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
    return obj


def _type_name(value: Any) -> str:
    """A value's type as a rejection names it; a JSON object is an object."""
    return "object" if isinstance(value, dict) else type(value).__name__


def _as_obj(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, f"expected an object, got {_type_name(value)}")
    if isinstance(value, _Object) and value.repeated:
        raise SchemaError(f"{path}.{_key(value.repeated[0])}", "duplicate field")
    return value


def _key(key: str) -> str:
    """A JSON key as a path step shows it: bare when it is an identifier, else its repr."""
    return key if key.isidentifier() else repr(key)


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(path, f"expected an array, got {_type_name(value)}")
    return value


def _as_str(value: Any, path: str, sink: Optional[_Collector] = None) -> str:
    if not isinstance(value, str):
        raise SchemaError(path, f"expected a string, got {_type_name(value)}")
    # json.loads reads a lone surrogate escape such as "\ud800", which no
    # UTF-8 report or corpus file can hold.
    if not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(path, "string holds a lone UTF-16 surrogate") from None
    return value


def _as_tool_id(value: Any, path: str, sink: Optional[_Collector] = None) -> str:
    # A tool id is the first space-separated field of a ``grade`` line and
    # names a report file, so it is one printable word that no platform reads
    # as a path and that fits NAME_MAX (255 bytes) as ``.{id}.json.{pid}.tmp``.
    value = _as_str(value, path)
    if not value:
        raise SchemaError(path, "tool id must not be empty")
    if not value.isprintable():
        raise SchemaError(path, f"tool id {value!r} holds a non-printable character")
    if " " in value or "/" in value or "\\" in value:
        raise SchemaError(path, f"tool id {value!r} holds a space or a path separator")
    if len(value.encode("utf-8")) > 200:
        raise SchemaError(path, "tool id is longer than 200 bytes")
    return value


def _as_bool(value: Any, path: str, sink: Optional[_Collector] = None) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(path, f"expected a boolean, got {_type_name(value)}")
    return value


def _require(obj: dict, key: str, path: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{path}.{key}", "required field is missing")
    return obj[key]


@cache
def _enum_tokens(enum_cls) -> dict[str, Any]:
    return {member.value.lower(): member for member in enum_cls}


def _check_unknown(obj: dict, allowed: AbstractSet[str], path: str, sink: _Collector) -> None:
    if obj.keys() <= allowed:
        return
    for key in map(_key, sorted(obj.keys() - allowed)):
        sink.tolerable(SchemaError(f"{path}.{key}", "unknown field"), " ignored")


# --- field codecs: a (decode, encode) pair per kind of JSON value ---
#
# ``decode(value, path, sink)`` returns the model value or raises a
# CorpusError naming ``path``. ``encode(model_value)`` returns the JSON value,
# or None to leave the key out; a None model value is never encoded.

_Codec = tuple[Callable[[Any, str, _Collector], Any], Callable[[Any], Any]]


def _same(value: Any) -> Any:
    return value


def _number(noun: str, types: tuple[type, ...], low: float, word: str) -> _Codec:
    """A finite number of one of ``types`` (exact: a bool is no int), at least ``low``, which
    ``word`` names; with ``float`` in ``types`` it decodes to a float."""
    cast = float if float in types else int

    def decode(value: Any, path: str, sink: _Collector):
        if type(value) not in types:
            raise SchemaError(path, f"expected {noun}, got {_type_name(value)}")
        # json.loads reads NaN and +-Infinity (1e400 too), which cannot be emitted as
        # JSON; an integer beyond the float range overflows the indices' arithmetic.
        if not abs(value) <= sys.float_info.max:
            raise SchemaError(path, "expected a finite number")
        if (value := cast(value)) < low:
            raise SchemaError(path, f"must be {word}, got {value}")
        return value

    return decode, _same


@cache
def _enum(enum_cls) -> _Codec:
    """Tokens decode case-insensitively, ignoring surrounding whitespace."""
    canonical = {member.value: member for member in enum_cls}
    members = _enum_tokens(enum_cls)

    def decode(value: Any, path: str, sink: _Collector):
        if type(value) is str and value in canonical:  # the token as emitted
            return canonical[value]
        token = _as_str(value, path).strip().lower()
        if token not in members:
            allowed = ", ".join(sorted(members))
            raise SchemaError(path, f"unknown token {value!r}; expected one of: {allowed}")
        return members[token]

    return decode, attrgetter("value")


def _enum_set(enum_cls, noun: Optional[str] = None) -> _Codec:
    """Tokens written in declaration order. With ``noun`` the set must name at
    least one member; without, an empty set is the default and is left out."""
    decode_item, _ = _enum(enum_cls)
    order = {member: i for i, member in enumerate(enum_cls)}

    def decode(value: Any, path: str, sink: _Collector) -> frozenset:
        items = _as_list(value, path)
        members = frozenset(
            decode_item(item, f"{path}[{i}]", sink) for i, item in enumerate(items)
        )
        if noun and not members:
            raise SchemaError(path, f"must name at least one {noun}")
        return members

    def encode(members: frozenset) -> Optional[list[str]]:
        tokens = [member.value for member in sorted(members, key=order.__getitem__)]
        return tokens if tokens or noun else None

    return decode, encode


def _flags(keys: Sequence[str]) -> _Codec:
    """A map of boolean flags with known keys, written in ``keys`` order; an
    empty map is the default and is left out."""
    allowed = frozenset(keys)

    def decode(value: Any, path: str, sink: _Collector) -> dict[str, bool]:
        obj = _as_obj(value, path)
        _check_unknown(obj, allowed, path, sink)
        return {key: _as_bool(obj[key], f"{path}.{key}") for key in keys if key in obj}

    def encode(flags: Mapping[str, bool]) -> Optional[dict[str, bool]]:
        return {key: flags[key] for key in keys if key in flags} or None

    return decode, encode


_STR, _BOOL = (_as_str, _same), (_as_bool, _same)
_INT = _number("an integer", (int,), -sys.float_info.max, "finite")
_COUNT = _number("an integer", (int,), 0, "non-negative")
_POSITIVE = _number("an integer", (int,), 1, "positive")


# --- record tables: one entry per JSON key, in canonical order ---


class _Field:
    """One JSON key of a record and the model attribute it fills."""

    def __init__(self, key: str, *codec: Callable, attr: Optional[str] = None):
        self.key, (self.decode, self.encode), self.attr = key, codec, attr or key


class _Table:
    """A record type's fields, with the plan decoding walks built once.

    A key is required exactly when the model gives its attribute no default.
    """

    def __init__(self, model: type, *table_fields: _Field):
        required = {f.name for f in fields(model) if f.default is f.default_factory is MISSING}
        self.model = model
        self.fields = table_fields
        self.keys = frozenset(f.key for f in table_fields)
        self.plan = tuple((f.key, f.attr, f.decode, f.attr in required) for f in table_fields)
        self.encoders = tuple((f.key, f.encode) for f in table_fields)
        self.values = attrgetter(*(f.attr for f in table_fields))
        # A record's __dict__ in model order, as __init__ fills it; decoding replaces each MISSING.
        self.template = {f.name: f.default for f in fields(model)}
        self.factories = tuple((f.name, f.default_factory) for f in fields(model)
                               if f.default_factory is not MISSING)


_TOOL_TABLE = _Table(
    ToolProfile,
    _Field("id", _as_tool_id, _same),
    _Field("name", *_STR),
    _Field("author", *_STR),
    _Field("country", *_STR),
    _Field("year", *_INT),
    _Field("category", *_enum(ToolCategory)),
    _Field("intended_use", *_STR),
    _Field("intended_user", *_STR),
    _Field("clinical_area", *_STR),
    _Field("target_population", *_STR),
    _Field("target_outcome", *_STR),
    _Field("action", *_STR),
    _Field("input_source", *_enum_set(InputSource, "source")),
    _Field("input_type", *_enum_set(InputType, "type")),
    _Field("local_context", *_BOOL),
    _Field("methodology", *_STR),
    _Field("internal_validation_method", *_STR),
    _Field("dedicated_support", *_STR),
    _Field("endorsement", *_STR),
    _Field("automation", *_enum(Automation)),
    _Field("tool_citations", *_COUNT),
    _Field("studies_count", *_COUNT),
    _Field("authors_count", *_POSITIVE),
    _Field("sample_size", *_POSITIVE),
    _Field("journal_name", *_STR),
    _Field("journal_rank", *_number("a number", (int, float), 0, "non-negative")),
)

_STUDY_TABLE = _Table(
    StudyRecord,
    _Field("id", *_STR),
    _Field("tool_id", *_STR),
    _Field("citation", *_STR),
    _Field("country", *_STR),
    _Field("year", *_INT),
    _Field("phase", *_enum(Phase)),
    _Field("study_type", *_enum(StudyType)),
    _Field("comparative", *_BOOL),
    _Field("level", *_enum(GradeLevel)),
    _Field("direction", *_enum(StudyDirection)),
    _Field("matching_fields", *_flags(MATCHING_FIELD_KEYS)),
    _Field("quality_fields", *_flags(QUALITY_FIELD_KEYS)),
    _Field("matching_override", *_enum(MatchingVerdict)),
    _Field("quality_override", *_enum(QualityVerdict)),
    _Field("impact_subtype", *_enum(ImpactSubtype)),
    _Field("label", *_enum_set(OutcomeLabel), attr="labels"),
    _Field("sample_size", *_POSITIVE),
    _Field("notes", *_STR),
)

_POLICY_TABLE = _Table(
    AppraisalPolicy, *(_Field(f.name, *_enum(type(f.default))) for f in fields(AppraisalPolicy))
)


def _decode_record(value: Any, path: str, table: _Table, sink: _Collector):
    """Unknown keys go to the sink; the first missing or bad field, in canonical key
    order, raises. Absent optional keys take the model's default. The record is built
    without ``__init__``, holding what ``__init__`` would store, in the same order."""
    obj = _as_obj(value, path)
    _check_unknown(obj, table.keys, path, sink)
    values = table.template.copy()
    for attr, factory in table.factories:
        values[attr] = factory()
    for key, attr, decode, required in table.plan:
        if key in obj:
            values[attr] = decode(obj[key], f"{path}.{key}", sink)
        elif required:
            _require(obj, key, path)  # raises: the key is absent
    record = object.__new__(table.model)
    record.__dict__.update(values)
    return record


def _encode_record(table: _Table, record: Any) -> dict:
    obj = {}
    for (key, encode), value in zip(table.encoders, table.values(record)):
        if value is not None and (value := encode(value)) is not None:
            obj[key] = value
    return obj


# --- studies ---


def _study_consistency(study: StudyRecord, path: str) -> None:
    if study.level is None:
        if study.study_type is not StudyType.DEVELOPMENT:
            raise ConsistencyError(
                f"{path}.level", f"required for study_type '{study.study_type.value}'"
            )
        if study.phase is not Phase.BEFORE_IMPLEMENTATION:
            raise ConsistencyError(
                f"{path}.phase", "metadata-only development record must be"
                f" 'before_implementation', got '{study.phase.value}'"
            )
        return
    allowed = LEVELS_BY_STUDY_TYPE[study.study_type]
    if study.level not in allowed:
        tokens = ", ".join(sorted(level.value for level in allowed))
        raise ConsistencyError(
            path, f"study_type '{study.study_type.value}' is inconsistent with"
            f" level '{study.level.value}' (allowed: {tokens})"
        )
    if study.phase is not study.level.phase:
        raise ConsistencyError(
            f"{path}.phase", f"level {study.level.value} belongs to phase"
            f" '{study.level.phase.value}', got '{study.phase.value}'"
        )
    if study.study_type is StudyType.POST_IMPLEMENTATION_IMPACT:
        if study.impact_subtype is None:
            raise ConsistencyError(f"{path}.impact_subtype", "required for impact studies")
        pinned = LEVEL_BY_IMPACT_SUBTYPE[study.impact_subtype]
        if study.level is not pinned:
            raise ConsistencyError(
                path, f"impact_subtype '{study.impact_subtype.value}' requires level"
                f" {pinned.value}, got {study.level.value}"
            )
    elif study.impact_subtype is not None:
        raise ConsistencyError(
            f"{path}.impact_subtype", "only valid for post_implementation_impact studies"
        )


# --- whole-corpus parsing ---

_TOP_KEYS = frozenset({"schema_version", "tools", "studies", "policy"})


def _cross_checks(
    tools: list[tuple[str, ToolProfile]],
    studies: list[tuple[str, StudyRecord]],
    unparsed: AbstractSet[str],
    incomplete: AbstractSet[str],
    sink: _Collector,
) -> None:
    # A record that failed to decode is listed once, at its path: no study of an
    # ``unparsed`` tool dangles, and an ``incomplete`` tool's studies are not cross-checked.
    seen_tools: dict[str, str] = {}
    for path, tool in tools:
        if tool.id in seen_tools:
            sink.errors.append(SchemaError(
                f"{path}.id", f"duplicate tool id {tool.id!r} (also at {seen_tools[tool.id]})"
            ))
        seen_tools[tool.id] = path

    seen_studies: dict[str, str] = {}
    by_tool: dict[str, list[tuple[str, StudyRecord]]] = {}
    for path, study in studies:
        if study.id in seen_studies:
            sink.errors.append(SchemaError(
                f"{path}.id", f"duplicate study id {study.id!r} (also at {seen_studies[study.id]})"
            ))
        seen_studies[study.id] = path
        if study.tool_id not in seen_tools and study.tool_id not in unparsed:
            sink.errors.append(DanglingReferenceError(
                f"{path}.tool_id", f"no tool with id {study.tool_id!r}"
            ))
        by_tool.setdefault(study.tool_id, []).append((path, study))

    for tool_path, tool in tools:
        if tool.id in incomplete:
            continue
        attached = by_tool.get(tool.id, [])
        if not any(study.is_gradable for _, study in attached):
            sink.errors.append(ConsistencyError(tool_path, f"tool {tool.id!r} has no gradable study"))
        external = [(p, s) for p, s in attached if s.study_type is StudyType.EXTERNAL_VALIDATION]
        if external:
            derived = external_validation_level(len({s.id for _, s in external}))
            for path, study in external:
                if study.level is not derived:
                    sink.errors.append(ConsistencyError(
                        f"{path}.level", f"tool {tool.id!r} has {len(external)} external"
                        f" validation(s), so the level must be {derived.value},"
                        f" got {study.level.value}"
                    ))
        if tool.studies_count != len(attached):
            sink.tolerable(ConsistencyError(
                f"{tool_path}.studies_count", f"declared {tool.studies_count} but"
                f" {len(attached)} study records reference {tool.id!r}"
            ))


def _decode_list(raw: list, path: str, table: _Table, id_key: str, sink: _Collector,
                 check: Callable[[Any, str], None]) -> tuple[list[tuple[str, Any]], set[str]]:
    """Records of ``raw`` that decode and pass ``check``, with paths; the ``id_key`` strings of the rest."""
    records, failed = [], set()
    for i, value in enumerate(raw):
        where = f"{path}[{i}]"
        try:
            record = _decode_record(value, where, table, sink)
            check(record, where)
            records.append((where, record))
        except CorpusError as exc:
            sink.errors.append(exc)
            if isinstance(value, dict) and isinstance(value.get(id_key), str):
                failed.add(value[id_key])
    return records, failed


def load_corpus(
    data: bytes | str, *, strict: bool = True
) -> tuple[Optional[Corpus], list[CorpusError], list[str]]:
    """Parse with full error collection.

    Returns ``(corpus, errors, warnings)``; ``corpus`` is None whenever any
    error was recorded. Arbitrary byte input never raises, it only yields
    typed errors in the list. The garbage collector is left as the caller set
    it; ``grasp.cli.main`` runs each command with it off.
    """
    sink = _Collector(strict)
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        return None, [CorpusSyntaxError("", f"not valid UTF-8: {exc}")], []
    try:
        document = json.loads(text, object_pairs_hook=_decode_object)
    except json.JSONDecodeError as exc:
        return None, [CorpusSyntaxError(
            "", f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )], []
    except RecursionError:
        return None, [CorpusSyntaxError("", "document nesting exceeds the parser limit")], []
    except ValueError as exc:  # an integer literal past int()'s digit limit
        return None, [CorpusSyntaxError("", f"malformed JSON: {exc}")], []

    try:
        top = _as_obj(document, "$")
        _check_unknown(top, _TOP_KEYS, "$", sink)
        version = _as_str(_require(top, "schema_version", "$"), "$.schema_version")
        if version != SCHEMA_VERSION:
            raise SchemaError("$.schema_version", f"expected '{SCHEMA_VERSION}', got {version!r}")
        raw_tools = _as_list(_require(top, "tools", "$"), "$.tools")
        raw_studies = _as_list(_require(top, "studies", "$"), "$.studies")
    except CorpusError as exc:
        return None, [exc, *sink.errors], sink.warnings

    tools, unparsed = _decode_list(raw_tools, "$.tools", _TOOL_TABLE, "id", sink, lambda *_: None)
    studies, incomplete = _decode_list(
        raw_studies, "$.studies", _STUDY_TABLE, "tool_id", sink, _study_consistency)

    policy = AppraisalPolicy()
    if "policy" in top:
        try:
            policy = _decode_record(top["policy"], "$.policy", _POLICY_TABLE, sink)
        except CorpusError as exc:
            sink.errors.append(exc)

    _cross_checks(tools, studies, unparsed, incomplete, sink)
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


def tool_to_obj(tool: ToolProfile) -> dict:
    """Tool as a JSON-ready mapping in canonical key order (optionals omitted)."""
    return _encode_record(_TOOL_TABLE, tool)


def study_to_obj(study: StudyRecord) -> dict:
    """Study as a JSON-ready mapping in canonical key order (optionals omitted)."""
    return _encode_record(_STUDY_TABLE, study)


def emit_corpus(corpus: Corpus) -> bytes:
    """Serialize to canonical form: fixed key order, ids sorted, 2-space indent."""
    document: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "tools": [tool_to_obj(t) for t in sorted(corpus.tools, key=lambda t: t.id)],
        "studies": [study_to_obj(s) for s in sorted(corpus.studies, key=lambda s: s.id)],
    }
    if corpus.policy != AppraisalPolicy():
        document["policy"] = _encode_record(_POLICY_TABLE, corpus.policy)
    text = json.dumps(document, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    return text.encode("utf-8")


# --- rater sheets and survey sheets ---


def _csv_rows(
    data: bytes | str, expected_header: tuple[str, str], what: str
) -> list[tuple[str, list[str]]]:
    """The records after the header, each with its path ``"{what}: line N"``."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise CorpusSyntaxError(what, f"not valid UTF-8: {exc}") from exc
    # Spreadsheet programs start a "CSV UTF-8" file with a byte-order mark.
    text = text.removeprefix("\ufeff")
    # A record is numbered by the line it starts on, which a quoted line break moves.
    reader, rows, lineno = csv.reader(io.StringIO(text)), [], 1
    try:
        for row in reader:
            if any(cell.strip() for cell in row):
                rows.append((f"{what}: line {lineno}", row))
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise CorpusSyntaxError(what, f"malformed CSV: {exc}") from exc
    if not rows or tuple(cell.strip().lower() for cell in rows[0][1]) != expected_header:
        raise SchemaError(what, f"header row must be '{','.join(expected_header)}'")
    for where, row in rows[1:]:
        if len(row) != 2:
            raise CorpusSyntaxError(where, f"expected 2 fields, got {len(row)}")
    return rows[1:]


def parse_rater_sheet(data: bytes | str) -> dict[str, GradeLevel]:
    """Grades by tool id from a ``tool_id,grade`` CSV; tokens decode case-insensitively."""
    grades: dict[str, GradeLevel] = {}
    for where, row in _csv_rows(data, ("tool_id", "grade"), "rater sheet"):
        tool_id, token = row[0].strip(), row[1].strip()
        if not tool_id:
            raise SchemaError(where, "empty tool_id")
        if token.lower() not in _enum_tokens(GradeLevel):
            raise UnknownGrade(where, f"unknown grade {token!r}")
        if tool_id in grades:
            raise DuplicateTool(where, f"tool {tool_id!r} listed twice")
        grades[tool_id] = _enum_tokens(GradeLevel)[token.lower()]
    return grades


def parse_survey_sheet(data: bytes | str) -> dict[str, list[int]]:
    """Parse a ``question_id,response`` CSV into responses per question.

    Question order follows first appearance; a response is exactly one of the
    ASCII digits 1-5, so signs, leading zeros, underscores and the digits of
    other scripts are rejected.
    """
    responses: dict[str, list[int]] = {}
    for where, row in _csv_rows(data, ("question_id", "response"), "survey sheet"):
        question_id, token = row[0].strip(), row[1].strip()
        if not question_id:
            raise SchemaError(where, "empty question_id")
        # ``survey`` prints one tab-separated line per question, then the pooled "overall" line.
        if not question_id.isprintable():
            raise SchemaError(where, f"question_id {question_id!r} holds a non-printable character")
        if question_id == "overall":
            raise SchemaError(where, "question_id 'overall' names the pooled row")
        if token not in ("1", "2", "3", "4", "5"):
            raise ResponseOutOfRange(where, f"response must be an integer 1..5, got {token!r}")
        responses.setdefault(question_id, []).append(int(token))
    return responses
