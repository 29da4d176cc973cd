"""Seeded random generation of valid corpora for round-trip and property tests."""

from __future__ import annotations

import random
from dataclasses import fields as dataclass_fields, replace
from typing import Optional

from grasp.corpus import Corpus
from grasp.engine import AppraisalPolicy
from grasp.model import (
    LEVEL_BY_IMPACT_SUBTYPE,
    LEVELS_BY_STUDY_TYPE,
    MATCHING_FIELD_KEYS,
    QUALITY_FIELD_KEYS,
    Automation,
    EvidenceClass,
    GradeLevel,
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

_WORDS = (
    "readmission", "sepsis", "fracture", "pneumonia", "delirium", "stroke",
    "mortalité", "niño", "Überwachung", "安全",
)
_COUNTRIES = ("Canada", "United States", "España", "Norge", "日本", "Deutschland")
_JOURNALS = ("Journal of Examples", "Annals of Synthetic Medicine", "Revue d'Essai")

_CLASS_PAIRS = {
    EvidenceClass.A: (MatchingVerdict.MATCHING, QualityVerdict.HIGH),
    EvidenceClass.B: (MatchingVerdict.NON_MATCHING, QualityVerdict.HIGH),
    EvidenceClass.C: (MatchingVerdict.NON_MATCHING, QualityVerdict.LOW),
}

# The study type each generated level is written with. Development records
# may also declare C3, but the generator keeps them metadata-only.
_TYPE_FOR_LEVEL = {
    level: study_type for study_type, levels in LEVELS_BY_STUDY_TYPE.items()
    if study_type is not StudyType.DEVELOPMENT for level in levels
}

_SUBTYPE = {level: subtype for subtype, level in LEVEL_BY_IMPACT_SUBTYPE.items()}


def _text(rng: random.Random, prefix: str) -> str:
    return f"{prefix} {rng.choice(_WORDS)} {rng.randint(1, 99)}"


def random_tool(rng: random.Random, index: int) -> ToolProfile:
    return ToolProfile(
        id=f"tool-{index:03d}",
        name=_text(rng, "Score"),
        author=_text(rng, "Author"),
        country=rng.choice(_COUNTRIES),
        year=rng.randint(1985, 2015),
        category=rng.choice(list(ToolCategory)),
        intended_use=_text(rng, "Predict"),
        intended_user=_text(rng, "Clinicians for"),
        clinical_area=_text(rng, "Area of"),
        target_population=_text(rng, "Patients with"),
        target_outcome=_text(rng, "Outcome"),
        action=_text(rng, "Act on"),
        input_source=frozenset(
            rng.sample(list(InputSource), rng.randint(1, len(InputSource)))
        ),
        input_type=frozenset(rng.sample(list(InputType), rng.randint(1, len(InputType)))),
        local_context=rng.random() < 0.3,
        methodology=_text(rng, "Model of"),
        internal_validation_method=_text(rng, "Validation by"),
        dedicated_support=_text(rng, "Network") if rng.random() < 0.4 else None,
        endorsement=_text(rng, "Guideline") if rng.random() < 0.4 else None,
        automation=rng.choice(list(Automation)),
        tool_citations=rng.randint(0, 2000),
        studies_count=0,  # patched after the studies are generated
        authors_count=rng.randint(1, 15),
        sample_size=rng.randint(30, 50000),
        journal_name=rng.choice(_JOURNALS),
        journal_rank=round(rng.uniform(0.0, 60.0), 1),
    )


def _set_matching(rng: random.Random, fields: dict, matching: MatchingVerdict) -> None:
    if rng.random() < 0.5:
        fields["matching_override"] = matching
        if rng.random() < 0.3:  # stray flags may coexist with an override
            keys = rng.sample(MATCHING_FIELD_KEYS, rng.randint(1, 3))
            fields["matching_fields"] = {k: rng.random() < 0.5 for k in keys}
    elif matching is MatchingVerdict.MATCHING:
        fields["matching_fields"] = {k: True for k in MATCHING_FIELD_KEYS}
    else:
        flags = {k: True for k in MATCHING_FIELD_KEYS}
        flags[rng.choice(MATCHING_FIELD_KEYS)] = False
        fields["matching_fields"] = flags


def random_study(
    rng: random.Random,
    tool: ToolProfile,
    study_id: str,
    level: Optional[GradeLevel],
    study_type: StudyType,
) -> StudyRecord:
    direction = rng.choices(list(StudyDirection), weights=(5, 1, 2))[0]
    matching, quality = _CLASS_PAIRS[rng.choice(list(EvidenceClass))]
    fields: dict = dict(
        id=study_id,
        tool_id=tool.id,
        citation=_text(rng, "Evaluation of"),
        country=rng.choice(_COUNTRIES),
        year=rng.randint(tool.year, 2020),
        phase=level.phase if level else Phase.BEFORE_IMPLEMENTATION,
        study_type=study_type,
        comparative=rng.random() < 0.3,
        level=level,
        direction=direction,
        quality_override=quality,
        impact_subtype=_SUBTYPE.get(level) if level else None,
    )
    _set_matching(rng, fields, matching)
    if rng.random() < 0.4:
        keys = rng.sample(QUALITY_FIELD_KEYS, rng.randint(1, len(QUALITY_FIELD_KEYS)))
        fields["quality_fields"] = {k: rng.random() < 0.6 for k in keys}
    if rng.random() < 0.4:
        fields["labels"] = frozenset(
            rng.sample(list(OutcomeLabel), rng.randint(1, 3))
        )
    if rng.random() < 0.6:
        fields["sample_size"] = rng.randint(20, 20000)
    if rng.random() < 0.3:
        fields["notes"] = _text(rng, "Note on")
    return StudyRecord(**fields)


def random_tool_studies(
    rng: random.Random, tool: ToolProfile, counter: int
) -> tuple[list[StudyRecord], int]:
    """Generate a consistent study set for one tool (at least one gradable)."""
    studies: list[StudyRecord] = []

    def next_id() -> str:
        nonlocal counter
        counter += 1
        return f"{tool.id}-s{counter:04d}"

    n_external = rng.choice((0, 0, 1, 2, 3))
    external_level = external_validation_level(n_external)
    for _ in range(n_external):
        studies.append(
            random_study(rng, tool, next_id(), external_level, StudyType.EXTERNAL_VALIDATION)
        )
    for level in (GradeLevel.C3, GradeLevel.B3, GradeLevel.B2,
                  GradeLevel.A1, GradeLevel.A2, GradeLevel.A3):
        if rng.random() < 0.4:
            for _ in range(rng.randint(1, 3)):
                studies.append(
                    random_study(rng, tool, next_id(), level, _TYPE_FOR_LEVEL[level])
                )
    if rng.random() < 0.3:  # metadata-only development record
        studies.append(random_study(rng, tool, next_id(), None, StudyType.DEVELOPMENT))
    if not any(s.is_gradable for s in studies):
        studies.append(
            random_study(rng, tool, next_id(), GradeLevel.C3, _TYPE_FOR_LEVEL[GradeLevel.C3])
        )
    return studies, counter


def random_policy(rng: random.Random) -> AppraisalPolicy:
    # The golden grade digests depend on this order of draws: per field, a coin, then a value.
    if rng.random() < 0.7:
        return AppraisalPolicy()
    return AppraisalPolicy(**{
        f.name: rng.choice(list(type(f.default))) for f in dataclass_fields(AppraisalPolicy)
        if rng.random() < 0.5
    })


def random_corpus(rng: random.Random, max_tools: int = 3) -> Corpus:
    tools: list[ToolProfile] = []
    studies: list[StudyRecord] = []
    counter = 0
    for index in range(rng.randint(1, max_tools)):
        tool = random_tool(rng, index)
        tool_studies, counter = random_tool_studies(rng, tool, counter)
        tools.append(replace(tool, studies_count=len(tool_studies)))
        studies.extend(tool_studies)
    return Corpus(
        tools=tuple(sorted(tools, key=lambda t: t.id)),
        studies=tuple(sorted(studies, key=lambda s: s.id)),
        policy=random_policy(rng),
    )


def wide_corpus(rng: random.Random, n_tools: int) -> Corpus:
    """Many tools with a few studies each, in generation order, as the benchmark's
    wide workload builds them."""
    tools: list[ToolProfile] = []
    studies: list[StudyRecord] = []
    counter = 0
    for index in range(n_tools):
        tool = random_tool(rng, index)
        tool_studies, counter = random_tool_studies(rng, tool, counter)
        tools.append(replace(tool, studies_count=len(tool_studies)))
        studies.extend(tool_studies)
    return Corpus(tools=tuple(tools), studies=tuple(studies))


def strip_overrides(rng: random.Random, corpus: Corpus) -> Corpus:
    """Drop the appraiser overrides of a random share of studies.

    Without an override, matching falls back to the study's flags (and is
    unresolvable without any) and quality to the policy's rule (and is
    unresolvable under override_only).
    """
    def strip(study: StudyRecord) -> StudyRecord:
        roll = rng.random()
        if roll < 0.15:
            return replace(study, matching_override=None)
        if roll < 0.30:
            return replace(study, quality_override=None)
        return study
    return replace(corpus, studies=tuple(strip(s) for s in corpus.studies))
