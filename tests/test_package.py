from __future__ import annotations

import dataclasses
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import grasp


def test_all_lists_every_public_name():
    home = {name: module for module, names in grasp._EXPORTS.items() for name in names}
    assert grasp.__all__ == sorted(home)
    assert len(home) == sum(map(len, grasp._EXPORTS.values()))  # no name has two homes
    for name, module in home.items():
        value = getattr(grasp, name)
        assert value is getattr(importlib.import_module(f"grasp.{module}"), name)
        assert value.__module__ == f"grasp.{module}"
    assert set(grasp.__all__) <= set(dir(grasp))
    namespace: dict = {}
    exec("from grasp import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(grasp.__all__)
    public = {
        name for name, value in vars(grasp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(grasp.__all__)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        grasp.no_such_name


#: Value types the engine, corpus I/O and reports share; they live in ``grasp.model``.
SHARED_TYPES = ("AppraisalPolicy", "MatchingRule", "QualityRule", "TieFallback", "StudyAppraisal",
                "ToolIndices")


def test_shared_value_types_live_in_the_model():
    import grasp.engine
    import grasp.model
    for name in SHARED_TYPES:
        assert getattr(grasp.model, name).__module__ == "grasp.model"
        assert getattr(grasp.engine, name) is getattr(grasp.model, name)  # old import path kept


def test_corpus_and_report_do_not_import_the_engine():
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, grasp.corpus, grasp.report; print(*sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    loaded = set(done.stdout.split())
    assert {"grasp.corpus", "grasp.report", "grasp.model"} <= loaded
    assert "grasp.engine" not in loaded


@pytest.mark.parametrize("modules, frozen", [
    ("grasp.cli", True), ("grasp.corpus, grasp.engine, grasp.report, grasp.stats", False),
])
def test_only_the_cli_freezes_the_import_time_heap(modules, frozen):
    # A CLI process keeps what its imports made until exit; a library leaves the collector alone.
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", f"import gc, {modules}; print(gc.get_freeze_count())"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert (int(done.stdout) > 0) is frozen


#: Records the corpus decodes: callers use the dataclass API on them (``fields``, ``replace``).
DECODED_RECORDS = ("ToolProfile", "StudyRecord", "AppraisalPolicy", "Corpus")
#: Values grading and statistics compute: named tuples.
COMPUTED_VALUES = ("StudyAppraisal", "ToolIndices", "Adjudication", "EvidenceBucket", "GradeResult",
                   "RaterComparison", "LikertSummary")


def test_decoded_records_are_dataclasses_and_computed_values_are_named_tuples():
    for name in DECODED_RECORDS:
        record = getattr(grasp, name)
        assert dataclasses.is_dataclass(record) and record.__dataclass_params__.frozen, name
    for name in COMPUTED_VALUES:
        value = getattr(grasp, name)
        assert issubclass(value, tuple) and value._fields, name
        assert not dataclasses.is_dataclass(value), name
