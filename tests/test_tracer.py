"""The traced benchmark pass must find every program name it wraps.

``perfbench/tracer.py`` stops a traced run when a name it patches is gone,
so a refactor that unbinds one fails here, not only in a traced benchmark.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_restores_every_patched_name(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # its dataclasses look it up there
    spec.loader.exec_module(tracer)
    before = [vars(owner)[attr] for owner, attr, *_ in tracer.PATCHES]
    with tracer.installed(tracer.Tracer()):
        assert [vars(owner)[attr] for owner, attr, *_ in tracer.PATCHES] != before
    assert [vars(owner)[attr] for owner, attr, *_ in tracer.PATCHES] == before
    assert tracer.grasp.corpus.json is tracer.json
