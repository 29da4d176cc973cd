from __future__ import annotations

import importlib
import types

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
