from __future__ import annotations

import types

import grasp


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(grasp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(grasp.__all__) == public
    assert len(grasp.__all__) == len(public)
