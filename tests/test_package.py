from __future__ import annotations

import inspect

import eulb


def test_export_list_matches_namespace():
    missing = [name for name in eulb.__all__ if not hasattr(eulb, name)]
    assert missing == []
    public = {
        name
        for name, value in vars(eulb).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public - set(eulb.__all__) == set()
    assert len(eulb.__all__) == len(set(eulb.__all__))
