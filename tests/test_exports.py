"""Every name a package exports resolves, so a deletion that leaves a stale
``__all__`` entry fails here rather than at a user's ``import *``."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module_name", ["molchord.genmodel", "molchord.training", "molchord.molgraph"]
)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
