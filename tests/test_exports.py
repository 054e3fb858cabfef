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


def test_every_benchmark_trace_target_resolves():
    """``perfbench/traced.py`` wraps each of its ``TARGETS`` by module and
    function name and reports a layer it cannot find as not traced, so a
    rename here would otherwise pass silently."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    spec = importlib.util.spec_from_file_location("perfbench_traced", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    assert traced.TARGETS
    unresolved = [
        (module_name, name)
        for _, module_name, name, _ in traced.TARGETS
        if not callable(getattr(importlib.import_module(module_name), name, None))
    ]
    assert unresolved == []
