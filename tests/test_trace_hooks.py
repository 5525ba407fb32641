"""Every per-layer hook of the benchmark's tracer names a live attribute.

``perfbench/tracing.py`` patches functions by (module, attribute); a hook
whose target was renamed or deleted silently reports its layer as null.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HOOKS = load_tracing().HOOKS


@pytest.mark.parametrize("module_name, attr, layer", HOOKS,
                         ids=[f"{m}.{a}" for m, a, _ in HOOKS])
def test_trace_hook_resolves(module_name, attr, layer):
    assert callable(getattr(importlib.import_module(module_name), attr))
