import importlib
import pkgutil

import pytest

import matguard

# every module but the entry point ``python -m matguard``, which exports nothing
MODULES = ["matguard"] + [
    f"matguard.{info.name}" for info in pkgutil.iter_modules(matguard.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_export(module):
    # a stale __all__ entry makes the star import itself raise AttributeError
    namespace = {}
    exec(f"from {module} import *", namespace)
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert all(namespace[name] is getattr(mod, name) for name in mod.__all__)
