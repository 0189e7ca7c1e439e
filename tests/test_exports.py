"""Every exported name resolves, so ``from kp5 import *`` and its per-module
twins cannot be broken by a stale entry in an ``__all__`` list."""

import importlib
import pkgutil

import pytest

import kp5

_MODULES = ["kp5"] + sorted(f"kp5.{m.name}" for m in pkgutil.iter_modules(kp5.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
