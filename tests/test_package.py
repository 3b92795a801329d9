"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import phjb

MODULES = sorted(m.name for m in pkgutil.iter_modules(phjb.__path__, "phjb."))


def test_every_module_is_listed():
    assert "phjb.value" in MODULES and len(MODULES) >= 10


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", ())
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
