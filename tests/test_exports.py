"""Public names: every name ``ctxprob.__all__`` or a public module's ``__all__``
lists resolves.  The module lists are the only source of the package's."""

import importlib
import pkgutil

import pytest

import ctxprob

MODULES = [m.name for m in pkgutil.iter_modules(ctxprob.__path__) if not m.name.startswith("_")]


def test_every_exported_name_resolves():
    assert len(set(ctxprob.__all__)) == len(ctxprob.__all__)
    missing = [name for name in ctxprob.__all__ if not hasattr(ctxprob, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ctxprob import *", namespace)
    assert set(ctxprob.__all__) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_a_module_lists_resolves_in_it(name):
    module = importlib.import_module(f"ctxprob.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
