"""The package's public names: every name ``ctxprob.__all__`` lists resolves."""

import ctxprob


def test_every_exported_name_resolves():
    assert len(set(ctxprob.__all__)) == len(ctxprob.__all__)
    missing = [name for name in ctxprob.__all__ if not hasattr(ctxprob, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from ctxprob import *", namespace)
    assert set(ctxprob.__all__) <= set(namespace)
