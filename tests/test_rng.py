"""Stream role tags: each names one stream, and retired tags stay unused.

Only ``models`` and ``sampling`` derive streams; every other module asks them.
"""

import ast
from pathlib import Path

import ctxprob
from ctxprob import _rng

RETIRED = {"ROLE_BOOTSTRAP": 5, "ROLE_BOOTSTRAP_BLOCK": 7}


def test_role_tags_are_distinct():
    roles = {name: value for name, value in vars(_rng).items() if name.startswith("ROLE_")}
    assert len(set(roles.values())) == len(roles)
    assert {name: roles[name] for name in RETIRED} == RETIRED


def test_no_module_uses_a_retired_role():
    for path in Path(ctxprob.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "_rng":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        assert not names & {*RETIRED, "*"}, path.name


def test_only_models_and_sampling_import_streams():
    importers = set()
    for path in Path(ctxprob.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and "_rng" in (
                node.module, *(alias.name for alias in node.names)
            ):
                importers.add(path.stem)
    assert importers == {"models", "sampling"}
