"""Public names: every name ``ctxprob.__all__`` or a public module's ``__all__``
lists resolves.  The module lists are the only source of the package's.  No
module or test imports a name it does not use, no module imports a private name
of a sibling, every top-level definition of the package is read or listed, and
the package raises every error class it lists.  No module imports
``dataclasses``, and importing the CLI loads it not at all."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ctxprob

MODULES = [m.name for m in pkgutil.iter_modules(ctxprob.__path__) if not m.name.startswith("_")]
PACKAGE = Path(ctxprob.__file__).parent
TESTS = Path(__file__).parent
SOURCES = [*sorted(PACKAGE.glob("*.py")), *sorted(TESTS.glob("*.py")),
           *sorted(TESTS.glob("golden/*.py"))]


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


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads; a name ``__all__`` lists is read."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                         if alias.name != "*"}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {leaf.value for leaf in ast.walk(node.value)
                     if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path",
    SOURCES,
    ids=lambda path: path.name if path.parent == PACKAGE else str(path.relative_to(TESTS.parent)),
)
def test_no_module_imports_a_name_it_does_not_use(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import math\nimport os.path\nfrom re import compile, sub\n__all__ = ['sub']\n"
    assert unused_imports(source) == ["compile", "math", "os"]


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level ``def`` and ``class`` of ``sources`` (module
    name to source) that no module reads outside its own body and its module's
    ``__all__`` does not list."""
    defined, listed, read = [], set(), set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = node.name
                defined.append((module, owner))
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                listed |= {(module, leaf.value) for leaf in ast.walk(node.value)
                           if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str)}
            for leaf in ast.walk(node):
                if isinstance(leaf, ast.Name) and isinstance(leaf.ctx, ast.Load):
                    name = leaf.id
                elif isinstance(leaf, ast.Attribute):
                    name = leaf.attr
                else:
                    continue
                if name != owner:
                    read.add(name)
    return [f"{module}.{name}" for module, name in defined
            if name not in read and (module, name) not in listed]


def test_every_definition_is_read_or_listed():
    assert dead_definitions({path.stem: path.read_text(encoding="utf-8")
                             for path in sorted(PACKAGE.glob("*.py"))}) == []


def test_a_dead_definition_is_found():
    sources = {
        "a": "def used(): pass\ndef dead(): pass\ndef recursive(): return recursive()\n"
             "class Listed: pass\n__all__ = ['Listed']\n",
        "b": "from .a import used\nused()\ndef Listed(): pass\n",
    }
    assert dead_definitions(sources) == ["a.dead", "a.recursive", "b.Listed"]


def private_sibling_imports(source: str) -> list[str]:
    """Underscore-prefixed names that ``source`` imports from a sibling module."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names if alias.name.startswith("_"))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    assert private_sibling_imports(path.read_text(encoding="utf-8")) == []


def test_a_private_sibling_import_is_found():
    source = "from ._rng import substream\nfrom .sampling import _EXPERIMENTS, simulate_counts\n"
    assert private_sibling_imports(source) == ["_EXPERIMENTS"]


def raised_names(source: str) -> set[str]:
    """Names that ``source`` raises, as ``raise Name`` or ``raise Name(...)``."""
    raised = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
    return raised


def test_the_package_raises_every_error_class_it_lists():
    raised = set().union(*(raised_names(path.read_text(encoding="utf-8"))
                           for path in PACKAGE.glob("*.py")))
    assert set(ctxprob.errors.__all__) - {"CtxprobError"} <= raised


def test_a_raised_class_is_found():
    source = "raise ValueError\nraise KeyError(1) from None\nraise\nraise errors.Custom()\n"
    assert raised_names(source) == {"ValueError", "KeyError"}


def imported_modules(source: str) -> set[str]:
    """The top-level packages of the absolute imports of ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


# A frozen dataclass writes and compiles its methods each time its module is
# imported; the package's records share ``_validation.Record`` instead.
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_an_import_of_dataclasses_is_found():
    sources = ["import os, dataclasses as dc\n", "from dataclasses import dataclass\n",
               "def f():\n    import dataclasses.x\n", "from .dataclasses import y\n"]
    assert ["dataclasses" in imported_modules(source) for source in sources] == [
        True, True, True, False]


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # numpy does not import it either, so a CLI call never pays for it.
    code = "import sys, ctxprob.cli; print(sorted({'dataclasses', 'numpy'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "['numpy']\n"), proc.stderr
