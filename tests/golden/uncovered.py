"""List each statement of ``src/ctxprob`` that no test runs.

Run from anywhere in a checkout::

    python tests/golden/uncovered.py [PYTEST_ARGS ...]

It runs pytest in this process (by default over ``tests`` with ``-q``) under a
``sys.settrace`` line tracer that traces only the frames of ``src/ctxprob``
files, then prints ``path:line: source`` for each statement that never ran,
ends with one line ``uncovered: N statements in M files`` and exits with
pytest's exit code.  A statement is a line that the compiled module has code
for.  Code that a test runs in a subprocess is not traced.  It needs only the
standard library and pytest, and the traced suite takes about three times as
long as a plain run, so it is run on demand and is no test itself.
"""

from __future__ import annotations

import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "ctxprob"


def statements(code: types.CodeType) -> set[int]:
    """The lines that ``code`` and the code nested in it have instructions on."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= statements(const)
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    executed: dict[str, set[int]] = defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in files else None

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        code = pytest.main(argv or ["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total, touched = 0, 0
    for name, path in files.items():
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        unrun = sorted(statements(compile(source, name, "exec")) - executed[name])
        for line in unrun:
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
        total, touched = total + len(unrun), touched + bool(unrun)
    print(f"uncovered: {total} statements in {touched} files")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
