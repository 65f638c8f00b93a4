"""Golden CLI corpus: fixed invocations keep their output bytes and exit codes.

``golden/cases.json`` lists each invocation; ``golden/expected/<name>.out``
holds its stdout and, for a nonzero exit code, ``golden/expected/<name>.err``
its stderr (a successful case writes nothing to stderr).  The corpus is
regenerated by ``golden/make_corpus.py`` only for a deliberate output change
recorded in ``CHANGES.md``.  ``COLUMNS`` is pinned as in ``make_corpus.py``,
because argparse wraps help text to the terminal width.
"""

import json
from pathlib import Path

import pytest

from ctxprob.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_case(case, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    expected = GOLDEN / "expected" / case["name"]
    assert code == case["exit"]
    assert captured.out.encode("utf-8") == expected.with_suffix(".out").read_bytes()
    err = expected.with_suffix(".err").read_bytes() if code else b""
    assert captured.err.encode("utf-8") == err
