"""Golden CLI corpus: fixed invocations keep their stdout bytes and exit codes.

``golden/cases.json`` lists each invocation; ``golden/expected/<name>.out``
holds its stdout.  The corpus is regenerated by ``golden/make_corpus.py``
only for a deliberate output change recorded in ``CHANGES.md``.
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
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / "expected" / f"{case['name']}.out").read_bytes()
