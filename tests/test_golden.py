"""Golden CLI corpus: fixed invocations keep their output bytes and exit codes.

``golden/cases.json`` lists each invocation; ``golden/expected/<name>.out``
holds its stdout and, for a nonzero exit code, ``golden/expected/<name>.err``
its stderr (a successful case writes nothing to stderr).  The corpus is
regenerated by ``golden/make_corpus.py`` only for a deliberate output change
recorded in ``CHANGES.md``.  ``COLUMNS`` is pinned as in ``make_corpus.py``,
because argparse wraps help text to the terminal width.

The corpus writer must still write the committed corpus, and
``golden/differential.py`` must find no difference between this tree and a
copy of it, but must find one planted byte.  Its allow list must pass a
planted difference that an entry names, and fail one that no entry names.
The line tracer ``golden/uncovered.py`` must run and list the statements that
a test file leaves unrun.  The input fuzzer ``golden/fuzz_inputs.py`` must find
no break of the error contract in three inputs, and must find a planted
unbounded echo.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ctxprob import REPORT_FORMAT_VERSION, _validation
from ctxprob.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parent.parent / "src"
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


def test_no_successful_case_builds_a_message(capsys, monkeypatch):
    # Messages are built only to be raised: every module's ``shown`` counts its calls.
    original, calls = _validation.shown, []

    def counting(value):
        calls.append(value)
        return original(value)

    patched = [name for name, module in list(sys.modules.items())
               if name.partition(".")[0] == "ctxprob" and vars(module).get("shown") is original]
    assert {"ctxprob._validation", "ctxprob.calculus", "ctxprob.io"} <= set(patched)
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "shown", counting)
    monkeypatch.chdir(GOLDEN)
    monkeypatch.setenv("COLUMNS", "80")
    succeeding = [case for case in CASES if case["exit"] == 0]
    for case in succeeding:
        assert main(list(case["argv"])) == 0, case["name"]
        captured = capsys.readouterr()
        expected = (GOLDEN / "expected" / case["name"]).with_suffix(".out").read_bytes()
        assert (captured.out.encode("utf-8"), captured.err) == (expected, ""), case["name"]
    assert len(succeeding) == 48
    assert calls == []


def test_every_json_report_carries_the_report_format_version():
    # Experiment files carry io.FORMAT_VERSION instead.
    reports = [case for case in CASES if case["exit"] == 0 and "--help" not in case["argv"]
               and case["argv"][0] in ("analyze", "reconstruct", "balance")]
    assert len(reports) == 27
    for case in reports:
        text = (GOLDEN / "expected" / case["name"]).with_suffix(".out").read_text("utf-8")
        assert json.loads(text)["format_version"] == REPORT_FORMAT_VERSION, case["name"]


def test_readme_has_one_history_line_per_report_format_version():
    readme = (SRC.parent / "README.md").read_text("utf-8")
    history = readme.split("\n## Report format history\n", 1)[1].split("\n## ", 1)[0]
    versions = re.findall(r"^- \*([0-9]+):\*", history, re.MULTILINE)
    assert versions == [str(v) for v in range(1, REPORT_FORMAT_VERSION + 1)]


def test_corpus_writer_writes_the_committed_corpus():
    # The committed inputs are what today's ExperimentFile.dumps writes.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run([sys.executable, str(GOLDEN / "make_corpus.py"), "--check"],
                            env=env, capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "")


@pytest.fixture
def differential(monkeypatch):
    """``differential.py`` as a module; it puts ``src`` and ``bench`` on ``sys.path``."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("differential", GOLDEN / "differential.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def base_tree(tmp_path):
    """A copy of this tree's ``src/ctxprob``."""
    shutil.copytree(SRC / "ctxprob", tmp_path / "src" / "ctxprob",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_differential_check_of_the_same_tree_finds_nothing(differential, base_tree, capsys):
    assert differential.main(["--base", str(base_tree), "--cases", "24", "--seed", "3"]) == 0
    assert ": 0 differences;" in capsys.readouterr().out


def test_differential_check_finds_a_planted_byte(differential, base_tree, capsys):
    io_py = base_tree / "src" / "ctxprob" / "io.py"
    planted = io_py.read_text().replace('_INDENT = "  "', '_INDENT = "   "')
    assert planted != io_py.read_text()
    io_py.write_text(planted)
    assert differential.main(["--base", str(base_tree), "--cases", "24", "--seed", "3"]) == 1
    assert ": 0 differences;" not in capsys.readouterr().out


@pytest.mark.parametrize("entry, allowed", [
    ({"command": "analyze", "stream": "stdout", "key": "lambda.stream"}, True),
    ({"command": "analyze", "stream": "stdout",
      "pattern": r'^ +"stream": "(planted|bootstrap-experiment)"'}, True),
    ({"command": "analyze", "stream": "stdout", "key": "lambda.point"}, False),
    ({"command": "sweep", "stream": "stdout", "key": "lambda.stream"}, False),
], ids=["key", "pattern", "other-key", "other-command"])
def test_differential_allow_list(differential, base_tree, tmp_path, capsys, entry, allowed):
    # The base tree names its bootstrap stream differently: the counts reports differ.
    sampling = base_tree / "src" / "ctxprob" / "sampling.py"
    sampling.write_text(sampling.read_text().replace('"bootstrap-experiment"', '"planted"'))
    allow = tmp_path / "allow.json"
    allow.write_text(json.dumps([entry]), encoding="utf-8")
    code = differential.main(["--base", str(base_tree), "--cases", "24", "--seed", "3",
                              "--allow", str(allow)])
    out = capsys.readouterr().out
    found = re.search(r": (\d+) differences;.*\nallowed (\d+), not allowed (\d+)\n", out)
    differences, passed, failed = map(int, found.groups())
    assert differences > 0
    assert (code, passed, failed) == ((0, differences, 0) if allowed else (1, 0, differences))


def test_line_tracer_lists_unrun_statements():
    # No test here imports ``__main__``, so its statements are unrun.
    result = subprocess.run(
        [sys.executable, str(GOLDEN / "uncovered.py"), "-q", "-p", "no:cacheprovider",
         str(GOLDEN.parent / "test_exports.py")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    listed = [line for line in result.stdout.splitlines() if line.startswith("src/ctxprob/")]
    assert any(line.startswith("src/ctxprob/__main__.py:") for line in listed)
    files = {line.split(":")[0] for line in listed}
    summary = f"uncovered: {len(listed)} statements in {len(files)} files"
    assert result.stdout.splitlines()[-1] == summary


@pytest.fixture
def fuzzer(monkeypatch):
    """``fuzz_inputs.py`` as a module."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("fuzz_inputs", GOLDEN / "fuzz_inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# One exact, one counts and one synthetic-model input; the full run is on demand.
FUZZED = ["--inputs", "e1_exact", "e2_counts", "e3_exact"]


def test_fuzzed_inputs_keep_the_error_contract(fuzzer, capsys):
    assert fuzzer.main(FUZZED) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and " 0 contract breaks; sha256 " in out


@pytest.mark.parametrize("code, err, problem", [
    (0, "", None),
    (1, "ctxprob: invalid input: x\n", None),
    (4, "", "exit 4"),
    ("raised KeyError()", "", "exit"),
    (0, "warning\n", "stderr on success"),
    (1, "", "not one stderr line"),
    (1, "a\nb\n", "not one stderr line"),
    (2, "x" * 161 + "\n", "stderr line of 161 characters"),
])
def test_the_fuzzer_finds_each_contract_break(fuzzer, code, err, problem):
    found = fuzzer.broken(code, err)
    assert found is None if problem is None else found.startswith(problem)


def test_the_fuzzer_finds_a_planted_unbounded_echo(base_tree):
    validation = base_tree / "src" / "ctxprob" / "_validation.py"
    source = validation.read_text()
    planted = source.replace("return cut(_SHOWN.repr(value))", "return repr(value)")
    assert planted != source
    validation.write_text(planted)
    env = {**os.environ, "PYTHONPATH": str(base_tree / "src")}
    argv = [sys.executable, str(GOLDEN / "fuzz_inputs.py"), "--inputs", "e2_counts"]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert " 0 contract breaks;" not in result.stdout
    assert "stderr line of " in result.stdout
