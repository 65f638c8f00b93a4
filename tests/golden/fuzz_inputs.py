"""Input-file fuzzer: every JSON node of the golden inputs, replaced by hostile values.

Run from anywhere in a checkout::

    python tests/golden/fuzz_inputs.py [--inputs NAME ...]

For each golden input (``inputs/<NAME>.json``; all of them by default), each
JSON node in turn, the whole document included, is replaced by each value of
``HOSTILE``.  Every such file is run through ``analyze``, ``balance``,
``reconstruct`` and ``analyze --bootstrap-replicates 50`` by calling
``ctxprob.cli.main`` in this process.  Each run must keep the error contract:

* an exit code of 0-3, and no exception out of ``main``;
* on failure, exactly one stderr line of at most ``MAX_LINE`` characters;
* on success, nothing on stderr.

The fuzzer prints one summary line, ending in the sha256 of every run's exit
code, stdout and stderr in order, then the first contract breaks, and exits 1
if there is one.  ``ctxprob`` is imported from ``sys.path``, so a tree put
first on ``PYTHONPATH`` is the one fuzzed; this checkout's ``src`` is the
fallback.  The full run takes about 10 s.  It needs only the standard library.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
SRC = str(HERE.parent.parent / "src")

#: The values put in place of each node.
HOSTILE = (None, True, -1e308, 2**64, 10**400, "x", [], [1, 2, 3], {}, -0.0, 0.5, "1e999")
#: The flags of each run after the input path.
COMMANDS = (["analyze"], ["balance"], ["reconstruct"], ["analyze", "--bootstrap-replicates", "50"])
#: Longest stderr line a failure may print, newline excluded.
MAX_LINE = 160
SHOWN = 5  # contract breaks printed after the summary


def nodes(value: Any, path: tuple = ()) -> Iterator[tuple]:
    """The path of ``value`` and of every node below it, parents first."""
    yield path
    if isinstance(value, dict):
        children = ((key, value[key]) for key in sorted(value))
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from nodes(child, (*path, key))


def replaced(document: Any, path: tuple, value: Any) -> Any:
    """A copy of ``document`` with the node at ``path`` replaced by ``value``."""
    if not path:
        return value
    copy = json.loads(json.dumps(document))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


def broken(code: Any, err: str) -> str | None:
    """What a run with exit ``code`` and stderr ``err`` breaks of the contract, if anything."""
    if code not in (0, 1, 2, 3):
        return f"exit {code!r}"
    if code == 0:
        return f"stderr on success: {err[:200]!r}" if err else None
    if not err.endswith("\n") or err.count("\n") != 1:
        return f"not one stderr line: {err[:200]!r}"
    if len(err) - 1 > MAX_LINE:
        return f"stderr line of {len(err) - 1} characters: {err[:200]!r}"
    return None


def run(main, argv: list[str]) -> tuple[Any, str, str]:
    """``main(argv)``'s exit code, or the repr of what it raised, and its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except BaseException as exc:  # noqa: BLE001 - an escaped exception breaks the contract
            code = f"raised {exc!r}"[:200]
    return code, out.getvalue(), err.getvalue()


def fuzz(names: list[str]) -> tuple[str, list[str]]:
    """The summary line and the contract breaks of fuzzing ``inputs/<name>.json``."""
    if SRC not in sys.path:
        sys.path.append(SRC)
    from ctxprob.cli import main

    digest, exits = hashlib.sha256(), collections.Counter()
    breaks, longest, count = [], 0, 0
    with tempfile.TemporaryDirectory() as work:
        target = str(Path(work) / "input.json")
        for name in names:
            document = json.loads((INPUTS / f"{name}.json").read_text(encoding="utf-8"))
            for path in nodes(document):
                count += 1
                for value in HOSTILE:
                    with open(target, "w", encoding="utf-8") as handle:
                        json.dump(replaced(document, path, value), handle)
                    for command in COMMANDS:
                        code, out, err = run(main, [command[0], target, *command[1:]])
                        out, err = out.replace(target, "INPUT"), err.replace(target, "INPUT")
                        digest.update(json.dumps([code, out, err]).encode("utf-8") + b"\n")
                        exits[code] += 1
                        longest = max(longest, *map(len, err.splitlines() or [""]))
                        problem = broken(code, err)
                        if problem is not None:
                            breaks.append(f"{name} {list(path)} = {value!r:.40}, "
                                          f"{' '.join(command)}: {problem}")
    runs = sum(exits.values())
    shown_exits = ", ".join(f"{code}: {n}" for code, n in sorted(exits.items(), key=str))
    summary = (f"fuzz_inputs: {len(names)} files, {count} nodes, {runs} runs; exits {shown_exits}; "
               f"longest stderr line {longest} (at most {MAX_LINE}); "
               f"{len(breaks)} contract breaks; sha256 {digest.hexdigest()}")
    return summary, breaks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", nargs="+", metavar="NAME",
                        default=sorted(path.stem for path in INPUTS.glob("*.json")),
                        help="golden inputs to fuzz (default: all)")
    args = parser.parse_args(argv)
    summary, breaks = fuzz(args.inputs)
    print(summary)
    for problem in breaks[:SHOWN]:
        print(problem)
    return 1 if breaks else 0


if __name__ == "__main__":
    sys.exit(main())
