"""Differential check: this tree's CLI against a base tree's, byte for byte.

Run from anywhere in a checkout::

    python tests/golden/differential.py --base REV|DIR --cases N --seed S [--allow FILE]

``--base`` is a git revision, exported with ``git archive``, or a directory
that holds a ``src/ctxprob`` tree.  The check draws N argvs from the seed:

* the golden cases of ``cases.json``, run against a copy of ``inputs/``, two
  sweeps longer than a sweep's chunk of 4096 rows (one synthetic, one
  classical), and a classical sweep whose seeds cross 2^32;
* ops of the ``build`` streams of ``bench/workloads.py``, all three workloads;
* hostile variants of both: non-finite and out-of-range flag values, signed
  grids, flags the subcommand or model family does not take, dropped tokens,
  and malformed, missing or unreadable input files.

Every input file is written once, before either tree runs.  Each tree then
runs all N argvs in one worker process that calls ``ctxprob.cli.main``
in-process, with ``COLUMNS=80``, and the exit code, stdout, stderr and the
bytes of the ``--output`` file are compared.  The check prints one summary
line, then the first differences, and exits 1 if there is a difference.

``--allow FILE`` names deliberate differences.  The file holds a JSON list of
entries, each with a ``command`` (a subcommand, the first token of the argv,
or ``"*"`` for any argv), a ``stream`` (``stdout``, ``stderr`` or ``output``,
the ``--output`` file), an optional ``argv`` regex searched in the argv joined
by spaces, an optional ``why``, and one of:

* ``"key": "lambda.stream"`` -- a JSON key path, dot-separated, ``*`` for any
  key or index.  A stream that parses as JSON on both sides and whose values
  differ only at or below such paths is allowed.  Values are compared after
  parsing, so such an entry also allows a layout change in that stream.
* ``"pattern": REGEX`` -- a message pattern.  A stream whose every removed and
  added line (by ``difflib``) is matched by such a pattern is allowed.

A case whose every differing stream is allowed is an allowed difference; a
changed exit code is never allowed.  The check then prints the allowed and the
unallowed differences, how many each entry allowed, and exits 1 only if a
difference is not allowed.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import difflib
import hashlib
import io
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SHOWN = 5  # differences printed after the summary
HEAD = 2000  # characters of each stream kept to show where a difference starts

# Values a hostile variant puts in place of a flag's value.  No grid or count
# here is large enough to make a slow case: the largest accepted is 3 points.
HOSTILE_VALUES = (
    "nan", "inf", "-inf", "1e309", "-1", "0", "1", "2", "1.5", "-0.5", "1e-300", "-1e-10",
    "18446744073709551616", "1000001", "abc", "", "0:1:0", "0:1", "1:0:3", "nan:1:3",
    "0,nan", "0.5,0.5", "1,0", "-1e-10,1.0000000001", "0.9,0.1;0.2,0.8", "1,0;0,1", "1;2",
    "0.5:0:0,0.5:1:1", "1:0:0", "qubit", "classical", "synthetic", "e1", "e2", "bogus",
)
FLAGS = (
    "--alpha", "--phi", "--b-rotation", "--b-phase", "--points", "--prior", "--transition",
    "--lambda", "--lambda1", "--count", "--seed", "--n", "--n-context", "--n-filtration",
    "--n-filtered-1", "--n-filtered-2", "--note", "--tolerance", "--eps-class",
    "--bootstrap-replicates", "--model", "--preset", "--family", "--output",
)
# Values that start with a minus sign, given as a separate token.
SIGNED = (
    ("--lambda1", "-1.25:1.25:3"), ("--lambda1", "-0.5"), ("--alpha", "-0.3,0.2"),
    ("--phi", "-1:1:2"), ("--b-rot", "-0.5"), ("--b-phase", "-3"), ("--lambda", "-1.25,1.25"),
    ("--lambda", "-0.5,-0.5"), ("--seed", "-1"), ("--n", "-5"), ("--tolerance", "-1e-3"),
    ("--eps-class", "-1e-3"),
)
# Sweeps longer than ``cli.SWEEP_CHUNK_ROWS``, so that a chunk boundary is
# compared, and a classical sweep whose seeds go from one 32-bit word to two.
LONG_SWEEPS = (
    ["sweep", "--family", "synthetic", "--lambda1=-0.9:0.9:5000"],
    ["sweep", "--family", "classical", "--count", "5000", "--seed", "11"],
    ["sweep", "--family", "classical", "--count", "40", "--seed", str(2**32 - 20)],
)
FILE_COMMANDS = ("analyze", "reconstruct", "balance")


# ---------------------------------------------------------------------------
# Inputs and argvs
# ---------------------------------------------------------------------------


def _malformed(inputs: Path) -> list[str]:
    """Write the malformed input files under ``inputs``; return their paths."""
    qubit = json.loads((inputs / "e1_exact.json").read_text(encoding="utf-8"))
    synthetic = json.loads((inputs / "e3_exact.json").read_text(encoding="utf-8"))
    counts = json.loads((inputs / "e2_counts.json").read_text(encoding="utf-8"))

    def edit(payload: dict, path: str, value=None, delete: bool = False) -> dict:
        payload = json.loads(json.dumps(payload))
        *parents, key = path.split(".")
        target = payload
        for part in parents:
            target = target[part]
        if delete:
            del target[key]
        else:
            target[key] = value
        return payload

    nan = float("nan")
    payloads = [
        edit(qubit, "exact.transition", [[0.5, 0.5]]),
        edit(qubit, "exact.transition", "x"),
        edit(qubit, "exact.transition", [[0.5, 0.5], 3]),
        edit(qubit, "exact.transition", [[0.5], [0.5, 0.5]]),
        edit(qubit, "exact.transition", [[1.5, -0.5], [0.5, 0.5]]),
        edit(qubit, "exact.prior", 5),
        edit(qubit, "exact.prior", [0.7, 0.7]),
        edit(qubit, "exact.prior", [nan, 0.5]),
        edit(qubit, "exact.prior", ["a", "b"]),
        edit(qubit, "exact.outcome", None),
        edit(qubit, "exact.outcome", [0.5, 0.5, 0.0]),
        edit(qubit, "exact.outcome", delete=True),
        edit(qubit, "exact.extra", 1),
        edit(qubit, "model.b_phase", delete=True),
        edit(qubit, "model.alpha", "x"),
        edit(qubit, "model.alpha", float("inf")),
        edit(qubit, "model.extra", 0.0),
        edit(qubit, "model.family", "bogus"),
        edit(qubit, "model", 5),
        edit(qubit, "format_version", True),
        edit(qubit, "format_version", 2),
        edit(qubit, "observables", [{"name": "A", "values": ["a1", "a2"]}]),
        edit(qubit, "note", 5),
        edit(qubit, "counts", counts["counts"]),
        edit(qubit, "exact", delete=True),
        edit(synthetic, "model.transition", [[0.8, 0.2]]),
        edit(synthetic, "model.transition", [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]]),
        edit(synthetic, "model.transition", [[0.8, 0.2], None]),
        edit(synthetic, "model.lambda", 1),
        edit(synthetic, "model.lambda", [1.0]),
        edit(synthetic, "model.lambda", [nan, nan]),
        edit(synthetic, "model.prior", [2.0, -1.0]),
        edit(synthetic, "model.prior", 0.5),
        edit(counts, "model.points", []),
        edit(counts, "counts.n_context", -1),
        edit(counts, "counts.a_counts", [5]),
        edit(counts, "counts.filtered", counts["counts"]["filtered"][:1]),
        edit(counts, "counts.seed", -1),
        edit(counts, "counts.b_counts", [10**6, 0]),
    ]
    texts = [json.dumps(p) for p in payloads] + ["{", "", "[]", "null", "[" * 10**5]
    paths = []
    for i, text in enumerate(texts):
        paths.append(f"inputs/malformed-{i:02d}.json")
        (inputs.parent / paths[-1]).write_text(text, encoding="utf-8")
    paths.append("inputs/not-utf8.json")
    (inputs.parent / paths[-1]).write_bytes(b'{"note": "\xff"}')
    return paths + ["inputs/missing.json", "inputs"]


def _bench_ops(work: Path, seed: int):
    """Write the three bench workloads' inputs; return one endless argv stream of their ops."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    streams = []
    for name in ("bootstrap", "sweep", "cli-mix"):
        (work / name).mkdir(parents=True)
        warmup, ops = workloads.build(name, seed, work / name)
        streams.append(itertools.chain(warmup, ops))
    return (list(next(stream).argv) for stream in itertools.cycle(streams))


def _hostile(argv: list[str], rnd: random.Random, files: list[str]) -> list[str]:
    argv = list(argv)
    kind = rnd.choice(("value", "flag", "signed", "file", "drop"))
    flags = [i for i, token in enumerate(argv) if token.startswith("--")]
    if kind == "value" and flags:
        i = rnd.choice(flags)
        name, sep, _ = argv[i].partition("=")
        value = rnd.choice(HOSTILE_VALUES)
        if sep:
            argv[i] = f"{name}={value}"
        elif i + 1 < len(argv):
            argv[i + 1] = value
        return argv
    if kind in ("value", "flag"):
        return argv + [f"{rnd.choice(FLAGS)}={rnd.choice(HOSTILE_VALUES)}"]
    if kind == "signed":
        return argv + list(rnd.choice(SIGNED))
    if kind == "file":
        return [rnd.choice(FILE_COMMANDS), rnd.choice(files), *argv[2:4]]
    if argv:
        del argv[rnd.randrange(len(argv))]
    return argv


def draw_cases(work: Path, count: int, seed: int) -> tuple[list[list[str]], collections.Counter]:
    """Write every input under ``work``; return ``count`` argvs and their sources."""
    shutil.copytree(HERE / "inputs", work / "inputs")
    files = _malformed(work / "inputs")
    golden = [case["argv"] for case in json.loads((HERE / "cases.json").read_text("utf-8"))]
    golden.extend(LONG_SWEEPS)
    bench = _bench_ops(work / "bench", seed)
    rnd = random.Random(seed)
    cases, sources = [], collections.Counter()
    for _ in range(count):
        source = rnd.choice(("golden", "bench", "hostile"))
        if source == "hostile":
            base = rnd.choice(golden) if rnd.random() < 0.5 else next(bench)
            cases.append(_hostile(base, rnd, files))
        else:
            cases.append(rnd.choice(golden) if source == "golden" else next(bench))
        sources[source] += 1
    return cases, sources


# ---------------------------------------------------------------------------
# Running a tree
# ---------------------------------------------------------------------------


def _output_path(argv: list[str]) -> str | None:
    """The ``--output`` value argparse would take, for any accepted abbreviation."""
    path = None
    for i, token in enumerate(argv):
        name, sep, value = token.partition("=")
        if len(name) > 2 and "--output".startswith(name):
            path = value if sep else (argv[i + 1] if i + 1 < len(argv) else None)
    return path


def _stream(data: bytes | None, blobs: Path) -> list | None:
    """``[sha256, head]`` of one stream; a longer stream is kept whole in ``blobs``,
    under its digest, for the allow list's checks."""
    if data is None:
        return None
    digest = hashlib.sha256(data).hexdigest()
    if len(data) > HEAD and not (blobs / digest).exists():
        (blobs / digest).write_bytes(data)
    return [digest, data[:HEAD].decode("utf-8", "replace")]


def _text(stream: list, blobs: Path) -> str:
    """The whole text of a stream that ``_stream`` described."""
    blob = blobs / stream[0]
    return blob.read_bytes().decode("utf-8", "replace") if blob.exists() else stream[1]


def work(src: str, cases: str, results: str) -> None:
    """Worker: run every argv of ``cases`` through this process's ``ctxprob.cli.main``.
    Streams longer than ``HEAD`` go to the ``blobs`` directory beside ``results``."""
    blobs = Path(results).parent / "blobs"
    blobs.mkdir(exist_ok=True)
    import ctxprob.cli

    if Path(ctxprob.cli.__file__).parent != Path(src) / "ctxprob":
        raise SystemExit(f"imported {ctxprob.cli.__file__}, not the tree under {src}")
    with open(cases, encoding="utf-8") as handle, open(results, "w", encoding="utf-8") as out:
        for argv in json.load(handle):
            output = _output_path(argv)
            if output is not None and os.path.isfile(output):
                os.remove(output)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = ctxprob.cli.main(argv)
                except Exception as exc:  # a traceback is a result to compare, too
                    code = f"raised {type(exc).__name__}: {exc}"
            written = None
            if output is not None and os.path.isfile(output):
                written = Path(output).read_bytes()
                os.remove(output)
            streams = [s.getvalue().encode("utf-8", "surrogateescape") for s in (stdout, stderr)]
            out.write(json.dumps([code, *(_stream(s, blobs) for s in streams + [written])])
                      + "\n")


def _run(src: Path, work_dir: Path, cases: Path, results: Path) -> list[list]:
    code = ("import sys; src, here, cases, results = sys.argv[1:]; sys.path[:0] = [src, here]; "
            "import differential; differential.work(src, cases, results)")
    env = {**os.environ, "COLUMNS": "80"}
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, "-c", code, str(src), str(HERE), str(cases), str(results)],
                   cwd=work_dir, env=env, check=True)
    with open(results, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _base_src(base: str, scratch: Path) -> Path:
    """The ``src`` directory of ``base``: a tree on disk, or a git revision exported."""
    if Path(base).is_dir():
        return Path(base).resolve() / "src"
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", base, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(scratch / "base", filter="data")
    return scratch / "base" / "src"


def _describe(argv: list[str], base: list, head: list) -> list[str]:
    """Each field of one case that differs, with its first differing line."""
    lines = [f"  argv {argv}"]
    for field, before, after in zip(("exit", "stdout", "stderr", "output"), base, head):
        if before == after:
            continue
        if field == "exit" or before is None or after is None:
            lines.append(f"    {field}: base {before!r}, this tree {after!r}")
            continue
        old, new = before[1].splitlines(), after[1].splitlines()
        at = next((i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1]),
                  min(len(old), len(new)))
        lines.append(f"    {field} line {at + 1}: base {old[at:at + 1]}, "
                     f"this tree {new[at:at + 1]}")
    return lines


# ---------------------------------------------------------------------------
# The allow list
# ---------------------------------------------------------------------------


STREAMS = ("stdout", "stderr", "output")
_MISSING = object()


def load_allow(path: str) -> list[dict]:
    """The entries of an allow-list file, each checked for its fields."""
    entries = json.loads(Path(path).read_text(encoding="utf-8"))
    for entry in entries:
        if ("command" not in entry or entry.get("stream") not in STREAMS
                or ("key" in entry) == ("pattern" in entry)):
            raise SystemExit(f"{path}: an entry needs a command, a stream of {STREAMS} "
                             f"and one of key or pattern: {entry}")
    return entries


def _applies(entry: dict, argv: list[str], stream: str) -> bool:
    return (entry["stream"] == stream and entry["command"] in ("*", argv[0] if argv else None)
            and re.search(entry.get("argv", ""), " ".join(argv)) is not None)


def _json_paths(old, new, path: tuple = ()) -> Iterator[tuple]:
    """The key paths at which two parsed JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _json_paths(old.get(key, _MISSING), new.get(key, _MISSING), (*path, key))
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, pair in enumerate(zip(old, new)):
            yield from _json_paths(*pair, (*path, str(i)))
    elif type(old) is not type(new) or old != new:
        yield path


def _under(path: tuple, key: str) -> bool:
    parts = key.split(".")
    return len(path) >= len(parts) and all(k in ("*", p) for k, p in zip(parts, path))


def _allowing(entries: list[tuple[int, dict]], old: str, new: str) -> set[int] | None:
    """The indices of the entries that allow ``old`` to become ``new``, or None."""
    keyed = [(i, entry) for i, entry in entries if "key" in entry]
    try:
        paths = list(_json_paths(json.loads(old), json.loads(new))) if keyed else []
    except ValueError:
        paths = []
    hits = [next((i for i, entry in keyed if _under(path, entry["key"])), None)
            for path in paths]
    if paths and None not in hits:
        return set(hits)
    patterned = [(i, entry) for i, entry in entries if "pattern" in entry]
    a, b = old.splitlines(), new.splitlines()
    changed = [line for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b).get_opcodes()
               if tag != "equal" for line in a[i1:i2] + b[j1:j2]]
    hits = [next((i for i, entry in patterned if re.search(entry["pattern"], line)), None)
            for line in changed]
    return set(hits) if changed and None not in hits else None


def judge(argv: list[str], base: list, head: list, entries: list[dict],
          blobs: Path) -> set[int] | None:
    """The entries that allow one differing case, or None if it is not allowed."""
    if base[0] != head[0]:
        return None
    used: set[int] = set()
    for stream, before, after in zip(STREAMS, base[1:], head[1:]):
        if before == after:
            continue
        applicable = [(i, entry) for i, entry in enumerate(entries)
                      if _applies(entry, argv, stream)]
        if before is None or after is None or not applicable:
            return None
        hits = _allowing(applicable, _text(before, blobs), _text(after, blobs))
        if hits is None:
            return None
        used |= hits
    return used


def _entry_name(i: int, entry: dict) -> str:
    what = f"key {entry['key']}" if "key" in entry else f"pattern {entry['pattern']!r}"
    return f"entry {i} ({entry['command']} {entry['stream']}, {what})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision, or directory holding src/ctxprob")
    parser.add_argument("--cases", type=int, default=2000, help="argvs to draw (default 2000)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the draw (default 0)")
    parser.add_argument("--allow", help="JSON allow list of deliberate differences")
    parser.add_argument("--show", type=int, default=SHOWN,
                        help=f"differences printed of each kind (default {SHOWN})")
    args = parser.parse_args(argv)
    entries = load_allow(args.allow) if args.allow else []
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        base_src = _base_src(args.base, scratch)
        work_dir = scratch / "work"
        work_dir.mkdir()
        cases, sources = draw_cases(work_dir, args.cases, args.seed)
        (scratch / "cases.json").write_text(json.dumps(cases), encoding="utf-8")
        base = _run(base_src, work_dir, scratch / "cases.json", scratch / "base.jsonl")
        head = _run(ROOT / "src", work_dir, scratch / "cases.json", scratch / "head.jsonl")
        differing = [i for i, pair in enumerate(zip(base, head)) if pair[0] != pair[1]]
        verdicts = {i: judge(cases[i], base[i], head[i], entries, scratch / "blobs")
                    for i in differing} if entries else {}
    exits = collections.Counter(str(result[0]) for result in head)
    print(f"differential: {len(cases)} argvs (golden {sources['golden']}, bench "
          f"{sources['bench']}, hostile {sources['hostile']}), seed {args.seed}, base "
          f"{args.base}: {len(differing)} differences; exits "
          + ", ".join(f"{code}: {n}" for code, n in sorted(exits.items())))
    unallowed = [i for i in differing if verdicts.get(i) is None]
    allowed = [i for i in differing if verdicts.get(i) is not None]
    if entries:
        uses = collections.Counter(i for used in verdicts.values() if used for i in used)
        print(f"allowed {len(allowed)}, not allowed {len(unallowed)}")
        for i, entry in enumerate(entries):
            print(f"  {_entry_name(i, entry)}: {uses[i]} cases")
    for title, shown in (("not allowed", unallowed), ("allowed", allowed)):
        if entries and shown:
            print(f"{title}:")
        for i in shown[:args.show]:
            print(f"case {i}:")
            print("\n".join(_describe(cases[i], base[i], head[i])))
    return 1 if unallowed else 0


if __name__ == "__main__":
    sys.exit(main())
