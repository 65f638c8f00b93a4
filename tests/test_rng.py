"""Stream role tags: each names one stream, and retired tags stay unused.
``substreams`` seeds a run of streams exactly as ``substream`` does.

Only ``models`` and ``sampling`` derive streams; every other module asks them.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxprob
from ctxprob import _rng
from ctxprob._rng import ROLE_MODEL, substream, substreams
from ctxprob.errors import ValidationError

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


# Seeds at the ends of one and of two 32-bit words.
SEEDS = [0, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
PATHS = [(ROLE_MODEL,), (5,), (8, 0), (8, 3)]


@pytest.mark.parametrize("path", PATHS, ids=str)
def test_substreams_seed_as_seed_sequence_does(path):
    for seed, rng in zip(SEEDS, substreams(SEEDS, *path), strict=True):
        expected = np.random.PCG64(np.random.SeedSequence((seed, *path))).state
        assert rng.bit_generator.state == expected, seed


@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=20),
       path=st.sampled_from(PATHS + [(), (2**32 - 1,), (2**32,)]))
@settings(max_examples=100, deadline=None)
def test_substreams_draw_as_substream_does(seeds, path):
    for seed, rng in zip(seeds, substreams(seeds, *path), strict=True):
        draws = [rng.integers(2, 17), *rng.random(3), *rng.integers(0, 2, size=(2, 5)).ravel()]
        reference = substream(seed, *path)
        expected = [reference.integers(2, 17), *reference.random(3),
                    *reference.integers(0, 2, size=(2, 5)).ravel()]
        assert draws == expected, seed


def test_substreams_check_every_seed_first_in_order():
    with pytest.raises(ValidationError, match=r"seed must be in \[0, 2\^64\), got -1"):
        next(substreams([0, -1, 2**64]))
    with pytest.raises(ValidationError, match="seed must be an integer"):
        next(substreams([1.0]))


@pytest.mark.parametrize(("seeds", "path"), [
    ([0, 2**32], (8, 3, 1)),  # four words for seed 0, five for seed 2^32
    ([0], (1, 2, 3, 4)),
    ([0], (2**64, 0)),  # an index of three words
    ([1], (2**32, 2**32)),
])
def test_substreams_refuse_entropy_longer_than_the_pool(seeds, path):
    with pytest.raises(ValueError, match="longer than the 4-word pool"):
        next(substreams(seeds, *path))
