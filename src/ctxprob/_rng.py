"""Deterministic, splittable random-number streams.

Every stochastic component of the package draws from a substream derived from
``(seed, role, *indices)`` through :class:`numpy.random.SeedSequence`.  Two
substreams with different paths are statistically independent, and the mapping
is a pure function of its arguments: results never depend on evaluation order
or on how work is distributed across workers.

Role tags are small integers so that stream derivation is stable across
releases; never renumber them.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ._validation import require_seed

# Stream roles.  Frozen: changing a value changes every derived stream.
ROLE_MODEL = 0
ROLE_A_ON_CONTEXT = 1
ROLE_B_ON_CONTEXT = 2
ROLE_A_ON_FILTERED_1 = 3
ROLE_A_ON_FILTERED_2 = 4
ROLE_BOOTSTRAP = 5  # retired: one stream per bootstrap replicate; never reuse
ROLE_STUDY = 6
ROLE_BOOTSTRAP_BLOCK = 7  # retired: replicates in blocks of 1024; never reuse
ROLE_BOOTSTRAP_EXPERIMENT = 8  # path (8, j): the tallies of experiment j, 0..3

# numpy's SeedSequence hash and PCG64 seeding, which NEP 19 keeps stable.
_POOL_WORDS = 4
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 2**32 - 1
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = 2**128 - 1


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The ``count + 1`` successive hash constants of SeedSequence, as a column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    return np.array(constants, np.uint32)[:, None]


# The pool takes 4 + 4*3 hashes, and generate_state(4, np.uint64) 8 words.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_WORDS + _POOL_WORDS * 3)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_WORDS)


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for substream ``(seed, *path)``."""
    require_seed(seed)
    return np.random.default_rng(np.random.SeedSequence((seed, *path)))


def _words(value: int) -> list[int]:
    """The 32-bit words, low first, that SeedSequence makes of one entropy integer."""
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of ``words`` in turn, with successive constants."""
    words = (words ^ constants[:-1]) * constants[1:]
    return words ^ (words >> np.uint32(16))


def _seed_states(seeds: Sequence[int], path: tuple) -> np.ndarray:
    """``SeedSequence((s, *path)).generate_state(4, np.uint64)`` for every seed ``s``,
    as the rows of an ``(N, 4)`` array, each stage computed for all seeds at once."""
    seeds = np.fromiter(seeds, np.uint64, len(seeds))
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    two = high > 0
    tail = np.array([w for index in path for w in _words(index)], np.uint32)[:, None]
    if 1 + two.any() + len(tail) > _POOL_WORDS:
        raise ValueError(f"entropy (seed, *{path}) is longer than the {_POOL_WORDS}-word pool")
    # The entropy words, zero-padded to the pool: SeedSequence fills a pool word
    # past the entropy by hashing a zero.
    pool = np.zeros((_POOL_WORDS, len(seeds)), np.uint32)
    pool[0] = seeds.astype(np.uint32)
    pool[1 : 1 + len(tail)] = tail
    pool[1, two] = high[two]
    pool[2 : 2 + len(tail), two] = tail
    pool = _hash(pool, _HASH_A[: _POOL_WORDS + 1])
    # Each word, hashed once per other word, is mixed into the others in turn.
    used = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != src]
        hashed = _hash(pool[src], _HASH_A[used : used + len(dst) + 1])
        used += len(dst)
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = _hash(pool[[*range(_POOL_WORDS)] * 2], _HASH_B).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T


def substreams(seeds: Sequence[int], *path: int) -> Iterator[np.random.Generator]:
    """Yield ``substream(s, *path)`` for each seed ``s`` of ``seeds``, in order.

    Every seed is checked first, in order.  The seeding is computed for all the
    seeds in one array pass, and each generator yielded is one reused generator
    given the next seed's state: draw from it before taking the next.  The
    entropy ``(s, *path)`` must fit SeedSequence's 4-word pool (a seed below
    2^32 takes one word, a larger seed two, and each index below 2^32 one).
    """
    for seed in seeds:
        require_seed(seed)
    states = _seed_states(seeds, path).tolist()
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for seed_high, seed_low, inc_high, inc_low in states:
        # PCG64's seeding: inc = 2*initseq + 1, then two steps around adding initstate.
        inc = (inc_high << 65 | inc_low << 1 | 1) & _MASK128
        state = ((inc + (seed_high << 64 | seed_low)) * _PCG64_MULT + inc) & _MASK128
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng
