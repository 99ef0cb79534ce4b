"""Seed handling and reproducible substreams.

Every stochastic entry point takes an explicit seed; independence between
policies, purposes and Monte Carlo blocks comes from keyed ``SeedSequence``
spawning, never from draw order.  ``substream_states`` derives the PCG64
states of ``substream(seed, *prefix, i)`` for a whole range of ``i`` in one
pass, and ``rekeyed`` puts one generator into each of them in turn.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

Seed = Union[int, np.random.SeedSequence, np.random.Generator]

# Constants of NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) and
# of PCG64 seeding (pcg64.h).  NumPy keeps both fixed for stream
# compatibility; a test pins substream_states to substream.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# generate_state(4, uint64) hashes the 4-word pool into 8 words: word k
# xors pool word k % 4 with INIT_B * MULT_B**k, multiplies it by
# INIT_B * MULT_B**(k + 1) and ends in an xorshift.  PCG64 seeds from words 0-3 as (state high, state low) and from
# words 4-7 as (increment high, increment low), each uint64 a little-endian
# word pair.  Words are computed in the order 2, 3, 0, 1, 6, 7, 4, 5, so
# that each 16-byte half of a little-endian row is one 128-bit seed value.
_WORD_ORDER = [2, 3, 0, 1, 6, 7, 4, 5]
_B_CONSTS = [_INIT_B * pow(_MULT_B, k, 1 << 32) & _MASK32 for k in range(9)]
_B_POOL = np.array([k % 4 for k in _WORD_ORDER])
_B_XOR = np.array([_B_CONSTS[k] for k in _WORD_ORDER], dtype=np.uint32)
_B_MUL = np.array([_B_CONSTS[k + 1] for k in _WORD_ORDER], dtype=np.uint32)
# 0-d arrays: cheaper ufunc operands than NumPy scalars
_MINUS_R = np.array(-_MIX_MULT_R & _MASK32, dtype=np.uint32)
_SHIFT = np.array(16, dtype=np.uint32)


def coerce_rng(seed: Seed) -> np.random.Generator:
    """Accept an int, a SeedSequence or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def substream(seed: Seed, *key: int) -> np.random.Generator:
    """Independent generator keyed by ``(seed, *key)``.

    Streams with distinct keys never overlap, so changing how one purpose
    consumes randomness cannot disturb any other purpose.  A SeedSequence
    seed keeps its own spawn key as a prefix, so nested keying composes.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError("substreams must be derived from a seed, not a live generator")
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        key = tuple(seed.spawn_key) + key
    else:
        entropy = int(seed)
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=tuple(key)))


def _uint32_words(ints) -> list[int]:
    """The 32-bit words NumPy assembles from a sequence of ints, low word first."""
    values = [int(v) for v in ints]
    if not values or (min(values) >= 0 and max(values) <= _MASK32):
        return values
    words = []
    for value in values:
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _MASK32)
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=None)
def _hashmix_constants(position: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Hash constants of the 4 hashmix calls that mix in word ``position``.

    mix_entropy makes 16 calls for the (zero-padded) first four words and 4
    for each further word; the constant advances by MULT_A at every call.
    Call j xors with constant j and multiplies by constant j + 1.  Returned
    as 5 ints, and as the xor and multiplier uint32 arrays of the 4 calls.
    """
    calls = 16 + 4 * (position - 4)
    consts = [_INIT_A * pow(_MULT_A, calls + k, 1 << 32) & _MASK32 for k in range(5)]
    xor_consts, mul_consts = np.array(consts[:4], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)
    xor_consts.setflags(write=False)  # shared by every caller through the cache
    mul_consts.setflags(write=False)
    return consts, xor_consts, mul_consts


def _mix_in(pool: list[int], words: list[int], position: int) -> list[int]:
    """Mix key words past the pool size into a 4-word pool, as mix_entropy does.

    ``position`` counts the words assembled so far (at least 4).
    """
    for word in words:
        consts = _hashmix_constants(position)[0]
        for j in range(4):
            value = (word ^ consts[j]) * consts[j + 1] & _MASK32
            value ^= value >> 16
            mixed = (_MIX_MULT_L * pool[j] - _MIX_MULT_R * value) & _MASK32
            pool[j] = mixed ^ mixed >> 16
        position += 1
    return pool


def substream_states(seed: Seed, *prefix: int, indices: Sequence[int]) -> Iterator[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``substream(seed, *prefix, i)`` for each index.

    One pass for a whole book instead of one SeedSequence and one PCG64
    per index.  NumPy builds the pool of the seed's own entropy and spawn
    key; the ``prefix`` words are mixed into it in Python, then the last
    key word ``i`` for all indices at once in uint32 arithmetic, which
    wraps modulo 2**32 exactly like NumPy's C code.  The pool is hashed
    into the 8 seed words, and PCG64's ``srandom_r`` seeding is applied
    lazily, one index at a time.  ``indices`` are Python ints in
    [0, 2**32), where each is one key word; NumPy raises OverflowError for
    any other.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError("substreams must be derived from a seed, not a live generator")
    if isinstance(seed, np.random.SeedSequence):
        # substream keeps only entropy and spawn key, with the default pool size 4
        entropy, own_key = seed.entropy, tuple(seed.spawn_key)
        base = seed if seed.pool_size == 4 else np.random.SeedSequence(entropy, spawn_key=own_key)
    else:
        entropy, own_key = int(seed), ()
        base = np.random.SeedSequence(entropy)
    # A pool built without a spawn key equals one built from the zero-padded
    # entropy, which is what keyed SeedSequences assemble.
    run = (entropy,) if isinstance(entropy, (int, np.integer)) else entropy
    position = max(4, len(_uint32_words(run))) + len(_uint32_words(own_key))
    prefix_words = _uint32_words(prefix)
    pool = _mix_in(base.pool.tolist(), prefix_words, position)
    _, xor_consts, mul_consts = _hashmix_constants(position + len(prefix_words))
    index = np.array(indices, dtype=np.uint32, ndmin=2).T
    # hashmix(i) for pool words 0..3, then mix(x, y) = L * x - R * y; each
    # ends in an xorshift.  Rows are indices.
    mixed = (index ^ xor_consts) * mul_consts
    mixed ^= mixed >> _SHIFT
    mixed *= _MINUS_R
    mixed += np.array([_MIX_MULT_L * word & _MASK32 for word in pool], dtype=np.uint32)
    mixed ^= mixed >> _SHIFT
    seed_words = mixed.take(_B_POOL, axis=1)
    seed_words ^= _B_XOR
    seed_words *= _B_MUL
    seed_words ^= seed_words >> _SHIFT
    return _srandom(seed_words.astype("<u4", copy=False).tobytes())


def _srandom(rows: bytes) -> Iterator[tuple[int, int]]:
    """PCG64 ``srandom_r`` on each 32-byte row.

    A row holds the little-endian 128-bit ``initstate`` and ``initseq``;
    seeding sets ``inc = 2 * initseq + 1`` and steps the LCG twice from 0,
    adding ``initstate`` in between.
    """
    for k in range(0, len(rows), 32):
        inc = (int.from_bytes(rows[k + 16:k + 32], "little") << 1 | 1) & _MASK128
        yield ((inc + int.from_bytes(rows[k:k + 16], "little")) * _PCG64_MULT + inc) & _MASK128, inc


class _Unseeded(ISeedSequence):
    """Zero seed words, for a generator that is re-keyed before every draw.

    NumPy accepts any ``ISeedSequence`` as a seed; this one skips the
    SeedSequence hashing that a real seed costs.
    """

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return np.zeros(n_words, dtype=dtype)


def rekeyable_generator() -> np.random.Generator:
    """A PCG64 generator for :func:`rekeyed`; its initial state is never drawn from."""
    return np.random.Generator(np.random.PCG64(_Unseeded()))


def rekeyed(rng: np.random.Generator, seed: Seed, *prefix: int,
            indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """Yield ``rng`` once per index, in the state of ``substream(seed, *prefix, i)``.

    ``rng`` must wrap a PCG64; whatever it draws before the next yield
    comes from that index's substream, bit for bit.
    """
    bit_generator = rng.bit_generator
    keyed = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": keyed, "has_uint32": 0, "uinteger": 0}
    for keyed["state"], keyed["inc"] in substream_states(seed, *prefix, indices=indices):
        bit_generator.state = full
        yield rng
