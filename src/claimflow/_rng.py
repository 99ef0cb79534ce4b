"""Seed handling and reproducible streams.

Every stochastic entry point takes an explicit seed; independence between
policies, purposes and Monte Carlo blocks comes from keyed streams, never
from draw order.  ``substream`` keys a PCG64 by ``SeedSequence`` spawning;
oracle blocks and the stochastic reserve's outer draws, whose effective
path is a stochastic book's curve, use it.

Each policy of ``simulate_portfolio`` draws from a counter-based Philox
stream instead, whose 128-bit key needs no hashing to separate streams
(Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2,
3", SC'11).  Key word 0 is the seed's hash, the first uint64 of
``SeedSequence(seed)`` (a SeedSequence seed keeps its spawn key); key
word 1 is ``purpose << 32 | policy``.  ``policy_stream`` builds one such
generator and ``policy_streams`` re-keys a single one from policy to
policy.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

import numpy as np

Seed = Union[int, np.random.SeedSequence, np.random.Generator]

#: Purposes and policies each take 32 bits of key word 1.
_WORD = 1 << 32


def _seed_sequence(seed: Seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.Generator):
        raise TypeError("streams must be derived from a seed, not a live generator")
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(int(seed))


def coerce_rng(seed: Seed) -> np.random.Generator:
    """Accept an int, a SeedSequence or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_seed_sequence(seed))


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


def _policy_word(purpose: int, i: int) -> int:
    """Key word 1 of policy ``i``'s stream for ``purpose``."""
    if not (0 <= purpose < _WORD and 0 <= i < _WORD):
        raise OverflowError(f"purpose and policy must be in [0, 2**32), got {purpose} and {i}")
    return purpose << 32 | i


def policy_stream(seed: Seed, purpose: int, i: int) -> np.random.Generator:
    """A fresh Philox generator of policy ``i``'s stream for ``purpose``."""
    seed_word = _seed_sequence(seed).generate_state(1, np.uint64)[0]
    # A uint64 array: Philox reads a list of Python ints above 2**63 through float64.
    key = np.array([seed_word, _policy_word(purpose, i)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def policy_streams(seed: Seed, purpose: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """Yield one generator, once per index, in the state of ``policy_stream(seed, purpose, i)``.

    Whatever it draws before the next yield is what a fresh
    ``policy_stream`` draws, bit for bit: moving to the next index is one
    state assignment, counter at 0 with nothing buffered.
    """
    # Philox keys itself with generate_state(2, np.uint64), whose first word
    # is policy_stream's seed word: the seed is hashed once.
    rng = np.random.Generator(np.random.Philox(_seed_sequence(seed)))
    key = rng.bit_generator.state["state"]["key"].tolist()
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    high = _policy_word(purpose, 0)
    bit_generator = rng.bit_generator
    for i in indices:  # _policy_word's check inline: a call would add a tenth per policy
        if not 0 <= i < _WORD:
            raise OverflowError(f"policy must be in [0, 2**32), got {i}")
        key[1] = high | i
        bit_generator.state = fresh
        yield rng
