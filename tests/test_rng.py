"""Keyed streams: per-policy Philox keys and the re-keyed generator."""
import numpy as np
import pytest

from claimflow._rng import policy_stream, policy_streams, substream


def _mixed_draws(g):
    # An odd number of raw 32-bit draws leaves half an output buffered in
    # the bit generator; re-keying must drop it.  Raw words and a leading
    # double show any stale output, which a rejection sampler may skip.
    return (g.random(), g.integers(0, 2**32, size=3, dtype=np.uint32).tolist(), g.exponential(),
            g.random(3).tolist(), g.poisson(2.5), g.gamma(2.3, 0.5, size=2).tolist(),
            g.integers(0, 2**32, dtype=np.uint32))


def _key(g):
    return g.bit_generator.state["state"]["key"].tolist()


@pytest.mark.parametrize("seed", [5, np.random.SeedSequence(42, spawn_key=(7,))], ids=["int", "spawn-key"])
@pytest.mark.parametrize("purpose", [0, 3, 2**32 - 1])
def test_policy_streams_draw_what_each_fresh_stream_draws(seed, purpose):
    policies = [0, 5, 2, 1000, 5, 2**32 - 1]
    rng = None
    for i, g in zip(policies, policy_streams(seed, purpose, policies), strict=True):
        assert rng is None or g is rng  # one generator, re-keyed
        rng = g
        assert _mixed_draws(g) == _mixed_draws(policy_stream(seed, purpose, i))


def test_key_words_are_exact_above_two_to_the_53():
    # Seed 5 hashes to a word that float64 cannot hold (it would read
    # 0x...b800), so a key passed through float64 would fail here.
    seed_word = int(np.random.SeedSequence(5).generate_state(1, np.uint64)[0])
    assert seed_word == 0xAF4C069D0100B467 and int(float(seed_word)) != seed_word
    want = [seed_word, 3 << 32 | 2**32 - 1]
    assert _key(policy_stream(5, 3, 2**32 - 1)) == want
    assert _key(next(policy_streams(5, 3, [2**32 - 1]))) == want
    # A SeedSequence seed keeps its spawn key, as criterion 6 relies on.
    spawned = np.random.SeedSequence(777, spawn_key=(3,))
    assert _key(policy_stream(spawned, 1, 4)) == [
        int(spawned.generate_state(1, np.uint64)[0]), 1 << 32 | 4]


def test_distinct_purposes_policies_and_spawn_keys_give_distinct_keys():
    seeds = [5, 6] + [np.random.SeedSequence(777, spawn_key=(k,)) for k in range(50)]
    keys = {tuple(_key(g)) for seed in seeds for purpose in range(4)
            for g in policy_streams(seed, purpose, range(25))}
    assert len(keys) == len(seeds) * 4 * 25
    # An int seed is its SeedSequence.
    assert _key(policy_stream(5, 0, 1)) == _key(policy_stream(np.random.SeedSequence(5), 0, 1))


def test_streams_refuse_bad_seeds_and_indices():
    live = np.random.default_rng(0)
    with pytest.raises(TypeError):
        policy_stream(live, 0, 1)
    with pytest.raises(TypeError):
        next(policy_streams(live, 0, range(3)))
    with pytest.raises(TypeError):
        substream(live, 0, 1)
    for make in (lambda: policy_stream(-1, 0, 1), lambda: next(policy_streams(-1, 0, range(3))),
                 lambda: substream(-1, 0, 1)):
        with pytest.raises(ValueError):
            make()
    # Outside [0, 2**32) an index would spill into the purpose word.
    for bad in (-1, 2**32):
        with pytest.raises(OverflowError):
            policy_stream(5, 0, bad)
        with pytest.raises(OverflowError):
            list(policy_streams(5, 0, [0, bad]))
        with pytest.raises(OverflowError):
            policy_stream(5, bad, 0)
        with pytest.raises(OverflowError):
            next(policy_streams(5, bad, [0]))


def test_substream_keeps_the_spawn_key_as_a_prefix():
    nested = substream(np.random.SeedSequence(11, spawn_key=(2,)), 3).random(4)
    assert nested.tolist() == substream(11, 2, 3).random(4).tolist()
