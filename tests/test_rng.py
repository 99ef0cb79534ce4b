"""Keyed substreams: bulk PCG64 state derivation and re-keyed generators."""
import numpy as np
import pytest

from claimflow._rng import rekeyable_generator, rekeyed, substream, substream_states

_N = 70_000
_PROBES = (0, 1, 65535, 65536, _N - 1)


def _reference_state(seed, *key):
    state = substream(seed, *key).bit_generator.state["state"]
    return state["state"], state["inc"]


@pytest.mark.parametrize("seed", [0, 1, 2**70 + 9, (221 << 24) + 3, (7 << 24) + 1999],
                         ids=["0", "1", "multiword", "request-221-3", "request-7-1999"])
@pytest.mark.parametrize("prefix", [(0,), (3,), (), (0xB10C, 2), (2**40,)],
                         ids=["accident", "development", "none", "two-words", "wide-word"])
def test_bulk_states_match_substream_for_int_seeds(seed, prefix):
    states = list(substream_states(seed, *prefix, indices=range(_N)))
    assert len(states) == _N
    for i in _PROBES:
        assert states[i] == _reference_state(seed, *prefix, i)


@pytest.mark.parametrize("seed", [
    np.random.SeedSequence(777, spawn_key=(0,)),
    np.random.SeedSequence(777, spawn_key=(99_999,)),
    np.random.SeedSequence(5),
    np.random.SeedSequence([1, 2, 3, 4, 5, 6]),
    np.random.SeedSequence(2**200, spawn_key=(2**40, 1)),
    np.random.SeedSequence(3, pool_size=8),
], ids=["criterion-6-first", "criterion-6-last", "no-spawn-key", "long-entropy",
        "wide-entropy-and-key", "pool-size-8"])
def test_bulk_states_match_substream_for_seed_sequences(seed):
    for prefix in ((0,), (1,), ()):
        states = list(substream_states(seed, *prefix, indices=range(_N)))
        for i in _PROBES:
            assert states[i] == _reference_state(seed, *prefix, i)


def test_bulk_states_follow_the_given_indices():
    picked = [65536, 3, 0, 3]
    states = list(substream_states(11, 2, indices=picked))
    assert states == [_reference_state(11, 2, i) for i in picked]
    assert list(substream_states(11, 2, indices=[])) == []


def test_bulk_states_keep_the_error_behaviour():
    live = np.random.default_rng(0)
    with pytest.raises(TypeError):
        substream(live, 0, 1)
    with pytest.raises(TypeError):
        substream_states(live, 0, indices=range(3))
    with pytest.raises(ValueError) as expected:
        substream(-1, 0, 1)
    with pytest.raises(ValueError) as got:
        substream_states(-1, 0, indices=range(3))
    assert str(got.value) == str(expected.value)
    with pytest.raises(ValueError):
        substream_states(5, -2, indices=range(3))
    with pytest.raises(OverflowError):
        substream_states(5, 0, indices=[-1])
    with pytest.raises(OverflowError):
        substream_states(5, 0, indices=[2**32])


def test_rekeyed_generator_draws_what_each_substream_draws():
    rng = rekeyable_generator()
    seed = np.random.SeedSequence(42, spawn_key=(7,))
    policies = [0, 5, 2, 1000]
    for i, g in zip(policies, rekeyed(rng, seed, 3, indices=policies)):
        assert g is rng
        # An odd number of 32-bit draws leaves half an output buffered in
        # the bit generator; re-keying must drop it.
        got = (g.integers(0, 10, size=3, dtype=np.uint32).tolist(), g.exponential(),
               g.random(3).tolist(), g.poisson(2.5), g.gamma(2.3, 0.5, size=2).tolist())
        ref = substream(seed, 3, i)
        assert got == (ref.integers(0, 10, size=3, dtype=np.uint32).tolist(), ref.exponential(),
                       ref.random(3).tolist(), ref.poisson(2.5), ref.gamma(2.3, 0.5, size=2).tolist())
