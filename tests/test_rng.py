"""Seed derivation reproduces numpy's SeedSequence streams exactly, one seed at
a time and in bulk."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clusterperm import rng

BOUNDARIES = (0, 2**32 - 1, 2**32, 2**64 - 1)

_seeds = st.one_of(st.sampled_from(BOUNDARIES), st.integers(0, 2**64 - 1))
_keys = st.lists(st.one_of(st.sampled_from(BOUNDARIES), st.integers(0, 2**70)), max_size=4)


def _numpy_sequence(seed, keys):
    return np.random.SeedSequence([seed % 2**64, *keys])


@settings(max_examples=200, deadline=None)
@given(seed=st.one_of(_seeds, st.integers(-(2**80), 2**80)), keys=_keys)
@example(seed=-1, keys=[])
@example(seed=2**64, keys=[0])
def test_derive_seed_matches_seed_sequence(seed, keys):
    expected = _numpy_sequence(seed, keys).generate_state(1, np.uint64)[0]
    assert rng.derive_seed(seed, *keys) == int(expected)


@settings(max_examples=100, deadline=None)
@given(seed=_seeds, keys=_keys)
def test_generator_matches_default_rng_of_seed_sequence(seed, keys):
    expected = np.random.default_rng(_numpy_sequence(seed, keys)).random(5)
    assert np.array_equal(rng.generator(seed, *keys).random(5), expected)


@settings(max_examples=100, deadline=None)
@given(seed=_seeds)
def test_generator_of_one_seed_is_default_rng(seed):
    expected = np.random.default_rng(seed).integers(0, 2**63, size=4)
    assert np.array_equal(rng.generator(seed).integers(0, 2**63, size=4), expected)


@pytest.mark.parametrize("seed", BOUNDARIES)
def test_boundary_seeds(seed):
    expected = np.random.SeedSequence([seed, 5, 7]).generate_state(1, np.uint64)[0]
    assert rng.mask_seed(seed, 7) == int(expected)
    assert np.array_equal(rng.generator(seed).random(3), np.random.default_rng(seed).random(3))


@pytest.mark.parametrize("keys", [(-1,), (3, -2**40)])
def test_negative_key_raises(keys):
    with pytest.raises(ValueError):
        np.random.SeedSequence([0, *keys])
    with pytest.raises(ValueError):
        rng.derive_seed(0, *keys)
    with pytest.raises(ValueError):
        rng.generator(0, *keys)
    with pytest.raises(ValueError):
        rng.derive_seeds([0, 2**40], *keys, count=2)


# The bulk route: every stream of a batch equals numpy's route for its seed.

_bulk_seeds = st.lists(st.one_of(_seeds, st.integers(-(2**80), 2**80)), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(seeds=_bulk_seeds, keys=_keys, count=st.integers(1, 5))
@example(seeds=[2**64 + 3, -1], keys=[5, 2**40], count=2)
def test_derive_seeds_match_derive_seed(seeds, keys, count):
    got = rng.derive_seeds(seeds, *keys, count=count)
    assert got.dtype == np.uint64 and got.shape == (len(seeds), count)
    for i, seed in enumerate(seeds):
        assert [int(v) for v in got[i]] == [rng.derive_seed(seed, *keys, t) for t in range(count)]


@settings(max_examples=150, deadline=None)
@given(seeds=_bulk_seeds, draws=st.integers(1, 40))
@example(seeds=[2**64, -(2**64) - 1], draws=3)
def test_generator_states_match_generator(seeds, draws):
    reused = np.random.default_rng(0)
    for seed, state in zip(seeds, rng.generator_states(seeds), strict=True):
        assert state == rng.generator(seed).bit_generator.state
        reused.bit_generator.state = state
        assert np.array_equal(reused.random(draws), rng.generator(seed).random(draws))


@pytest.mark.parametrize("seed", BOUNDARIES)
def test_generator_states_at_word_boundaries(seed):
    # below 2**32 a seed is one entropy word, from there on two
    state, = rng.generator_states([seed])
    assert state == np.random.default_rng(seed).bit_generator.state


def test_derive_seeds_with_keys_of_several_words():
    seeds = [0, 2**32 - 1, 2**32, 2**64 - 1]
    keys = (2**32, 2**64 + 7, 3)
    got = rng.derive_seeds(seeds, *keys, count=3)
    assert [[int(v) for v in row] for row in got] == [
        [rng.derive_seed(seed, *keys, t) for t in range(3)] for seed in seeds]


def test_mask_seeds_are_mask_seed():
    got = rng.mask_seeds(np.array([7, 2**40], dtype=np.uint64), 9, count=4)
    assert [[int(v) for v in row] for row in got] == [
        [rng.mask_seed(seed, 9, q) for q in range(4)] for seed in (7, 2**40)]


def test_bulk_edges():
    assert rng.derive_seeds([], 5, count=3).shape == (0, 3)
    assert rng.derive_seeds([1, 2], 5, count=0).shape == (2, 0)
    assert rng.generator_states([]) == []
    with pytest.raises(ValueError, match="count"):
        rng.derive_seeds([1], count=-1)
