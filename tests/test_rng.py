"""Seed derivation reproduces numpy's SeedSequence streams exactly."""

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

