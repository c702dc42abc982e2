"""Deterministic seed derivation.

All randomness in the package flows from integer root seeds through
``numpy.random.SeedSequence`` sub-streams keyed by small integer tuples.
Derived streams are independent of evaluation order, so adding Monte Carlo
replicates or changing worker counts never reshuffles earlier draws.

``SeedSequence`` turns its entropy list into uint32 words: each non-negative
integer, little-endian, as many words as it needs (one word for 0).
:func:`derive_seed` and :func:`generator` hand it that word array directly,
which skips numpy's per-integer coercion and gives the same sequence, so
``generator(s)`` draws what ``np.random.default_rng(s)`` draws for every s in
[0, 2**64), and ``derive_seed(seed, *keys)`` equals
``SeedSequence([seed mod 2**64, *keys]).generate_state(1, np.uint64)[0]``.

Many streams at once take a second, bulk route.  ``SeedSequence``'s hash is
plain uint32 arithmetic (O'Neill 2015; numpy NEP 19): a pool of four words
mixes in the entropy words, with hash constants that follow a fixed sequence
whatever the data, and ``generate_state`` hashes the pool out again.
:func:`derive_seeds` and :func:`generator_states` run that arithmetic on an
(entropy words x streams) array, one numpy call per hash step for the whole
batch, and :func:`generator_states` then takes ``PCG64``'s seeding step, one
128-bit multiply-add per stream.  They give what :func:`derive_seed` and
:func:`generator` give, bit for bit.  One bulk pass costs some sixty small
array operations whatever the batch holds, about 60 us on a 2-vCPU x86-64
virtual machine, where numpy's route costs about 17 us per stream; a batch of
1,000 streams cost about 1.2 us per stream there, seeds and generator states
together.  So the bulk route pays only for batches of several streams, and a
single seed keeps numpy's own route.

Namespaces (first key) keep unrelated uses from colliding:

* 1 -- Monte Carlo replicate streams
* 2 -- permutation-family streams, keyed (block, axis); the plain dyadic
       test is block 0 with axis 0 = rows and axis 1 = cols
* 3 -- repeated-pipeline runs (irregular designs)
* 4 -- cell subsampling, one stream per pipeline run
* 5 -- mask generation and solver restarts
* 6 -- simulated data-generating processes
"""

from __future__ import annotations

import numpy as np

_NS_REPLICATE = 1
_NS_FAMILY = 2
_NS_RUN = 3
_NS_SUBSAMPLE = 4
_NS_MASK = 5
_NS_DGP = 6

AXIS_ROWS = 0
AXIS_COLS = 1
AXIS_CELLS = 2

_MASK64 = (1 << 64) - 1
_WORD = (1 << 32) - 1


def _key_words(keys) -> list[int]:
    """The uint32 entropy words of non-negative integer keys, as numpy forms them."""
    words = []
    for value in (int(k) for k in keys):
        if value < 0:
            raise ValueError("expected non-negative integer")
        words.append(value & _WORD)
        value >>= 32
        while value:
            words.append(value & _WORD)
            value >>= 32
    return words


def _seed_sequence(seed: int, keys) -> np.random.SeedSequence:
    """``SeedSequence([seed mod 2**64, *keys])``, built from its uint32 words."""
    # SeedSequence entropy must be non-negative: the seed wraps, a key raises.
    words = _key_words((int(seed) & _MASK64, *keys))
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def derive_seed(seed: int, *keys: int) -> int:
    """Return a 64-bit integer sub-seed, stable in ``(seed, *keys)``."""
    return int(_seed_sequence(seed, keys).generate_state(1, np.uint64)[0])


def generator(seed: int, *keys: int) -> np.random.Generator:
    """A fresh Generator on the sub-stream keyed by ``keys``."""
    return np.random.default_rng(_seed_sequence(seed, keys))


# SeedSequence's hash as numpy implements it: the pool size, the two hash
# chains (one mixes entropy into the pool, one hashes the pool out), the mix
# multipliers and the shift.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64 seeding: numpy's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

# Hash-chain constants by (init, mult, length), filled on first use so that
# importing the package does no hashing.  A length follows from a number of
# entropy words, so the callers' key sizes bound the entries.
_chains: dict[tuple[int, int, int], np.ndarray] = {}


def _chain(init: int, mult: int, length: int) -> np.ndarray:
    """``init * mult**i mod 2**32`` for i < ``length``, as a read-only uint32
    column."""
    key = (init, mult, length)
    if key not in _chains:
        values = [init]
        for _ in range(length - 1):
            values.append(values[-1] * mult & _WORD)
        column = np.array(values, dtype=np.uint32)[:, None]
        column.flags.writeable = False
        _chains[key] = column
    return _chains[key]


def _pool(words: np.ndarray) -> np.ndarray:
    """``SeedSequence.pool`` of every column of a (words x streams) uint32 array."""
    n_words, n = words.shape
    chain = _chain(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(n_words - _POOL, 0) + 1)
    mix_l, mix_r, shift = np.uint32(_MIX_L), np.uint32(_MIX_R), np.uint32(_XSHIFT)
    # hashmix(v) = (v ^ c[k]) * c[k + 1], xorshifted, for the k-th hash of the
    # chain; mix(x, h) = x * MIX_L - h * MIX_R, xorshifted.  Entropy shorter
    # than the pool hashes zeros in its place.
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[:n_words] = words[:_POOL]
    pool ^= chain[:_POOL]
    pool *= chain[1:_POOL + 1]
    pool ^= pool >> shift
    at = _POOL
    # Each pool word is mixed into the three others; it does not change
    # meanwhile, so its three hashes are one call.
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        h = pool[src] ^ chain[at:at + _POOL - 1]
        h *= chain[at + 1:at + _POOL]
        h ^= h >> shift
        h *= mix_r
        x = pool[dst]
        x *= mix_l
        x -= h
        x ^= x >> shift
        pool[dst] = x
        at += _POOL - 1
    # Entropy past the pool is mixed into every pool word.
    for word in words[_POOL:]:
        h = word ^ chain[at:at + _POOL]
        h *= chain[at + 1:at + _POOL + 1]
        h ^= h >> shift
        h *= mix_r
        pool *= mix_l
        pool -= h
        pool ^= pool >> shift
        at += _POOL
    return pool


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words // 2, np.uint64)`` of every pool column, as a
    (n_words // 2 x streams) uint64 array."""
    chain = _chain(_INIT_B, _MULT_B, n_words + 1)
    out = pool.take(np.arange(n_words) % _POOL, axis=0)
    out ^= chain[:n_words]
    out *= chain[1:]
    out ^= out >> np.uint32(_XSHIFT)
    out = out.astype(np.uint64)
    return out[0::2] | out[1::2] << np.uint64(32)


def _as_seeds(seeds) -> np.ndarray:
    """Root seeds mod 2**64 as a flat uint64 array."""
    if isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64:
        return seeds.ravel()
    return np.array([int(s) & _MASK64 for s in seeds], dtype=np.uint64)


def derive_seeds(seeds, *keys: int, count: int) -> np.ndarray:
    """``derive_seed(s, *keys, t)`` for every s in ``seeds`` and t < ``count``.

    Returns a (len(seeds), count) uint64 array, derived in bulk.
    """
    if not 0 <= count <= _WORD + 1:
        raise ValueError(f"count must be in [0, 2**32], got {count}")
    seeds = _as_seeds(seeds)
    keys = np.array(_key_words(keys), dtype=np.uint32)[:, None, None]
    out = np.empty((seeds.size, count), dtype=np.uint64)
    # A seed takes one entropy word below 2**32 and two from there on, which
    # shifts every key word after it: the two kinds are hashed apart.
    wide = seeds > _WORD
    for rows, seed_words in ((~wide, 1), (wide, 2)):
        group = seeds[rows]
        if group.size == 0 or count == 0:
            continue
        words = np.empty((seed_words + keys.shape[0] + 1, group.size, count), dtype=np.uint32)
        words[0] = (group & _WORD)[:, None]
        if seed_words == 2:
            words[1] = (group >> 32)[:, None]
        words[seed_words:-1] = keys
        words[-1] = np.arange(count)
        state = _generate_state(_pool(words.reshape(words.shape[0], -1)), 2)
        out[rows] = state.reshape(group.size, count)
    return out


def generator_states(seeds) -> list[dict]:
    """The ``bit_generator.state`` of ``generator(s)`` for every s in ``seeds``.

    Derived in bulk; setting a state on a reused ``Generator`` makes it draw
    what ``generator(s)`` draws.
    """
    seeds = _as_seeds(seeds)
    # One entropy word or two: the pool hashes a missing second word as 0.
    words = np.stack([seeds & _WORD, seeds >> 32]).astype(np.uint32)
    states = []
    for s_hi, s_lo, i_hi, i_lo in _generate_state(_pool(words), 8).T.tolist():
        # pcg64_set_seed: inc = 2i + 1, then two LCG steps around adding s.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def family_seed(seed: int, block: int, axis: int) -> int:
    """Seed for the permutation family of one block along one axis."""
    return derive_seed(seed, _NS_FAMILY, block, axis)


def replicate_seed(seed: int, replicate: int) -> int:
    """Seed for one Monte Carlo replicate."""
    return derive_seed(seed, _NS_REPLICATE, replicate)


def run_seed(seed: int, run: int) -> int:
    """Seed for one repeat of a repeated pipeline."""
    return derive_seed(seed, _NS_RUN, run)


def trim_seed(seed: int) -> int:
    """Seed for one pipeline run's cell-subsampling stream."""
    return derive_seed(seed, _NS_SUBSAMPLE)


def mask_seed(seed: int, *keys: int) -> int:
    """Seed for mask generation or seeded solver restarts."""
    return derive_seed(seed, _NS_MASK, *keys)


def mask_seeds(seeds, *keys: int, count: int) -> np.ndarray:
    """``mask_seed(s, *keys, t)`` for every s in ``seeds`` and t < ``count``, in bulk."""
    return derive_seeds(seeds, _NS_MASK, *keys, count=count)


def dgp_seed(seed: int, component: int) -> int:
    """Seed for one component of a simulated data-generating process."""
    return derive_seed(seed, _NS_DGP, component)
