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

Namespaces (first key) keep unrelated uses from colliding:

* 1 -- Monte Carlo replicate streams
* 2 -- permutation-family streams, keyed (block, axis); the plain dyadic
       test is block 0 with axis 0 = rows and axis 1 = cols
* 3 -- repeated-pipeline runs (irregular designs)
* 4 -- cell subsampling, one stream per pipeline run
* 5 -- mask generation and greedy-solver noise: one stream per biclique
       decomposition (key 9), and one per greedy call made alone (key 7)
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
    """Seed for mask generation or the greedy solver's noise stream."""
    return derive_seed(seed, _NS_MASK, *keys)


def dgp_seed(seed: int, component: int) -> int:
    """Seed for one component of a simulated data-generating process."""
    return derive_seed(seed, _NS_DGP, component)
