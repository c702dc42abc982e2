"""Construction of cyclic permutation families for randomization tests.

A cyclic family on n indices consists of the identity plus K powers of a
blockwise cyclic shift, conjugated by a random relabeling.  The non-trivial
facts used downstream: the family is a group (composition of members is a
member, with index arithmetic mod K+1), and when (K+1) divides n every
non-identity member moves every index.

Every test acts with a product of such families: member k of the group
applies member k of one family per moving axis of every block at once
(:func:`block_product_perms`), which is again a cyclic group of order K+1.
The dyadic test's two-way group is the one-block, two-axis case.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionError
from .model import PermutationFamily, TwoWayPermutation
from .rng import AXIS_COLS, AXIS_ROWS, family_seed


def _blockwise_shift(n: int, num_perms: int, k: int) -> np.ndarray:
    """The k-th canonical shift on 0-based [n].

    Indices past the last complete block of K+1 stay fixed.  Within a block,
    an index with residue r (1-based, residue 0 read as K+1) moves forward by
    k when r <= K+1-k and wraps back by K+1-k otherwise.
    """
    size = num_perms + 1
    m = size * (n // size)
    idx = np.arange(n)
    out = idx.copy()
    head = idx[:m]
    r0 = head % size  # r0 = r - 1 for the 1-based residue r in {1..K+1}
    forward = r0 <= num_perms - k
    out[:m] = np.where(forward, head + k, head - (size - k))
    return out


def build_cyclic_family(n: int, num_perms: int, seed) -> np.ndarray:
    """Build a cyclic family of K+1 bijections on 0-based [n].

    Parameters
    ----------
    n : int
        Size of the index set.
    num_perms : int
        K, the number of non-identity members.
    seed : int or numpy Generator / SeedSequence
        Drives the random relabeling that conjugates the canonical shifts.

    Returns
    -------
    ndarray of shape (K+1, n)
        Row k maps position x to its image; row 0 is the identity.
    """
    if n < 1:
        raise DimensionError(f"need at least one index, got {n}")
    if num_perms < 1:
        raise DimensionError(f"need at least one permutation, got {num_perms}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    relabel = rng.permutation(n)
    inverse = np.empty(n, dtype=np.intp)
    inverse[relabel] = np.arange(n)
    family = np.empty((num_perms + 1, n), dtype=np.intp)
    family[0] = np.arange(n)
    for k in range(1, num_perms + 1):
        shift = _blockwise_shift(n, num_perms, k)
        family[k] = inverse[shift[relabel]]
    return family


def build_two_way_group(n_rows: int, n_cols: int, num_perms: int, seed: int) -> PermutationFamily:
    """Two-way family: one cyclic family per axis, paired member by member.

    Member k is (pi_k, sigma_k); member 0 is the identity.  The row and
    column families draw from independent sub-streams of ``seed``.
    """
    rows = build_cyclic_family(n_rows, num_perms, family_seed(seed, 0, AXIS_ROWS))
    cols = build_cyclic_family(n_cols, num_perms, family_seed(seed, 0, AXIS_COLS))
    members = tuple(
        TwoWayPermutation(rows[k], cols[k]) for k in range(num_perms + 1)
    )
    return PermutationFamily(members)


def block_product_perms(blocks, num_perms: int, seed) -> np.ndarray:
    """Stacked row maps of cyclic families acting together on disjoint blocks.

    Each block is ``(key, ((size, axis), ...))``: a box of stacked rows laid
    out row-major over its axes (first axis slowest), placed after the blocks
    before it.  A moving axis draws
    ``build_cyclic_family(size, K, family_seed(seed, key, axis))``; an axis
    given as ``None`` stays fixed.  Member k applies member k of every
    family at once, so the members form a cyclic group,
    ``P[r][P[s]] == P[(r + s) % (K + 1)]``, and each maps every block onto
    itself.

    Returns
    -------
    ndarray of shape (K+1, N), dtype intp
        Row k is member k's source map over the N stacked rows of all
        blocks; row 0 is the identity.  Each block's families are added
        into a view of this one array, so no second (K+1, N) array is made.
    """
    if num_perms < 1:
        raise DimensionError(f"need at least one permutation, got {num_perms}")
    blocks = list(blocks)
    shapes = [tuple(size for size, _ in axes) for _, axes in blocks]
    if any(size < 1 for shape in shapes for size in shape):
        raise DimensionError("every block axis needs at least one index")
    perms = np.empty((num_perms + 1, sum(map(math.prod, shapes))), dtype=np.intp)
    offset = 0
    for (key, axes), shape in zip(blocks, shapes):
        n_block = math.prod(shape)
        view = perms[:, offset : offset + n_block].reshape((num_perms + 1,) + shape)
        view[...] = offset
        stride = n_block
        for a, (size, axis) in enumerate(axes):
            stride //= size
            if axis is None:
                images = np.arange(size)[None, :]
            else:
                images = build_cyclic_family(size, num_perms, family_seed(seed, key, axis))
            view += (images * stride).reshape(
                images.shape[:1] + (1,) * a + (size,) + (1,) * (len(axes) - a - 1)
            )
        offset += n_block
    return perms


def _member_maps(family) -> list[np.ndarray]:
    """Members as index arrays; a two-way member enters as its stacked map.

    g -> stacked(g) is injective and stacked(g o h) == stacked(g)[stacked(h)],
    so every group law checked on the maps holds for two-way members.
    """
    return [
        m.stacked() if isinstance(m, TwoWayPermutation) else np.asarray(m, dtype=np.intp)
        for m in family
    ]


def verify_group(family) -> bool:
    """True iff the composition of any two members is again a member.

    Accepts a :class:`PermutationFamily`, a sequence of
    :class:`TwoWayPermutation`, or a (K+1, n) array / sequence of index
    arrays for a one-axis family.  Two-way members compose componentwise.
    """
    arrays = _member_maps(family)
    keys = {tuple(m.tolist()) for m in arrays}
    for g in arrays:
        for h in arrays:
            if tuple(g[h].tolist()) not in keys:
                return False
    return True


def composition_law_holds(family) -> bool:
    """True iff member_r o member_s == member_((r+s) mod (K+1)) for all r, s."""
    arrays = _member_maps(family)
    size = len(arrays)
    for r in range(size):
        for s in range(size):
            if not np.array_equal(arrays[r][arrays[s]], arrays[(r + s) % size]):
                return False
    return True


def _moves_every_index(maps) -> bool:
    return not any(np.any(m == np.arange(m.shape[0])) for m in maps)


def fixed_point_free(family) -> bool:
    """True iff every non-identity member moves every index.

    For two-way members both the row and the column map must move every
    index of their respective axes.
    """
    members = list(family)
    if members and isinstance(members[0], TwoWayPermutation):
        moved = [m for m in members if not m.is_identity()]
        return _moves_every_index(m.pi for m in moved) and _moves_every_index(
            m.sigma for m in moved
        )
    arrays = _member_maps(members)
    return _moves_every_index(m for m in arrays if not np.array_equal(m, np.arange(m.shape[0])))


def default_num_perms(n_rows: int, n_cols: int | None = None) -> int:
    """Default K: largest K <= 99 with K >= 19 and (K+1) dividing each extent.

    Falls back to 99 (tail indices stay fixed) when no such divisor exists.
    """
    if n_rows < 1 or (n_cols is not None and n_cols < 1):
        raise DimensionError("extents must be positive")
    extents = [n_rows] if n_cols is None else [n_rows, n_cols]
    for size in range(100, 19, -1):
        if all(ext % size == 0 for ext in extents):
            return size - 1
    return 99
