"""Cyclic permutation groups for randomization tests.

A cyclic family on n indices consists of the identity plus K powers of a
blockwise cyclic shift, conjugated by a random relabeling.  The non-trivial
facts used downstream: the family is a group (composition of members is a
member, with index arithmetic mod K+1), and when (K+1) divides n every
non-identity member moves every index.

Every test acts with a product of such families: member k of the group
applies member k of one family per moving axis of every block at once
(:func:`block_product_group`), which is again a cyclic group of order K+1.
Its one caller, :func:`~clusterperm.dyadic.stack_blocks`, builds the group of
every layout, the dyadic grid's one block included.  A cyclic group is held
as its generator g, member k being g^k (:class:`CyclicGroup`), so it takes
O(N) memory and its members are streamed by one walk, never stored; the
(K+1, N) arrays of :func:`build_cyclic_family`, :meth:`CyclicGroup.stacked`
and :func:`build_two_way_group` are adapters for the group-law checks.
:func:`as_group` is the one place where a family given in any of these
forms becomes a checked group.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionError, GroupError
from .model import PermutationFamily, TwoWayPermutation, member_fault
from .rng import AXIS_COLS, AXIS_ROWS, family_seed, generator

# Members are walked in chunks of about this many values over n rows (128 KB
# of float64 for one value a row), so a pass holds no K x N temporary.
_CHUNK_VALUES = 1 << 14


def _chunks(n: int, num_perms: int) -> list[slice]:
    step = max(1, _CHUNK_VALUES // max(n, 1))
    return [slice(lo, min(lo + step, num_perms)) for lo in range(0, num_perms, step)]


def _walk(index: np.ndarray, num_perms: int, values: np.ndarray):
    """:meth:`CyclicGroup.orbit` of members 1..num_perms of g = ``index``, a
    writeable intp array (numpy copies a read-only index on every take).  A
    chunk of m members is taken in a ring of max(m, 2) slots, since a take
    onto its own input copies; each block is a view into it."""
    chunks = _chunks(index.size, num_perms)
    ring = np.empty((max(chunks[0].stop if chunks else 0, 2),) + values.shape, values.dtype)
    ring[-1] = values
    for members in chunks:
        lo = members.start % len(ring)
        hi = lo + members.stop - members.start
        for i in range(lo, hi):
            ring[i - 1].take(index, axis=-1, out=ring[i], mode="clip")
        yield members, ring[lo:hi]


class CyclicGroup:
    """The K+1 powers of one row map g: member k is g^k, member 0 the identity.

    Construction checks that g is a bijection of [n] (else
    :class:`~clusterperm.exceptions.DimensionError`) and that g^(K+1) is the
    identity (else :class:`~clusterperm.exceptions.GroupError`), which makes
    the members a group: member r after member s is member (r+s) mod (K+1).
    The check forms g^(K+1) by repeated squaring, about 2 log2(K+1) gathers
    of length n.  The group keeps its own copy of g, writeable and private
    to walk with, and shows it as ``generator``, a read-only view, so the
    check cannot be undone by a later write.
    """

    notes: tuple[str, ...] = ()  # what its builder kept fixed; reports carry it

    def __init__(self, generator, num_perms: int):
        gen = np.array(generator, dtype=np.intp)
        if num_perms < 1:
            raise DimensionError(f"need at least one permutation, got {num_perms}")
        fault = member_fault(gen, gen.size)
        if fault:
            raise DimensionError(f"member 1 {fault}")
        self._index = gen
        self.generator = gen.view()
        self.generator.flags.writeable = False
        self.num_perms = int(num_perms)
        if not np.array_equal(self.member(num_perms + 1), np.arange(gen.size)):
            raise GroupError(
                "row maps are not a cyclic group: member 1 applied "
                f"K+1={num_perms + 1} times is not the identity"
            )

    @property
    def n(self) -> int:
        return self.generator.size

    def member(self, k: int) -> np.ndarray:
        """The row map g^k, by repeated squaring: about 2 log2(k) gathers."""
        out, square = np.arange(self.n), self.generator
        while k:
            if k & 1:
                out = square[out]
            k >>= 1
            if k:
                square = square[square]
        return out

    def chunks(self) -> list[slice]:
        """Equal slices (the last may be short) of the positions 0..K-1 of
        members 1..K, each about 2^14 / n members: the blocks of :meth:`orbit`."""
        return _chunks(self.n, self.num_perms)

    def orbit(self, values=None):
        """Stream ``values`` moved by members 1..K, in order.

        Yields ``(members, block)``: ``members`` is one of :meth:`chunks`, and
        ``block[i]`` is ``values[..., g^k]`` for the member k at position
        ``members.start + i``.  ``values`` is indexed along its last axis and
        defaults to ``arange(n)``, which streams the member maps themselves.
        Each member is one gather of the member before.  A block is a view
        that the next step overwrites: a consumer that keeps it copies it.
        """
        cur = np.arange(self.n) if values is None else np.asarray(values)
        if cur.ndim < 1 or cur.shape[-1] != self.n:
            raise DimensionError(f"values must have last axis {self.n}, got shape {cur.shape}")
        return _walk(self._index, self.num_perms, cur)

    def stacked(self) -> np.ndarray:
        """All members as a (K+1, n) array, row 0 the identity (an adapter)."""
        maps = np.empty((self.num_perms + 1, self.n), dtype=np.intp)
        maps[0] = np.arange(self.n)
        for members, block in self.orbit():
            maps[1:][members] = block
        return maps


def as_group(family, n: int) -> CyclicGroup:
    """The checked cyclic group that ``family`` states, acting on n rows.

    ``family`` is a :class:`CyclicGroup` (checked at construction), a
    :class:`~clusterperm.model.PermutationFamily` or a full (K+1, n) row map.
    A map, or a family's stacked maps, is accepted only as the cyclic group
    member 1 generates: member 0 is the identity, member 1 a bijection of the
    rows, member k is member 1 applied to member k-1, and member 1 applied to
    member K is the identity again (checked by :class:`CyclicGroup`).  Every
    member is then a bijection.  One walk of member 1, O(K * n); the first
    member that breaks the law is diagnosed so the error names the fault.
    """
    if isinstance(family, CyclicGroup):
        if family.n != n:
            raise DimensionError(f"the group acts on {family.n} rows, the data have {n}")
        return family
    if isinstance(family, PermutationFamily):
        family = family.stacked()
    perms = np.asarray(family, dtype=np.intp)
    if perms.ndim != 2 or perms.shape[1] != n:
        raise DimensionError(f"permutations must be (K+1, {n}), got {perms.shape}")
    if perms.shape[0] < 2:
        raise DimensionError("need the identity plus at least one permutation")
    if not np.array_equal(perms[0], np.arange(n)):
        raise DimensionError("member 0 must be the identity")
    gen = np.array(perms[1])
    fault = member_fault(gen, n)
    if fault:
        raise DimensionError(f"member 1 {fault}")
    # Rows before the first broken one are powers of g, so that row is the
    # first that is not member 1 applied to the row before it.
    for members, block in _walk(gen, perms.shape[0] - 2, gen):
        broken = (perms[2:][members] != block).any(axis=1)
        if broken.any():
            k = 2 + members.start + int(np.argmax(broken))
            fault = member_fault(perms[k], n)
            if fault:
                raise DimensionError(f"member {k} {fault}")
            raise GroupError(
                f"row maps are not a cyclic group: member {k} is not member 1 "
                f"applied to member {k - 1}"
            )
    return CyclicGroup(gen, perms.shape[0] - 1)


def _blockwise_shift(n: int, num_perms: int) -> np.ndarray:
    """The canonical shift on 0-based [n], member 1 before relabeling.

    Indices past the last complete block of K+1 stay fixed.  Within a block,
    every index moves forward by one and the last wraps back to the first.
    """
    size = num_perms + 1
    out = np.arange(n)
    head = out[: size * (n // size)]
    head += np.where(head % size < num_perms, 1, -num_perms)
    return out


def _cyclic_generator(n: int, num_perms: int, seed: int) -> np.ndarray:
    """Member 1 of a cyclic family: the first shift, conjugated by a relabeling
    drawn from ``generator(seed)``."""
    relabel = generator(seed).permutation(n)
    inverse = np.empty(n, dtype=np.intp)
    inverse[relabel] = np.arange(n)
    return inverse[_blockwise_shift(n, num_perms)[relabel]]


def build_cyclic_family(n: int, num_perms: int, seed: int) -> np.ndarray:
    """Build a cyclic family of K+1 bijections on 0-based [n].

    Parameters
    ----------
    n : int
        Size of the index set.
    num_perms : int
        K, the number of non-identity members.
    seed : int
        Drives the random relabeling that conjugates the canonical shifts,
        drawn from :func:`~clusterperm.rng.generator`.

    Returns
    -------
    ndarray of shape (K+1, n)
        Row k maps position x to its image; row 0 is the identity.  Row k is
        the k-th power of row 1.
    """
    if n < 1:
        raise DimensionError(f"need at least one index, got {n}")
    if num_perms < 1:
        raise DimensionError(f"need at least one permutation, got {num_perms}")
    return CyclicGroup(_cyclic_generator(n, num_perms, seed), num_perms).stacked()


def build_two_way_group(n_rows: int, n_cols: int, num_perms: int, seed: int) -> PermutationFamily:
    """Two-way family: one cyclic family per axis, paired member by member.

    Member k is (pi_k, sigma_k); member 0 is the identity.  The row and
    column families draw from independent sub-streams of ``seed``.  Its
    stacked maps are those of the grid's one-block :func:`block_product_group`.
    """
    rows = build_cyclic_family(n_rows, num_perms, family_seed(seed, 0, AXIS_ROWS))
    cols = build_cyclic_family(n_cols, num_perms, family_seed(seed, 0, AXIS_COLS))
    members = tuple(
        TwoWayPermutation(rows[k], cols[k]) for k in range(num_perms + 1)
    )
    return PermutationFamily(members)


def block_product_group(blocks, num_perms: int, seed) -> CyclicGroup:
    """Cyclic families acting together on disjoint blocks of stacked rows.

    Each block is ``(key, ((size, axis), ...))``: a box of stacked rows laid
    out row-major over its axes (first axis slowest), placed after the blocks
    before it.  An axis of more than K indices carries the cyclic family of
    ``build_cyclic_family(size, K, family_seed(seed, key, axis))``.  An axis
    of at most K indices, or given as ``None``, stays fixed and draws nothing;
    ``notes`` counts the blocks with a short axis (``None`` is not short).
    Member k applies member k of every family at once, and maps every block
    onto itself.

    Only member 1 is built, from each family's member 1; the group is its
    powers, since the k-th power of a product of commuting maps is the
    product of their k-th powers.
    """
    if num_perms < 1:
        raise DimensionError(f"need at least one permutation, got {num_perms}")
    blocks = list(blocks)
    shapes = [tuple(size for size, _ in axes) for _, axes in blocks]
    if any(size < 1 for shape in shapes for size in shape):
        raise DimensionError("every block axis needs at least one index")
    gen = np.empty(sum(map(math.prod, shapes)), dtype=np.intp)
    offset = short = 0
    for (key, axes), shape in zip(blocks, shapes):
        n_block = math.prod(shape)
        view = gen[offset : offset + n_block].reshape(shape)
        view[...] = offset
        stride, fixed = n_block, False
        for a, (size, axis) in enumerate(axes):
            stride //= size
            if axis is None or size <= num_perms:
                fixed |= axis is not None
                image = np.arange(size)
            else:
                image = _cyclic_generator(size, num_perms, family_seed(seed, key, axis))
            view += (image * stride).reshape((1,) * a + (size,) + (1,) * (len(axes) - a - 1))
        offset += n_block
        short += fixed
    group = CyclicGroup(gen, num_perms)
    group.notes = (f"{short} of {len(blocks)} blocks have a side shorter than "
                   f"K+1={num_perms + 1}; their indices stay fixed",) if short else ()
    return group


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

    Else K+1 is the smallest extent of at least 20, capped at 100, so that
    axis moves (tail indices stay fixed), or K = 99 if no extent reaches 20.
    """
    if n_rows < 1 or (n_cols is not None and n_cols < 1):
        raise DimensionError("extents must be positive")
    extents = [n_rows] if n_cols is None else [n_rows, n_cols]
    for size in range(100, 19, -1):
        if all(ext % size == 0 for ext in extents):
            return size - 1
    return min([100] + [ext for ext in extents if ext >= 20]) - 1
