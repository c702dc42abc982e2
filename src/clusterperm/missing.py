"""Missing data via biclique decomposition.

When some cells of the grid are unobserved, valid randomization requires
fully observed rectangular blocks with pairwise-disjoint row sets and
pairwise-disjoint column sets.  The decomposition greedily extracts a
maximum-edge biclique (exactly, below a size cap, or heuristically above
it), then removes all of its rows and columns from the mask, which is what
guarantees disjointness.  The blockwise test permutes rows and columns
within each block and leaves everything else fixed: it hands one block of
cell positions per cover block to :func:`~clusterperm.dyadic.block_test`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import TestReport, block_test
from .exceptions import (
    CapExceededError,
    DimensionError,
    EmptyMaskError,
    MissingDataError,
)
from .model import DyadArray
from .rng import AXIS_COLS, AXIS_ROWS, generator, mask_seed

EXACT_CAP = 16

# The exact solver keeps column sets as uint32 bitsets and enumerates 2**rows
# row subsets in tables of about 37 bytes per subset (measured with
# tracemalloc; 40 is budgeted).  The largest cap honours both limits.
_BITSET_BITS = 32
_TABLE_BYTES_PER_SUBSET = 40
_TABLE_BYTES_MAX = 64 * 2**20
MAX_EXACT_CAP = min(
    _BITSET_BITS, (_TABLE_BYTES_MAX // _TABLE_BYTES_PER_SUBSET).bit_length() - 1
)


def as_mask(mask) -> np.ndarray:
    """Validate and normalize a mask to a 2-D 0/1 int8 array.

    A bool array holds only 0/1 by type, so only other dtypes are scanned.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise DimensionError(f"mask must be 2-D, got shape {arr.shape}")
    if arr.dtype == bool:
        return arr.astype(np.int8)
    values = np.unique(arr)
    if not np.isin(values, (0, 1, True, False)).all():
        raise DimensionError("mask entries must be 0 or 1")
    return arr.astype(np.int8)


def _subset_tables(mask_bool: np.ndarray):
    """Subset-sum tables for exact enumeration over occupied rows.

    Returns (occupied_rows, row_counts, col_counts, common) where entry S of
    ``common`` is the bitmask of columns shared by the rows selected by S.
    """
    occupied = np.flatnonzero(mask_bool.any(axis=1))
    n_cols = mask_bool.shape[1]
    weights = (np.uint32(1) << np.arange(n_cols, dtype=np.uint32))
    row_bits = [np.uint32((mask_bool[r] * weights).sum(dtype=np.uint64)) for r in occupied]
    size = 1 << occupied.size
    common = np.zeros(size, dtype=np.uint32)
    common[0] = np.uint32((1 << n_cols) - 1)
    for b in range(occupied.size):
        lo = 1 << b
        common[lo : 2 * lo] = common[:lo] & row_bits[b]
    subsets = np.arange(size, dtype=np.uint32)
    row_counts = np.bitwise_count(subsets).astype(np.int64)
    col_counts = np.bitwise_count(common).astype(np.int64)
    return occupied, row_counts, col_counts, common


def _decode_bits(value: int, lookup: np.ndarray | None = None) -> tuple[int, ...]:
    out = []
    b = 0
    v = int(value)
    while v:
        if v & 1:
            out.append(int(lookup[b]) if lookup is not None else b)
        v >>= 1
        b += 1
    return tuple(out)


def check_exact_cap(cap: int) -> None:
    """Raise :class:`CapExceededError` for a cap the exact solver cannot honour."""
    if cap > MAX_EXACT_CAP:
        raise CapExceededError(
            f"cap={cap} exceeds the exact solver's maximum {MAX_EXACT_CAP} "
            f"({_BITSET_BITS}-bit column sets; 2**cap subset tables kept under "
            f"{_TABLE_BYTES_MAX >> 20} MiB)"
        )


def _check_cap(mask: np.ndarray, cap: int):
    check_exact_cap(cap)
    if mask.shape[0] > cap or mask.shape[1] > cap:
        raise CapExceededError(
            f"exact solver accepts at most {cap}x{cap} masks, got "
            f"{mask.shape[0]}x{mask.shape[1]}"
        )


def max_biclique_exact(mask, cap: int = EXACT_CAP, min_side: int = 1):
    """Exact maximum-edge biclique of a 0/1 mask.

    Enumerates row subsets (restricted to occupied rows), pairing each with
    its full common-neighbor column set.  Ties break by the greedy solver's
    rule, :func:`_candidate_key`: more rows, then the smaller row tuple.

    Returns (rows, cols) as sorted index tuples, or None when no block has
    both sides >= ``min_side``.  Raises :class:`CapExceededError` above the
    cap or for a cap above :data:`MAX_EXACT_CAP`, and :class:`EmptyMaskError`
    for an all-zero mask.
    """
    mask = as_mask(mask)
    _check_cap(mask, cap)
    mask_bool = mask.astype(bool)
    if not mask_bool.any():
        raise EmptyMaskError("mask has no observed cells")
    occupied, row_counts, col_counts, common = _subset_tables(mask_bool)
    scores = row_counts * col_counts
    valid = (row_counts >= min_side) & (col_counts >= min_side)
    valid[0] = False
    if not valid.any():
        return None
    best = np.flatnonzero(valid & (scores == scores[valid].max()))
    return min(((_decode_bits(int(s), occupied), _decode_bits(int(common[s]))) for s in best),
               key=_candidate_key)


def max_square_side(mask, cap: int = EXACT_CAP) -> int:
    """Largest s such that an s x s fully observed block exists (exact)."""
    mask = as_mask(mask)
    _check_cap(mask, cap)
    mask_bool = mask.astype(bool)
    if not mask_bool.any():
        return 0
    _, row_counts, col_counts, _ = _subset_tables(mask_bool)
    sides = np.minimum(row_counts, col_counts)
    sides[0] = 0
    return int(sides.max())


def _candidate_key(block: tuple[tuple, tuple]):
    rows, cols = block
    return (-len(rows) * len(cols), -len(rows), rows, cols)


def _local_search(A: np.ndarray, start: np.ndarray, min_side: int):
    """Single-row moves from the row set ``start`` to a local optimum.

    ``A`` holds the candidate rows as 0/1 floats: every count below is a small
    integer, exact in float64, and the products run in BLAS.  ``start`` is a
    bool row over the rows of ``A``, and the returned rows are positions in
    ``A``; the columns are those common to the returned rows.

    ``cnt`` counts the chosen rows covering each column, so the columns common
    to S are ``cnt == |S|`` and those common to S - {r} are
    ``cnt - A[r] == |S| - 1``.  Each move kind takes its first improving move
    in scan order: adds over all rows, removes over sorted S, swaps over
    sorted S (out) and then all rows (in).  At most 200 moves are made.
    """
    n = A.shape[0]
    chosen = start.copy()
    cnt = A[chosen].sum(axis=0)
    size = int(chosen.sum())
    for _ in range(200):
        common = cnt == size
        score = size * int(common.sum())
        gain = A @ common
        ok = ~chosen & (gain >= min_side) & ((size + 1) * gain > score)
        if ok.any():
            r = int(np.argmax(ok))
            chosen[r] = True
            cnt += A[r]
            size += 1
            continue
        members = np.flatnonzero(chosen)
        base = (cnt - A[members]) == size - 1
        if size > min_side:
            rest = base.sum(axis=1)
            ok = (rest >= min_side) & ((size - 1) * rest > score)
            if ok.any():
                r = members[int(np.argmax(ok))]
                chosen[r] = False
                cnt -= A[r]
                size -= 1
                continue
        swap = base @ A.T
        ok = ~chosen & (swap >= min_side) & (size * swap > score)
        if not ok.any():
            break
        out_at, r_in = divmod(int(np.argmax(ok)), n)
        r_out = members[out_at]
        chosen[r_out] = False
        chosen[r_in] = True
        cnt += A[r_in] - A[r_out]
    return np.flatnonzero(chosen), np.flatnonzero(cnt == size)


# Restarts are scored in chunks of rows, one row per restart of a stream.  A
# row takes its prefixes as 64-bit words of columns, and about 64 bytes per
# active row for its noise, order, counts and scores.  A chunk takes at most
# max(8 cells, 2^20) bytes, cells being the active rows times the columns,
# however many restarts and streams are asked for: on a large mask no more
# than the bool prefixes of eight restarts, on a small one about 1 MiB.
_RESTART_CHUNK = 8
_CHUNK_BYTES = 1 << 20


def _greedy_blocks(mask_bool: np.ndarray, streams, restarts: int, min_side: int) -> list:
    """The greedy block of ``mask_bool`` for each Generator of ``streams``.

    Each stream draws its ``restarts`` noise rows, one uniform per active row
    of the mask, in restart order.  Restart t orders the rows by degree, ties
    broken by its noise row, and starts from the first best-scoring prefix of
    that order against its common-neighbor column set.  The restarts of every
    stream are scored together, a chunk at a time, with one sort and one
    cumulative AND.  The start sets, packed to bits, are de-duplicated, and
    :func:`_local_search` runs once per start set of the pass, whichever
    chunks it recurs in.  A stream's block is the best (:func:`_candidate_key`)
    of its restarts' blocks, or None when no prefix meets ``min_side``.
    """
    degrees = mask_bool.sum(axis=1)
    active = np.flatnonzero(degrees)
    # Rows are addressed by position in ``active``; it is sorted, so position
    # order is row order.  ``B`` holds the active rows, ``A`` the same as floats.
    # ``words`` holds them packed, 64 columns to a word.
    B = mask_bool[active]
    A = B.astype(np.float64)
    words = np.packbits(np.pad(B, ((0, 0), (0, -B.shape[1] % 64))), axis=1).view(np.uint64)
    n = active.size
    sizes = np.arange(1, n + 1)
    owner = np.repeat(np.arange(len(streams)), restarts)
    picks = np.full(owner.size, -1)
    blocks, found = [], {}
    step = max(1, max(_RESTART_CHUNK * B.size, _CHUNK_BYTES) // (words.nbytes + 64 * n))
    for lo in range(0, owner.size, step):
        part = np.unique(owner[lo:lo + step], return_counts=True)
        noise = np.concatenate([streams[s].random((c, n)) for s, c in zip(*part)])
        orders = np.lexsort((noise, np.broadcast_to(-degrees[active], noise.shape)), axis=-1)
        # Column counts of every prefix of each order; they never increase,
        # so requiring a positive count cuts a prefix at its first empty one.
        prefix = words[orders]
        np.bitwise_and.accumulate(prefix, axis=1, out=prefix)
        counts = np.bitwise_count(prefix).sum(axis=2)
        del prefix
        valid = (sizes >= min_side) & (counts >= min_side) & (counts > 0)
        # argmax takes the first best prefix, as a strict ``>`` scan would.
        ends = np.where(valid, sizes * counts, 0).argmax(axis=1) + 1
        starts = np.zeros(orders.shape, dtype=bool)
        np.put_along_axis(starts, orders, sizes <= ends[:, None], axis=1)
        some = valid.any(axis=1)
        starts = starts[some]
        packed = np.packbits(starts, axis=1)
        packed, first, inverse = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                           return_index=True, return_inverse=True)
        picks[lo:lo + step][some] = len(blocks) + inverse
        for key, at in zip(packed, first):
            key = key.tobytes()
            if key not in found:
                rows, cols = _local_search(A, starts[at], min_side)
                found[key] = (tuple(active[rows].tolist()), tuple(cols.tolist()))
            blocks.append(found[key])
    order = sorted(range(len(blocks)), key=lambda b: _candidate_key(blocks[b]))
    rank = np.full(len(blocks) + 1, len(blocks))
    rank[order] = np.arange(len(blocks))
    best = rank[picks].reshape(len(streams), restarts).min(axis=1)
    return [blocks[order[b]] if b < len(blocks) else None for b in best]


def max_biclique_greedy(mask, restarts: int = 16, seed: int = 0, min_side: int = 1):
    """Seeded greedy maximum-edge biclique heuristic.

    The restarts, their noise and their local searches are
    :func:`_greedy_blocks`'s for the one stream ``generator(mask_seed(seed, 7))``.
    Of equal-scoring blocks the one with more rows wins, then the smaller row
    and column tuples.

    Returns (rows, cols) or None when ``min_side`` cannot be met.  Raises
    :class:`DimensionError` when ``restarts`` is below 1.
    """
    if restarts < 1:
        raise DimensionError(f"restarts must be at least 1, got {restarts}")
    mask_bool = as_mask(mask).astype(bool)
    if not mask_bool.any():
        raise EmptyMaskError("mask has no observed cells")
    return _greedy_blocks(mask_bool, [generator(mask_seed(seed, 7))], restarts, min_side)[0]


@dataclass(frozen=True)
class BicliqueCover:
    """Fully observed blocks with disjoint row sets and disjoint column sets."""

    blocks: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    n_rows: int
    n_cols: int

    def __post_init__(self):
        seen_rows: set[int] = set()
        seen_cols: set[int] = set()
        norm = []
        for rows, cols in self.blocks:
            rows = tuple(sorted(int(r) for r in rows))
            cols = tuple(sorted(int(c) for c in cols))
            if not rows or not cols:
                raise DimensionError("cover blocks must be non-empty on both sides")
            if rows[0] < 0 or rows[-1] >= self.n_rows or cols[0] < 0 or cols[-1] >= self.n_cols:
                raise DimensionError("cover block indices outside the grid")
            if seen_rows & set(rows) or seen_cols & set(cols):
                raise DimensionError("cover blocks must have disjoint rows and columns")
            seen_rows |= set(rows)
            seen_cols |= set(cols)
            norm.append((rows, cols))
        object.__setattr__(self, "blocks", tuple(norm))

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def cell_count(self) -> int:
        return sum(len(r) * len(c) for r, c in self.blocks)

    def sides(self) -> list[tuple[int, int]]:
        return [(len(r), len(c)) for r, c in self.blocks]

    def check_observed(self, mask) -> None:
        """Raise unless every block cell is observed in ``mask``."""
        arr = as_mask(mask)
        if arr.shape != (self.n_rows, self.n_cols):
            raise DimensionError(
                f"mask shape {arr.shape} does not match cover grid "
                f"({self.n_rows}, {self.n_cols})"
            )
        for rows, cols in self.blocks:
            if not arr[np.ix_(rows, cols)].all():
                raise MissingDataError(
                    f"cover block rows={rows} cols={cols} is not fully observed"
                )

    def to_dict(self) -> dict:
        # 1-based indices at the boundary, matching the file formats.
        return {
            "n_rows": self.n_rows,
            "n_cols": self.n_cols,
            "cell_count": self.cell_count,
            "blocks": [
                {"rows": [r + 1 for r in rows], "cols": [c + 1 for c in cols]}
                for rows, cols in self.blocks
            ],
        }


def resolve_solver(solver: str, shape, cap: int = EXACT_CAP) -> str:
    """The solver, "exact" or "greedy", that ``solver`` means for a mask shape.

    "auto" is exact when both sides fit under ``cap``.  The exact solver
    ignores the seed, so its cover depends on the mask alone.
    """
    if solver not in ("auto", "exact", "greedy"):
        raise ValueError(f"unknown solver {solver!r}")
    if solver == "auto":
        return "exact" if shape[0] <= cap and shape[1] <= cap else "greedy"
    return solver


def biclique_decompose(
    mask,
    solver: str = "auto",
    min_block: int = 2,
    cap: int = EXACT_CAP,
    restarts: int = 16,
    seed: int = 0,
) -> BicliqueCover:
    """Iteratively extract maximum bicliques into a disjoint cover.

    Each round finds the largest block whose sides are both >= ``min_block``
    and then zeroes every row and column the block touches, so later blocks
    cannot share either axis with it.  Stops when no eligible block remains.
    A block needs ``min_block`` rows, and ``min_block`` columns, with at
    least ``min_block`` observed cells each; when the mask left has fewer,
    the loop stops and skips a solver call that could only return None, so
    either solver's cover is unchanged.  The greedy rounds draw their
    restarts' noise from one Generator, ``generator(mask_seed(seed, 9))``,
    each round after the one before (see :func:`_greedy_blocks`).  This is
    :func:`biclique_covers` for one seed.  Raises :class:`DimensionError`
    when ``min_block`` or ``restarts`` is below 1, even when the exact solver
    makes ``restarts`` moot.
    """
    return biclique_covers(mask, (seed,), solver, min_block, cap, restarts)[0]


def biclique_covers(mask, seeds, solver: str = "auto", min_block: int = 2,
                    cap: int = EXACT_CAP, restarts: int = 16) -> tuple[BicliqueCover, ...]:
    """The :func:`biclique_decompose` cover of ``mask`` for each of ``seeds``.

    The seeds are decomposed in lockstep, round by round.  In each round the
    seeds whose masks left are equal form one group: the exact solver runs
    once for the group, and the greedy solver scores every restart of every
    seed of the group in one pass (:func:`_greedy_blocks`), each seed drawing
    from its own stream, so each cover is the one its seed gets alone, and
    the group searches each start set once.
    """
    check_exact_cap(cap)
    full = as_mask(mask).astype(bool)
    n_rows, n_cols = full.shape
    if not full.any():
        raise EmptyMaskError("mask has no observed cells")
    use_exact = resolve_solver(solver, full.shape, cap) == "exact"
    if min_block < 1:
        raise DimensionError("min_block must be at least 1")
    if restarts < 1:
        raise DimensionError(f"restarts must be at least 1, got {restarts}")

    streams = [None if use_exact else generator(mask_seed(s, 9)) for s in seeds]
    covers = [[] for _ in streams]
    # A mask left is ``full`` on its non-empty rows and columns, so these,
    # rows then columns, name it: ``left[i]`` names seed i's.
    left = [np.concatenate([full.any(axis=1), full.any(axis=0)])] * len(streams)
    live = range(len(streams))
    while live:
        groups = {}
        for i in live:
            groups.setdefault(left[i].tobytes(), []).append(i)
        live = []
        for group in groups.values():
            work = full & left[group[0]][:n_rows, None] & left[group[0]][n_rows:]
            # A block with both sides >= min_block needs min_block rows, and
            # min_block columns, holding at least min_block cells each.
            if ((work.sum(axis=1) >= min_block).sum() < min_block
                    or (work.sum(axis=0) >= min_block).sum() < min_block):
                continue
            if use_exact:
                found = [max_biclique_exact(work, cap=cap, min_side=min_block)] * len(group)
            else:
                found = _greedy_blocks(work, [streams[i] for i in group], restarts, min_block)
            after = {}
            for i, block in zip(group, found):
                if block is None:
                    continue
                if block not in after:
                    rest = work.copy()
                    rest[list(block[0]), :] = False
                    rest[:, list(block[1])] = False
                    after[block] = np.concatenate([rest.any(axis=1), rest.any(axis=0)])
                left[i] = after[block]
                covers[i].append(block)
                live.append(i)
    return tuple(BicliqueCover(tuple(blocks), n_rows, n_cols) for blocks in covers)


def blockwise_test(
    array: DyadArray,
    mask,
    cover: BicliqueCover,
    num_perms: int,
    seed: int = 0,
    tol: float | None = None,
) -> TestReport:
    """Randomization test on the stacked cells of a biclique cover.

    Rows and columns are permuted within each block by independent cyclic
    families sharing the member index; cells outside the cover stay fixed
    (they never enter the stacked data).  Blocks with a side shorter than
    K+1 keep those indices fixed, which is valid but contributes little; the
    report notes how many blocks do.
    An empty cover raises :class:`~clusterperm.exceptions.NoEligibleCellsError`.
    """
    mask = as_mask(mask)
    if mask.shape != (array.n_rows, array.n_cols):
        raise DimensionError(
            f"mask shape {mask.shape} does not match array grid "
            f"({array.n_rows}, {array.n_cols})"
        )
    cover.check_observed(mask)
    cover.check_observed(array.observed.astype(np.int8))

    grid = np.arange(array.n_rows * array.n_cols).reshape(array.n_rows, array.n_cols)
    blocks = [(q, (AXIS_ROWS, AXIS_COLS), grid[np.ix_(rows, cols)])
              for q, (rows, cols) in enumerate(cover.blocks)]
    cells = grid.size
    return block_test(array.x.reshape(cells, array.p), array.d.reshape(cells, array.d_dim),
                      array.y.reshape(cells), blocks, num_perms, seed, tol)
