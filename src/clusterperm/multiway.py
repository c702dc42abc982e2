"""Tests for designs beyond a single outcome per dyad.

Four layouts share the dyadic engine, differing only in which indices the
permutations may move:

* three-way: a full m x n x l box, permuting all three axes;
* panel: a full m x n x T box, permuting (i, j) identically in every period;
* layout: irregular per-cell observation counts, permuting only within cells;
* irregular: per-cell counts thresholded at L0, decomposed into fully
  eligible blocks, subsampled to exactly L0 slots, then treated like a
  blockwise panel; the whole pipeline repeats with derived seeds and the
  median p-value is reported.

Every layout is one call to :func:`~clusterperm.dyadic.block_test` with its
blocks of record positions: one per box, cell or cover block, with a cyclic
family per moving axis and ``None`` for an axis that stays fixed (panel
periods, irregular slots).  Its note on what stays fixed counts the blocks
with a moving side of at most K indices; a ``None`` axis never counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dyadic import TestReport, block_test, median_pvalue
from .exceptions import (
    DimensionError,
    NoEligibleCellsError,
    UnbalancedError,
)
from .missing import BicliqueCover, biclique_covers
from .permgroup import default_num_perms
from .rng import AXIS_CELLS, AXIS_COLS, AXIS_ROWS, generator, run_seed, trim_seed


@dataclass(frozen=True)
class MultiIndexDataset:
    """Observation records indexed by (i, j, l), all 0-based.

    ``l`` distinguishes repeated observations of the same cell: the third
    axis of a box design, the period of a panel, or just a slot number.
    """

    i: np.ndarray
    j: np.ndarray
    l: np.ndarray
    y: np.ndarray
    d: np.ndarray
    x: np.ndarray

    def __post_init__(self):
        i = np.asarray(self.i, dtype=np.intp)
        j = np.asarray(self.j, dtype=np.intp)
        l = np.asarray(self.l, dtype=np.intp)
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.d, dtype=float)
        x = np.asarray(self.x, dtype=float)
        if d.ndim == 1:
            d = d[:, None]
        if x.ndim == 1:
            x = x[:, None]
        if y.ndim not in (1, 2) or d.ndim != 2 or x.ndim != 2:
            raise DimensionError(f"y must be 1-D or 2-D and d and x at most 2-D, got shapes "
                                 f"{y.shape}, {d.shape} and {x.shape}")
        if y.size < 1:
            raise DimensionError("dataset has no records, or no outcome")
        n_obs = y.shape[0]
        for name, arr in (("i", i), ("j", j), ("l", l)):
            if arr.shape != (n_obs,):
                raise DimensionError(f"column {name} must have shape ({n_obs},)")
            if arr.min() < 0:
                raise DimensionError(f"column {name} has negative indices")
        if d.shape[0] != n_obs or x.shape[0] != n_obs:
            raise DimensionError("d and x must have one row per record")
        for name, arr in (("i", i), ("j", j), ("l", l), ("y", y), ("d", d), ("x", x)):
            object.__setattr__(self, name, arr)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]

    @property
    def n_rows(self) -> int:
        return int(self.i.max()) + 1

    @property
    def n_cols(self) -> int:
        return int(self.j.max()) + 1

    @property
    def n_slots(self) -> int:
        return int(self.l.max()) + 1

    @property
    def d_dim(self) -> int:
        return self.d.shape[1]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def cell_sizes(self) -> np.ndarray:
        """Observation count per (i, j) cell."""
        sizes = np.zeros((self.n_rows, self.n_cols), dtype=np.intp)
        np.add.at(sizes, (self.i, self.j), 1)
        return sizes

    @classmethod
    def from_box(cls, y: np.ndarray, d: np.ndarray, x: np.ndarray) -> "MultiIndexDataset":
        """Build records from dense (m, n, l) grids."""
        y = np.asarray(y, dtype=float)
        if y.ndim != 3:
            raise DimensionError(f"box outcome must be 3-D, got shape {y.shape}")
        m, n, ell = y.shape
        d = np.asarray(d, dtype=float)
        if d.ndim == 3:
            d = d[..., None]
        x = np.asarray(x, dtype=float)
        if x.ndim == 3:
            x = x[..., None]
        if d.shape[:3] != (m, n, ell) or x.shape[:3] != (m, n, ell):
            raise DimensionError("box grids disagree on shape")
        ii, jj, ll = np.meshgrid(np.arange(m), np.arange(n), np.arange(ell), indexing="ij")
        return cls(
            i=ii.reshape(-1),
            j=jj.reshape(-1),
            l=ll.reshape(-1),
            y=y.reshape(-1),
            d=d.reshape(-1, d.shape[3]),
            x=x.reshape(-1, x.shape[3]),
        )


def _box_test(data: MultiIndexDataset, third_axis, num_perms, seed, tol) -> TestReport:
    """Test on records filling the (i, j, l) box once; l moves as ``third_axis``."""
    m, n, ell = data.n_rows, data.n_cols, data.n_slots
    total = m * n * ell
    if data.n_obs != total:
        raise UnbalancedError(
            f"balanced design needs {m}x{n}x{ell} = {total} records, got {data.n_obs}"
        )
    key = (data.i * n + data.j) * ell + data.l
    order = np.argsort(key)
    if not np.array_equal(key[order], np.arange(total)):
        raise UnbalancedError("records must fill the (i, j, l) box exactly once")
    if num_perms is None:
        num_perms = default_num_perms(m, n)
        if third_axis is not None:
            num_perms = min(num_perms, default_num_perms(ell))
    blocks = [(0, (AXIS_ROWS, AXIS_COLS, third_axis), order.reshape(m, n, ell))]
    return block_test(data.x, data.d, data.y, blocks, num_perms, seed, tol)


def threeway_test(
    data: MultiIndexDataset,
    num_perms: int | None = None,
    seed: int = 0,
    tol: float | None = None,
) -> TestReport:
    """Randomization test on a full three-index box, permuting every axis.

    Valid when the error law is exchangeable separately in i, j, and l
    conditional on the design.
    """
    return _box_test(data, AXIS_CELLS, num_perms, seed, tol)


def panel_test(
    data: MultiIndexDataset,
    num_perms: int | None = None,
    seed: int = 0,
    tol: float | None = None,
) -> TestReport:
    """Randomization test on a dyadic panel: (i, j) permute, periods do not.

    Because every period moves together, arbitrary deterministic period
    effects (trends, seasonality) cancel without being modeled.
    """
    return _box_test(data, None, num_perms, seed, tol)


def _cells_in_order(data: MultiIndexDataset) -> tuple[np.ndarray, np.ndarray]:
    """Record positions grouped by cell, CSR-style: ``order`` lists the records
    by cell (i, j), row-major, then by l, then in record order (the sort is
    stable), and cell c = i * n_cols + j holds ``order[bounds[c]:bounds[c + 1]]``."""
    order = np.lexsort((data.l, data.j, data.i))
    cell = (data.i * data.n_cols + data.j)[order]
    return order, np.searchsorted(cell, np.arange(data.n_rows * data.n_cols + 1))


def layout_test(
    data: MultiIndexDataset,
    num_perms: int,
    seed: int = 0,
    tol: float | None = None,
) -> TestReport:
    """Randomization test permuting observations only within their cells.

    Valid whenever observations of the same cell are exchangeable, even in
    the presence of arbitrary fixed cell effects.  Every cell of the grid
    must hold at least one record; cells shorter than K+1 keep their
    records fixed, and the report notes how many do.
    """
    sizes = data.cell_sizes()
    if (sizes == 0).any():
        empty = int((sizes == 0).sum())
        raise UnbalancedError(
            f"{empty} cells have no records; use the irregular or missing-data paths"
        )
    order, bounds = _cells_in_order(data)
    blocks = [(c, (AXIS_CELLS,), order[bounds[c]:bounds[c + 1]]) for c in range(sizes.size)]
    return block_test(data.x, data.d, data.y, blocks, num_perms, seed, tol)


@dataclass(frozen=True)
class IrregularResult:
    """Median-of-repeats outcome of the irregular-design pipeline."""

    pval: float
    runs: tuple[TestReport, ...]
    l0: int
    num_perms: int
    repeats: int
    seed: int
    eligible_cells: int

    def to_dict(self) -> dict:
        return {
            "pval": self.pval,
            "l0": self.l0,
            "num_perms": self.num_perms,
            "repeats": self.repeats,
            "seed": self.seed,
            "eligible_cells": self.eligible_cells,
            "run_pvals": [r.pval for r in self.runs],
            "notes": list(self.notes),
        }

    @property
    def notes(self) -> tuple[str, ...]:
        """The runs' distinct notes, first seen first, with how many runs wrote each."""
        counts = Counter(note for run in self.runs for note in run.notes)
        return tuple(f"{note} ({r} of {len(self.runs)} repeats)" for note, r in counts.items())


def suggest_cell_threshold(cell_sizes, candidates=None) -> int:
    """Pick L0 maximizing retained observations sum(1{l_ij >= L0} * L0).

    Ties go to the smaller threshold (more cells retained).
    """
    sizes = np.asarray(cell_sizes, dtype=np.intp).ravel()
    positive = np.unique(sizes[sizes > 0])
    if positive.size == 0:
        raise NoEligibleCellsError("no cell has any observations")
    if candidates is None:
        candidates = [int(v) for v in positive]
    best_l0, best_kept = None, -1
    for l0 in sorted(int(c) for c in candidates):
        if l0 < 1:
            continue
        kept = int((sizes >= l0).sum()) * l0
        if kept > best_kept:
            best_l0, best_kept = l0, kept
    if best_l0 is None:
        raise NoEligibleCellsError("no positive threshold candidate")
    return best_l0


def irregular_test(
    data: MultiIndexDataset,
    l0: int,
    num_perms: int,
    repeats: int = 100,
    seed: int = 0,
    solver: str = "auto",
    min_block: int = 2,
    cap: int = 16,
    restarts: int = 16,
    tol: float | None = None,
) -> IrregularResult | tuple[IrregularResult, ...]:
    """Repeated blockwise test for cells with at least L0 observations.

    Pipeline per repeat: threshold the cell-size grid at L0, decompose the
    resulting mask into disjoint fully eligible blocks, subsample every
    retained cell to exactly L0 records (:func:`_trim_cover`; slots keep
    original record order), and permute block rows and columns with the L0
    slots riding along.
    The repeats' covers come from one lockstep call
    (:func:`~clusterperm.missing.biclique_covers`), each the one its repeat
    seed gets alone: the exact solver runs once per round for every repeat,
    and the greedy solver scores each distinct mask left once per round for
    every repeat that reached it.  Reports the lower median
    of the repeats' p-values, whose worst-case size is 2 alpha (see
    :func:`~clusterperm.dyadic.median_pvalue`).  A stack of outcomes, ``data.y``
    of shape (records, m), shares every cover, trim and build: one result each.
    """
    if l0 < 1:
        raise DimensionError(f"l0 must be positive, got {l0}")
    if repeats < 1:
        raise DimensionError(f"repeats must be positive, got {repeats}")
    sizes = data.cell_sizes()
    mask = (sizes >= l0).astype(np.int8)
    eligible = int(mask.sum())
    if eligible == 0:
        raise NoEligibleCellsError(f"no cell holds at least l0={l0} observations")

    seeds = [run_seed(seed, r) for r in range(repeats)]
    covers = biclique_covers(mask, seeds, solver=solver, min_block=min_block, cap=cap,
                             restarts=restarts)
    cells = _cells_in_order(data)
    runs = []
    for rs, cover in zip(seeds, covers):
        trimmed = _trim_cover(cells, data.n_cols, cover, l0, generator(trim_seed(rs)))
        blocks = [(q, (AXIS_ROWS, AXIS_COLS, None), records) for q, records in enumerate(trimmed)]
        report = block_test(data.x, data.d, data.y, blocks, num_perms, rs, tol)
        runs.append(report if data.y.ndim == 2 else (report,))
    results = tuple(
        IrregularResult(pval=median_pvalue([report.pval for report in column]), runs=column,
                        l0=l0, num_perms=num_perms, repeats=repeats, seed=seed,
                        eligible_cells=eligible)
        for column in zip(*runs))
    return results if data.y.ndim == 2 else results[0]


def _trim_cover(cells: tuple[np.ndarray, np.ndarray], n_cols: int, cover: BicliqueCover,
                l0: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Keep l0 records, drawn at random, of every cell of the cover.

    ``cells`` is :func:`_cells_in_order`'s layout.  One uniform key is drawn
    per record of the cover's cells, block by block and, within a block,
    cell by cell in row-major order; each cell keeps the records holding its
    l0 smallest keys, in slot order, so every l0-subset of a cell is equally
    likely.  The records go through one lexsort by cell and key, in memory
    linear in the records of the cover.  Returns each block's record
    positions, shaped (rows, cols, l0).
    """
    if not cover.blocks:
        return []
    order, bounds = cells
    ids = np.concatenate([(np.array(rows)[:, None] * n_cols + cols).ravel()
                          for rows, cols in cover.blocks])
    lo = bounds[ids]
    sizes = bounds[ids + 1] - lo
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(ids.size), sizes)
    records = order[np.arange(owner.size) + np.repeat(lo - starts, sizes)]
    # ``ranked`` lists each cell's records by key, cells in order, so its
    # entry e is the (e - starts[owner[e]])-th smallest key of cell owner[e].
    ranked = np.lexsort((rng.random(owner.size), owner))
    kept = ranked[np.arange(owner.size) < starts[owner] + l0].reshape(ids.size, l0)
    kept = records[np.sort(kept, axis=1)]
    splits = np.cumsum([len(rows) * len(cols) for rows, cols in cover.blocks])[:-1]
    return [block.reshape(len(rows), len(cols), l0)
            for block, (rows, cols) in zip(np.split(kept, splits), cover.blocks)]

