"""Core data model for dyadic regression arrays.

A dyadic dataset is a rectangular grid of cells (i, j) holding an outcome,
one or more treatment values, and optional covariates.  Estimation works on
the stacked representation: cells are laid out row-major, so cell (i, j) in
1-based grid coordinates occupies stacked row (i - 1) * n_cols + j.  All
in-memory arrays are 0-based; the 1-based convention appears only at the
boundaries (file formats and :func:`row_index`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, MissingDataError


def row_index(i: int, j: int, n_cols: int) -> int:
    """Stacked row of cell (i, j), all 1-based.

    This is the boundary convention used in files and printed reports:
    ``row_index(1, 1, n) == 1`` and ``row_index(i, j, n) == (i - 1) * n + j``.
    """
    if not (1 <= j <= n_cols) or i < 1:
        raise DimensionError(f"cell ({i}, {j}) outside a grid with {n_cols} columns")
    return (i - 1) * n_cols + j


@dataclass(frozen=True)
class DyadArray:
    """Grid-shaped dyadic data.

    Parameters
    ----------
    y : ndarray, shape (n_rows, n_cols)
        Outcome per cell.
    d : ndarray, shape (n_rows, n_cols, d_dim)
        Treatment values per cell.
    x : ndarray, shape (n_rows, n_cols, p)
        Covariates per cell; p may be 0.
    observed : ndarray of bool, shape (n_rows, n_cols)
        Observation indicator; defaults to all observed.
    """

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    observed: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.ndim != 2:
            raise DimensionError(f"y must be 2-D, got shape {np.shape(self.y)}")
        d = np.asarray(self.d, dtype=float)
        if d.ndim == 2:
            d = d[:, :, None]
        x = np.asarray(self.x, dtype=float)
        if x.ndim == 2:
            x = x[:, :, None]
        if d.ndim != 3 or x.ndim != 3:
            raise DimensionError(f"d and x must be 2-D or 3-D, got shapes {np.shape(self.d)} "
                                 f"and {np.shape(self.x)}")
        if d.shape[:2] != y.shape or x.shape[:2] != y.shape:
            raise DimensionError(
                f"grid shapes disagree: y {y.shape}, d {d.shape[:2]}, x {x.shape[:2]}"
            )
        observed = self.observed
        if observed is None:
            observed = np.ones(y.shape, dtype=bool)
        else:
            observed = np.asarray(observed).astype(bool)
            if observed.shape != y.shape:
                raise DimensionError(
                    f"observed shape {observed.shape} does not match grid {y.shape}"
                )
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "observed", observed)

    @property
    def n_rows(self) -> int:
        return self.y.shape[0]

    @property
    def n_cols(self) -> int:
        return self.y.shape[1]

    @property
    def d_dim(self) -> int:
        return self.d.shape[2]

    @property
    def p(self) -> int:
        return self.x.shape[2]

    @property
    def n_cells(self) -> int:
        return self.n_rows * self.n_cols

    def is_complete(self) -> bool:
        return bool(self.observed.all())


@dataclass(frozen=True)
class StackedDesign:
    """Stacked regression pieces of a fully observed dyadic array."""

    y: np.ndarray
    d: np.ndarray
    x: np.ndarray
    n_rows: int
    n_cols: int

    @classmethod
    def from_array(cls, array: DyadArray) -> "StackedDesign":
        """Row-major views of a fully observed array (else :class:`MissingDataError`):
        cell (i, j) is stacked row i * n_cols + j."""
        if not array.is_complete():
            n_miss = int((~array.observed).sum())
            raise MissingDataError(
                f"stack requires a fully observed array; {n_miss} cells missing"
            )
        n = array.n_cells
        return cls(
            y=array.y.reshape(n),
            d=array.d.reshape(n, array.d_dim),
            x=array.x.reshape(n, array.p),
            n_rows=array.n_rows,
            n_cols=array.n_cols,
        )

    @property
    def n(self) -> int:
        return self.n_rows * self.n_cols


def member_fault(row: np.ndarray, n: int) -> str | None:
    """Why one row map is not a bijection of [n], or None if it is one."""
    if row.ndim != 1:
        return f"must be 1-D, got shape {row.shape}"
    if row.size and (row.min() < 0 or row.max() >= n):
        return "maps outside the row range"
    if not (np.bincount(row, minlength=n) == 1).all():
        return "is not a bijection"
    return None


@dataclass(frozen=True)
class TwoWayPermutation:
    """A pair (pi, sigma) of bijections acting on rows and columns.

    Both are stored as 0-based index arrays: ``pi[i]`` is the image of row i.
    """

    pi: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("pi", "sigma"):
            arr = np.asarray(getattr(self, name), dtype=np.intp)
            fault = member_fault(arr, arr.size)
            if fault:
                raise DimensionError(f"{name} {fault}")
            object.__setattr__(self, name, arr)

    @property
    def n_rows(self) -> int:
        return self.pi.shape[0]

    @property
    def n_cols(self) -> int:
        return self.sigma.shape[0]

    def is_identity(self) -> bool:
        return bool(
            np.array_equal(self.pi, np.arange(self.n_rows))
            and np.array_equal(self.sigma, np.arange(self.n_cols))
        )

    def stacked(self) -> np.ndarray:
        """Row-level source map: stacked row of (i, j) reads from (pi(i), sigma(j))."""
        return (self.pi[:, None] * self.n_cols + self.sigma[None, :]).reshape(-1)


def compose(g: TwoWayPermutation, h: TwoWayPermutation) -> TwoWayPermutation:
    """Componentwise composition g after h: (g.pi o h.pi, g.sigma o h.sigma)."""
    if g.n_rows != h.n_rows or g.n_cols != h.n_cols:
        raise DimensionError(
            f"cannot compose permutations on ({g.n_rows}, {g.n_cols}) "
            f"and ({h.n_rows}, {h.n_cols})"
        )
    return TwoWayPermutation(g.pi[h.pi], g.sigma[h.sigma])


@dataclass(frozen=True)
class PermutationFamily:
    """An indexed family of two-way permutations; member 0 is the identity."""

    members: tuple[TwoWayPermutation, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise DimensionError("a permutation family needs at least the identity")
        shapes = {(m.n_rows, m.n_cols) for m in members}
        if len(shapes) != 1:
            raise DimensionError("family members act on different grids")
        if not members[0].is_identity():
            raise DimensionError("family member 0 must be the identity")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, k: int) -> TwoWayPermutation:
        return self.members[k]

    @property
    def num_perms(self) -> int:
        """K, the number of non-identity members."""
        return len(self.members) - 1

    @property
    def n_rows(self) -> int:
        return self.members[0].n_rows

    @property
    def n_cols(self) -> int:
        return self.members[0].n_cols

    def stacked(self) -> np.ndarray:
        """All members as an (K+1, N) array of stacked source maps.

        Each member is written into one preallocated array, so the (K+1)*N
        map is never held twice.
        """
        out = np.empty((len(self.members), self.n_rows * self.n_cols), dtype=np.intp)
        for k, member in enumerate(self.members):
            out[k] = member.stacked()
        return out
