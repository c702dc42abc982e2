"""Benchmark inputs, generated with numpy alone from the workload seed.

Nothing here imports ``clusterperm``: a change to the program cannot change
the data it is measured on.  Every generator is a pure function of its seed
and size arguments, so the same seed always yields byte-identical files.
"""

from __future__ import annotations

import numpy as np

# Variance shares of the additive two-way law value_ij = s1 a_i + s2 b_j + e_ij,
# with s_k^2 = phi_k / (1 - phi1 - phi2) so the total variance is 1 / (1 - phi1 - phi2).
TREATMENT_SHARES = (0.4, 0.4)
ERROR_SHARES = (0.05, 0.15)
GAMMA = (0.5, 1.0, 1.0)  # intercept, z_i, z_j; the treatment effect is zero (the null holds)

_STREAM_DATA = 1
_STREAM_OPS = 2


def _scales(shares):
    phi1, phi2 = shares
    rest = 1.0 - phi1 - phi2
    return np.sqrt(phi1 / rest), np.sqrt(phi2 / rest)


def _two_way(rng, rows, cols, n_rows, n_cols, shares):
    """One draw of the additive two-way law at index pairs (rows, cols)."""
    s1, s2 = _scales(shares)
    a = rng.standard_normal(n_rows)
    b = rng.standard_normal(n_cols)
    return s1 * a[rows] + s2 * b[cols] + rng.standard_normal(rows.shape[0])


def grid_table(seed: int, n: int) -> np.ndarray:
    """Complete n x n dyadic grid as rows (i, j, y, d, x, x1, x2), 1-based indices.

    Covariates are an intercept and z_i, z_j ~ U[0, 2]; the scalar treatment
    and the errors each follow the two-way random-effects law.
    """
    rng = np.random.default_rng([seed, _STREAM_DATA, n])
    rows = np.repeat(np.arange(n), n)
    cols = np.tile(np.arange(n), n)
    z = rng.uniform(0.0, 2.0, n)
    d = _two_way(rng, rows, cols, n, n, TREATMENT_SHARES)
    eps = _two_way(rng, rows, cols, n, n, ERROR_SHARES)
    x = np.column_stack([np.ones(n * n), z[rows], z[cols]])
    y = x @ np.asarray(GAMMA) + eps
    return np.column_stack([rows + 1, cols + 1, y, d, x])


def record_table(seed: int, n: int, part: int = 0, mean_size: float = 3.0,
                 max_size: int = 7) -> np.ndarray:
    """Records (i, j, l, y, d, x, x1, x2) on an n x n grid, 1-based indices.

    Cell sizes are Poisson(mean_size) clipped at max_size, so some cells are
    empty and the threshold step has cells to drop.  ``part`` selects one of
    several independent data sets of the same seed.
    """
    rng = np.random.default_rng([seed, _STREAM_DATA, n, max_size, part])
    sizes = np.minimum(rng.poisson(mean_size, size=n * n), max_size)
    cell = np.repeat(np.arange(n * n), sizes)
    rows, cols = cell // n, cell % n
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    slot = np.arange(cell.shape[0]) - starts
    z_row = rng.uniform(0.0, 2.0, n)
    z_col = rng.uniform(0.0, 2.0, n)
    d = _two_way(rng, rows, cols, n, n, TREATMENT_SHARES)
    eps = _two_way(rng, rows, cols, n, n, ERROR_SHARES)
    x = np.column_stack([np.ones(cell.shape[0]), z_row[rows], z_col[cols]])
    y = x @ np.asarray(GAMMA) + eps
    return np.column_stack([rows + 1, cols + 1, slot + 1, y, d, x])


def cell_sizes(records: np.ndarray, n: int) -> np.ndarray:
    """Record count per cell of a :func:`record_table` output."""
    sizes = np.zeros((n, n), dtype=np.intp)
    np.add.at(sizes, (records[:, 0].astype(np.intp) - 1, records[:, 1].astype(np.intp) - 1), 1)
    return sizes


def cell_threshold(sizes: np.ndarray) -> int:
    """The L0 that keeps the most records, L0 * #{cells with >= L0}; ties go low."""
    sizes = np.asarray(sizes).ravel()
    candidates = np.unique(sizes[sizes > 0])
    kept = [int(l0) * int((sizes >= l0).sum()) for l0 in candidates]
    return int(candidates[int(np.argmax(kept))])


def write_csv(path, header: list[str], table: np.ndarray, int_cols: int) -> None:
    """Write ``table`` with its first ``int_cols`` columns as integers."""
    fmt = ["%d"] * int_cols + ["%.12g"] * (table.shape[1] - int_cols)
    np.savetxt(path, table, fmt=fmt, delimiter=",", header=",".join(header), comments="")


def op_seeds(seed: int, count: int) -> list[int]:
    """The CLI ``--seed`` of each op, so no two ops of a run repeat an argv."""
    rng = np.random.default_rng([seed, _STREAM_OPS])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]
