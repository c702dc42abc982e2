"""Golden outputs: SHA-256 of the CLI's JSON report for fixed inputs.

Each case writes its data with numpy alone from a fixed seed, runs the CLI
with a fixed ``--seed`` and hashes the report file.  A change that alters any
statistic, p-value, interval endpoint or note changes a hash, so a
performance change that keeps these hashes left these reports unchanged.

The data file is passed by a relative name from inside the test's temporary
directory, because the report echoes ``--data`` in its ``config`` block.

The hashes pin the JSON byte for byte, floating-point digits included.  They
were recorded with numpy 2.4.6 on OpenBLAS 0.3.31 (x86-64), and were the same
with one and with two BLAS threads; another BLAS build may round the last bit
of a statistic differently.
"""

import hashlib

import numpy as np
import pytest

from clusterperm.cli import main


def _grid_csv(path, n, seed):
    """Complete n x n grid: i, j, y, d, x1, x2 with 1-based indices."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), n)
    cols = np.tile(np.arange(n), n)
    row_eff = rng.standard_normal(n)
    col_eff = rng.standard_normal(n)
    x1 = rng.uniform(0.0, 2.0, n)[rows]
    x2 = rng.uniform(0.0, 2.0, n)[cols]
    d = row_eff[rows] + col_eff[cols] + rng.standard_normal(n * n)
    y = 0.5 + x1 - x2 + 0.3 * d + row_eff[cols] + rng.standard_normal(n * n)
    table = np.column_stack([rows + 1, cols + 1, y, d, x1, x2])
    np.savetxt(path, table, fmt=["%d", "%d"] + ["%.12g"] * 4, delimiter=",",
               header="i,j,y,d,x1,x2", comments="")


def _records_csv(path, n, seed):
    """Records i, j, l, y, d, x1 on an n x n grid with Poisson cell sizes."""
    rng = np.random.default_rng(seed)
    sizes = np.minimum(rng.poisson(3.0, size=n * n), 6)
    cell = np.repeat(np.arange(n * n), sizes)
    rows, cols = cell // n, cell % n
    slot = np.arange(cell.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    row_eff = rng.standard_normal(n)
    col_eff = rng.standard_normal(n)
    x1 = rng.uniform(0.0, 2.0, n)[rows]
    d = row_eff[rows] + col_eff[cols] + rng.standard_normal(cell.shape[0])
    y = 1.0 + x1 + row_eff[cols] + rng.standard_normal(cell.shape[0])
    table = np.column_stack([rows + 1, cols + 1, slot + 1, y, d, x1])
    np.savetxt(path, table, fmt=["%d", "%d", "%d"] + ["%.12g"] * 3,
               delimiter=",", header="i,j,l,y,d,x1", comments="")


def _box_csv(path, n, ell, seed):
    """Full n x n x ell box: i, j, l, y, d, x1 with 1-based indices."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), n * ell)
    cols = np.tile(np.repeat(np.arange(n), ell), n)
    slot = np.tile(np.arange(ell), n * n)
    row_eff = rng.standard_normal(n)
    col_eff = rng.standard_normal(n)
    slot_eff = rng.standard_normal(ell)
    x1 = rng.uniform(0.0, 2.0, n)[rows]
    d = row_eff[rows] + col_eff[cols] + rng.standard_normal(rows.shape[0])
    y = 0.5 + x1 + slot_eff[slot] + row_eff[cols] + rng.standard_normal(rows.shape[0])
    table = np.column_stack([rows + 1, cols + 1, slot + 1, y, d, x1])
    np.savetxt(path, table, fmt=["%d", "%d", "%d"] + ["%.12g"] * 3,
               delimiter=",", header="i,j,l,y,d,x1", comments="")


def _holey_grid_csv(path, n, seed, drop=0.2):
    """An n x n grid CSV with about ``drop`` of its cells left out."""
    _grid_csv(path, n, seed)
    lines = path.read_text().splitlines()
    keep = np.random.default_rng(seed + 1).random(n * n) >= drop
    body = [line for line, kept in zip(lines[1:], keep) if kept]
    path.write_text("\n".join([lines[0], *body]) + "\n")


def _messy(path, seed, pad):
    """Rewrite a CSV in a looser dialect: CRLF line endings, blank,
    whitespace-only and comma-only rows between records, and (if ``pad``)
    spaces or tabs around some cells."""
    rng = np.random.default_rng(seed)
    lines = path.read_text().splitlines()
    fillers = ["", "   ", "\t", ",,", " , "]
    out = [lines[0]]
    for line in lines[1:]:
        if rng.random() < 0.05:
            out.append(fillers[rng.integers(len(fillers))])
        if pad:
            cells = line.split(",")
            for c in np.flatnonzero(rng.random(len(cells)) < 0.3):
                cells[c] = [" ", "\t", "  "][rng.integers(3)] + cells[c] + " " * rng.integers(3)
            line = ",".join(cells)
        out.append(line)
    out.append("")
    path.write_bytes("\r\n".join(out).encode() + b"\r\n")


CASES = {
    "test": (
        ["test", "--data", "grid.csv", "--num-perms", "19", "--seed", "3"],
        "67365f98cde79dd3000876c430b94426b0374b411e28a8c990492f390ccaa135",
    ),
    "test-beta0": (
        ["test", "--data", "grid.csv", "--num-perms", "19", "--seed", "4",
         "--beta0", "0.3"],
        "617129d5089844f582a93de24947674d52db245cae3df35a2ebfc18f50e3b97f",
    ),
    "ci": (
        ["ci", "--data", "grid.csv", "--num-perms", "19", "--seed", "5",
         "--grid-points", "61"],
        "99a3d2e558f2d9e585127c03ab19a2b29ed20bd820200c712e2c65771faa79ae",
    ),
    "test-irregular": (
        ["test-irregular", "--data", "records.csv", "--num-perms", "5",
         "--repeats", "3", "--seed", "6"],
        "8552f08ec80265c9c72acf6dcecbf90e3232d5fb6467d43bcd6d59afb5170b13",
    ),
    "test-irregular-greedy": (
        ["test-irregular", "--data", "records.csv", "--num-perms", "5",
         "--repeats", "3", "--seed", "6", "--biclique-solver", "greedy",
         "--restarts", "4"],
        "f5eba6effd0bfd521196d8e7d2e8abae70f599ffc1dfe93d1a9592fee319f77e",
    ),
    "test-irregular-exact": (
        ["test-irregular", "--data", "small.csv", "--num-perms", "3",
         "--repeats", "4", "--seed", "9", "--biclique-solver", "exact"],
        "16862f62c2c9a743ecfa2480140132b1c36dd26e31bcdc2c9f6c80cd50fca5ea",
    ),
    "biclique-records": (
        ["biclique", "--data", "records.csv", "--seed", "8"],
        "6432d3a5d4a3a82ae89b03d3519ccb18c282e807f316c89545741e836b233622",
    ),
    "test-threeway": (
        ["test-threeway", "--data", "box.csv", "--num-perms", "3", "--seed", "11"],
        "617e4bb5975022c406218af0cdfb735d23367770e6892b474439d0034db1c398",
    ),
    "test-panel": (
        ["test-panel", "--data", "box.csv", "--num-perms", "3", "--seed", "12"],
        "06d58aa91aa8d81547d7faacf819ef58cd3dfac8d4ae2a55c65f30f66c37454a",
    ),
    "test-layout": (
        ["test-layout", "--data", "box.csv", "--num-perms", "3", "--seed", "13"],
        "09ac5b63ea245cde057a68e811f4ebbb2dd90b663217a1bd43ce2f6817697e8f",
    ),
    "test-missing": (
        ["test-missing", "--data", "holey.csv", "--num-perms", "4", "--seed", "14"],
        "6a8e6bb06addaba684c90e952762d13822f1b7d21dc7309f8bb92738d5674f9b",
    ),
    "test-messy-csv": (
        ["test-missing", "--data", "messy.csv", "--num-perms", "4", "--seed", "15"],
        "60d9b4d862f143ea621ca402a880f7d9e3249774c480aa4400dc7fd01618f04e",
    ),
    "test-irregular-messy": (
        ["test-irregular", "--data", "messy-records.csv", "--num-perms", "5",
         "--repeats", "2", "--seed", "16"],
        "48da5396bde4ef193e847970de1eff1dbbfe5c2eadc61c038997136196e430de",
    ),
    "simulate-table1": (
        ["simulate", "--panel", "table1", "--n", "10", "--reps", "4",
         "--num-perms", "9", "--seed", "7"],
        "1eab395d063f57414b0c8c54141ca3232dd61761b0c09a7789d395fa8cffd913",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_hash(case, tmp_path, monkeypatch, capsys):
    argv, expected = CASES[case]
    monkeypatch.chdir(tmp_path)
    _grid_csv(tmp_path / "grid.csv", n=20, seed=101)
    _records_csv(tmp_path / "records.csv", n=20, seed=202)
    _records_csv(tmp_path / "small.csv", n=12, seed=303)
    _box_csv(tmp_path / "box.csv", n=8, ell=4, seed=404)
    _holey_grid_csv(tmp_path / "holey.csv", n=12, seed=505)
    _holey_grid_csv(tmp_path / "messy.csv", n=12, seed=606)
    _messy(tmp_path / "messy.csv", seed=607, pad=True)
    _records_csv(tmp_path / "messy-records.csv", n=12, seed=707)
    _messy(tmp_path / "messy-records.csv", seed=708, pad=False)
    assert main(argv + ["--out", "report.json"]) == 0, capsys.readouterr().out
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == expected, f"{case}: report changed (sha256 {digest})"
