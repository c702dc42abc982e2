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
of a statistic differently.  Every factorization on these paths is a
``numpy.linalg`` call, so the hashes depend on numpy's bundled LAPACK alone,
not also on scipy's.

``golden_reports.json`` holds the ``results`` block of each report as a
companion golden.  p-values, covers, notes, interval bounds and every other
field must match it exactly; the statistics ``a``, ``b`` and ``min_a`` must
match to a relative 1e-9.  A change that moves only the last bits of the
statistics re-records the hashes, never this file; a flipped p-value fails
here.  ``python tests/test_golden.py --record [CASE ...]`` rewrites the named
cases' entries (every case when none is named) and keeps the others as they are.
"""

import hashlib
import json
import math
import os
import pathlib
import sys
import tempfile

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
        "5e393e47243e3baa1616a14a172154587b80d5de1beb8a902522aea12f6f837e",
    ),
    "test-beta0": (
        ["test", "--data", "grid.csv", "--num-perms", "19", "--seed", "4",
         "--beta0", "0.3"],
        "97cd2e270884f0bac429d953b82289141ff368eaac4d10bce02d6e88da95ffe3",
    ),
    "ci": (
        ["ci", "--data", "grid.csv", "--num-perms", "19", "--seed", "5",
         "--grid-points", "61"],
        "0b6efb10870a8d57f376a8313b400a807a07a7386000d091c3f410f69ffb5cf4",
    ),
    "test-irregular": (
        ["test-irregular", "--data", "records.csv", "--num-perms", "5",
         "--repeats", "3", "--seed", "6"],
        "8c8ad79cd37e34017c44a6cc8a249a825285ef3b2ed37b9759386d79b04d98b9",
    ),
    "test-irregular-greedy": (
        ["test-irregular", "--data", "records.csv", "--num-perms", "5",
         "--repeats", "3", "--seed", "6", "--biclique-solver", "greedy",
         "--restarts", "4"],
        "28137dd39461102fff7465e9737b412f2162f20f023a5cf854a26f9ccf9c8dea",
    ),
    "test-irregular-exact": (
        ["test-irregular", "--data", "small.csv", "--num-perms", "3",
         "--repeats", "4", "--seed", "9", "--biclique-solver", "exact"],
        "ebc174c0ef2a1d4252e7a11c5ec9591b6fc594fb13fac8cfbace1344a44f0142",
    ),
    "biclique-records": (
        ["biclique", "--data", "records.csv", "--seed", "8"],
        "31d5aaae18eafb624ba668d3ccdd0b6e7819b9a6b2daec7c2475ce4dd5f3048a",
    ),
    "test-threeway": (
        ["test-threeway", "--data", "box.csv", "--num-perms", "3", "--seed", "11"],
        "842fd96c697bf47826b1db6da38ee5599ef05e7b1391436fdad53e7fd15b37ca",
    ),
    "test-panel": (
        ["test-panel", "--data", "box.csv", "--num-perms", "3", "--seed", "12"],
        "42f0f967eaf6072963a91e047c0f8aca869f7958071fe0247fdb9e2b7ad6d50b",
    ),
    "test-layout": (
        ["test-layout", "--data", "box.csv", "--num-perms", "3", "--seed", "13"],
        "d7222d4de61f0b5a6a5efae4c6c11e1b5cbd5c43d9c0845b06bc9c94400eb800",
    ),
    "test-missing": (
        ["test-missing", "--data", "holey.csv", "--num-perms", "4", "--seed", "14"],
        "1009abc1d87fc75e80f1d7149fc8df9a5390df2b614d1822e104cd25d6a6fd95",
    ),
    "test-messy-csv": (
        ["test-missing", "--data", "messy.csv", "--num-perms", "4", "--seed", "15"],
        "7325f8cdc0dc9ce2f06f83884495ab12739756b49e48a0083ae7f5cff3d79600",
    ),
    "test-irregular-messy": (
        ["test-irregular", "--data", "messy-records.csv", "--num-perms", "5",
         "--repeats", "2", "--seed", "16"],
        "290a7cbaf8d24361177be6fe8c0f585dc9f2fcaa973b88f30f25bb67dfbaf24c",
    ),
    "simulate-table1": (
        ["simulate", "--panel", "table1", "--n", "10", "--reps", "4",
         "--num-perms", "9", "--seed", "7"],
        "7fcdfe0986f3766a1a997ccb21a06eccbd332d92223681dc60c54e5c38da760c",
    ),
    # table1 above runs below the 1/(K+1) floor, so its counts are 0 by
    # construction; these two reject some replicates.
    "simulate-table4": (
        ["simulate", "--panel", "table4", "--n", "10", "--reps", "4",
         "--num-perms", "9", "--alpha", "0.5", "--seed", "17"],
        "cce6dfef2c29de11a9af9d07467c63300c25e4677680124d7bdc4fcbb3070075",
    ),
    "simulate-table3": (
        ["simulate", "--panel", "table3", "--n", "8", "--reps", "3",
         "--num-perms", "3", "--repeats", "2", "--alpha", "0.5", "--seed", "18"],
        "5db36eadd10227466fcab762f917e7a696194fb0bd4bc443bd5978164019777f",
    ),
}


REPORTS_PATH = pathlib.Path(__file__).with_name("golden_reports.json")

# Fields that carry a statistic and may move in the last bits when the
# arithmetic of the statistics is reordered.
_CLOSE_FIELDS = frozenset({"a", "b", "min_a"})
_CLOSE_REL = 1e-9


def _write_inputs(root):
    _grid_csv(root / "grid.csv", n=20, seed=101)
    _records_csv(root / "records.csv", n=20, seed=202)
    _records_csv(root / "small.csv", n=12, seed=303)
    _box_csv(root / "box.csv", n=8, ell=4, seed=404)
    _holey_grid_csv(root / "holey.csv", n=12, seed=505)
    _holey_grid_csv(root / "messy.csv", n=12, seed=606)
    _messy(root / "messy.csv", seed=607, pad=True)
    _records_csv(root / "messy-records.csv", n=12, seed=707)
    _messy(root / "messy-records.csv", seed=708, pad=False)


def _run_case(case, root):
    """Run one case from inside ``root`` (the inputs written there) and
    return the report's bytes."""
    argv, _ = CASES[case]
    code = main(argv + ["--out", "report.json"])
    assert code == 0, f"{case}: exit {code}"
    return (root / "report.json").read_bytes()


def _assert_close(got, want, path, close=False):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}/{key}",
                          close or key in _CLOSE_FIELDS)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]", close)
    elif close and isinstance(want, float):
        assert math.isclose(got, want, rel_tol=_CLOSE_REL, abs_tol=0.0), (
            f"{path}: {got!r} vs recorded {want!r}")
    else:
        assert type(got) is type(want) and got == want, (
            f"{path}: {got!r} vs recorded {want!r}")


@pytest.fixture
def case_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_hash(case, case_dir):
    digest = hashlib.sha256(_run_case(case, case_dir)).hexdigest()
    assert digest == CASES[case][1], f"{case}: report changed (sha256 {digest})"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_recorded_values(case, case_dir):
    recorded = json.loads(REPORTS_PATH.read_text())
    report = json.loads(_run_case(case, case_dir))
    _assert_close(report["results"], recorded[case], case)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_has_no_python_warning(case, case_dir):
    # What stayed fixed is a note in the results; no Python warning repeats it.
    report = json.loads(_run_case(case, case_dir))
    assert report["diagnostics"]["warnings"] == []


def _record(cases):
    """Rewrite the entries of ``cases`` in ``golden_reports.json`` from the
    current code; every other entry stays as recorded."""
    reports = json.loads(REPORTS_PATH.read_text()) if REPORTS_PATH.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        cwd = os.getcwd()
        os.chdir(root)
        try:
            _write_inputs(root)
            for case in cases:
                reports[case] = json.loads(_run_case(case, root))["results"]
        finally:
            os.chdir(cwd)
    REPORTS_PATH.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"] or not set(sys.argv[2:]) <= set(CASES):
        sys.exit("usage: python tests/test_golden.py --record [CASE ...]")
    _record(sys.argv[2:] or sorted(CASES))
