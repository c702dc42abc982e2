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
        "ff40ff98c38e1d062cd380ba29320f65b515953e67829a9fea0b97eb416406a8",
    ),
    "test-beta0": (
        ["test", "--data", "grid.csv", "--num-perms", "19", "--seed", "4",
         "--beta0", "0.3"],
        "7a8bd3aec03e727990fb283725871701b5f0490e1dc99c0f112529faeedf81f1",
    ),
    "ci": (
        ["ci", "--data", "grid.csv", "--num-perms", "19", "--seed", "5",
         "--grid-points", "61"],
        "8329454e6e7ec7f4576eb1da449ac8d29589680d84386b78a14ef6313177d0fc",
    ),
    "test-irregular": (
        ["test-irregular", "--data", "records.csv", "--num-perms", "5",
         "--repeats", "3", "--seed", "6"],
        "f3d061036bcb9ab489f9c95b58f04445c22354b90114da1fbb4635ff546e7f59",
    ),
    "test-irregular-greedy": (
        ["test-irregular", "--data", "records.csv", "--num-perms", "5",
         "--repeats", "3", "--seed", "6", "--biclique-solver", "greedy",
         "--restarts", "4"],
        "27506b038c2b5e3ed0afe7400de828dd321df31fc865799774fe9d175e8021a4",
    ),
    "test-irregular-exact": (
        ["test-irregular", "--data", "small.csv", "--num-perms", "3",
         "--repeats", "4", "--seed", "9", "--biclique-solver", "exact"],
        "036e450008bda2b8eafa419848dd2a531804afd5b23416356e857486c1a8dc91",
    ),
    "biclique-records": (
        ["biclique", "--data", "records.csv", "--seed", "8"],
        "6432d3a5d4a3a82ae89b03d3519ccb18c282e807f316c89545741e836b233622",
    ),
    "test-threeway": (
        ["test-threeway", "--data", "box.csv", "--num-perms", "3", "--seed", "11"],
        "02df38c6d684dd6e2c38f354a45dba5fc4a8af4af45ac79a16f86492815ef350",
    ),
    "test-panel": (
        ["test-panel", "--data", "box.csv", "--num-perms", "3", "--seed", "12"],
        "d6f487816a047a1ec68981768d2ce51ca79e4cacc7b8d3769b84c81c8b6f96d7",
    ),
    "test-layout": (
        ["test-layout", "--data", "box.csv", "--num-perms", "3", "--seed", "13"],
        "eb494d4e1081919e59feb6f232854ca18188b26ccbb12f071a6b574edb9fe9cd",
    ),
    "test-missing": (
        ["test-missing", "--data", "holey.csv", "--num-perms", "4", "--seed", "14"],
        "11cf6aa04538343ee7ab02a880f9ee676a77bd5371236bbcf20afc34cf8e3d54",
    ),
    "test-messy-csv": (
        ["test-missing", "--data", "messy.csv", "--num-perms", "4", "--seed", "15"],
        "f3727513af0e20c0ba4d1443c43ef86ed9ea50d8aa1a7a9a79188596423ffdd1",
    ),
    "test-irregular-messy": (
        ["test-irregular", "--data", "messy-records.csv", "--num-perms", "5",
         "--repeats", "2", "--seed", "16"],
        "8a41c19b524594ca4100f6299a42f6fef040488f2fe280a8b2e8f9251ead3943",
    ),
    "simulate-table1": (
        ["simulate", "--panel", "table1", "--n", "10", "--reps", "4",
         "--num-perms", "9", "--seed", "7"],
        "1eab395d063f57414b0c8c54141ca3232dd61761b0c09a7789d395fa8cffd913",
    ),
    # table1 above runs below the 1/(K+1) floor, so its counts are 0 by
    # construction; these two reject some replicates.
    "simulate-table4": (
        ["simulate", "--panel", "table4", "--n", "10", "--reps", "4",
         "--num-perms", "9", "--alpha", "0.5", "--seed", "17"],
        "bad473e24d3e69962ba527306e0c742c12d82ed2dc03e896bf55901a8493c8c3",
    ),
    "simulate-table3": (
        ["simulate", "--panel", "table3", "--n", "8", "--reps", "3",
         "--num-perms", "3", "--repeats", "2", "--alpha", "0.5", "--seed", "18"],
        "feafe6950900bf77485578ff49095e12cac17095ef4a4fe9e4f36b8c111ede57",
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
