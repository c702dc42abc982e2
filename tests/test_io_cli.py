"""Tests for CSV ingestion and the command-line front end."""

import json

import numpy as np
import pytest

from clusterperm.cli import RunConfig, build_parser, config_from_args, main
from clusterperm.exceptions import DuplicateCellError, ParseError
from clusterperm.io import ingest_csv, ingest_mask_csv
from clusterperm.model import DyadArray
from clusterperm.multiway import MultiIndexDataset
from clusterperm.simulate import gen_dyadic_dataset, gen_irregular_dataset


def _write(path, text):
    path.write_text(text)
    return str(path)


def _dyadic_csv(tmp_path, n=6, seed=0, name="data.csv"):
    array, _ = gen_dyadic_dataset(n, seed=seed)
    lines = ["i,j,y,d,x1,x2,x3"]
    for i in range(n):
        for j in range(n):
            cells = [array.y[i, j], array.d[i, j, 0],
                     array.x[i, j, 0], array.x[i, j, 1], array.x[i, j, 2]]
            lines.append(f"{i + 1},{j + 1}," + ",".join(repr(float(c)) for c in cells))
    return _write(tmp_path / name, "\n".join(lines) + "\n"), array


def _box_csv(tmp_path, m=6, n=6, ell=2, seed=0, name="box.csv"):
    rng = np.random.default_rng(seed)
    lines = ["i,j,l,y,d,x1"]
    for i in range(m):
        for j in range(n):
            for l in range(ell):
                lines.append(
                    f"{i + 1},{j + 1},{l + 1},{float(rng.standard_normal())!r},"
                    f"{float(rng.standard_normal())!r},1.0"
                )
    return _write(tmp_path / name, "\n".join(lines) + "\n")


def _irregular_csv(tmp_path, seed=2, name="irr.csv"):
    data = gen_irregular_dataset(6, 6, 3, "two-way-weak", seed=seed)
    lines = ["i,j,l,y,d,x1,x2,x3"]
    for t in range(data.n_obs):
        cells = [data.y[t], data.d[t, 0], data.x[t, 0], data.x[t, 1], data.x[t, 2]]
        lines.append(
            f"{data.i[t] + 1},{data.j[t] + 1},{data.l[t] + 1},"
            + ",".join(repr(float(c)) for c in cells)
        )
    return _write(tmp_path / name, "\n".join(lines) + "\n")


class TestIngestCsv:
    def test_complete_grid_round_trip(self, tmp_path):
        path, array = _dyadic_csv(tmp_path, n=4, seed=1)
        data = ingest_csv(path)
        assert isinstance(data, DyadArray)
        assert data.is_complete()
        assert np.allclose(data.y, array.y)
        assert np.allclose(data.d, array.d)
        assert np.allclose(data.x, array.x)

    def test_absent_cells_become_mask_zeros(self, tmp_path):
        text = "i,j,y,d\n1,1,0.5,1.0\n1,2,0.1,2.0\n2,1,0.7,3.0\n"
        data = ingest_csv(_write(tmp_path / "m.csv", text))
        assert data.observed.tolist() == [[True, True], [True, False]]

    def test_textual_outcome_names_line(self, tmp_path):
        text = "i,j,y,d\n1,1,0.5,1.0\n1,2,oops,2.0\n"
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(_write(tmp_path / "bad.csv", text))

    def test_missing_required_column(self, tmp_path):
        text = "i,k,y,d\n1,1,0.5,1.0\n"
        with pytest.raises(ParseError, match="'j'"):
            ingest_csv(_write(tmp_path / "cols.csv", text))

    def test_no_treatment_column(self, tmp_path):
        text = "i,j,y\n1,1,0.5\n"
        with pytest.raises(ParseError, match="treatment"):
            ingest_csv(_write(tmp_path / "nod.csv", text))

    def test_duplicate_cell_detected(self, tmp_path):
        text = "i,j,y,d\n1,1,0.5,1.0\n1,1,0.6,2.0\n"
        with pytest.raises(DuplicateCellError, match="line 3"):
            ingest_csv(_write(tmp_path / "dup.csv", text))

    def test_field_count_mismatch_names_line(self, tmp_path):
        text = "i,j,y,d\n1,1,0.5,1.0\n1,2,0.5\n"
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(_write(tmp_path / "short.csv", text))

    def test_one_based_indices_enforced(self, tmp_path):
        text = "i,j,y,d\n0,1,0.5,1.0\n"
        with pytest.raises(ParseError, match="line 2"):
            ingest_csv(_write(tmp_path / "zero.csv", text))

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_csv(_write(tmp_path / "empty.csv", ""))

    def test_inference_orders_numbered_columns(self, tmp_path):
        text = "i,j,y,d2,d1,x10,x2\n1,1,0.5,22.0,11.0,1.0,2.0\n"
        data = ingest_csv(_write(tmp_path / "ord.csv", text))
        assert data.d[0, 0].tolist() == [11.0, 22.0]
        assert data.x[0, 0].tolist() == [2.0, 1.0]

    def test_explicit_bindings_override(self, tmp_path):
        text = "i,j,y,d,w\n1,1,0.5,1.0,9.0\n"
        data = ingest_csv(_write(tmp_path / "bind.csv", text),
                          treatment=["w"], covariates=["d"])
        assert data.d[0, 0, 0] == 9.0
        assert data.x[0, 0, 0] == 1.0

    def test_unknown_binding_rejected(self, tmp_path):
        text = "i,j,y,d\n1,1,0.5,1.0\n"
        with pytest.raises(ParseError, match="'q'"):
            ingest_csv(_write(tmp_path / "q.csv", text), treatment=["q"])

    def test_slot_column_selects_records(self, tmp_path):
        path = _box_csv(tmp_path, m=2, n=2, ell=2, seed=3)
        data = ingest_csv(path)
        assert isinstance(data, MultiIndexDataset)
        assert data.n_obs == 8
        assert data.n_slots == 2

    def test_duplicate_record_detected(self, tmp_path):
        text = "i,j,l,y,d\n1,1,1,0.5,1.0\n1,1,1,0.6,2.0\n"
        with pytest.raises(DuplicateCellError, match="line 3"):
            ingest_csv(_write(tmp_path / "dupl.csv", text))

    def test_records_get_intercept_when_no_covariates(self, tmp_path):
        text = "i,j,l,y,d\n1,1,1,0.5,1.0\n1,1,2,0.3,2.0\n"
        data = ingest_csv(_write(tmp_path / "noint.csv", text))
        assert data.x.shape == (2, 1)
        assert (data.x == 1.0).all()


class TestIngestMaskCsv:
    def test_round_trip(self, tmp_path):
        text = "i,j,m\n1,1,1\n1,2,0\n2,1,0\n2,2,1\n"
        mask = ingest_mask_csv(_write(tmp_path / "mask.csv", text))
        assert mask.tolist() == [[1, 0], [0, 1]]

    def test_values_validated(self, tmp_path):
        text = "i,j,m\n1,1,2\n"
        with pytest.raises(ParseError, match="line 2"):
            ingest_mask_csv(_write(tmp_path / "mv.csv", text))

    def test_duplicates_rejected(self, tmp_path):
        text = "i,j,m\n1,1,1\n1,1,0\n"
        with pytest.raises(DuplicateCellError):
            ingest_mask_csv(_write(tmp_path / "md.csv", text))


class TestRunConfig:
    def test_digest_depends_on_seed(self):
        a = RunConfig(subcommand="test", seed=1)
        b = RunConfig(subcommand="test", seed=2)
        assert a.digest() != b.digest()
        assert a.digest() == RunConfig(subcommand="test", seed=1).digest()

    def test_parser_round_trip(self):
        parser = build_parser()
        args = parser.parse_args([
            "test", "--data", "x.csv", "--treatment", "d1,d2",
            "--seed", "7", "--num-perms", "9",
        ])
        config = config_from_args(args)
        assert config.subcommand == "test"
        assert config.data_path == "x.csv"
        assert config.treatment == ["d1", "d2"]
        assert config.seed == 7
        assert config.num_perms == 9


class TestCliCommands:
    def _json_run(self, argv, capsys, expect_exit=0):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == expect_exit, out
        return json.loads(out)

    def test_test_subcommand_reports_pval_on_grid(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=6, seed=4)
        report = self._json_run(
            ["test", "--data", path, "--num-perms", "5", "--seed", "4"], capsys
        )
        pval = report["results"]["pval"]
        assert pval == pytest.approx(round(pval * 6) / 6)
        assert report["schema_version"] == 1
        assert report["command"] == "test"
        assert len(report["results"]["a"]) == 5

    def test_repeated_run_is_byte_identical(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=6, seed=5)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        argv = ["test", "--data", path, "--num-perms", "5", "--seed", "5"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_ci_subcommand(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=6, seed=6)
        report = self._json_run(
            ["ci", "--data", path, "--num-perms", "5", "--alpha", "0.4",
             "--seed", "6", "--grid-points", "41"],
            capsys,
        )
        results = report["results"]
        assert results["alpha"] == 0.4
        assert "lower" in results and "upper" in results

    def test_ci_below_floor_exits_2(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=6, seed=7)
        payload = self._json_run(
            ["ci", "--data", path, "--num-perms", "5", "--alpha", "0.01"],
            capsys, expect_exit=2,
        )
        assert payload["error"]["code"] == "ResolutionError"

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path / "bad.csv", "i,j,y,d\n1,1,zzz,1.0\n")
        payload = self._json_run(["test", "--data", path], capsys, expect_exit=2)
        assert payload["error"]["code"] == "ParseError"
        assert "line 2" in payload["error"]["message"]

    def test_missing_subcommand_with_inferred_mask(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=8, seed=8)
        lines = open(path).read().strip().split("\n")
        kept = [lines[0]] + [r for t, r in enumerate(lines[1:]) if t % 7 != 3]
        sparse = _write(tmp_path / "sparse.csv", "\n".join(kept) + "\n")
        report = self._json_run(
            ["test-missing", "--data", sparse, "--num-perms", "3", "--seed", "8"],
            capsys,
        )
        assert report["results"]["cover"]["blocks"]
        assert 0.0 < report["results"]["pval"] <= 1.0

    def test_explicit_mask_wins(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=6, seed=9)
        mask_lines = ["i,j,m"]
        for i in range(6):
            for j in range(6):
                mask_lines.append(f"{i + 1},{j + 1},{1 if (i < 4 and j < 4) else 0}")
        mask_path = _write(tmp_path / "mask.csv", "\n".join(mask_lines) + "\n")
        report = self._json_run(
            ["test-missing", "--data", path, "--mask", mask_path,
             "--num-perms", "3", "--seed", "9"],
            capsys,
        )
        blocks = report["results"]["cover"]["blocks"]
        assert blocks == [{"rows": [1, 2, 3, 4], "cols": [1, 2, 3, 4]}]

    def test_threeway_panel_layout_subcommands(self, tmp_path, capsys):
        path = _box_csv(tmp_path, m=6, n=6, ell=2, seed=10)
        for sub in ("test-threeway", "test-panel"):
            report = self._json_run(
                [sub, "--data", path, "--num-perms", "5", "--seed", "10"], capsys
            )
            assert report["results"]["num_perms"] == 5
        report = self._json_run(
            ["test-layout", "--data", path, "--num-perms", "1", "--seed", "10"],
            capsys,
        )
        assert report["results"]["pval"] <= 1.0

    def test_irregular_subcommand_auto_l0(self, tmp_path, capsys):
        path = _irregular_csv(tmp_path, seed=11)
        report = self._json_run(
            ["test-irregular", "--data", path, "--num-perms", "3",
             "--repeats", "3", "--seed", "11", "--l0", "auto"],
            capsys,
        )
        assert report["results"]["l0"] >= 3
        assert len(report["results"]["run_pvals"]) == 3

    def test_biclique_subcommand(self, tmp_path, capsys):
        mask_lines = ["i,j,m"]
        for i in range(5):
            for j in range(5):
                mask_lines.append(f"{i + 1},{j + 1},{1 if i != 2 and j != 3 else 0}")
        path = _write(tmp_path / "bq.csv", "\n".join(mask_lines) + "\n")
        report = self._json_run(["biclique", "--mask", path], capsys)
        assert report["results"]["blocks"][0]["rows"] == [1, 2, 4, 5]
        assert report["results"]["sides"][0] == [4, 4]

    def test_biclique_needs_input(self, capsys):
        payload = self._json_run(["biclique"], capsys, expect_exit=2)
        assert payload["error"]["code"] == "ParseError"

    def test_simulate_text_format(self, capsys):
        code = main([
            "simulate", "--panel", "table1", "--n", "6", "--reps", "2",
            "--num-perms", "5", "--format", "text",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "null-size" in out
        assert "rate" in out

    def test_simulate_json_deterministic(self, tmp_path, capsys):
        argv = ["simulate", "--panel", "table4", "--n", "6", "--reps", "2",
                "--num-perms", "5", "--seed", "12"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        rows = json.loads(a.read_text())["results"]["rows"]
        assert [r["beta"] for r in rows] == [0.01, 0.05, 0.10, 0.15]

    def test_wrong_layout_for_subcommand(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=4, seed=13)
        payload = self._json_run(
            ["test-threeway", "--data", path], capsys, expect_exit=2
        )
        assert payload["error"]["code"] == "ParseError"

    def test_incomplete_grid_rejected_by_test(self, tmp_path, capsys):
        text = "i,j,y,d\n1,1,0.5,1.0\n1,2,0.1,2.0\n2,1,0.7,3.0\n"
        path = _write(tmp_path / "inc.csv", text)
        payload = self._json_run(["test", "--data", path], capsys, expect_exit=2)
        assert payload["error"]["code"] == "MissingDataError"

    @pytest.mark.parametrize("column, value", [(2, "nan"), (3, "inf")])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, column, value):
        # one nan outcome (or inf treatment) used to report pval = 1/(K+1)
        path, _ = _dyadic_csv(tmp_path, n=10, seed=15)
        lines = open(path).read().strip().split("\n")
        fields = lines[23].split(",")
        fields[column] = value
        lines[23] = ",".join(fields)
        bad = _write(tmp_path / "bad.csv", "\n".join(lines) + "\n")
        for sub in (["test"], ["ci", "--alpha", "0.1"]):
            payload = self._json_run(
                sub + ["--data", bad, "--num-perms", "9"], capsys, expect_exit=2
            )
            assert payload["error"]["code"] == "NonFiniteInputError"

    def test_cap_above_maximum_exits_2(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=6, seed=16)
        for sub in ("biclique", "test-missing"):
            payload = self._json_run(
                [sub, "--data", path, "--cap", "40"], capsys, expect_exit=2
            )
            assert payload["error"]["code"] == "CapExceededError"

    def test_restarts_below_one_exits_2(self, tmp_path, capsys):
        # restarts=0 used to print an empty cover (biclique) or report a
        # misleading NoEligibleCellsError (test-irregular)
        path = _irregular_csv(tmp_path, seed=17)
        for sub in (["biclique"], ["test-irregular", "--num-perms", "3", "--repeats", "2"]):
            payload = self._json_run(
                sub + ["--data", path, "--biclique-solver", "greedy", "--restarts", "0"],
                capsys, expect_exit=2,
            )
            assert payload["error"]["code"] == "DimensionError"
            assert "restarts" in payload["error"]["message"]

    def test_diagnostics_capture_warnings(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=8, seed=14)
        lines = open(path).read().strip().split("\n")
        kept = [lines[0]] + [r for t, r in enumerate(lines[1:]) if t % 9 != 5]
        sparse = _write(tmp_path / "sp.csv", "\n".join(kept) + "\n")
        report = self._json_run(
            ["test-missing", "--data", sparse, "--num-perms", "9", "--seed", "14"],
            capsys,
        )
        assert any("shorter" in w for w in report["diagnostics"]["warnings"])
