"""Tests for CSV ingestion and the command-line front end."""

import argparse
import contextlib
import csv
import io
import json
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterperm import cli
from clusterperm.cli import build_parser, main
from clusterperm.exceptions import DuplicateCellError, ParseError
from clusterperm.io import ingest_csv, ingest_mask_csv
from clusterperm.model import DyadArray
from clusterperm.multiway import MultiIndexDataset
from clusterperm.simulate import gen_dyadic_dataset, gen_irregular_dataset
from conftest import raises_exactly

# The row-by-row reader that ``clusterperm.io`` replaced, kept verbatim (only
# its two entry points renamed) as the reference for the equivalence tests.

_TREATMENT_PAT = re.compile(r"^d\d*$")
_COVARIATE_PAT = re.compile(r"^x\d*$")


def _read_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        header = [name.strip() for name in header]
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=line_no
                )
            rows.append((line_no, [cell.strip() for cell in row]))
    if not rows:
        raise ParseError("no data rows")
    return header, rows


def _column_order(names: list[str]) -> list[str]:
    def sort_key(name):
        digits = name[1:]
        return (int(digits) if digits else 0, name)

    return sorted(names, key=sort_key)


def _parse_int(raw: str, name: str, line_no: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ParseError(f"column {name!r} must be an integer, got {raw!r}", line=line_no) from None
    if value < 1:
        raise ParseError(f"column {name!r} must be >= 1, got {value}", line=line_no)
    return value


def _parse_float(raw: str, name: str, line_no: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ParseError(f"column {name!r} must be numeric, got {raw!r}", line=line_no) from None


def _reference_ingest(path, treatment=None, covariates=None):
    """Load a CSV file into a dyadic grid or a multi-index record set.

    ``treatment`` and ``covariates`` override the name-pattern inference
    (treatments ``d``, ``d1``, ...; covariates ``x``, ``x1``, ...).  Files
    without an ``l`` column become a ``DyadArray`` whose extents are the
    largest indices seen and whose unseen cells are marked missing; files
    with ``l`` become a ``MultiIndexDataset``.
    """
    header, rows = _read_rows(path)
    seen = set()
    for name in header:
        if name in seen:
            raise ParseError(f"duplicate column name {name!r}")
        seen.add(name)
    for required in ("i", "j", "y"):
        if required not in header:
            raise ParseError(f"missing required column {required!r}")
    if treatment is None:
        treatment = _column_order([n for n in header if _TREATMENT_PAT.match(n)])
    if covariates is None:
        covariates = _column_order([n for n in header if _COVARIATE_PAT.match(n)])
    for name in list(treatment) + list(covariates):
        if name not in header:
            raise ParseError(f"requested column {name!r} not in header")
    if not treatment:
        raise ParseError("no treatment columns found (expected d, d1, ...)")
    col = {name: pos for pos, name in enumerate(header)}
    has_slot = "l" in header

    i_vals, j_vals, l_vals, y_vals, d_vals, x_vals, lines = [], [], [], [], [], [], []
    for line_no, row in rows:
        i_vals.append(_parse_int(row[col["i"]], "i", line_no))
        j_vals.append(_parse_int(row[col["j"]], "j", line_no))
        if has_slot:
            l_vals.append(_parse_int(row[col["l"]], "l", line_no))
        y_vals.append(_parse_float(row[col["y"]], "y", line_no))
        d_vals.append([_parse_float(row[col[n]], n, line_no) for n in treatment])
        x_vals.append([_parse_float(row[col[n]], n, line_no) for n in covariates])
        lines.append(line_no)

    i_idx = np.asarray(i_vals, dtype=np.intp) - 1
    j_idx = np.asarray(j_vals, dtype=np.intp) - 1
    y = np.asarray(y_vals, dtype=float)
    d = np.asarray(d_vals, dtype=float)
    x = np.asarray(x_vals, dtype=float)

    if has_slot:
        keys = {}
        l_idx = np.asarray(l_vals, dtype=np.intp) - 1
        for pos, line_no in enumerate(lines):
            key = (int(i_idx[pos]), int(j_idx[pos]), int(l_idx[pos]))
            if key in keys:
                raise DuplicateCellError(
                    f"record (i={key[0] + 1}, j={key[1] + 1}, l={key[2] + 1}) "
                    f"already appeared on line {keys[key]}",
                    line=line_no,
                )
            keys[key] = line_no
        if x.shape[1] == 0:
            x = np.ones((y.shape[0], 1))
        if d.shape[1] == 1:
            d = d[:, 0]
        return MultiIndexDataset(i=i_idx, j=j_idx, l=l_idx, y=y, d=d, x=x)

    n_rows = int(i_idx.max()) + 1
    n_cols = int(j_idx.max()) + 1
    y_grid = np.zeros((n_rows, n_cols))
    d_grid = np.zeros((n_rows, n_cols, d.shape[1]))
    p = x.shape[1] if x.shape[1] else 1
    x_grid = np.zeros((n_rows, n_cols, p))
    observed = np.zeros((n_rows, n_cols), dtype=bool)
    for pos, line_no in enumerate(lines):
        a, b = int(i_idx[pos]), int(j_idx[pos])
        if observed[a, b]:
            raise DuplicateCellError(
                f"cell (i={a + 1}, j={b + 1}) appears more than once", line=line_no
            )
        observed[a, b] = True
        y_grid[a, b] = y[pos]
        d_grid[a, b] = d[pos]
        x_grid[a, b] = x[pos] if x.shape[1] else 1.0
    return DyadArray(y=y_grid, d=d_grid, x=x_grid, observed=observed)


def _reference_ingest_mask(path) -> np.ndarray:
    """Load an observation mask from CSV columns i, j, m (m in {0, 1})."""
    header, rows = _read_rows(path)
    for required in ("i", "j", "m"):
        if required not in header:
            raise ParseError(f"missing required column {required!r}")
    col = {name: pos for pos, name in enumerate(header)}
    entries = []
    for line_no, row in rows:
        a = _parse_int(row[col["i"]], "i", line_no)
        b = _parse_int(row[col["j"]], "j", line_no)
        raw = row[col["m"]]
        if raw not in ("0", "1"):
            raise ParseError(f"column 'm' must be 0 or 1, got {raw!r}", line=line_no)
        entries.append((line_no, a - 1, b - 1, int(raw)))
    n_rows = max(e[1] for e in entries) + 1
    n_cols = max(e[2] for e in entries) + 1
    mask = np.zeros((n_rows, n_cols), dtype=np.int8)
    seen = np.zeros((n_rows, n_cols), dtype=bool)
    for line_no, a, b, m in entries:
        if seen[a, b]:
            raise DuplicateCellError(f"cell (i={a + 1}, j={b + 1}) appears more than once", line=line_no)
        seen[a, b] = True
        mask[a, b] = m
    return mask



def _write(path, text):
    path.write_text(text)
    return str(path)


def _dyadic_csv(tmp_path, n=6, seed=0, name="data.csv", scale=1.0):
    # ``scale`` multiplies the outcome and the treatment columns
    array, _ = gen_dyadic_dataset(n, seed=seed)
    lines = ["i,j,y,d,x1,x2,x3"]
    for i in range(n):
        for j in range(n):
            cells = [array.y[i, j] * scale, array.d[i, j, 0] * scale,
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


def _irregular_csv(tmp_path, seed=2, name="irr.csv", scale=1.0):
    # ``scale`` multiplies the outcome and the treatment columns
    data = gen_irregular_dataset(6, 6, 3, "two-way-weak", seed=seed)
    lines = ["i,j,l,y,d,x1,x2,x3"]
    for t in range(data.n_obs):
        cells = [data.y[t] * scale, data.d[t, 0] * scale, data.x[t, 0], data.x[t, 1],
                 data.x[t, 2]]
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

    def test_unreadable_file(self, tmp_path):
        # used to escape as a bare FileNotFoundError or UnicodeDecodeError
        with pytest.raises(ParseError, match="cannot read"):
            ingest_csv(tmp_path / "absent.csv")
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"i,j,m\n\xff\xfe,1,1\n")
        with pytest.raises(ParseError):  # "cannot read" in a UTF-8 locale
            ingest_mask_csv(binary)

    def test_oversized_field_names_line(self, tmp_path):
        # the csv module refuses fields over 128 KiB; that used to escape as csv.Error
        text = "i,j,y,d,note\n1,1,0.5,1.0,a\n1,2,oops,1.0," + "z" * 200_000 + "\n"
        with pytest.raises(ParseError, match="line 3: field larger than field limit"):
            ingest_csv(_write(tmp_path / "wide.csv", text))
        with pytest.raises(ParseError, match="line 1: field larger"):
            ingest_csv(_write(tmp_path / "wide_header.csv", "i,j,y,d," + "z" * 200_000 + "\n"))

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


_PADS = ["", "", " ", "\t", "  ", "\xa0"]
_FILLERS = ["", " ", "\t", ",", " , ,", ",,,"]
_NUMBERS = ["nan", "-inf", "inf", "1e-3", ".5", "5.", "-0", "+2.5", "1E5", "0"]


def _pad(draw, cell):
    """Surround ``cell`` with whitespace, and sometimes quotes."""
    cell = draw(st.sampled_from(_PADS)) + cell + draw(st.sampled_from(_PADS))
    if draw(st.integers(0, 5)) == 0:
        cell = '"' + cell + '"' + draw(st.sampled_from(["", " "]))
    return cell


def _render(draw, header, rows):
    """CSV text from cell lists, with blank rows and a drawn line ending."""
    lines = [",".join(header)]
    for row in rows:
        if draw(st.integers(0, 6)) == 0:
            lines.append(draw(st.sampled_from(_FILLERS)))
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def _inject(draw, rows, index_cols, value_cols):
    """Apply at most one fault to ``rows``: a non-numeric or empty value, a 0
    or 1.0 index, a short or long row, or a repeated key."""
    fault = draw(st.sampled_from([None, None, None, "text", "empty", "zero", "float",
                                  "short", "long", "repeat"]))
    r = draw(st.integers(0, len(rows) - 1))
    if fault in ("text", "empty") and value_cols:
        rows[r][draw(st.sampled_from(value_cols))] = "abc" if fault == "text" else " "
    elif fault in ("zero", "float"):
        rows[r][draw(st.sampled_from(index_cols))] = "0" if fault == "zero" else "1.0"
    elif fault == "short":
        rows[r] = rows[r][:-1]
    elif fault == "long":
        rows[r] = rows[r] + ["1"]
    elif fault == "repeat":
        rows.insert(draw(st.integers(r + 1, len(rows))), list(rows[r]))


def _cells_present(draw, extents):
    """A non-empty subset of the cells of a box, in a drawn order."""
    cells = [tuple(int(v) for v in c) for c in np.ndindex(*extents)]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    present = [c for c, k in zip(cells, keep) if k] or cells[:1]
    return draw(st.permutations(present))


@st.composite
def _data_csv(draw):
    """Grid or record CSV text with holes, padding, quotes, blank rows and
    CRLF or CR endings, and at most one fault."""
    records = draw(st.booleans())
    extents = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    if records:
        extents += (draw(st.integers(1, 3)),)
    treat = draw(st.sampled_from([["d"], ["d1"], ["d1", "d2"], ["d", "d2"]]))
    cov = draw(st.sampled_from([[], ["x"], ["x1", "x2"]]))
    extra = ["note"] if draw(st.booleans()) else []
    index = ["i", "j", "l"][:len(extents)]
    header = draw(st.permutations(index + ["y"] + treat + cov + extra))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-1000, 1000).map(str),
        st.sampled_from(_NUMBERS),
    )
    rows = []
    for cell in _cells_present(draw, extents):
        values = {name: str(v + 1) for name, v in zip(index, cell)}
        for name in header:
            if name == "note":
                values[name] = draw(st.text(alphabet="ab z", max_size=4))
            elif name not in values:
                values[name] = draw(number)
        rows.append([_pad(draw, values[name]) for name in header])
    positions = {name: k for k, name in enumerate(header)}
    _inject(draw, rows, [positions[n] for n in index],
            [positions[n] for n in ["y", *treat, *cov]])
    return _render(draw, [_pad(draw, n) if draw(st.booleans()) else n for n in header], rows)


@st.composite
def _mask_csv(draw):
    extents = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    header = draw(st.permutations(["i", "j", "m"] + (["note"] if draw(st.booleans()) else [])))
    rows = []
    for cell in _cells_present(draw, extents):
        values = {"i": str(cell[0] + 1), "j": str(cell[1] + 1), "note": "n",
                  "m": draw(st.sampled_from(["0", "1", " 1", "0 ", '"1"']))}
        rows.append([_pad(draw, values[name]) if name != "m" else values[name]
                     for name in header])
    _inject(draw, rows, [header.index("i"), header.index("j")], [])
    if draw(st.integers(0, 3)) == 0:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if len(row) == len(header):
            row[header.index("m")] = draw(st.sampled_from(["2", "01", "1.0", " ", "+1"]))
    return _render(draw, header, rows)


def _outcome(reader, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode())
        try:
            return reader(path)
        except ParseError as exc:  # DuplicateCellError included
            return exc


def _assert_same(result, reference):
    assert type(result) is type(reference)
    if isinstance(reference, ParseError):
        assert (result.line, str(result)) == (reference.line, str(reference))
        return
    if isinstance(reference, np.ndarray):
        pairs = [(result, reference)]
    else:
        names = ("i", "j", "l", "y", "d", "x") if isinstance(reference, MultiIndexDataset) \
            else ("y", "d", "x", "observed")
        pairs = [(getattr(result, n), getattr(reference, n)) for n in names]
    for got, want in pairs:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


class TestReaderEquivalence:
    """The vectorized reader returns byte-equal arrays and the same error
    (class, line and message) as the row-by-row reader it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(text=_data_csv())
    def test_data_matches_reference(self, text):
        _assert_same(_outcome(ingest_csv, text), _outcome(_reference_ingest, text))

    @settings(max_examples=150, deadline=None)
    @given(text=_mask_csv())
    def test_mask_matches_reference(self, text):
        _assert_same(_outcome(ingest_mask_csv, text), _outcome(_reference_ingest_mask, text))

    @pytest.mark.parametrize("text", [
        "i,j,y,d\n1,1,0.5,1.0\n1,2,oops,2.0\n1,3,0.5,1.0,9\n",  # short row outranks value
        "i,j,y,d\n1,1,oops,1.0\n0,2,0.5,1.0\n",                 # earlier row first
        "i,j,y,d\n1,1,0.5,1.0\n1,0,oops,1.0\n",                 # j before y in a row
        "i,j,y\n1,1,0.5\n1,2\n",                                 # short row outranks header
        "i,j,l,y,d\n1,1,1,0.5,1\n2,1,1,0.5,1\n\n1,1,1,0.7,1\n",  # names the first line
        "i,j,y,d\n1,1,0.5,1\n2,2,0.5,1\n2,2,0.5,1\n1,1,0.5,1\n",   # first repeat in order
        "i,j,y,d\n1,1,0.5,1\n0,0,0.5,1\n",                        # i before j in a row
    ])
    def test_error_precedence_matches_reference(self, text):
        _assert_same(_outcome(ingest_csv, text), _outcome(_reference_ingest, text))

    # Inputs the two readers treat differently on purpose; each is listed in
    # CHANGES.md.

    @pytest.mark.parametrize("cell, column", [("1_0", "y"), ("1_0", "i"), ("١", "j")])
    def test_python_only_number_forms_rejected(self, cell, column, tmp_path):
        # float() and int() accept digit-group underscores and non-ASCII
        # digits; the C parser does not
        cells = {"i": "1", "j": "1", "y": "0.5", "d": "1.0", column: cell}
        text = "i,j,y,d\n" + ",".join(cells.values()) + "\n"
        assert not isinstance(_outcome(_reference_ingest, text), ParseError)
        with pytest.raises(ParseError, match=f"line 2: column '{column}'"):
            ingest_csv(_write(tmp_path / "d.csv", text))

    def test_newline_inside_quotes_rejected(self, tmp_path):
        # the old reader let a quoted field span lines and then counted
        # records, not lines, in its messages
        text = 'i,j,y,d\n1,1,"0.5\n",1.0\n1,2,0.5,1.0\n'
        assert not isinstance(_outcome(_reference_ingest, text), ParseError)
        with pytest.raises(ParseError, match="line 2: quoted field is not closed"):
            ingest_csv(_write(tmp_path / "d.csv", text))

    def test_row_of_quoted_empty_fields_is_not_blank(self, tmp_path):
        text = 'i,j,y,d\n1,1,0.5,1.0\n"","","",""\n'
        assert not isinstance(_outcome(_reference_ingest, text), ParseError)
        with pytest.raises(ParseError, match="line 3: column 'i' must be an integer"):
            ingest_csv(_write(tmp_path / "d.csv", text))

    def test_index_beyond_int64_is_parse_error(self, tmp_path):
        # the old reader raised a bare OverflowError from np.asarray
        text = "i,j,y,d\n99999999999999999999,1,0.5,1.0\n"
        with pytest.raises(OverflowError):
            _reference_ingest(_write(tmp_path / "d.csv", text))
        with pytest.raises(ParseError, match="line 2: column 'i' must be an integer"):
            ingest_csv(_write(tmp_path / "d.csv", text))


def _report(argv, capsys) -> dict:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def _usage_error(argv, capsys) -> str:
    """Run ``argv``, check it exits 2 with a JSON ParseError, return the message."""
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2, out
    error = json.loads(out)["error"]
    assert error["code"] == "ParseError"
    return error["message"]


# Each subcommand's options: what it reads, and nothing more.  _DROPPED lists
# the 18 (subcommand, flag) pairs that were accepted once and never read.
_COMMON = {"--seed", "--out", "--format"}
_TEST = _COMMON | {"--data", "--treatment", "--covariates", "--num-perms", "--rank-tol"}
_BICLIQUE = {"--biclique-solver", "--min-block", "--cap", "--restarts"}
_OPTIONS = {
    "test": _TEST | {"--beta0"},
    "ci": _TEST | {"--alpha", "--grid-center", "--grid-half-width", "--grid-points",
                   "--max-expansions"},
    "test-missing": _TEST | _BICLIQUE | {"--mask"},
    "test-threeway": _TEST,
    "test-panel": _TEST,
    "test-layout": _TEST,
    "test-irregular": _TEST | _BICLIQUE | {"--l0", "--repeats"},
    "simulate": _COMMON | {"--num-perms", "--alpha", "--threads", "--panel", "--n", "--reps",
                           "--l0", "--repeats"},
    "biclique": _COMMON | _BICLIQUE | {"--data", "--mask"},
}
_DROPPED = ([(sub, "--alpha") for sub in ("test", "test-missing", "test-threeway", "test-panel",
                                          "test-layout", "test-irregular", "biclique")]
            + [(sub, "--threads") for sub in _OPTIONS if sub != "simulate"]
            + [("simulate", "--rank-tol"), ("biclique", "--rank-tol"),
               ("biclique", "--num-perms")])


class TestRunConfig:
    """The parser owns the options; a report's config is what can change its results."""

    def test_digest_depends_on_seed(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=6, seed=1)
        argv = ["test", "--data", path, "--num-perms", "5"]
        digests = [_report(argv + ["--seed", seed], capsys)["config_digest"]
                   for seed in ("1", "2", "1")]
        assert digests[0] != digests[1] and digests[0] == digests[2]
        # the text rendering prints the same digest
        assert main(argv + ["--seed", "1", "--format", "text"]) == 0
        assert f"config={digests[0]}" in capsys.readouterr().out

    def test_parser_round_trip(self, tmp_path, capsys):
        args = build_parser().parse_args([
            "test", "--data", "x.csv", "--treatment", "d1,d2",
            "--seed", "7", "--num-perms", "9",
        ])
        assert args.subcommand == "test"
        assert args.data_path == "x.csv"
        assert args.treatment == ["d1", "d2"]
        assert args.seed == 7
        assert args.num_perms == 9
        path, _ = _dyadic_csv(tmp_path, n=6, seed=2)
        config = _report(["test", "--data", path, "--seed", "7", "--num-perms", "5"],
                         capsys)["config"]
        assert config == {"subcommand": "test", "data_path": path, "treatment": None,
                          "covariates": None, "seed": 7, "num_perms": 5, "rank_tol": None,
                          "beta0": None}

    def test_each_subcommand_takes_only_what_it_reads(self):
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction))
        options = {name: {flag for action in sub._actions for flag in action.option_strings
                          if action.dest != "help"}
                   for name, sub in subparsers.choices.items()}
        assert options == _OPTIONS
        assert sum(map(len, _OPTIONS.values())) == 93

    @pytest.mark.parametrize("sub, flag", _DROPPED)
    def test_dropped_flag_is_a_usage_error(self, tmp_path, capsys, sub, flag):
        argv = [sub, flag, "2"]
        if sub == "simulate":
            argv += ["--panel", "table1"]
        elif sub != "biclique":
            argv += ["--data", _dyadic_csv(tmp_path, n=6, seed=3)[0]]
        assert flag in _usage_error(argv, capsys)

    @pytest.mark.parametrize("argv, flag", [
        (["test", "--data", "g.csv", "--bogus", "1"], "--bogus"),
        (["test", "--data", "g.csv", "--seed", "abc"], "--seed"),
        (["test", "--seed", "1"], "--data"),
        (["simulate", "--panel", "table9"], "--panel"),
        (["frobnicate"], "frobnicate"),
    ])
    def test_usage_error_prints_the_error_object(self, capsys, argv, flag):
        assert flag in _usage_error(argv, capsys)

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exited:
            main([flag])
        assert exited.value.code == 0
        assert "clusterperm" in capsys.readouterr().out

    def test_threads_and_format_leave_the_report_alone(self, tmp_path, capsys):
        argv = ["simulate", "--panel", "table1", "--n", "10", "--reps", "4",
                "--num-perms", "9", "--seed", "7"]
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads-{threads}.json"
            assert main(argv + ["--threads", threads, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert main(argv + ["--format", "text"]) == 0
        digest = json.loads(reports[0])["config_digest"]
        assert f"config={digest}" in capsys.readouterr().out

    @pytest.mark.parametrize("panel", ["table1", "table4"])
    @pytest.mark.parametrize("flag", ["--l0", "--repeats"])
    def test_irregular_panel_flags_rejected_elsewhere(self, capsys, panel, flag):
        message = _usage_error(["simulate", "--panel", panel, flag, "9"], capsys)
        assert flag in message and "table3" in message

    def test_irregular_panel_fills_in_its_defaults(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_irregular_size_panel",
                            lambda **kwargs: calls.append(kwargs) or {})
        config = _report(["simulate", "--panel", "table3"], capsys)["config"]
        assert calls[0]["l0"] == 4 and calls[0]["repeats"] == 3
        assert config["l0"] == "4" and config["repeats"] == 3


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

    def test_degenerate_ci_is_strict_json(self, tmp_path, capsys):
        # d is constant and so is the covariate: the treatment lies in
        # col(X) and the interval is the whole line
        rng = np.random.default_rng(3)
        lines = ["i,j,y,d,x1"] + [f"{i},{j},{rng.standard_normal()!r},2.0,1.0"
                                  for i in range(1, 11) for j in range(1, 11)]
        path = _write(tmp_path / "flat.csv", "\n".join(lines) + "\n")
        assert main(["ci", "--data", path, "--num-perms", "19", "--covariates", "x1"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        results = json.loads(capsys.readouterr().out, parse_constant=reject)["results"]
        assert results["lower"] is None and results["upper"] is None
        assert results["open_ended"] == [True, True]
        assert results["grid"]["degenerate"] is True

    def test_non_finite_report_value_exits_3(self, capsys, monkeypatch):
        from clusterperm import cli

        monkeypatch.setattr(cli, "_execute", lambda config: {"pval": float("nan")})
        payload = self._json_run(["test", "--data", "unused.csv"], capsys, expect_exit=3)
        assert payload["error"]["code"] == "InternalError"

    def test_ci_below_floor_exits_2(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=6, seed=7)
        payload = self._json_run(
            ["ci", "--data", path, "--num-perms", "5", "--alpha", "0.01"],
            capsys, expect_exit=2,
        )
        assert payload["error"]["code"] == "ResolutionError"

    @pytest.mark.parametrize("flags, code", [
        (["--grid-points", "1"], "DimensionError"),
        (["--grid-points", "0"], "DimensionError"),
        (["--max-expansions", "-1"], "DimensionError"),
        (["--grid-half-width", "-1"], "DimensionError"),
        (["--grid-half-width", "0"], "DimensionError"),
        (["--grid-center", "nan"], "NonFiniteInputError"),
        (["--grid-center", "inf"], "NonFiniteInputError"),
        (["--alpha", "nan"], "ResolutionError"),
        (["--alpha", "1.5"], "ResolutionError"),
    ])
    def test_ci_bad_grid_or_level_exits_2(self, tmp_path, capsys, flags, code):
        # these used to crash (exit 3), print a point interval, or be replaced
        path, _ = _dyadic_csv(tmp_path, n=6, seed=7)
        payload = self._json_run(
            ["ci", "--data", path, "--num-perms", "5", "--alpha", "0.4"] + flags,
            capsys, expect_exit=2,
        )
        assert payload["error"]["code"] == code

    @pytest.mark.parametrize("argv", [
        ["test-irregular", "--l0", "abc"],
        ["test-irregular", "--l0", "2.5"],
        ["test-irregular", "--l0", "0"],
        ["simulate", "--panel", "table3", "--l0", "auto"],
        ["simulate", "--panel", "table3", "--l0", "-3"],
    ])
    def test_bad_l0_exits_2(self, tmp_path, capsys, argv):
        # int() used to raise ValueError here (exit 3)
        if argv[0] == "test-irregular":
            argv = argv + ["--data", _irregular_csv(tmp_path, seed=19)]
        payload = self._json_run(argv, capsys, expect_exit=2)
        assert payload["error"]["code"] == "ParseError"
        assert "--l0" in payload["error"]["message"]

    @pytest.mark.parametrize("panel, runner", [
        ("table1", "run_null_size_panel"),
        ("table4", "run_power_panel"),
        ("table3", "run_irregular_size_panel"),
    ])
    def test_simulate_passes_only_the_sizes_set(self, capsys, monkeypatch, panel, runner):
        calls = []
        monkeypatch.setattr(cli, runner, lambda **kwargs: calls.append(kwargs) or {})
        assert main(["simulate", "--panel", panel]) == 0
        assert main(["simulate", "--panel", panel, "--n", "6", "--reps", "2",
                     "--num-perms", "5"]) == 0
        capsys.readouterr()
        unset, given = calls
        assert not {"n", "n_rows", "n_cols", "reps", "num_perms"} & set(unset)
        assert given["reps"] == 2 and given["num_perms"] == 5
        assert given.get("n", given.get("n_rows")) == 6

    def test_parse_error_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path / "bad.csv", "i,j,y,d\n1,1,zzz,1.0\n")
        payload = self._json_run(["test", "--data", path], capsys, expect_exit=2)
        assert payload["error"]["code"] == "ParseError"
        assert "line 2" in payload["error"]["message"]

    def test_non_group_family_exits_2(self, tmp_path, capsys, monkeypatch):
        # K random row maps do not close into a group, so the p-value would
        # not be valid: the run must fail closed.
        from clusterperm import dyadic

        def random_map(specs, num_perms, seed):
            n = sum(int(np.prod([size for size, _ in axes])) for _, axes in specs)
            rng = np.random.default_rng(seed)
            return np.vstack([np.arange(n)] + [rng.permutation(n) for _ in range(num_perms)])

        monkeypatch.setattr(dyadic, "block_product_group", random_map)
        path, _ = _dyadic_csv(tmp_path, n=6, seed=9)
        payload = self._json_run(
            ["test", "--data", path, "--num-perms", "5", "--seed", "1"],
            capsys, expect_exit=2,
        )
        assert payload["error"]["code"] == "GroupError"

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

    def test_missing_with_empty_cover_exits_2(self, tmp_path, capsys):
        # a diagonal grid holds no 2x2 block, so the cover is empty
        path, _ = _dyadic_csv(tmp_path, n=6, seed=10)
        lines = open(path).read().strip().split("\n")
        diagonal = [lines[0]] + [lines[1 + 7 * i] for i in range(6)]
        sparse = _write(tmp_path / "diagonal.csv", "\n".join(diagonal) + "\n")
        payload = self._json_run(
            ["test-missing", "--data", sparse, "--num-perms", "3"], capsys, expect_exit=2,
        )
        assert payload["error"]["code"] == "NoEligibleCellsError"

    @pytest.mark.parametrize("argv, code", [
        (["ci", "--alpha", "nan"], "ResolutionError"),
        (["ci", "--alpha", "0"], "ResolutionError"),
        (["simulate", "--panel", "table1", "--alpha", "nan"], "ResolutionError"),
        (["simulate", "--panel", "table1", "--alpha", "1.5"], "ResolutionError"),
        (["test", "--rank-tol", "nan"], "ParseError"),
        (["test", "--rank-tol", "inf"], "ParseError"),
        (["test", "--rank-tol", "2.0"], "ParseError"),
        (["test", "--rank-tol", "1"], "ParseError"),
        (["test", "--rank-tol", "0"], "ParseError"),
        (["test-missing", "--rank-tol", "-1"], "ParseError"),
        (["simulate", "--panel", "table1", "--threads", "two"], "ParseError"),
        (["simulate", "--panel", "table1", "--threads", "0"], "ParseError"),
        (["simulate", "--panel", "table1", "--threads", "-5"], "ParseError"),
    ])
    def test_bad_shared_flag_exits_2(self, tmp_path, capsys, argv, code):
        # a NaN flag cannot be written to the strict JSON report, and a level
        # or rank cutoff outside (0, 1) has no meaning
        if argv[0] != "simulate":
            argv = argv + ["--data", _dyadic_csv(tmp_path, n=6, seed=11)[0]]
        payload = self._json_run(argv, capsys, expect_exit=2)
        assert payload["error"]["code"] == code

    def test_non_finite_beta0_is_named(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=6, seed=12)
        payload = self._json_run(
            ["test", "--data", path, "--num-perms", "5", "--beta0", "nan"],
            capsys, expect_exit=2,
        )
        assert payload["error"]["code"] == "NonFiniteInputError"
        assert payload["error"]["message"].startswith("beta0 ")

    @pytest.mark.parametrize("sub", ["test", "ci"])
    def test_underflowing_statistics_exit_2(self, tmp_path, capsys, sub):
        # y and D at 2^-600 each: pd_k'y underflows, which once gave p = 1
        path, _ = _dyadic_csv(tmp_path, n=20, seed=12, scale=2.0 ** -600)
        payload = self._json_run([sub, "--data", path, "--num-perms", "19"], capsys,
                                 expect_exit=2)
        assert payload["error"]["code"] == "NonFiniteInputError"
        assert "too small" in payload["error"]["message"]

    @pytest.mark.parametrize("power, size", [(550, "large"), (-550, "small")])
    def test_irregular_out_of_range_statistics_name_the_outcome(self, tmp_path, capsys,
                                                                 power, size):
        # one outcome column: the error names it as a single outcome's test
        # does, not as a column of a stack
        path = _irregular_csv(tmp_path, seed=19, scale=2.0 ** power)
        payload = self._json_run(["test-irregular", "--data", path, "--num-perms", "3",
                                  "--repeats", "2", "--seed", "19"], capsys, expect_exit=2)
        assert payload["error"]["code"] == "NonFiniteInputError"
        assert payload["error"]["message"].startswith(f"outcome or treatment is too {size}")

    @pytest.mark.parametrize("sub, fixed", [
        ("test", False), ("test-panel", False),
        ("test-missing", True), ("test-layout", True), ("test-irregular", True),
    ])
    def test_num_perms_fallback(self, tmp_path, capsys, sub, fixed):
        # blockwise, layout and irregular runs default to K = 19; the
        # others take their divisor-based default, 99 on these 6 x 6 grids
        from clusterperm.permgroup import default_num_perms

        if sub in ("test", "test-missing"):
            argv = ["--data", _dyadic_csv(tmp_path, n=6, seed=13)[0]]
        elif sub == "test-irregular":
            argv = ["--data", _irregular_csv(tmp_path, seed=13), "--repeats", "1"]
        else:
            argv = ["--data", _box_csv(tmp_path, seed=13)]
        report = self._json_run([sub] + argv, capsys)
        want = 19 if fixed else default_num_perms(6, 6)
        assert report["results"]["num_perms"] == want

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

    @pytest.mark.parametrize("header", ["i,j,y", "i,j,l,y"])
    def test_biclique_reads_only_the_index_columns(self, tmp_path, capsys, header):
        # --data once went through the full ingest, which needs a treatment column
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5) if (i, j) != (2, 3)]
        records = [(i, j, l) for i, j in cells for l in (1, 2)[:1 + (i + j) % 2]]
        rows = ([f"{i},{j},0.5" for i, j in cells] if header == "i,j,y"
                else [f"{i},{j},{l},0.5" for i, j, l in records])
        data = _write(tmp_path / "data.csv", "\n".join([header, *rows]) + "\n")
        mask = _write(tmp_path / "mask.csv", "\n".join(
            ["i,j,m"] + [f"{i},{j},{int((i, j) in cells)}"
                         for i in range(1, 5) for j in range(1, 5)]) + "\n")
        from_data = self._json_run(["biclique", "--data", data], capsys)["results"]
        from_mask = self._json_run(["biclique", "--mask", mask], capsys)["results"]
        assert from_data == from_mask and from_data["sides"] == [[4, 3]]
        extra = ",1" if "l" in header else ""
        bad = _write(tmp_path / "bad.csv", f"{header}\n1,1{extra},0.5\n1,x{extra},0.5\n")
        payload = self._json_run(["biclique", "--data", bad], capsys, expect_exit=2)
        assert payload["error"] == {"code": "ParseError",
                                    "message": "line 3: column 'j' must be an integer, got 'x'"}

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

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_treatment_exits_2(self, tmp_path, capsys, scale):
        # finite, but ||D||^2 overflows: p = 1 with a false "annihilated"
        # note, and at 1e300 exit 3 on an inf statistic in the JSON.  The
        # degenerate check takes scaled norms, so `test` keeps its p-value;
        # `ci`'s contractions pd_k'D overflow, and name the treatment.
        path, _ = _dyadic_csv(tmp_path, n=20, seed=17)
        lines = open(path).read().strip().split("\n")
        for row, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            fields[3] = repr(float(fields[3]) * scale)
            lines[row] = ",".join(fields)
        big = _write(tmp_path / "big.csv", "\n".join(lines) + "\n")
        plain, scaled = (self._json_run(["test", "--data", data, "--num-perms", "19"],
                                        capsys)["results"] for data in (path, big))
        assert scaled["pval"] == plain["pval"] and scaled["notes"] == []
        payload = self._json_run(
            ["ci", "--data", big, "--num-perms", "19"], capsys, expect_exit=2
        )
        assert payload["error"]["code"] == "NonFiniteInputError"
        assert "treatment" in payload["error"]["message"]

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

    def test_unexpected_exception_exits_3(self, tmp_path, capsys):
        path, _ = _dyadic_csv(tmp_path, n=4, seed=18)
        with mock.patch.object(cli, "_execute", side_effect=RuntimeError("boom")):
            payload = self._json_run(["test", "--data", path], capsys, expect_exit=3)
        assert payload == {"error": {"code": "InternalError", "message": "RuntimeError: boom"}}

    def test_diagnostics_capture_warnings(self, tmp_path, capsys, monkeypatch):
        # The engine raises no Python warning (its notes are in the results),
        # so one is injected to check that a warning lands in the diagnostics.
        real = cli.blockwise_test

        def warning_blockwise(*args, **kwargs):
            warnings.warn("injected warning")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "blockwise_test", warning_blockwise)
        path, _ = _dyadic_csv(tmp_path, n=8, seed=14)
        lines = open(path).read().strip().split("\n")
        kept = [lines[0]] + [r for t, r in enumerate(lines[1:]) if t % 9 != 5]
        sparse = _write(tmp_path / "sp.csv", "\n".join(kept) + "\n")
        report = self._json_run(
            ["test-missing", "--data", sparse, "--num-perms", "9", "--seed", "14"],
            capsys,
        )
        assert report["diagnostics"]["warnings"] == ["injected warning"]
        assert any("shorter" in note for note in report["results"]["notes"])

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        path = _box_csv(tmp_path, m=6, n=6, ell=2, seed=10)
        out = tmp_path / "missing-dir" / "r.json"
        code = main(["test-layout", "--data", path, "--num-perms", "1", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)["error"]
        assert error["code"] == "ParseError"
        assert error["message"].startswith(f"cannot write --out {out}: ")
        assert "Traceback" not in captured.err


# A bounded fuzz of the irregular pipeline's two subcommands on small
# pathological record files: whatever the columns hold, a run exits 0 with a
# strict JSON report or 2 with a typed error, never 3.

_FUZZ_COLUMNS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "constant": lambda rng, n: np.full(n, 3.5),
    "zero": lambda rng, n: np.zeros(n),
    "huge": lambda rng, n: 1e300 * rng.standard_normal(n),
    "tiny": lambda rng, n: 1e-300 * rng.standard_normal(n),
    "subnormal": lambda rng, n: 5e-324 * rng.integers(-9, 10, size=n),
    "nan": lambda rng, n: np.where(rng.random(n) < 0.3, np.nan, rng.standard_normal(n)),
    "inf": lambda rng, n: np.where(rng.random(n) < 0.3, -np.inf, rng.standard_normal(n)),
}


@st.composite
def _fuzz_records(draw, balanced=False):
    """A records CSV on a grid of up to 6x6 cells, some empty and some of one
    record, whose y, d and x1 columns each take a pathological kind; or, when
    ``balanced``, a full box of 1 to 3 records per cell."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(0, 6, size=rng.integers(1, 7, size=2))
    sizes[rng.random(sizes.shape) < 0.2] = 1
    sizes[-1, -1] = max(sizes[-1, -1], 1)
    if balanced:
        sizes[:] = rng.integers(1, 4)
    i, j = np.divmod(np.repeat(np.arange(sizes.size), sizes.ravel()), sizes.shape[1])
    l = np.concatenate([np.arange(c) for c in sizes.ravel()])
    kinds = [draw(st.sampled_from(sorted(_FUZZ_COLUMNS))) for _ in range(3)]
    values = np.column_stack([_FUZZ_COLUMNS[kind](rng, i.size) for kind in kinds])
    lines = ["i,j,l,y,d,x1"] + [f"{a + 1},{b + 1},{c + 1}," + ",".join(repr(float(v)) for v in row)
                                for a, b, c, row in zip(i, j, l, values)]
    return "\n".join(lines) + "\n"


@st.composite
def _fuzz_grid(draw):
    """A grid CSV on up to 6x6 cells, complete or with holes, whose y, d and
    x1 columns each take a pathological kind."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = rng.random(rng.integers(1, 7, size=2)) < draw(st.sampled_from([1.0, 1.0, 0.7]))
    present[-1, -1] = True
    i, j = np.nonzero(present)
    kinds = [draw(st.sampled_from(sorted(_FUZZ_COLUMNS))) for _ in range(3)]
    values = np.column_stack([_FUZZ_COLUMNS[kind](rng, i.size) for kind in kinds])
    lines = ["i,j,y,d,x1"] + [f"{a + 1},{b + 1}," + ",".join(repr(float(v)) for v in row)
                              for a, b, row in zip(i, j, values)]
    return "\n".join(lines) + "\n"


def _assert_exit_0_strict_or_2(text: str, commands, flags) -> None:
    """Run each command on ``text`` through ``main``: it exits 0 with a strict
    JSON report, or 2 with a JSON error, never 3."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "data.csv", text)
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--data", path] + flags)
            payload = json.loads(out.getvalue(), parse_constant=reject)
            assert code in (0, 2), out.getvalue()
            assert ("error" in payload) == (code == 2)


class TestIrregularCliFuzz:
    @settings(max_examples=120, deadline=None)
    @given(text=_fuzz_records(), seed=st.integers(0, 2**31),
           l0=st.sampled_from(["auto", "1", "2", "3"]),
           solver=st.sampled_from(["auto", "exact", "greedy"]),
           min_block=st.integers(1, 2))
    def test_exits_0_with_strict_json_or_2(self, text, seed, l0, solver, min_block):
        flags = ["--seed", str(seed), "--biclique-solver", solver,
                 "--min-block", str(min_block), "--restarts", "3"]
        _assert_exit_0_strict_or_2(text, (["test-irregular", "--num-perms", "3", "--repeats", "2",
                                           "--l0", l0], ["biclique"]), flags)


class TestDataCliFuzz:
    # The other data subcommands, on the same pathological columns: grids for
    # test, ci and test-missing, records for the box, panel and layout tests.

    @settings(max_examples=60, deadline=None)
    @given(text=_fuzz_grid(), seed=st.integers(0, 2**31), num_perms=st.integers(1, 5),
           min_block=st.integers(1, 2))
    def test_grid_subcommands_exit_0_with_strict_json_or_2(self, text, seed, num_perms,
                                                           min_block):
        _assert_exit_0_strict_or_2(text, (["test"], ["test", "--beta0", "0.5"],
                                          ["ci", "--alpha", "0.5"],
                                          ["test-missing", "--min-block", str(min_block),
                                           "--restarts", "3"]),
                                   ["--seed", str(seed), "--num-perms", str(num_perms)])

    @settings(max_examples=60, deadline=None)
    @given(text=st.booleans().flatmap(_fuzz_records), seed=st.integers(0, 2**31),
           num_perms=st.integers(1, 5))
    def test_record_subcommands_exit_0_with_strict_json_or_2(self, text, seed, num_perms):
        _assert_exit_0_strict_or_2(text, (["test-threeway"], ["test-panel"], ["test-layout"]),
                                   ["--seed", str(seed), "--num-perms", str(num_perms)])


@pytest.mark.parametrize("read, text, message", [
    (ingest_csv, "i,j,y,d\n\n  \n", "no data rows"),
    (ingest_csv, "i,j,y,d,d\n1,1,0.5,1.0,1.0\n", "duplicate column name 'd'"),
    (ingest_mask_csv, "i,j,x\n1,1,1\n", "missing required column 'm'"),
], ids=["blank-rows", "duplicate-column", "mask-without-m"])
def test_malformed_files_raise_parse_errors(tmp_path, read, text, message):
    raises_exactly(lambda: read(_write(tmp_path / "bad.csv", text)), ParseError, message)


def test_dyadic_subcommand_on_records_exits_2(tmp_path, capsys):
    message = _usage_error(["test", "--data", _box_csv(tmp_path), "--num-perms", "3"], capsys)
    assert message == "this subcommand expects dyadic data without an 'l' column"
