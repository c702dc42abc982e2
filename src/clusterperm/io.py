"""CSV ingestion for dyadic grids, multi-index records, and masks.

Input files are CSV with a header row, in this dialect: fields separated by
commas; a field may be wrapped in double quotes (a doubled quote inside is a
literal quote), and whitespace around a value is ignored; rows holding only
commas and whitespace are skipped; a quoted field may not run past the end
of its line.  Line numbers in errors count physical lines, header included.
Indices are 1-based on disk and converted to 0-based arrays here.  Column
roles:

* ``i``, ``j`` -- row and column cluster indices (required);
* ``l`` -- within-cell slot index (optional; its presence selects the
  multi-index record layout over the dyadic grid layout);
* ``y`` -- outcome (required);
* ``d``, ``d1``, ``d2``, ... -- treatment columns;
* ``x``, ``x1``, ``x2``, ... -- covariate columns.

Columns with no role are never converted.  One
``np.loadtxt`` call parses the body of the file: index columns as int64
(so ``1.0`` is not an index) and value columns as float64, which rounds
exactly as ``float()`` does.  The values are then checked and placed with
array operations.  Only when that call fails does a row-by-row pass run,
to name the column and line of the first bad cell.
"""

from __future__ import annotations

import csv
import re
from itertools import compress, repeat
from typing import NamedTuple, NoReturn

import numpy as np

from .exceptions import DuplicateCellError, ParseError
from .model import DyadArray
from .multiway import MultiIndexDataset

_TREATMENT_PAT = re.compile(r"^d\d*$")
_COVARIATE_PAT = re.compile(r"^x\d*$")

# The delimiter and every character str.strip() removes: a row made of these
# alone is blank.
_BLANK = (
    ",\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)

# A column no field uses: loadtxt accepts any text there and stores nothing.
_UNUSED = np.dtype("U0")


class _Field(NamedTuple):
    """A header column a reader converts.

    ``kind`` is ``"index"`` (an integer >= 1), ``"value"`` (a float) or
    ``"bit"`` (the text 0 or 1, after stripping).
    """

    name: str
    column: int
    kind: str

    @property
    def key(self) -> str:
        return f"f{self.column}"


def _split(line: str, line_no: int) -> list[str]:
    """The fields of one line, as the csv module reads them."""
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:  # e.g. a field over the csv module's size limit
        raise ParseError(str(exc), line=line_no) from None


def _read_lines(path) -> tuple[list[str], list[str], np.ndarray]:
    """Header names, the non-blank data lines and their 1-based line numbers."""
    try:
        with open(path) as fh:  # universal newlines: "\r\n" and "\r" end lines too
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not text:
        raise ParseError("empty file")
    lines = text.split("\n")
    header = [name.strip() for name in _split(lines[0], 1)]
    kept = np.fromiter(map(len, map(str.strip, lines, repeat(_BLANK))), np.intp, len(lines)) > 0
    kept[0] = False
    if not kept.any():
        raise ParseError("no data rows")
    return header, list(compress(lines, kept.tolist())), np.flatnonzero(kept) + 1


def _check_field_counts(n_fields: int, lines: list[str], line_nos: np.ndarray) -> None:
    """Raise for the first line whose field count is not ``n_fields``, or
    whose quoted field runs past its end."""
    for line, line_no in zip(lines, line_nos.tolist()):
        cells = _split(line + "\n", line_no)
        if "\n" in cells[-1]:
            raise ParseError("quoted field is not closed on its line", line=line_no)
        if len(cells) != n_fields:
            raise ParseError(f"expected {n_fields} fields, got {len(cells)}", line=line_no)


def _dtype(header: list[str], fields: list[_Field], lines: list[str]) -> np.dtype:
    kinds = [_UNUSED] * len(header)
    for field in fields:
        if field.kind == "index":
            kinds[field.column] = np.dtype(np.int64)
        elif field.kind == "value":
            kinds[field.column] = np.dtype(np.float64)
        else:  # wide enough that no cell is cut short
            kinds[field.column] = np.dtype(f"U{max(map(len, lines))}")
    return np.dtype([(f"f{column}", kind) for column, kind in enumerate(kinds)])


def _load(lines: list[str], dtype: np.dtype) -> np.ndarray:
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, quotechar='"', ndmin=1)


def _invalid(field: _Field, column: np.ndarray) -> np.ndarray:
    if field.kind == "index":
        return column < 1
    return ~np.isin(np.strings.strip(column), ("0", "1"))


def _invalid_error(field: _Field, value) -> str:
    if field.kind == "index":
        return f"column {field.name!r} must be >= 1, got {int(value)}"
    return f"column {field.name!r} must be 0 or 1, got {str(value).strip()!r}"


def _check_values(values: np.ndarray, fields: list[_Field], line_nos: np.ndarray) -> None:
    """Raise for the first row holding an out-of-range index or bit, naming
    the first such field in ``fields`` order."""
    checked = [field for field in fields if field.kind != "value"]
    if not checked:
        return
    bad = np.column_stack([_invalid(field, values[field.key]) for field in checked])
    rows = np.flatnonzero(bad.any(axis=1))
    if rows.size:
        row = rows[0]
        field = checked[int(np.argmax(bad[row]))]
        raise ParseError(_invalid_error(field, values[field.key][row]), line=int(line_nos[row]))


def _raise_row_error(header, lines, line_nos, fields, dtype) -> NoReturn:
    """Raise the ParseError for the first bad row, walking the rows one by
    one.  Called only after the parse of all lines at once failed."""
    _check_field_counts(len(header), lines, line_nos)
    for line, line_no in zip(lines, line_nos.tolist()):
        try:
            row = _load([line], dtype)
        except ValueError:
            cells = _split(line, line_no)
            for field in fields:
                alone = np.dtype([(name, dtype[name] if name == field.key else _UNUSED)
                                  for name in dtype.names])
                try:
                    value = _load([line], alone)
                except ValueError:
                    kind = "an integer" if field.kind == "index" else "numeric"
                    raw = cells[field.column].strip()
                    raise ParseError(f"column {field.name!r} must be {kind}, got {raw!r}",
                                     line=line_no) from None
                _check_values(value, [field], np.array([line_no]))
            raise ParseError("row could not be parsed", line=line_no) from None
        _check_values(row, fields, np.array([line_no]))
    raise ParseError("rows could not be parsed")


def _read_table(path, select) -> tuple[dict[str, list[_Field]], np.ndarray, np.ndarray]:
    """Parse the columns ``select(header)`` picks from every data row.

    ``select`` returns the fields grouped by role, groups and fields in the
    order the row-by-row pass checks them.  Returns those groups, a
    structured array with field ``f<k>`` for header column k, and each row's
    line number.
    """
    header, lines, line_nos = _read_lines(path)
    try:
        groups = select(header)
    except ParseError:  # a malformed row is reported before a header fault
        _check_field_counts(len(header), lines, line_nos)
        raise
    fields = [field for group in groups.values() for field in group]
    dtype = _dtype(header, fields, lines)
    try:
        values = _load(lines, dtype)
    except ValueError:
        values = None
    if values is None or values.shape[0] != len(lines):  # a quote swallowed a line break
        _raise_row_error(header, lines, line_nos, fields, dtype)
    _check_values(values, fields, line_nos)
    return groups, values, line_nos


def _column_order(names: list[str]) -> list[str]:
    def sort_key(name):
        digits = name[1:]
        return (int(digits) if digits else 0, name)

    return sorted(names, key=sort_key)


def _cells(values: np.ndarray, fields: list[_Field]) -> tuple[list[np.ndarray], tuple, np.ndarray]:
    """0-based index arrays, their extents and each row's linear cell index."""
    index = [values[field.key].astype(np.intp) - 1 for field in fields]
    dims = tuple(int(axis.max()) + 1 for axis in index)
    return index, dims, np.ravel_multi_index(tuple(index), dims)


def _first_repeat(key: np.ndarray) -> tuple[int, int] | None:
    """(position, earlier position) of the first entry of ``key`` equal to an
    earlier one; None when all entries differ."""
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    if first.size == key.size:
        return None
    repeated = np.ones(key.size, dtype=bool)
    repeated[first] = False
    pos = int(np.argmax(repeated))
    return pos, int(first[inverse[pos]])


def _reject_repeated_cell(index, key, line_nos) -> None:
    """Raise at the second line of a repeated cell, or, with a third index
    ``l``, of a repeated record."""
    repeat_at = _first_repeat(key)
    if repeat_at is None:
        return
    pos, first = repeat_at
    where = ", ".join(f"{name}={int(axis[pos]) + 1}" for name, axis in zip("ijl", index))
    if len(index) == 3:
        raise DuplicateCellError(f"record ({where}) already appeared on line "
                                 f"{line_nos[first]}", line=int(line_nos[pos]))
    raise DuplicateCellError(f"cell ({where}) appears more than once", line=int(line_nos[pos]))


def _matrix(values: np.ndarray, fields: list[_Field]) -> np.ndarray:
    out = np.empty((values.shape[0], len(fields)))
    for c, field in enumerate(fields):
        out[:, c] = values[field.key]
    return out


def _index_fields(header, required=("i", "j")) -> dict[str, list[_Field]]:
    """The index fields, ``i``, ``j`` and ``l`` if present, after checking
    that no column name repeats and every ``required`` column is there."""
    seen = set()
    for name in header:
        if name in seen:
            raise ParseError(f"duplicate column name {name!r}")
        seen.add(name)
    for name in required:
        if name not in header:
            raise ParseError(f"missing required column {name!r}")
    index = ["i", "j", "l"] if "l" in header else ["i", "j"]
    return {"index": [_Field(n, header.index(n), "index") for n in index]}


def _ingest_fields(header, treatment, covariates) -> dict[str, list[_Field]]:
    groups = _index_fields(header, required=("i", "j", "y"))
    if treatment is None:
        treatment = _column_order([n for n in header if _TREATMENT_PAT.match(n)])
    if covariates is None:
        covariates = _column_order([n for n in header if _COVARIATE_PAT.match(n)])
    for name in list(treatment) + list(covariates):
        if name not in header:
            raise ParseError(f"requested column {name!r} not in header")
    if not treatment:
        raise ParseError("no treatment columns found (expected d, d1, ...)")
    roles = {"y": ["y"], "d": treatment, "x": covariates}
    return groups | {role: [_Field(n, header.index(n), "value") for n in names]
                     for role, names in roles.items()}


def ingest_csv(path, treatment=None, covariates=None):
    """Load a CSV file into a dyadic grid or a multi-index record set.

    ``treatment`` and ``covariates`` override the name-pattern inference
    (treatments ``d``, ``d1``, ...; covariates ``x``, ``x1``, ...).  Files
    without an ``l`` column become a ``DyadArray`` whose extents are the
    largest indices seen and whose unseen cells are marked missing; files
    with ``l`` become a ``MultiIndexDataset``.  A repeated cell (or, with
    ``l``, a repeated record) raises ``DuplicateCellError`` at its second
    line.
    """
    groups, values, line_nos = _read_table(
        path, lambda header: _ingest_fields(header, treatment, covariates))
    index, dims, key = _cells(values, groups["index"])
    y = values[groups["y"][0].key].copy()
    d = _matrix(values, groups["d"])
    x = _matrix(values, groups["x"])

    _reject_repeated_cell(index, key, line_nos)
    if len(index) == 3:
        if x.shape[1] == 0:
            x = np.ones((y.shape[0], 1))
        if d.shape[1] == 1:
            d = d[:, 0]
        return MultiIndexDataset(i=index[0], j=index[1], l=index[2], y=y, d=d, x=x)

    y_grid = np.zeros(dims)
    d_grid = np.zeros((*dims, d.shape[1]))
    p = x.shape[1] if x.shape[1] else 1
    x_grid = np.zeros((*dims, p))
    observed = np.zeros(dims, dtype=bool)
    y_grid.reshape(-1)[key] = y
    d_grid.reshape(-1, d.shape[1])[key] = d
    x_grid.reshape(-1, p)[key] = x if x.shape[1] else 1.0
    observed.reshape(-1)[key] = True
    return DyadArray(y=y_grid, d=d_grid, x=x_grid, observed=observed)


def ingest_cells(path) -> np.ndarray:
    """Which (i, j) cells of a data CSV hold a row (with ``l``, a record).

    Only the index columns are read, so a file without an outcome or a
    treatment column is fine; a bad index or a repeated cell (record) raises
    as :func:`ingest_csv` does.  The mask's extents are the largest indices.
    """
    groups, values, line_nos = _read_table(path, _index_fields)
    index, dims, key = _cells(values, groups["index"])
    _reject_repeated_cell(index, key, line_nos)
    present = np.zeros(dims[:2], dtype=bool)
    present[index[0], index[1]] = True
    return present


def _mask_fields(header) -> dict[str, list[_Field]]:
    for required in ("i", "j", "m"):
        if required not in header:
            raise ParseError(f"missing required column {required!r}")
    return {"index": [_Field(n, header.index(n), "index") for n in ("i", "j")],
            "m": [_Field("m", header.index("m"), "bit")]}


def ingest_mask_csv(path) -> np.ndarray:
    """Load an observation mask from CSV columns i, j, m (m in {0, 1})."""
    groups, values, line_nos = _read_table(path, _mask_fields)
    index, dims, key = _cells(values, groups["index"])
    _reject_repeated_cell(index, key, line_nos)
    mask = np.zeros(dims, dtype=np.int8)
    mask.reshape(-1)[key] = np.strings.strip(values[groups["m"][0].key]) == "1"
    return mask
