"""Property checks of the table loader against a per-cell ``float()`` reference.

Tables mix padded, quoted, multi-line and exponent-form cells with blank and
delimiter-only lines, quote header names now and then, and shuffle the
treatment and outcome columns among the features. A valid table must load
bit for bit as ``float()`` reads each cell; a table with one defect must
fail at that defect's physical line and column.
Both properties also run with chunks of one to three rows, so that chunk
boundaries fall between most rows; those runs keep numpy's C reader out, so
that they check the chunked csv reader.

A differential property feeds the same tables, and mutants of them that the
two readers could read differently, to the loader with and without the C
reader: the datasets, or the errors, must be identical.
"""

import csv
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stratamatch import cli, dataset  # noqa: E402
from stratamatch.dataset import (  # noqa: E402
    load_dataset,
    make_dataset,
    normalize_min_max,
)
from stratamatch.errors import ParseFailure, StrataMatchError  # noqa: E402

CHECKS = settings(derandomize=True, deadline=None, database=None, max_examples=300)
CLI_CHECKS = settings(derandomize=True, deadline=None, database=None, max_examples=50)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def number_cells(draw, value, delim, quotes=True):
    """One spelling of ``value`` that ``float()`` reads back exactly."""
    text = draw(st.sampled_from([repr(value), f"{value:.17e}", f"{value:.17G}"]))
    pad = st.sampled_from(["", " ", "  "] + (["\t"] if delim != "\t" else []))
    text = draw(pad) + text + draw(pad)
    form = draw(st.sampled_from(["plain", "quoted", "multiline"] if quotes else ["plain"]))
    if form == "quoted":
        return f'"{text}"'
    if form == "multiline":
        return f'"{text}\n"'
    return text


@st.composite
def tables(draw, quotes=True):
    """A valid table: the delimiter, the header, the cell texts of each row,
    and the file's records (the header text, then one per row, blank ones in
    between). Header names are quoted now and then. With ``quotes=False`` no
    cell is quoted and no name holds a line end."""
    delim = draw(st.sampled_from([",", "\t"]))
    p = draw(st.integers(1, 4))
    names = [f"x{j + 1}" for j in range(p)]
    # names only a quoted header can hold: one with the delimiter and, when
    # cells may be quoted, one with a line end
    if draw(st.booleans()):
        names[0] = f"x{delim}1"
    if quotes and p > 1 and draw(st.booleans()):
        names[1] = "x\n2"
    header = draw(st.permutations(["t", "y"] + names))
    n = draw(st.integers(2, 8))
    treat = [0, 1] + draw(st.lists(st.sampled_from([0, 1]), min_size=n - 2, max_size=n - 2))
    spelled = {0: ["0", "-0.0", "0e5", " 0 "], 1: ["1", "1.0", "+1"] + (['"1"'] if quotes else [])}
    blank = st.sampled_from(["", " ", delim * (p + 1), f" {delim} "])
    records = [delim.join(f'"{name}"' if draw(st.booleans()) or delim in name or "\n" in name
                          else name for name in header)]
    cells = []
    for i in range(n):
        records.extend(draw(st.lists(blank, max_size=2)))
        row = [
            draw(st.sampled_from(spelled[treat[i]])) if name == "t"
            else draw(number_cells(draw(FINITE), delim, quotes))
            for name in header
        ]
        cells.append(row)
        records.append(row)
    records.extend(draw(st.lists(blank, max_size=2)))
    return delim, header, cells, records


def _layout(delim, records):
    """The file text, and the physical line on which each data row ends."""
    texts, ends, line = [], [], 0
    for record in records:
        text = delim.join(record) if isinstance(record, list) else record
        line += text.count("\n") + 1
        texts.append(text)
        if isinstance(record, list):
            ends.append(line)
    return "\n".join(texts) + "\n", ends


def _unquote(cell):
    cell = cell.strip()
    return cell[1:-1] if cell.startswith('"') else cell


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


def _csv_reader_only():
    """Keep numpy's C reader out of the load, so that the chunked csv reader
    reads every table."""
    return mock.patch.object(dataset, "_c_table", return_value=None)


def _write(workdir, text):
    path = workdir / "table.csv"
    path.write_text(text, newline="")
    return path


def _check_valid_table(workdir, table):
    delim, header, cells, records = table
    text, _ = _layout(delim, records)
    d = load_dataset(_write(workdir, text), "t", "y", delimiter=delim)
    ref = np.array([[float(_unquote(c)) for c in row] for row in cells])
    feats = [j for j, name in enumerate(header) if name not in ("t", "y")]
    assert d.feature_names == tuple(header[j] for j in feats)
    assert d.x.tobytes() == np.ascontiguousarray(ref[:, feats]).tobytes()
    assert d.y.tobytes() == np.ascontiguousarray(ref[:, header.index("y")]).tobytes()
    assert d.t.tolist() == [int(v) for v in ref[:, header.index("t")]]


@CHECKS
@given(tables())
def test_valid_table_matches_per_cell_float(workdir, table):
    _check_valid_table(workdir, table)


# chunks of one to three rows put chunk boundaries between most rows
@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
@CHECKS
@given(table=tables())
def test_valid_table_matches_per_cell_float_in_small_chunks(workdir, chunk_rows, table):
    with mock.patch.object(dataset, "_CHUNK_ROWS", chunk_rows), _csv_reader_only():
        _check_valid_table(workdir, table)


DEFECTS = {
    "word": st.sampled_from(["abc", "1.2.3", "0x10", "1e", "--1"]),
    "empty": st.sampled_from(["", "  ", '""']),
    "nonfinite": st.sampled_from(["nan", "NaN", "inf", "-Infinity", "1e400"]),
    "treatment": st.sampled_from(["2", "0.5", "-1", "1e-300"]),
}


@st.composite
def defective_tables(draw):
    """A table with one defect, and the (line, column) that must be reported."""
    delim, header, cells, records = draw(tables())
    i = draw(st.integers(0, len(cells) - 1))
    kind = draw(st.sampled_from(sorted(DEFECTS) + ["count"]))
    row = list(cells[i])
    if kind == "count":
        if draw(st.booleans()):
            row.append("1")
        else:
            row.pop(draw(st.integers(0, len(row) - 1)))
        col = "<row>"
    else:
        j = header.index("t") if kind == "treatment" else draw(st.integers(0, len(row) - 1))
        row[j] = draw(DEFECTS[kind])
        col = header[j]
    records[next(k for k, r in enumerate(records) if r is cells[i])] = row
    text, ends = _layout(delim, records)
    return text, delim, ends[i], col


def _check_defect(workdir, case):
    text, delim, line, col = case
    with pytest.raises(ParseFailure) as ei:
        load_dataset(_write(workdir, text), "t", "y", delimiter=delim)
    assert (ei.value.row, ei.value.col) == (line, col)


@CHECKS
@given(defective_tables())
def test_one_defect_is_reported_at_its_line_and_column(workdir, case):
    _check_defect(workdir, case)


@pytest.mark.parametrize("chunk_rows", [1, 2, 3])
@CHECKS
@given(case=defective_tables())
def test_one_defect_is_reported_at_its_line_and_column_in_small_chunks(workdir, chunk_rows, case):
    with mock.patch.object(dataset, "_CHUNK_ROWS", chunk_rows), _csv_reader_only():
        _check_defect(workdir, case)


@CLI_CHECKS
@given(defective_tables())
def test_one_defect_exits_3_through_the_cli(workdir, case):
    text, delim, _, _ = case
    argv = ["estimate", "--input", str(_write(workdir, text)),
            "--treatment", "t", "--outcome", "y", "--method", "naive",
            "--out", str(workdir / "run")]
    if delim == "\t":
        argv.append("--tab")
    assert cli.main(argv) == 3


# Lines, cells and line ends on which numpy's C reader and the csv reader
# could part: the C reader refuses some of them and reads others as the csv
# reader does. A cell one character over the csv field size limit is finite
# to the C reader but refused by the csv reader.
ODD_LINES = ["", " ", "\t", "\x1c", "\x00"]
ODD_CELLS = ["1_0", "\u0661", "\u0663.5", "\uff11", "0x10", "\x001", "1\x00", "\x1c2\x1c",
             "\x1f3", "\xa04\xa0", "\u20035", "\x0c6", "7\x0b", "8\x85", "9\u2028", "\ufeff1"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def mixed_tables(draw):
    """The delimiter, the text of a table, valid or not, and whether the C
    reader must read it.

    The table is one of :func:`tables`, quoted or not, perhaps one cell
    wider on every row, with some of its rows mutated, odd lines inserted, a
    line end per record and perhaps no final line end. Two tables in three
    keep only their empty blank lines; those of them without quoted cells or
    mutations are the ones the C reader must read, unless their header is
    quoted and no line ends in a line feed.
    """
    quotes = draw(st.sampled_from([False, False, True]))
    delim, _, _, records = draw(tables(quotes=quotes))
    plain = draw(st.sampled_from([False, True, True]))
    if plain:
        records = records[:1] + [r for r in records[1:] if r == "" or isinstance(r, list)]
    # one cell more on every row: a table of one width, not the header's
    wider = draw(st.sampled_from([False, False, False, True]))
    if wider:
        records = [r + ["0"] if isinstance(r, list) else r for r in records]
    texts = [delim.join(r) if isinstance(r, list) else r for r in records]
    mutated = draw(st.lists(st.integers(1, len(texts) - 1), max_size=2))
    for k in mutated:
        cells = texts[k].split(delim)
        kind = draw(st.sampled_from(["odd", "trailing", "oversized", "line", "space-line"]))
        j = draw(st.integers(0, len(cells) - 1))
        if kind == "odd":
            cells[j] = draw(st.sampled_from(ODD_CELLS))
        elif kind == "oversized":
            cells[j] = "0" * csv.field_size_limit() + "1"
        elif kind == "trailing":
            cells.append("")
        texts[k] = delim.join(cells)
        if kind == "line":
            texts.insert(k, draw(st.sampled_from(ODD_LINES)))
        elif kind == "space-line":
            texts.insert(k, delim.join(" " * len(c) for c in cells))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(texts), max_size=len(texts)))
    text = "".join(t + e for t, e in zip(texts, ends))
    if draw(st.booleans()):
        text = text[:-len(ends[-1])]
    c_read = plain and not (quotes or wider or mutated) and ("\n" in text or '"' not in text)
    return delim, text, c_read


def _outcome(path, delim):
    """What the loader makes of a file: the dataset's bytes, or the error."""
    try:
        d = load_dataset(path, "t", "y", delimiter=delim)
    except StrataMatchError as exc:
        return type(exc), str(exc), vars(exc)
    return d.feature_names, d.t.dtype, d.t.tobytes(), d.x.tobytes(), d.y.tobytes()


C_TABLE = dataset._c_table


@CHECKS
@given(mixed_tables())
def test_c_reader_loads_exactly_what_the_csv_reader_loads(workdir, case):
    delim, text, plain = case
    path = workdir / "mixed.csv"
    path.write_bytes(text.encode("utf-8"))
    read = []

    def c_table(*args):
        table = C_TABLE(*args)
        read.append(table is not None)
        return table

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(dataset, "_c_table", c_table):
            got = _outcome(path, delim)
        with _csv_reader_only():
            want = _outcome(path, delim)
    assert got == want
    assert (read == [True]) if plain else (len(read) == 1)


MAGNITUDES = st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 3.0, 1e300, 1e308, 1.7976931348623157e308])


@st.composite
def feature_columns(draw):
    """A feature matrix of 2-6 rows whose columns mix every magnitude, so
    that some spans overflow and some do not."""
    n, p = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    cells = st.one_of(FINITE, st.builds(lambda m, s: s * m, MAGNITUDES, st.sampled_from([1, -1])))
    return np.array(draw(st.lists(st.lists(cells, min_size=p, max_size=p),
                                  min_size=n, max_size=n)))


@CHECKS
@given(feature_columns())
def test_normalize_keeps_the_bits_of_every_finite_span(x):
    t = np.arange(len(x)) % 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = normalize_min_max(make_dataset(t, x, np.zeros(len(x)), [f"x{j}" for j in range(x.shape[1])]))
    assert np.isfinite(d.x).all()
    lo, hi = x.min(axis=0), x.max(axis=0)
    with np.errstate(over="ignore"):
        finite = np.isfinite(hi - lo)
    for j in np.flatnonzero(finite):
        span = hi[j] - lo[j]
        old = (x[:, j] - lo[j]) / span if span > 0 else np.zeros(len(x))
        assert d.x[:, j].tobytes() == old.tobytes()
    for j in np.flatnonzero(~finite):
        assert ((d.x[:, j] >= 0) & (d.x[:, j] <= 1)).all()
        assert d.x[:, j].min() == 0 and d.x[:, j].max() == 1
        halved = (x[:, j] / 2 - lo[j] / 2) / (hi[j] / 2 - lo[j] / 2)
        assert d.x[:, j].tobytes() == halved.tobytes()
