"""Property checks of the table loader against a per-cell ``float()`` reference.

Tables mix padded, quoted, multi-line and exponent-form cells with blank and
delimiter-only lines, and shuffle the treatment and outcome columns among the
features. A valid table must load bit for bit as ``float()`` reads each cell;
a table with one defect must fail at that defect's physical line and column.
Both properties also run with chunks of one to three rows, so that chunk
boundaries fall between most rows.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stratamatch import cli, dataset  # noqa: E402
from stratamatch.dataset import load_dataset  # noqa: E402
from stratamatch.errors import ParseFailure  # noqa: E402

CHECKS = settings(derandomize=True, deadline=None, database=None, max_examples=300)
CLI_CHECKS = settings(derandomize=True, deadline=None, database=None, max_examples=50)

FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def number_cells(draw, value, delim):
    """One spelling of ``value`` that ``float()`` reads back exactly."""
    text = draw(st.sampled_from([repr(value), f"{value:.17e}", f"{value:.17G}"]))
    pad = st.sampled_from(["", " ", "  "] + (["\t"] if delim != "\t" else []))
    text = draw(pad) + text + draw(pad)
    form = draw(st.sampled_from(["plain", "quoted", "multiline"]))
    if form == "quoted":
        return f'"{text}"'
    if form == "multiline":
        return f'"{text}\n"'
    return text


@st.composite
def tables(draw):
    """A valid table: the delimiter, the header, the cell texts of each row,
    and the file's records (one per row, blank ones in between)."""
    delim = draw(st.sampled_from([",", "\t"]))
    p = draw(st.integers(1, 4))
    header = draw(st.permutations(["t", "y"] + [f"x{j + 1}" for j in range(p)]))
    n = draw(st.integers(2, 8))
    treat = [0, 1] + draw(st.lists(st.sampled_from([0, 1]), min_size=n - 2, max_size=n - 2))
    spelled = {0: ["0", "-0.0", "0e5", " 0 "], 1: ["1", "1.0", "+1", '"1"']}
    blank = st.sampled_from(["", " ", delim * (p + 1), f" {delim} "])
    records = [delim.join(header)]
    cells = []
    for i in range(n):
        records.extend(draw(st.lists(blank, max_size=2)))
        row = [
            draw(st.sampled_from(spelled[treat[i]])) if name == "t"
            else draw(number_cells(draw(FINITE), delim))
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
    with mock.patch.object(dataset, "_CHUNK_ROWS", chunk_rows):
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
    with mock.patch.object(dataset, "_CHUNK_ROWS", chunk_rows):
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
