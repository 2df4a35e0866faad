import warnings

import numpy as np
import pytest

from stratamatch import dataset
from stratamatch.dataset import (
    load_dataset,
    make_dataset,
    normalize_min_max,
    split_by_treatment,
)
from stratamatch.errors import (
    ConfigError,
    EmptyInput,
    MalformedInput,
    NamedColumnAbsent,
    ParseFailure,
    PositivityViolation,
)

from conftest import held_peak


def _simple():
    t = np.array([0, 0, 0, 1])
    x = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [2.0, 40.0]])
    y = np.array([0.1, 0.2, 0.3, 0.9])
    return make_dataset(t, x, y, ("a", "b"))


def test_make_dataset_basic_shape():
    d = _simple()
    assert (d.n, d.p) == (4, 2)
    assert d.n_treated == 1 and d.n_control == 3
    assert d.feature_names == ("a", "b")
    assert not d.x.flags.writeable and not d.y.flags.writeable


def test_make_dataset_copies_its_inputs():
    t, x, y = np.array([0, 1]), np.array([[1.0], [2.0]]), np.zeros(2)
    d = make_dataset(t, x, y, ("a",))
    x[0, 0] = 9.0
    assert x.flags.writeable and d.x[0, 0] == 1.0
    assert not np.shares_memory(d.t, t) and not np.shares_memory(d.y, y)


def test_make_dataset_rejects_bad_treatment():
    with pytest.raises(PositivityViolation):
        make_dataset(np.array([0, 2]), np.zeros((2, 1)), np.zeros(2), ("a",))


def test_make_dataset_rejects_one_sided():
    with pytest.raises(PositivityViolation):
        make_dataset(np.zeros(3), np.zeros((3, 1)), np.zeros(3), ("a",))


def test_make_dataset_rejects_nonfinite():
    with pytest.raises(ParseFailure):
        make_dataset(np.array([0, 1]), np.array([[np.nan], [1.0]]), np.zeros(2), ("a",))


@pytest.mark.parametrize("outcome", [False, True])
def test_make_dataset_names_a_row_index_not_a_file_line(outcome):
    x, y = np.array([[1.0], [1.0]]), np.zeros(2)
    (y if outcome else x)[1] = np.nan
    with pytest.raises(ParseFailure) as ei:
        make_dataset(np.array([0, 1]), x, y, ("a",))
    col = "outcome" if outcome else "a"
    assert str(ei.value) == f"column {col!r}: row index 1 is not finite"
    assert (ei.value.row, ei.value.col) == (None, col)


def test_make_dataset_rejects_empty():
    with pytest.raises(EmptyInput):
        make_dataset(np.array([]), np.zeros((0, 1)), np.array([]), ("a",))


def test_normalize_min_max_ranges():
    d = normalize_min_max(_simple())
    assert d.x.min() == 0.0 and d.x.max() == 1.0
    np.testing.assert_allclose(d.x[:, 0], [0.0, 0.5, 1.0, 0.5])
    # y is left alone
    np.testing.assert_array_equal(d.y, _simple().y)
    assert d.scaling == ((1.0, 3.0), (10.0, 40.0))


def test_normalize_is_idempotent():
    d1 = normalize_min_max(_simple())
    d2 = normalize_min_max(d1)
    np.testing.assert_array_equal(d1.x, d2.x)
    assert d1.scaling == d2.scaling


def test_normalize_constant_column_goes_to_zero():
    t = np.array([0, 1])
    x = np.array([[5.0], [5.0]])
    d = normalize_min_max(make_dataset(t, x, np.zeros(2), ("c",)))
    np.testing.assert_array_equal(d.x, [[0.0], [0.0]])


def test_normalize_constant_signed_zeros_go_to_positive_zero():
    # min picks 0.0 here, and -0.0 - 0.0 is -0.0: the output is still +0.0
    t = np.array([0, 1, 0])
    x = np.array([[-0.0], [-0.0], [0.0]])
    d = normalize_min_max(make_dataset(t, x, np.zeros(3), ("z",)))
    assert d.x.tobytes() == np.zeros((3, 1)).tobytes()


def test_normalize_holds_one_output_beside_its_input():
    rng = np.random.default_rng(0)
    x = rng.uniform(-5, 5, size=(4000, 10))
    x[:, 3] = 2.0  # a constant column
    x[:, 7] = np.where(np.arange(4000) % 2, 1e308, -1e308)  # a span past the float range
    d = make_dataset(np.arange(4000) % 2, x, np.zeros(4000), [f"x{j}" for j in range(10)])
    with np.errstate(over="ignore"):
        dn, peak = held_peak(normalize_min_max, d)
    # the output, and temporaries of a column or two; no second n x p array
    assert dn.x.nbytes <= peak < 1.25 * dn.x.nbytes


def test_normalize_span_beyond_the_float_range():
    # 1e308 - (-1e308) overflows; the halved formula keeps every value finite
    t = np.array([0, 1, 0, 1])
    x = np.array([[1e308, 1.0], [-1e308, 2.0], [1e308, 3.0], [0.0, 5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = normalize_min_max(make_dataset(t, x, np.arange(4.0), ("a", "b")))
    np.testing.assert_array_equal(d.x[:, 0], [1.0, 0.0, 1.0, 0.5])
    np.testing.assert_array_equal(d.x[:, 1], [0.0, 0.25, 0.5, 1.0])


def test_split_by_treatment_partitions_rows():
    d = _simple()
    control, treated = split_by_treatment(d)
    assert control.n + treated.n == d.n
    assert np.all(control.t == 0) and np.all(treated.t == 1)
    # row identities survive the split
    np.testing.assert_array_equal(control.rows(), [0, 1, 2])
    np.testing.assert_array_equal(treated.rows(), [3])


def test_split_keeps_scaling():
    control, treated = split_by_treatment(normalize_min_max(_simple()))
    assert control.scaling == treated.scaling
    assert control.scaling is not None


def _write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_dataset_happy_path(tmp_path):
    p = _write(tmp_path, "t,y,a,b\n0,1.5,1,2\n1,2.5,3,4\n")
    d = load_dataset(p, treatment_col="t", outcome_col="y")
    assert d.feature_names == ("a", "b")
    np.testing.assert_array_equal(d.t, [0, 1])
    np.testing.assert_array_equal(d.y, [1.5, 2.5])
    np.testing.assert_array_equal(d.x, [[1, 2], [3, 4]])


def test_load_dataset_missing_column(tmp_path):
    p = _write(tmp_path, "t,y,a\n0,1,2\n1,3,4\n")
    with pytest.raises(NamedColumnAbsent) as ei:
        load_dataset(p, treatment_col="treat", outcome_col="y")
    assert ei.value.column == "treat"
    assert "a" in ei.value.available


def test_load_dataset_bad_cell_reports_line(tmp_path):
    p = _write(tmp_path, "t,y,a\n0,1,2\n1,oops,4\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    # header is line 1, so the bad row is line 3
    assert ei.value.row == 3
    assert ei.value.col == "y"
    assert ei.value.value == "oops"


def test_load_dataset_reports_physical_line_after_skipped_lines(tmp_path):
    p = _write(tmp_path, "t,y,x1\n0,1.0,2.0\n\n1,2.0,3.0\n,,\n \t\n0,3.0,abc\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    assert (ei.value.row, ei.value.col, ei.value.value) == (7, "x1", "abc")


def test_load_dataset_skips_blank_lines_before_the_header(tmp_path):
    p = _write(tmp_path, "\n,,\n \nt,y,x1\n0,1,2\n1,2,3\n0,2,5\n")
    d = load_dataset(p, treatment_col="t", outcome_col="y")
    assert d.feature_names == ("x1",)
    np.testing.assert_array_equal(d.x[:, 0], [2, 3, 5])
    p = _write(tmp_path, "\nt,y,x1\n0,1,2\n1,2,oops\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    assert (ei.value.row, ei.value.col, ei.value.value) == (4, "x1", "oops")


def test_load_dataset_drops_byte_order_mark(tmp_path):
    p = tmp_path / "bom.csv"
    p.write_bytes(b"\xef\xbb\xbft,y,x1\n0,1,2\n1,2,3\n")
    d = load_dataset(p, treatment_col="t", outcome_col="y")
    np.testing.assert_array_equal(d.t, [0, 1])
    p.write_bytes(b'\xef\xbb\xbf"t",y,x1\n0,1,2\n1,2,caf\xe9\n')
    with pytest.raises(MalformedInput, match="line 3"):
        load_dataset(p, treatment_col="t", outcome_col="y")


def test_load_dataset_wrong_cell_count_reports_physical_line(tmp_path):
    p = _write(tmp_path, "t,y,x1\n0,1.0,2.0\n\n, ,\n1,2.0\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    assert (ei.value.row, ei.value.col) == (5, "<row>")


def test_load_dataset_wrong_cell_count_says_so(tmp_path):
    p = _write(tmp_path, "t,y,a\n0,1,2\n1,2\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    assert str(ei.value) == "line 3, column '<row>': row has 2 cells, expected 3"


def test_load_dataset_line_is_where_a_multiline_row_ends(tmp_path):
    p = _write(tmp_path, 't,y,x1\n0,1.0,"2.0\n"\n1,"2.0\n\n",oops\n')
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    assert (ei.value.row, ei.value.col) == (6, "x1")


def test_load_dataset_first_bad_cell_in_scan_order(tmp_path):
    # within a row, features are checked before the outcome and the treatment
    p = _write(tmp_path, "t,y,a,b\n0,1,2,3\n2,nan,4,x\n1,zz,1,1\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    assert (ei.value.row, ei.value.col, ei.value.value) == (3, "b", "x")


@pytest.mark.parametrize("cell", ["nan", "-inf", "1e400", "", " "])
def test_load_dataset_rejects_nonfinite_and_empty_cells(tmp_path, cell):
    p = _write(tmp_path, f"t,y,a\n0,1,2\n1,3,{cell}\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    assert (ei.value.row, ei.value.col, ei.value.value) == (3, "a", cell.strip())


def test_load_dataset_keeps_float_grammar(tmp_path):
    # padding, quotes, underscores, non-ASCII digits, and the ASCII
    # separators that str.strip removes but float() does not
    p = _write(tmp_path, 't,y,a\n0, 1.5 ,"1_0"\n1,\u0663,\x1c2e0\x1c\n-0.0,-0.0,+.5\n')
    d = load_dataset(p, treatment_col="t", outcome_col="y")
    np.testing.assert_array_equal(d.t, [0, 1, 0])
    np.testing.assert_array_equal(d.y, [1.5, 3.0, -0.0])
    assert np.signbit(d.y[2])
    np.testing.assert_array_equal(d.x[:, 0], [10.0, 2.0, 0.5])


def test_load_dataset_success_path_does_no_per_cell_work(tmp_path, monkeypatch):
    def _refuse(cell):
        raise AssertionError("per-cell check on the success path")

    monkeypatch.setattr(dataset, "_is_number", _refuse)
    p = _write(tmp_path, "t,y,a,b\n0,1.5,1,2\n\n1,2.5,3,4\n0,0.5,5,6\n")
    d = load_dataset(p, treatment_col="t", outcome_col="y", encode=False)
    np.testing.assert_array_equal(d.x, [[1, 2], [3, 4], [5, 6]])


@pytest.fixture
def csv_reader_only(monkeypatch):
    """Keep numpy's C reader out of the load, so that the chunked csv reader
    reads the file."""
    monkeypatch.setattr(dataset, "_c_table", lambda *args: None)


def _not_called(*args):
    raise AssertionError("called on a table that the C reader reads")


def test_load_dataset_encode_without_text_columns_skips_column_detection(
    tmp_path, monkeypatch, csv_reader_only
):
    # the whole-table conversion shows every column numeric, so no column is
    # tested on its own and the table is the one the plain load builds
    def _refuse(cells):
        raise AssertionError("per-column detection on an all-numeric table")

    p = _write(tmp_path, "t,y,a,b\n0,1.5,1,2\n\n1,2.5,3,4\n0,0.5,5,6\n")
    want = load_dataset(p, treatment_col="t", outcome_col="y", encode=False)
    monkeypatch.setattr(dataset, "_numeric_column", _refuse)
    got = load_dataset(p, treatment_col="t", outcome_col="y", encode=True)
    assert got.feature_names == want.feature_names
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
    np.testing.assert_array_equal(got.t, want.t)


def test_load_dataset_converts_at_most_one_chunk_of_rows_at_a_time(
    tmp_path, monkeypatch, csv_reader_only
):
    # the csv reader's success path converts at most _CHUNK_ROWS rows of
    # strings at a time; only the float chunk tables are joined into one
    seen = []
    convert = dataset._float_rows

    def _record(rows):
        seen.append(len(rows))
        return convert(rows)

    monkeypatch.setattr(dataset, "_float_rows", _record)
    n = 2 * dataset._CHUNK_ROWS + 1
    p = _write(tmp_path, "t,y,a\n" + "".join(f"{i % 2},{i},{-i}\n" for i in range(n)))
    d = load_dataset(p, treatment_col="t", outcome_col="y")
    assert seen == [dataset._CHUNK_ROWS, dataset._CHUNK_ROWS, 1]
    np.testing.assert_array_equal(d.y, np.arange(n))
    np.testing.assert_array_equal(d.x[:, 0], -np.arange(n))
    np.testing.assert_array_equal(d.t, np.arange(n) % 2)


def _rows(n):
    return "t,y,a\n" + "".join(f"{i % 2},{i / 7!r},{-i}e-3\n" for i in range(n))


def _same_dataset(got, want):
    assert got.feature_names == want.feature_names
    assert got.t.dtype == want.t.dtype and got.t.tobytes() == want.t.tobytes()
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()


def test_load_dataset_valid_file_takes_the_c_reader(tmp_path, monkeypatch):
    # a valid table without quotes is read by numpy's C reader in one call:
    # no list of cell strings is built and no chunk is converted
    p = _write(tmp_path, _rows(2 * dataset._CHUNK_ROWS + 1))
    with monkeypatch.context() as m:
        m.setattr(dataset, "_c_table", lambda *args: None)
        want = load_dataset(p, treatment_col="t", outcome_col="y")
    monkeypatch.setattr(dataset, "_float_rows", _not_called)
    got = load_dataset(p, treatment_col="t", outcome_col="y")
    _same_dataset(got, want)


def test_load_dataset_encode_all_numeric_takes_the_c_reader(tmp_path, monkeypatch):
    # without a text column there is nothing to encode, so --encode-categoricals
    # reads the table as a plain load does
    p = _write(tmp_path, _rows(10))
    want = load_dataset(p, treatment_col="t", outcome_col="y")
    monkeypatch.setattr(dataset, "encode_categoricals", _not_called)
    monkeypatch.setattr(dataset, "_float_rows", _not_called)
    got = load_dataset(p, treatment_col="t", outcome_col="y", encode=True)
    _same_dataset(got, want)


@pytest.mark.parametrize("reader, text", [
    ("_c_table", "t,y,a,b\n0,1,2,3\n1,3,4,5\n"),
    ("_csv_table", 't,y,a,b\n0,1,"2",3\n1,3,4,5\n'),  # a quoted cell: the csv reader
], ids=["c_reader", "csv_reader"])
def test_load_dataset_frees_the_table_before_the_checks(tmp_path, monkeypatch, reader, text):
    import gc
    import weakref

    p = tmp_path / "data.csv"
    p.write_text(text)
    tables = []
    read, checked_dataset = getattr(dataset, reader), dataset._checked_dataset

    def reading(*args):
        table = read(*args)
        # the C reader gives its rows as a list of parts
        tables.extend(weakref.ref(part) for part in (table if isinstance(table, list) else [table]))
        return table

    def checking(*args):
        gc.collect()
        assert tables and all(ref() is None for ref in tables), "a float table is still alive"
        return checked_dataset(*args)

    monkeypatch.setattr(dataset, reader, reading)
    monkeypatch.setattr(dataset, "_checked_dataset", checking)
    d = load_dataset(p, treatment_col="t", outcome_col="y")
    assert d.x.tolist() == [[2.0, 3.0], [4.0, 5.0]]


# the csv reader reads the header on either path, so names quoted as R's
# write.csv quotes them leave the data rows to the C reader
@pytest.mark.parametrize("text, c_read", [
    ('"t","y","a"\n0,1.5,2\n1,2.5,3\n', True),
    ('"t","y","a,b"\n0,1,2\n1,3,4\n', True),  # the delimiter inside a quoted name
    ('"t","y","a"\r\n0,1,2\r\n1,3,4\r\n', True),
    ('\ufeff"t","y","a"\n0,1,2\n1,3,4\n', True),
    ('""\nt,y,a\n0,1,2\n1,3,4\n', True),  # a quoted blank first line
    ('"t","y","a\nb"\n0,1,2\n1,3,4\n', False),  # a line end inside a quoted name
    ('\n"t","y","a"\n0,1,2\n1,3,4\n', False),  # a blank line before the header
    ('"t","y","a"\r0,1,2\r1,3,4\r', False),  # no line feed at all
    ('"t","y","a"\n0,1,"2"\n1,3,4\n', False),  # a quoted data cell
])
def test_load_dataset_quoted_header_reads_as_the_csv_reader(tmp_path, monkeypatch, text, c_read):
    p = tmp_path / "q.csv"
    p.write_bytes(text.encode("utf-8"))
    c_table = dataset._c_table
    read = []

    def _recorded(*args):
        table = c_table(*args)
        read.append(table is not None)
        return table

    with monkeypatch.context() as m:
        m.setattr(dataset, "_c_table", lambda *args: None)
        want = load_dataset(p, treatment_col="t", outcome_col="y")
    monkeypatch.setattr(dataset, "_c_table", _recorded)
    if c_read:
        monkeypatch.setattr(dataset, "_float_rows", _not_called)
    got = load_dataset(p, treatment_col="t", outcome_col="y")
    _same_dataset(got, want)
    assert read == [c_read]


@pytest.fixture
def chunks_of_two(monkeypatch, csv_reader_only):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 2)


@pytest.mark.parametrize("last, error", [
    ("1,2\n", ParseFailure),
    ("1,2," + "1" * 200_000 + "\n", MalformedInput),
])
def test_load_dataset_reader_error_in_a_later_chunk_wins(tmp_path, chunks_of_two, last, error):
    # the bad cell is in the first chunk, the width or csv error in the third
    p = _write(tmp_path, "t,y,a\n0,1,oops\n1,2,3\n0,1,2\n1,2,3\n" + last)
    with pytest.raises(error) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    if error is ParseFailure:
        assert (ei.value.row, ei.value.col) == (6, "<row>")
    else:
        assert "line 6" in str(ei.value)


def test_load_dataset_width_error_wins_over_a_missing_column(tmp_path, chunks_of_two):
    p = _write(tmp_path, "t,a,b\n0,1,2\n1,2,3\n0,1,2\n1,2\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    assert (ei.value.row, ei.value.col) == (5, "<row>")


def test_load_dataset_names_the_first_bad_cell_across_chunks(tmp_path, chunks_of_two):
    p = _write(tmp_path, "t,y,a\n0,1,nan\n1,2,3\n0,1,2\n1,2,3\n0,1,oops\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y")
    assert (ei.value.row, ei.value.col, ei.value.value) == (2, "a", "nan")


def test_load_dataset_separator_padding_in_a_later_chunk_loads(tmp_path, chunks_of_two):
    p = _write(tmp_path, "t,y,a\n0,1,2\n1,2,3\n0,1,\x1c4\x1c\n1,2,5\n0,3,6\n")
    d = load_dataset(p, treatment_col="t", outcome_col="y")
    np.testing.assert_array_equal(d.x[:, 0], [2, 3, 4, 5, 6])
    np.testing.assert_array_equal(d.y, [1, 2, 1, 2, 3])


def test_load_dataset_rejects_one_column_as_treatment_and_outcome(tmp_path):
    # a configuration error, raised before the file is opened
    with pytest.raises(ConfigError, match="'t'"):
        load_dataset(tmp_path / "absent.csv", treatment_col="t", outcome_col="t")


def test_load_dataset_treatment_other_than_0_or_1_is_not_called_unparsable(tmp_path):
    p = _write(tmp_path, "t,y,a\n1,0,2\n0,3,4\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="y", outcome_col="t")
    assert (ei.value.row, ei.value.col, ei.value.value) == (3, "y", "3")
    assert "0 or 1" in str(ei.value) and "cannot parse" not in str(ei.value)


def test_load_dataset_rejects_repeated_column(tmp_path):
    p = _write(tmp_path, "t,y, y\n0,1,2\n1,3,4\n")
    with pytest.raises(MalformedInput, match="'y'"):
        load_dataset(p, treatment_col="t", outcome_col="y")


def test_load_dataset_encode_short_row_is_a_parse_failure(tmp_path):
    p = _write(tmp_path, "t,y,a,c\n0,1,2,red\n1,3,4\n")
    with pytest.raises(ParseFailure) as ei:
        load_dataset(p, treatment_col="t", outcome_col="y", encode=True)
    assert (ei.value.row, ei.value.col) == (3, "<row>")


def test_load_dataset_nonbinary_treatment(tmp_path):
    p = _write(tmp_path, "t,y,a\n0,1,2\n2,3,4\n")
    with pytest.raises((ParseFailure, PositivityViolation)):
        load_dataset(p, treatment_col="t", outcome_col="y")


def test_load_dataset_tab_delimiter(tmp_path):
    p = _write(tmp_path, "t\ty\ta\n0\t1\t2\n1\t3\t4\n", name="d.tsv")
    d = load_dataset(p, treatment_col="t", outcome_col="y", delimiter="\t")
    assert d.n == 2


def test_load_dataset_encodes_categoricals(tmp_path):
    p = _write(tmp_path, "t,y,color,a\n0,1,red,2\n1,3,blue,4\n0,5,red,6\n")
    d = load_dataset(p, treatment_col="t", outcome_col="y", encode=True)
    assert "color=blue" in d.feature_names and "color=red" in d.feature_names
    blue = d.feature_names.index("color=blue")
    np.testing.assert_array_equal(d.x[:, blue], [0, 1, 0])


def test_load_dataset_unencoded_categorical_fails(tmp_path):
    p = _write(tmp_path, "t,y,color\n0,1,red\n1,3,blue\n")
    with pytest.raises(ParseFailure):
        load_dataset(p, treatment_col="t", outcome_col="y")


def test_load_dataset_empty_file(tmp_path):
    p = _write(tmp_path, "t,y,a\n")
    with pytest.raises(EmptyInput):
        load_dataset(p, treatment_col="t", outcome_col="y")


def test_load_dataset_three_row_single_feature(tmp_path):
    p = _write(tmp_path, "t,y,a\n1,2,0.5\n0,1,0.1\n0,1,0.9\n")
    d = load_dataset(p, treatment_col="t", outcome_col="y")
    assert (d.n, d.p) == (3, 1)
    assert d.feature_names == ("a",)
    np.testing.assert_array_equal(d.t, [1, 0, 0])
    np.testing.assert_array_equal(d.y, [2.0, 1.0, 1.0])


def test_normalize_column_values():
    t = np.array([1, 0, 0])
    x = np.array([[1.0], [2.0], [4.0]])
    y = np.array([0.0, 0.0, 0.0])
    d = normalize_min_max(make_dataset(t, x, y, ("a",)))
    np.testing.assert_allclose(d.x[:, 0], [0.0, 1.0 / 3.0, 1.0])


@pytest.mark.parametrize("rows", [
    np.arange(7),  # a loaded table
    np.array([2, 5, 6, 11, 12]),  # one treatment group after the split
    np.array([9, 3, 7, 3, 0, 9, 9]),  # unsorted, with repeats
])
def test_row_positions_agree_with_a_row_to_position_dict(rows):
    # a repeated row id maps to its last position, as a dict built in row order does
    pos_of_row = {int(r): i for i, r in enumerate(rows)}
    ids = [int(r) for r in rows[::-1]] + [int(rows[0])] * 3
    assert dataset._row_positions(rows, ids).tolist() == [pos_of_row[r] for r in ids]
    assert dataset._row_positions(rows, []).size == 0
    with pytest.raises(KeyError):
        dataset._row_positions(rows, [int(rows[0]), int(rows.max()) + 1])
    with pytest.raises(KeyError):
        dataset._row_positions(rows, [int(rows.min()) - 1])
