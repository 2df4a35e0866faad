"""Loading, validation, and min-max normalization of observational datasets."""

from __future__ import annotations

import csv
import io
import logging
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import _fork
from .errors import (
    ConfigError,
    EmptyInput,
    MalformedInput,
    NamedColumnAbsent,
    ParseFailure,
    PositivityViolation,
)

logger = logging.getLogger(__name__)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only C-contiguous array. Callers pass arrays that
    nothing else holds, so a contiguous one is frozen in place, not copied."""
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """A treatment indicator vector, feature matrix, and outcome vector.

    Instances are immutable: the arrays are marked read-only at construction
    and every operation returns a new object. ``row_ids`` tracks the original
    row index of each unit so that subsets keep a stable identity.

    ``scaling`` holds the per-feature ``(min, max)`` pairs recorded by
    :func:`normalize_min_max`, or ``None`` for raw data.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    feature_names: tuple[str, ...]
    scaling: tuple[tuple[float, float], ...] | None = None
    row_ids: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def n_treated(self) -> int:
        return int(np.sum(self.t == 1))

    @property
    def n_control(self) -> int:
        return int(np.sum(self.t == 0))

    def rows(self) -> np.ndarray:
        if self.row_ids is not None:
            return self.row_ids
        return np.arange(self.n)


def _row_positions(rows: np.ndarray, ids) -> np.ndarray:
    """The position in ``rows`` of each row id in ``ids``, from one
    ``searchsorted`` over the sorted row ids; a repeated row id maps to its
    last position.

    Raises:
        KeyError: for the first id that ``rows`` lacks.
    """
    order = np.argsort(rows, kind="stable")
    ranked = rows[order]
    ids = np.asarray(ids)
    at = np.searchsorted(ranked, ids, side="right") - 1
    missing = (at < 0) | (ranked[at] != ids)
    if np.any(missing):
        raise KeyError(ids[missing][0].item())
    return order[at]


def make_dataset(
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    feature_names: tuple[str, ...] | list[str],
    scaling: tuple[tuple[float, float], ...] | None = None,
    row_ids: np.ndarray | None = None,
) -> Dataset:
    """Validate raw arrays and assemble an immutable :class:`Dataset`.

    Checks shape agreement, finiteness, a strictly binary treatment vector,
    and the presence of at least one treated and one control unit. The
    arrays are copied, so the caller's stay writable and unshared.

    Raises:
        EmptyInput: if there are no rows or no feature columns.
        ParseFailure: if any entry is missing or non-finite.
        PositivityViolation: if either treatment group is empty.
    """
    if row_ids is not None:
        row_ids = np.array(row_ids, dtype=np.int64)
    return _checked_dataset(
        np.array(t, dtype=np.int64),
        np.array(x, dtype=np.float64),
        np.array(y, dtype=np.float64),
        feature_names,
        scaling,
        row_ids,
    )


def _checked_dataset(
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    feature_names: tuple[str, ...] | list[str],
    scaling: tuple[tuple[float, float], ...] | None = None,
    row_ids: np.ndarray | None = None,
) -> Dataset:
    """:func:`make_dataset` on int64 and float64 arrays that the caller hands
    over: they are frozen in place rather than copied."""
    if x.ndim != 2:
        raise EmptyInput("feature matrix must be two-dimensional")
    n, p = x.shape
    if n == 0 or p == 0:
        raise EmptyInput("dataset has no rows or no feature columns")
    if t.shape != (n,) or y.shape != (n,):
        raise EmptyInput("treatment, outcome, and feature row counts disagree")
    if len(feature_names) != p:
        raise EmptyInput("feature name count does not match feature columns")
    if not np.all(np.isfinite(x)):
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise ParseFailure(None, str(feature_names[j]), reason=f"row index {i} is not finite")
    if not np.all(np.isfinite(y)):
        i = int(np.flatnonzero(~np.isfinite(y))[0])
        raise ParseFailure(None, "outcome", reason=f"row index {i} is not finite")
    if not np.all((t == 0) | (t == 1)):
        raise PositivityViolation("treatment vector contains values other than 0 and 1")
    if not np.any(t == 1) or not np.any(t == 0):
        raise PositivityViolation("dataset needs at least one treated and one control unit")
    if row_ids is None:
        row_ids = np.arange(n)
    return Dataset(
        t=_frozen(t),
        x=_frozen(x),
        y=_frozen(y),
        feature_names=tuple(feature_names),
        scaling=scaling,
        row_ids=_frozen(row_ids),
    )


def _undecodable_line(path: str | Path) -> int:
    """The 1-based line of the first byte sequence that is not UTF-8."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return 0


# Kept rows per float conversion: the loader never holds more than this many
# rows as strings, except under ``encode=True``.
_CHUNK_ROWS = 2048

_Chunk = tuple[list[list[str]], list[int]]


def _read_table(path: str | Path, delimiter: str) -> Iterator[list[str] | _Chunk]:
    """Read the table in one csv pass: yield the header, then the data rows in
    chunks of at most ``_CHUNK_ROWS``, each as ``(rows, lines)`` with the
    physical file line on which each row ends.

    Blank and delimiter-only rows are skipped, before the header too, and a
    UTF-8 byte-order mark is dropped. Header names are stripped and must not
    repeat. Every kept row must have as many cells as the header; a row that
    does not raises before the chunk holding it is yielded. A file without
    data rows raises :class:`EmptyInput` once the reader reaches its end.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            kept = (row for row in reader if any(cell.strip() for cell in row))
            header = next(kept, None)
            if header is None:
                raise EmptyInput(f"{path}: file is empty")
            header = [h.strip() for h in header]
            if len(set(header)) < len(header):
                repeated = next(h for h in header if header.count(h) > 1)
                raise MalformedInput(f"{path}: column {repeated!r} appears more than once")
            yield header
            width = len(header)
            rows: list[list[str]] = []
            lines: list[int] = []
            empty = True
            for row in kept:
                if len(row) != width:
                    raise ParseFailure(reader.line_num, "<row>",
                                       reason=f"row has {len(row)} cells, expected {width}")
                rows.append(row)
                lines.append(reader.line_num)
                if len(rows) == _CHUNK_ROWS:
                    yield rows, lines
                    rows, lines, empty = [], [], False
            if rows:
                yield rows, lines
            elif empty:
                raise EmptyInput(f"{path}: no data rows")
    except csv.Error as exc:
        raise MalformedInput(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise MalformedInput(
            f"{path}: line {_undecodable_line(path)}: not UTF-8 text"
        ) from None
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise MalformedInput(f"{path}: cannot read: {exc.strerror}") from None


def _drain(chunks: Iterator[_Chunk]) -> None:
    """Read the rest of the file, so that a width, csv or decode error further
    on is raised."""
    for _ in chunks:
        pass


def _is_number(cell: str) -> bool:
    try:
        v = float(cell)
    except ValueError:
        return False
    return math.isfinite(v)


def _float_rows(rows: list[list[str]]) -> np.ndarray:
    """Rows of cells as one float array, with Python's ``float`` grammar.

    Raises ``ValueError`` if a cell does not convert."""
    return np.array(rows, dtype=np.float64)


def _numeric_column(cells: list[str]) -> bool:
    """Whether every cell, stripped, is a finite number.

    One numpy conversion, which accepts exactly Python's ``float`` grammar,
    decides a column of plain numbers. The cells are tested one by one only
    when it fails or gives a non-finite value: ``str.strip`` removes the
    ASCII separators ``\\x1c-\\x1f``, which ``float`` refuses.
    """
    try:
        if np.isfinite(np.array(cells, dtype=np.float64)).all():
            return True
    except ValueError:
        pass
    return all(_is_number(cell.strip()) for cell in cells)


def _first_bad_cell(
    header: list[str],
    rows: list[list[str]],
    lines: list[int],
    numeric: list[int],
    t_idx: int,
) -> None:
    """Raise :class:`ParseFailure` for the first cell that is not a finite
    number, or not 0 or 1 in the treatment column ``t_idx``.

    Rows are scanned in file order; within a row the ``numeric`` columns come
    first, in the order given, then the treatment. Returns if every cell is
    valid.
    """
    for row, line_no in zip(rows, lines):
        for j in numeric:
            cell = row[j].strip()
            if not _is_number(cell):
                raise ParseFailure(line_no, header[j], cell)
        cell = row[t_idx].strip()
        if not _is_number(cell):
            raise ParseFailure(line_no, header[t_idx], cell)
        if float(cell) not in (0.0, 1.0):
            raise ParseFailure(line_no, header[t_idx], cell, f"treatment {cell!r} is not 0 or 1")


def _chunk_table(
    header: list[str],
    rows: list[list[str]],
    lines: list[int],
    numeric: list[int],
    t_idx: int,
) -> np.ndarray:
    """One chunk of rows as floats, each cell finite and each treatment 0 or 1.

    One numpy conversion and two whole-array checks do the work; the cells
    are scanned one by one only when a step fails, to name the first bad
    cell.
    """
    try:
        table = _float_rows(rows)
    except ValueError:
        _first_bad_cell(header, rows, lines, numeric, t_idx)
        # str.strip also removes the ASCII separators \x1c-\x1f, which
        # float() keeps; cells padded with them parse once stripped
        table = _float_rows([[cell.strip() for cell in row] for row in rows])
    t = table[:, t_idx]
    if not (np.isfinite(table).all() and ((t == 0.0) | (t == 1.0)).all()):
        _first_bad_cell(header, rows, lines, numeric, t_idx)
    return table


def _columns(
    header: list[str], treatment_col: str, outcome_col: str
) -> tuple[int, int, list[int]]:
    """The treatment, outcome and feature column indices of ``header``."""
    t_idx = header.index(treatment_col)
    y_idx = header.index(outcome_col)
    return t_idx, y_idx, [j for j in range(len(header)) if j not in (t_idx, y_idx)]


def _line_ends(raw: bytes) -> np.ndarray | None:
    """The offset of every line feed in ``raw``, or ``None`` when ``raw``
    holds a ``"`` byte after its first line end (a quoted header is read by
    the csv reader) or a line that, with its line end, is longer than
    ``csv.field_size_limit()``."""
    if raw.find(b'"', raw.find(b"\n") + 1) != -1:
        return None
    ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    if np.diff(ends, prepend=-1, append=len(raw)).max() > csv.field_size_limit():
        return None
    return ends


def _c_part(raw: bytes, start: int, stop: int, delimiter: str, width: int,
            t_idx: int) -> np.ndarray:
    """The data rows of ``raw[start:stop]`` as one float array, read by
    numpy's C text reader; ``ValueError`` unless they have the header's
    width, at least one row, only finite cells and every treatment 0 or 1.

    The part from byte 0 holds the header: a UTF-8 byte-order mark is
    dropped, and the blank lines and the header are skipped as
    :func:`_read_table` skips them. Every other part starts after a line
    feed.
    """
    if stop < len(raw):
        stream = io.BytesIO(raw[start:stop])
    else:  # the last part reads raw's own bytes, uncopied
        stream = io.BytesIO(raw)
        stream.seek(start)
    encoding = "utf-8-sig" if start == 0 else "utf-8"
    with io.TextIOWrapper(stream, encoding=encoding, newline="") as fh:
        if start == 0:
            # without quotes each line is one record: skip blank lines and
            # the header as _read_table does, and parse from the line after it
            rows = csv.reader(fh, delimiter=delimiter)
            next(row for row in rows if any(cell.strip() for cell in row))
        table = np.loadtxt(fh, delimiter=delimiter, comments=None, ndmin=2, dtype=np.float64)
    if table.shape[1] != width or len(table) == 0 or not np.isfinite(table).all():
        raise ValueError("a row of another width, no row or a non-finite cell")
    t = table[:, t_idx]
    if not ((t == 0.0) | (t == 1.0)).all():
        raise ValueError("a treatment other than 0 or 1")
    return table


def _c_table(path: str | Path, delimiter: str, width: int, t_idx: int
             ) -> list[np.ndarray] | None:
    """Every data row as float arrays of consecutive rows, in file order,
    read by numpy's C text reader, or ``None`` when the csv reader must read
    the file.

    The C reader accepts a subset of what the csv reader and ``float`` do,
    and reads each cell it accepts to the same bits. Two kinds of file fall
    outside that, and are refused before parsing: one holding a ``"`` byte
    after its first line (a quoted cell can span lines and needs unquoting;
    a quoted header is read by the csv reader) and one with a line longer
    than ``csv.field_size_limit()`` (the csv reader refuses its cell). The
    result is also refused unless it has at least one row, the header's
    width, only finite cells and every treatment 0 or 1. ``None`` says
    nothing about the file: the csv reader decides what is wrong.

    The file's bytes are read once, and stay in memory through the parse.
    :func:`_fork.run` parses them in ``w`` processes at once, at most one
    per ``_CHUNK_ROWS`` line feeds after the first: the bytes are cut after
    line feeds into ``w`` parts of nearly equal line counts, this process
    parses the last part and a forked child each other one, each with its
    own checks (see :func:`_c_part`). A cut after a line feed ends no line
    early and joins no two, so each line reaches the same reader as in one
    pass, and pickling keeps every float's bits: the parts hold the serial
    table's rows. Warnings are errors throughout, so a part of blank lines
    ("input contained no data") fails the split parse, as a refused part
    does, and reruns it in one process (see :mod:`._fork`).
    """
    try:
        with open(path, "rb") as binary:
            raw = binary.read()
        ends = _line_ends(raw)
        if ends is None:
            return None
        lines = len(ends) - 1

        def part(i: int, w: int, _) -> np.ndarray:
            # share i is part w - 1 - i, so that this process, share 0,
            # parses the last part straight from raw's bytes
            cuts = [0, *(int(ends[k * lines // w]) + 1 for k in range(1, w)), len(raw)]
            return _c_part(raw, cuts[w - 1 - i], cuts[w - i], delimiter, width, t_idx)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data" among them
            return _fork.run(lines // _CHUNK_ROWS, part)[::-1]
    except Exception as exc:  # whatever the fault, the csv reader names it
        logger.debug("%s: read by the csv reader: %s", path, exc)
        return None


def _csv_table(
    header: list[str],
    chunks: Iterator[_Chunk],
    treatment_col: str,
    outcome_col: str,
) -> np.ndarray:
    """Every chunk's rows as one float table in header column order, each
    chunk converted and checked on its own.

    A cell error drains ``chunks`` before it is raised, so an error of the
    reader anywhere in the file takes precedence. Earlier chunks passed
    every check, so the first bad cell of the failing chunk is the first in
    the file.
    """
    t_idx, y_idx, feat_idx = _columns(header, treatment_col, outcome_col)
    # features before the outcome: the order in which bad cells are named
    numeric = feat_idx + [y_idx]
    tables = []
    for rows, lines in chunks:
        try:
            tables.append(_chunk_table(header, rows, lines, numeric, t_idx))
        except ParseFailure:
            _drain(chunks)
            raise
    del rows, lines  # free the last chunk's strings before the join
    return np.concatenate(tables)


def encode_categoricals(
    header: list[str],
    rows: list[list[str]],
    skip: tuple[str, ...] = (),
) -> tuple[list[str], list[list[str]]]:
    """Expand non-numeric columns into one 0/1 indicator column per level.

    Columns named in ``skip`` are left untouched. Indicator columns are named
    ``"<col>=<level>"`` with levels in sorted order; no level is dropped.
    Without a text column, ``header`` and ``rows`` are returned as they are.
    """
    cat_cols = [j for j, name in enumerate(header)
                if name not in skip and not _numeric_column([row[j] for row in rows])]
    if not cat_cols:
        return header, rows

    new_header: list[str] = []
    plan: list[tuple[int, list[str] | None]] = []
    for j, name in enumerate(header):
        if j in cat_cols:
            levels = sorted({row[j].strip() for row in rows})
            plan.append((j, levels))
            new_header.extend(f"{name}={lvl}" for lvl in levels)
        else:
            plan.append((j, None))
            new_header.append(name)
    new_rows = []
    for row in rows:
        out: list[str] = []
        for j, levels in plan:
            if levels is None:
                out.append(row[j])
            else:
                val = row[j].strip()
                out.extend("1" if val == lvl else "0" for lvl in levels)
        new_rows.append(out)
    logger.info("one-hot encoded %d categorical column(s)", len(cat_cols))
    return new_header, new_rows


def check_distinct_columns(treatment_col: str, outcome_col: str) -> None:
    """Raise :class:`ConfigError` when the treatment and outcome name the same
    column."""
    if treatment_col == outcome_col:
        raise ConfigError(f"treatment and outcome both name column {treatment_col!r}")


def load_dataset(
    path: str | Path,
    treatment_col: str,
    outcome_col: str,
    delimiter: str = ",",
    encode: bool = False,
) -> Dataset:
    """Load a delimited UTF-8 table with a header row into a :class:`Dataset`.

    Every column other than the treatment and outcome columns becomes a
    feature. Cells must parse as finite numbers, with Python's ``float``
    grammar after surrounding whitespace is stripped; missing values are
    rejected rather than imputed. With ``encode=True``, non-numeric feature
    columns are first expanded into one indicator column per level; a table
    whose every cell converts to a finite number has none.

    The header is read by the csv reader, and checked, first; its names may
    be quoted. A file without a ``"`` byte after the header line and without
    a line longer than ``csv.field_size_limit()`` is then read by numpy's C
    text reader; its table is kept if it has the header's width, at least
    one row, only finite cells and treatments 0 or 1. Such a table is the
    one the csv reader gives, bit for bit, and with ``encode=True`` it has
    no text column to expand. From ``2 * _CHUNK_ROWS`` lines on, the C
    reader parses the file in parts cut at line feeds, in forked processes
    (see :func:`_c_table`), to the bits of a one-process load.

    Every other file, and every file the C reader refuses, is read on by
    the csv reader, and every error below comes from it. It skips
    blank and delimiter-only lines. The kept rows are converted in chunks of
    at most ``_CHUNK_ROWS`` rows, one numpy call each, so no string cell
    outlives its chunk (``encode=True`` holds every row, since a text
    column's levels need them all). The finiteness and 0/1 treatment checks
    run on each chunk's array. Only when one of these steps fails are the
    cells of that chunk scanned one by one, to name the first bad cell.
    Errors give the physical file line (1-based, the header is line 1) on
    which the offending row ends. Either reader gives float rows, in one
    table or in the C reader's parts, which are split once into the
    treatment, feature and outcome arrays.

    When a file has several faults, the reader's errors come first: an
    unreadable, non-UTF-8 or csv-refused file, no data rows, or a row of the
    wrong width anywhere in the file is reported before a missing column, a
    table without features or a bad cell. Among bad cells the first in file
    order is named; within a row the features come first, then the outcome,
    then the treatment.

    Args:
        path: file to read.
        treatment_col: name of the 0/1 treatment column.
        outcome_col: name of the numeric outcome column; it must differ from
            ``treatment_col``.
        delimiter: cell separator, comma by default (pass "\\t" for tab).
        encode: one-hot encode non-numeric feature columns before validation.

    Every error below except :class:`ConfigError` is a data error on the
    command line (exit 3), with a one-line message.

    Raises:
        ConfigError: the treatment and outcome name the same column (exit 2);
            raised before the file is opened.
        FileNotFoundError: the file does not exist.
        MalformedInput: the file cannot be read (a directory, no permission),
            is not UTF-8, holds a record the csv reader refuses (a cell over
            its field size limit), or repeats a column name.
        EmptyInput: no header, no data rows or no feature columns.
        NamedColumnAbsent: treatment or outcome column missing.
        ParseFailure: a row has the wrong number of cells, or a cell does
            not parse as a finite number, or a treatment is not 0 or 1.
        PositivityViolation: either treatment group is empty.
    """
    check_distinct_columns(treatment_col, outcome_col)
    chunks = _read_table(path, delimiter)
    header = next(chunks)
    for required in (treatment_col, outcome_col):
        if required not in header:
            _drain(chunks)
            raise NamedColumnAbsent(required, tuple(header))
    if all(name in (treatment_col, outcome_col) for name in header):
        _drain(chunks)
        raise EmptyInput("input has no feature columns")

    parts = _c_table(path, delimiter, len(header), header.index(treatment_col))
    if parts is not None:
        chunks.close()
    elif not encode:
        parts = [_csv_table(header, chunks, treatment_col, outcome_col)]
    else:
        rows: list[list[str]] = []
        lines: list[int] = []
        for part_rows, part_lines in chunks:
            rows += part_rows
            lines += part_lines
        # one conversion shows that no column is text; the per-column
        # detection runs only when it fails
        try:
            parts = [_csv_table(header, iter([(rows, lines)]), treatment_col, outcome_col)]
        except ParseFailure:
            header, rows = encode_categoricals(header, rows, skip=(treatment_col, outcome_col))
            parts = [_csv_table(header, iter([(rows, lines)]), treatment_col, outcome_col)]
        del rows, lines

    t_idx, y_idx, feat_idx = _columns(header, treatment_col, outcome_col)
    names = tuple(header[j] for j in feat_idx)
    n = sum(len(part) for part in parts)
    t, y, x = np.empty(n, np.int64), np.empty(n), np.empty((n, len(feat_idx)))
    at = 0
    for part in parts:
        span = slice(at, at + len(part))
        t[span], y[span] = part[:, t_idx], part[:, y_idx]
        # straight into x's rows: part[:, feat_idx] would copy them twice,
        # and take's default mode "raise" buffers its output
        part.take(feat_idx, axis=1, out=x[span], mode="clip")
        at += len(part)
    del parts, part  # no view of them is kept, so the checks run on the copies alone
    d = _checked_dataset(t, x, y, names)
    logger.info(
        "loaded %s: n=%d (treated=%d, control=%d), p=%d",
        path, d.n, d.n_treated, d.n_control, d.p,
    )
    return d


def normalize_min_max(d: Dataset) -> Dataset:
    """Rescale every feature to [0, 1] using the min and max over all units.

    Constant columns map to all zeros. The outcome is left untouched. A
    column whose ``max - min`` overflows is rescaled with every term halved
    first; every other column gets ``(x - min) / (max - min)``. The
    per-feature ``(min, max)`` pairs are recorded on the result. A dataset
    that already carries scaling passes through unchanged.
    """
    if d.scaling is not None:
        return d
    lo = d.x.min(axis=0)
    hi = d.x.max(axis=0)
    with np.errstate(over="ignore"):
        span = hi - lo
    wide = np.isinf(span)
    out = np.zeros_like(d.x)
    nonconst = (span > 0) & ~wide
    out[:, nonconst] = (d.x[:, nonconst] - lo[nonconst]) / span[nonconst]
    # a span beyond the float range: every term is halved first, so that no
    # difference overflows
    out[:, wide] = (d.x[:, wide] / 2 - lo[wide] / 2) / (hi[wide] / 2 - lo[wide] / 2)
    scaling = tuple((float(a), float(b)) for a, b in zip(lo, hi))
    return replace(d, x=_frozen(out), scaling=scaling)


def split_by_treatment(d: Dataset) -> tuple[Dataset, Dataset]:
    """Partition into (control, treated) subsets sharing the parent's scaling.

    The two parts keep the parent's row identities, and their sizes always
    sum to ``d.n``.
    """
    cmask = d.t == 0
    tmask = ~cmask
    rows = d.rows()

    def _take(mask: np.ndarray) -> Dataset:
        return Dataset(
            t=_frozen(d.t[mask]),
            x=_frozen(d.x[mask]),
            y=_frozen(d.y[mask]),
            feature_names=d.feature_names,
            scaling=d.scaling,
            row_ids=_frozen(rows[mask]),
        )

    return _take(cmask), _take(tmask)
