"""The loader's forked workers.

``load_dataset`` cuts a file that numpy's C reader reads into parts at line
feeds and parses them in one process per available CPU. Any process count
must give the serial table's bits, or the serial run's exception and
message, and a failed worker must give the serial result. The count is
forced by replacing ``_fork._cpu_count``, so these tests also fork on a
one-CPU machine. After every load no child may be left, and no file or pipe
may be left open.
"""

import os
import pickle
import threading
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import exit_1, half_payload, in_children  # noqa: E402
from stratamatch import _fork, dataset  # noqa: E402
from stratamatch.dataset import load_dataset  # noqa: E402
from stratamatch.errors import StrataMatchError  # noqa: E402

CUTOFF = 2 * dataset._CHUNK_ROWS  # the fewest data lines that fork with two processes


def _load(path, processes, delimiter=","):
    """What the loader makes of ``path`` with ``processes`` CPUs: the
    dataset's bytes, or the error; the number of children it forked; and
    the number of parts this process parsed with the C reader, which is 2
    when a forked parse fell back to the serial one. No child may outlive
    the call."""
    forks, parses = [], []
    fork, c_part = os.fork, dataset._c_part

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def parsing(*args):
        parses.append(os.getpid())
        return c_part(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fork, "_cpu_count", lambda: processes)
        mp.setattr(os, "fork", counting)
        mp.setattr(dataset, "_c_part", parsing)
        try:
            d = load_dataset(path, "t", "y", delimiter=delimiter)
            got = (d.feature_names, d.t.dtype, d.t.tobytes(), d.x.tobytes(), d.y.tobytes())
        except StrataMatchError as exc:
            got = (type(exc), str(exc), vars(exc))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return got, len(forks), parses.count(os.getpid())


def _rows(n):
    return "t,y,a,b\n" + "".join(f"{i % 2},{i / 7!r},{-i}e-3,{i * 0.1!r}\n" for i in range(n))


@pytest.fixture(scope="module")
def three_parts(tmp_path_factory):
    """A file of three parts' lines, and its serial load's dataset."""
    path = tmp_path_factory.mktemp("load") / "data.csv"
    path.write_text(_rows(3 * dataset._CHUNK_ROWS))
    serial, forks, parses = _load(path, 1)
    assert (forks, parses) == (0, 1)
    return path, serial


@pytest.mark.parametrize("processes", [2, 3])
def test_every_process_count_gives_the_serial_table(three_parts, processes):
    path, serial = three_parts
    assert _load(path, processes) == (serial, processes - 1, 1)


@pytest.mark.parametrize("module, name, broken", [(np, "loadtxt", exit_1),
                                                  (pickle, "dumps", half_payload)],
                         ids=["worker_exits_1", "short_payload"])
def test_a_failed_worker_gives_the_serial_table(three_parts, tmp_path, monkeypatch,
                                                module, name, broken):
    path, serial = three_parts
    marks = tmp_path / "marks"
    in_children(monkeypatch, module, name, marks, broken)
    assert _load(path, 3) == (serial, 2, 2)
    # a worker failed; the parent may kill the other before it gets as far
    assert marks.read_text() in ("child\n", "child\n" * 2)


def test_a_part_of_blank_lines_gives_the_serial_table(tmp_path):
    # the last part, this process's, holds only line feeds: numpy warns
    # "input contained no data", and the parse falls back to the serial one
    path = tmp_path / "data.csv"
    path.write_text(_rows(dataset._CHUNK_ROWS) + "\n" * (dataset._CHUNK_ROWS + 1))
    serial, forks, parses = _load(path, 1)
    assert (forks, parses) == (0, 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _load(path, 2) == (serial, 1, 2)
    assert caught == []  # the warning ends the forked parse; none leaves the load


def test_an_interrupt_kills_and_reaps_every_worker(three_parts, monkeypatch):
    path, _ = three_parts
    parent, loadtxt = os.getpid(), np.loadtxt

    def interrupted(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", interrupted)
    monkeypatch.setattr(_fork, "_cpu_count", lambda: 3)
    with pytest.raises(KeyboardInterrupt):
        load_dataset(path, "t", "y")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("lines, forks", [(CUTOFF - 1, 0), (CUTOFF, 1)])
def test_a_file_below_the_line_cutoff_stays_serial(tmp_path, lines, forks):
    path = tmp_path / "data.csv"
    path.write_text(_rows(lines))
    assert _load(path, 2)[1] == forks


def test_a_running_thread_keeps_the_parse_serial(three_parts):
    path, serial = three_parts
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _load(path, 2) == (serial, 0, 1)
    finally:
        release.set()
        thread.join()


# ---------------------------------------------------------------------------
# the split parse against the serial one, on small tables cut into parts of
# one line or more


DEFECTS = st.sampled_from(["cell", "inf", "treatment", "short", "long"])


@st.composite
def split_tables(draw):
    """A file's text and delimiter: a valid table, perhaps with one defect
    in a row of its second half, with blank lines anywhere, blank lines and
    a byte-order mark before the header, CRLF or LF line ends and perhaps
    no final line end."""
    delim = draw(st.sampled_from([",", "\t"]))
    p = draw(st.integers(1, 3))
    header = draw(st.permutations(["t", "y"] + [f"x{j + 1}" for j in range(p)]))
    n = draw(st.integers(2, 12))
    treat = [0, 1] + draw(st.lists(st.sampled_from([0, 1]), min_size=n - 2, max_size=n - 2))
    spelled = {0: ["0", "0.0", " 0"], 1: ["1", "1.0", "1 "]}
    number = st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr)
    rows = [[draw(st.sampled_from(spelled[treat[i]])) if name == "t" else draw(number)
             for name in header] for i in range(n)]
    defect = draw(st.one_of(st.none(), DEFECTS))
    if defect is not None:
        row = rows[draw(st.integers(n // 2, n - 1))]
        j = draw(st.integers(0, len(header) - 1))
        if defect == "cell":
            row[j] = "oops"
        elif defect == "inf":
            row[j] = "inf"
        elif defect == "treatment":
            row[header.index("t")] = "2"
        elif defect == "short":
            del row[j]
        else:
            row.append("1")
    # whitespace-only lines in some files: the C reader refuses them
    blanks = st.lists(st.sampled_from(draw(st.sampled_from([[""], ["", " ", "\t "]]))),
                      max_size=2)
    lines = draw(blanks) + [delim.join(header)]
    for row in rows:
        lines += draw(blanks) + [delim.join(row)]
    # sometimes a tail of blank lines as long as the table: a last part of
    # blank lines only
    lines += draw(st.sampled_from([[], [], [""] * (n + 2)])) + draw(blanks)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return delim, draw(st.sampled_from(["", "\ufeff"])) + text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("split")


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(split_tables())
def test_a_split_parse_gives_the_serial_table_or_error(workdir, case):
    delim, text = case
    path = workdir / "table.csv"
    path.write_bytes(text.encode("utf-8"))
    lines = text.encode("utf-8").count(b"\n") - 1
    # parts of one line: the fewest lines that fork are two
    with mock.patch.object(dataset, "_CHUNK_ROWS", 1):
        serial, forks, _ = _load(path, 1, delim)
        assert forks == 0
        for processes in (2, 3):
            assert _load(path, processes, delim)[:2] == (serial, max(0, min(processes, lines) - 1))
