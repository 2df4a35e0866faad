"""The model tree's forked workers.

``build_tree`` grows the tree in one process per available CPU: each scans
and partitions its own features, and the processes exchange their best
splits and their fits at every node. Any process count must give the nodes
of the serial builder bit for bit, and a failed worker must give the serial
tree. The count is forced by replacing ``_fork._cpu_count``, so these tests
also fork on a one-CPU machine, and ``_fork._threads``, so they also fork
where numpy's BLAS runs a thread pool. After every build no child may be
left, and no file or pipe may be left open.
"""

import logging
import os
import pickle
import threading
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    control_only,
    exit_1,
    half_payload,
    in_children,
    node_bits,
    serial_build_tree,
)
from stratamatch import _fork, dataset, tree  # noqa: E402
from stratamatch.tree import SplitCandidate, _best, build_tree  # noqa: E402

CUTOFF = 4 * dataset._CHUNK_ROWS  # the fewest controls that grow in two processes


def _build(control, processes, threads=1, **kwargs):
    """The bits of ``build_tree(control)``'s nodes with ``processes`` CPUs
    and ``threads`` native threads, the number of children it forked, and
    the number of times this process grew the tree, which is 2 when a forked
    build fell back to the serial one. No child may outlive the call."""
    forks, grown = [], []
    fork, grow = os.fork, tree._grow

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def growing(*args):
        grown.append(os.getpid())
        return grow(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_fork, "_cpu_count", lambda: processes)
        mp.setattr(_fork, "_threads", lambda: threads)
        mp.setattr(os, "fork", counting)
        mp.setattr(tree, "_grow", growing)
        model = build_tree(control, **kwargs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return node_bits(model.nodes), len(forks), grown.count(os.getpid())


def _controls(n, seed=0):
    """``n`` controls of five features, two of them 0/1, with an outcome
    piecewise linear in two of them, so the tree splits many times."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([rng.uniform(0, 1, n), rng.integers(0, 2, n), rng.uniform(0, 1, n),
                         rng.integers(0, 2, n), rng.normal(0, 1, n)])
    y = (10 * np.abs(x[:, 0] - 0.5) + 4 * np.abs(x[:, 2] - 0.3) * (1 + x[:, 1])
         + rng.normal(0, 0.05, n))
    return control_only(x, y)


@pytest.fixture(scope="module")
def grown():
    """A control set at the cutoff, and the bits of its serial tree."""
    control = _controls(CUTOFF)
    serial = node_bits(serial_build_tree(control, tree.DEFAULT_LAMBDA, 30,
                                         tree.DEFAULT_MAX_DEPTH))
    assert len(serial) >= 20
    return control, serial


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_every_process_count_gives_the_serial_tree(grown, processes):
    control, serial = grown
    assert _build(control, processes) == (serial, min(processes, 2) - 1, 1)


@pytest.mark.parametrize("module, name, broken", [(tree, "_fit", exit_1),
                                                  (pickle, "dumps", half_payload)],
                         ids=["worker_exits_1", "short_payload"])
def test_a_failed_worker_gives_the_serial_tree(grown, tmp_path, monkeypatch, caplog,
                                               module, name, broken):
    control, serial = grown
    marks = tmp_path / "marks"
    calls = []
    # a child breaks at its second call: mid-tree, after the first exchanges
    in_children(monkeypatch, module, name, marks, broken,
                when=lambda: calls.append(1) or len(calls) >= 2)
    with caplog.at_level(logging.INFO, logger="stratamatch.tree"):
        assert _build(control, 2) == (serial, 1, 2)
    assert marks.read_text() == "child\n"
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["tree built"]


def test_an_exception_in_this_process_gives_the_serial_tree(grown, monkeypatch):
    control, serial = grown
    parent, scan = os.getpid(), tree._scan
    raised = []

    def failing(*args):
        if os.getpid() == parent and not raised:
            raised.append(1)
            raise RuntimeError("the first scan here fails")
        return scan(*args)

    monkeypatch.setattr(tree, "_scan", failing)
    assert _build(control, 3) == (serial, 1, 2)
    assert raised == [1]


def test_a_warning_in_a_worker_is_the_serial_runs_warning(grown, tmp_path, monkeypatch):
    control, serial = grown
    parent, fit = os.getpid(), tree._fit
    marks = tmp_path / "marks"

    def warning(x, y, rows):
        if rows.size == y.size:  # the root's fit, made once per build
            with open(marks, "a") as f:
                f.write("parent\n" if os.getpid() == parent else "child\n")
            warnings.warn("the root's fit warns", RuntimeWarning)
        return fit(x, y, rows)

    monkeypatch.setattr(tree, "_fit", warning)
    for processes, grew in ((1, 1), (2, 2), (3, 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _build(control, processes) == (serial, min(processes, 2) - 1, grew)
        assert [str(w.message) for w in caught] == ["the root's fit warns"]
    # the serial build warns here; each forked one in a child (the largest
    # fit goes to the last process), then in the serial rerun
    assert marks.read_text().split() == ["parent", "child", "parent", "child", "parent"]


def test_an_interrupt_kills_and_reaps_every_worker(grown, monkeypatch):
    control, _ = grown
    parent, scan = os.getpid(), tree._scan

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return scan(*args)

    monkeypatch.setattr(tree, "_scan", interrupted)
    monkeypatch.setattr(_fork, "_cpu_count", lambda: 3)
    monkeypatch.setattr(_fork, "_threads", lambda: 1)
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    with pytest.raises(KeyboardInterrupt):
        build_tree(control)
    assert forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n, forks", [(CUTOFF - 1, 0), (CUTOFF, 1)])
def test_a_control_set_below_the_cutoff_stays_serial(n, forks):
    assert _build(_controls(n), 2)[1:] == (forks, 1)


def test_a_running_thread_keeps_the_tree_serial(grown):
    control, serial = grown
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _build(control, 2) == (serial, 0, 1)
    finally:
        release.set()
        thread.join()


def test_a_native_thread_keeps_the_tree_serial(grown):
    # such as the pool of a BLAS on several threads: the shares call LAPACK
    control, serial = grown
    assert _build(control, 2, threads=2) == (serial, 0, 1)


def test_a_tie_across_processes_goes_to_the_lowest_feature():
    # features 1 and 2 are one column, so their best splits tie; with two
    # processes feature 1 is scanned in the child and feature 2 here
    rng = np.random.default_rng(3)
    step = rng.uniform(0, 1, 60)
    x = np.column_stack([rng.uniform(0, 1, 60), step, step, rng.uniform(0, 1, 60)])
    y = np.where(step <= 0.4, 10 * step, 9 - 10 * step) + rng.normal(0, 0.01, 60)
    control = control_only(x, y)
    serial = node_bits(serial_build_tree(control, 0.1, 2, 1))
    with mock.patch.object(dataset, "_CHUNK_ROWS", 1):
        for processes in (2, 3):
            assert _build(control, processes, theta=2, max_depth=1) == (serial, processes - 1, 1)
    assert serial[0][5][0] == 1  # the root splits on feature 1


def test_the_merge_keeps_the_serial_scans_choice():
    a = SplitCandidate(feature=4, threshold=0.5, sdr=1.0)
    b = SplitCandidate(feature=1, threshold=0.7, sdr=1.0)
    c = SplitCandidate(feature=2, threshold=0.1, sdr=0.5)
    assert _best([a, None, b, c]) is b
    assert _best([c, SplitCandidate(feature=2, threshold=0.0, sdr=0.5)]).threshold == 0.0
    assert _best([None, None]) is None


# ---------------------------------------------------------------------------
# the tree of every process count against the serial builder's, on small
# tables with ties, two-valued, constant and repeated columns


@st.composite
def trees(draw):
    """A control set, and the ``lambda_``, ``theta`` and ``max_depth`` to
    grow it with."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3 * (p + 2)))
    value = st.floats(-4, 4, allow_nan=False, width=16)
    cols = []
    for j in range(p):
        kind = draw(st.sampled_from(["floats", "ties", "two", "constant", "repeat"]))
        if kind == "repeat" and cols:
            cols.append(cols[draw(st.integers(0, len(cols) - 1))])
        elif kind == "two":
            cols.append(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
        elif kind == "constant":
            cols.append([draw(value)] * n)
        else:
            pool = st.sampled_from([-1.0, 0.0, 0.5, 2.0]) if kind == "ties" else value
            cols.append(draw(st.lists(pool, min_size=n, max_size=n)))
    y = draw(st.lists(value, min_size=n, max_size=n))
    lambda_ = draw(st.sampled_from([-1.0, 0.0, 0.1]))
    theta = draw(st.sampled_from([2, 30]))
    max_depth = draw(st.integers(0, 2))
    return control_only(np.array(cols, dtype=np.float64).T, y), lambda_, theta, max_depth


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(trees())
def test_every_process_count_grows_the_serial_builders_tree(case):
    control, lambda_, theta, max_depth = case
    serial = node_bits(serial_build_tree(control, lambda_, theta, max_depth))
    # chunks of one row: two processes grow a tree of 4 controls, three of 6
    with mock.patch.object(dataset, "_CHUNK_ROWS", 1):
        for processes in (1, 2, 3):
            forks = max(0, min(processes, control.n // 2) - 1)
            assert _build(control, processes, lambda_=lambda_, theta=theta,
                          max_depth=max_depth) == (serial, forks, 1)
