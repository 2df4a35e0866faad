"""The fork core's contract.

``_fork.run(shares, share, blas)`` picks the process count ``w`` itself and
returns ``[share(i, w, exchange)]`` in share order. When ``w`` is 1, or any
share of a forked run fails, it kills and reaps every child and returns
``[share(0, 1, ...)]``, run once in this process under the caller's warning
filters. The CPU count and the native thread count are forced by replacing
``_fork._cpu_count`` and ``_fork._threads``, so these tests also fork on a
one-CPU machine and where numpy's BLAS runs a thread pool. After every call
no child may be left.
"""

import os
import pickle
import threading
import warnings

import pytest

from conftest import half_payload, in_children
from stratamatch import _fork


@pytest.fixture
def forks(monkeypatch):
    """Force the CPU count and the native thread count; the list of the
    children forked from then on."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    def force(processes, threads=1):
        monkeypatch.setattr(_fork, "_cpu_count", lambda: processes)
        monkeypatch.setattr(_fork, "_threads", lambda: threads)
        return pids

    monkeypatch.setattr(os, "fork", counting)
    return force


def _run(shares, share, blas=False):
    """``_fork.run(shares, share, blas)``; no child may outlive the call,
    whether it returns or raises."""
    try:
        return _fork.run(shares, share, blas)
    finally:
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _here(calls):
    """A share that records each call made in this process in ``calls`` and
    returns its ``(i, w)``."""
    parent = os.getpid()

    def share(i, w, exchange):
        if os.getpid() == parent:
            calls.append((i, w))
        return i, w

    return share


@pytest.mark.parametrize("processes, shares, w", [(1, 3, 1), (2, 3, 2), (3, 3, 3),
                                                  (3, 2, 2), (2, 1, 1), (2, 0, 1)])
def test_the_shares_come_back_in_share_order(forks, processes, shares, w):
    forked, calls = forks(processes), []
    assert _run(shares, _here(calls)) == [(i, w) for i in range(w)]
    assert len(forked) == w - 1
    assert calls == [(0, w)]  # share 0 runs here, every other in a child


@pytest.mark.parametrize("processes", [1, 2, 3])
def test_exchange_hands_every_share_the_list_in_share_order(forks, processes):
    forks(processes)

    def share(i, w, exchange):
        return exchange(i * 10), exchange(f"share {i}"), exchange(None)

    got = _run(3, share)
    assert got == [([i * 10 for i in range(processes)],
                    [f"share {i}" for i in range(processes)],
                    [None] * processes)] * processes


def _exit_1(i, w, exchange):
    os._exit(1)


def _exit_0(i, w, exchange):
    os._exit(0)  # no result sent: its output ends early


def _half_result(i, w, exchange):
    return "a result"


def _half_exchange(i, w, exchange):
    return exchange(i)


@pytest.mark.parametrize("child", [_exit_1, _exit_0, _half_result, _half_exchange],
                         ids=["exits_1", "exits_0_early", "half_result", "half_exchange"])
def test_a_failed_child_gives_one_rerun_here(forks, tmp_path, monkeypatch, child):
    forked, calls = forks(3), []
    parent = os.getpid()
    if child in (_half_result, _half_exchange):
        # every message a child sends is half its bytes, behind a whole length
        in_children(monkeypatch, pickle, "dumps", tmp_path / "marks", half_payload)

    def share(i, w, exchange):
        if os.getpid() != parent:
            return child(i, w, exchange)
        calls.append((i, w))
        return exchange(i) if child is _half_exchange else (i, w)

    assert _run(3, share) == [[0] if child is _half_exchange else (0, 1)]
    assert len(forked) == 2
    assert calls == [(0, 3), (0, 1)]


def test_an_exception_of_the_rerun_propagates_unchanged(forks):
    parent = os.getpid()
    error = LookupError("the serial share fails")
    for processes in (1, 3):
        forked = forks(processes)

        def share(i, w, exchange):
            if os.getpid() != parent:
                os._exit(1)
            if w == 1:
                raise error
            return i

        with pytest.raises(LookupError) as raised:
            _run(3, share)
        assert raised.value is error
        assert len(forked) == processes - 1
        forked.clear()


def test_a_warning_in_a_forked_share_gives_a_rerun_whose_warning_reaches_the_caller(forks):
    forked, calls = forks(3), []
    record = _here(calls)

    def share(i, w, exchange):
        warnings.warn(f"share {i} of {w} warns", RuntimeWarning)
        return record(i, w, exchange)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(3, share) == [(0, 1)]
    assert [str(w.message) for w in caught] == ["share 0 of 1 warns"]
    assert len(forked) == 2
    assert calls == [(0, 1)]  # the forked share 0 raised before it was recorded


def test_the_rerun_runs_under_the_callers_warning_filters(forks):
    forks(2)

    def share(i, w, exchange):
        warnings.warn(f"share {i} of {w} warns", RuntimeWarning)
        return i

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert _run(2, share) == [0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="share 0 of 1 warns"):
            _run(2, share)


def test_a_warning_in_a_child_alone_gives_a_silent_rerun(forks):
    forked, calls = forks(3), []
    parent, record = os.getpid(), _here(calls)

    def share(i, w, exchange):
        if os.getpid() != parent:
            warnings.warn("a child warns", RuntimeWarning)
        return record(i, w, exchange)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run(3, share) == [(0, 1)]
    assert caught == []
    assert len(forked) == 2
    assert calls == [(0, 3), (0, 1)]


def test_an_interrupt_kills_and_reaps_every_child(forks):
    forked = forks(3)
    parent = os.getpid()

    def share(i, w, exchange):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return exchange(i)  # waits for this process, which never sends

    with pytest.raises(KeyboardInterrupt):
        _run(3, share)
    assert len(forked) == 2


@pytest.mark.parametrize("blas, threads, w", [(True, 2, 1), (True, 1, 2), (False, 2, 2)])
def test_a_native_thread_keeps_a_blas_stage_in_one_process(forks, blas, threads, w):
    forked, calls = forks(2, threads), []
    assert _run(2, _here(calls), blas) == [(i, w) for i in range(w)]
    assert len(forked) == w - 1


@pytest.mark.parametrize("blas", [False, True])
def test_a_running_thread_keeps_the_stage_in_one_process(forks, blas):
    forked, calls = forks(2), []
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert _run(2, _here(calls), blas) == [(0, 1)]
    finally:
        release.set()
        thread.join()
    assert forked == []
