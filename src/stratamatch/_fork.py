"""The shares of one stage, run in forked processes: the fork core of the
loader and of the match stage.

A stage splits its work into ``w`` shares and calls :func:`run`. This
process does share 0; each other share runs in a child made by
``os.fork``, which pickles its result into its own pipe and leaves through
``os._exit``, so it never flushes this process's stdio buffers or runs its
exit handlers. Every share runs with warnings raised as errors. Any failure
(a warning, an exception, a child that exits non-zero or sends a short
payload) kills and reaps every child, and :func:`run` returns ``None``: the
caller then runs the whole stage serially, so its results, exceptions and
messages are those of a serial run. No child outlives the call.

Only ``os.fork`` and ``pickle`` are used: a spawned worker would pay a fresh
interpreter and ``import numpy`` before any work, and ``multiprocessing``
would load on every call.
"""

from __future__ import annotations

import os
import pickle
import threading
import warnings
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` or
    ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def processes(shares: int) -> int:
    """How many processes a stage of at most ``shares`` shares runs in: the
    CPUs available, but no more than ``shares``, and 1 while another thread
    runs, so that a threaded caller never forks."""
    if threading.active_count() > 1:
        return 1
    return max(1, min(_cpu_count(), shares))


def run(w: int, share: Callable[[int], T]) -> list[T] | None:
    """``[share(0), ..., share(w - 1)]``, with share 0 run here and share
    ``i`` in forked child ``i``; ``None`` when ``w < 2`` or any share fails.

    On ``KeyboardInterrupt`` (or any other ``BaseException`` that is not an
    ``Exception``) every child is killed and reaped, and it is re-raised.
    """
    if w < 2:
        return None
    parent = os.getpid()
    pids: list[int] = []  # children not yet reaped
    fds: list[int] = []  # pipe ends this process holds
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns after a fork of a process with native (BLAS)
            # threads; a child calls no BLAS
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            for i in range(1, w):
                r, wr = os.pipe()
                fds += (r, wr)
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        for fd in fds[:-1]:
                            os.close(fd)
                        warnings.simplefilter("error")
                        with open(wr, "wb") as out:
                            out.write(pickle.dumps(share(i), pickle.HIGHEST_PROTOCOL))
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
                os.close(fds.pop())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [share(0)]
        for i, (pid, r) in enumerate(zip(list(pids), list(fds)), start=1):
            with open(r, "rb") as src:
                fds.remove(r)
                # one allocation per array: no copy of the whole payload
                result = pickle.load(src)
            status = os.waitpid(pid, 0)[1]
            pids.remove(pid)
            if os.waitstatus_to_exitcode(status) != 0:
                raise ChildProcessError(f"worker {i} exited with status {status}")
            results.append(result)
        return results
    except BaseException as exc:
        if os.getpid() != parent:  # a child that left its share early
            os._exit(1)
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        pids.clear()
        if not isinstance(exc, Exception):
            raise
        return None
    finally:
        for fd in fds:
            os.close(fd)
