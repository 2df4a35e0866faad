"""The shares of one stage, run in forked processes: the fork core of the
loader, the tree and the match stage.

A stage calls :func:`run` with the most shares its work splits into and
a function that does share ``i`` of ``w``. :func:`run` picks ``w``: the
CPUs this process may run on, but no more than the shares. This process
does share 0; each other share runs in a child made by ``os.fork``, which
pickles its result into its own pipe and leaves through ``os._exit``, so
it never flushes this process's stdio buffers or runs its exit handlers.
While they run, the shares can talk through ``exchange`` (see :func:`run`).
In a forked run every share runs with warnings raised as errors.

A stage runs serially, as one share ``share(0, 1, ...)`` in this process,
in two cases. It forks nothing below two shares, on one CPU, where
``os.fork`` or ``os.sched_getaffinity`` is missing, while another Python
thread runs, and, for a stage whose shares call BLAS, while this process
runs any native thread, such as the thread pool of a BLAS that runs on
several threads (each process would then run such a pool, whose threads
spin between calls and share the CPUs with every other process's work).
And any failure of a forked run (a warning, an exception, a child that
exits non-zero, ends its output early or sends a short payload) kills and
reaps every child and reruns the stage serially under the caller's own
warning filters, so its results, exceptions and warnings are those of a
serial run. No child outlives the call. The loader's and the match stage's
children call no BLAS; the tree's make LAPACK fits.

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
from typing import BinaryIO, TypeVar

T = TypeVar("T")

Exchange = Callable[[object], list]


def _cpu_count() -> int:
    """The CPUs this process may run on; 1 where ``os.fork`` or
    ``os.sched_getaffinity`` is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _threads() -> int:
    """The threads of this process, native ones included (1 where ``/proc``
    is missing)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 1


def _send(outs: list[BinaryIO], obj: object) -> None:
    """Write ``obj``, pickled once, to each of ``outs`` behind its length, so
    that a short message fails its reader at once instead of leaving it
    waiting for bytes that never come."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    for out in outs:
        out.write(len(data).to_bytes(8, "little"))
        out.write(data)
        out.flush()


def _receive(src: BinaryIO) -> object:
    """The next object :func:`_send` wrote to ``src``."""
    head = src.read(8)
    size = int.from_bytes(head, "little")
    data = src.read(size)
    if len(head) < 8 or len(data) < size:
        raise EOFError("a share ended its output early")
    return pickle.loads(data)


def run(shares: int, share: Callable[[int, int, Exchange], T], blas: bool = False) -> list[T]:
    """``[share(0, w, exchange), ..., share(w - 1, w, exchange)]`` for ``w``
    processes, at most ``shares`` (see the module docstring), with share 0
    run here and share ``i`` in forked child ``i``; ``[share(0, 1, ...)]``,
    run here, when ``w`` is 1 or any share fails. ``blas`` says that the
    shares call BLAS.

    ``exchange(obj)`` gathers one object from every share and gives each the
    list of them, in share order; every share must call it equally often.
    Each child has one pipe to this process and one from it, made before it
    is forked, and each process closes every end it does not use, so a dead
    peer reads as the end of its output and fails the run. In a stage run
    in one process, the exchange of ``obj`` is ``[obj]``.

    On ``KeyboardInterrupt`` (or any other ``BaseException`` that is not an
    ``Exception``) every child is killed and reaped, and it is re-raised.
    """
    serial = threading.active_count() > 1 or (blas and _threads() > 1)
    w = 1 if serial else min(_cpu_count(), shares)
    results = _forked(w, share) if w > 1 else None
    return results if results is not None else [share(0, 1, lambda obj: [obj])]


def _forked(w: int, share: Callable[[int, int, Exchange], T]) -> list[T] | None:
    """The results of :func:`run`'s ``w`` shares in ``w`` processes, or
    ``None`` once every child is killed and reaped after any share failed."""
    parent = os.getpid()
    pids: list[int] = []  # children not yet reaped
    links: list[tuple[BinaryIO, BinaryIO]] = []  # per child: its output, its input
    spare: list[int] = []  # the newest child's pipe ends, until it is forked
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns after a fork of a process with native threads,
            # such as a BLAS pool's: only a stage whose children call no BLAS
            # forks such a process (see run)
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            for i in range(1, w):
                (up, up_w), (down_r, down) = os.pipe(), os.pipe()
                spare += (up_w, down_r)
                links.append((open(up, "rb"), open(down, "wb")))
                pid = os.fork()
                if pid == 0:
                    _child(i, w, share, links, up_w, down_r)
                pids.append(pid)
                while spare:
                    os.close(spare.pop())

        def exchange(obj: object) -> list:
            objs = [obj, *(_receive(src) for src, _ in links)]
            _send([out for _, out in links], objs)
            return objs

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [share(0, w, exchange)]
        for i, (pid, (src, _)) in enumerate(zip(list(pids), links), start=1):
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
        for fd in spare:
            os.close(fd)
        for src, out in links:
            src.close()
            try:
                out.close()
            except OSError:  # a killed child left unsent bytes behind
                pass


def _child(i: int, w: int, share: Callable[[int, int, Exchange], object],
           links: list[tuple[BinaryIO, BinaryIO]], up: int, down: int) -> None:
    """Run share ``i`` of ``w`` in a forked child, whose output is ``up``
    and input ``down``, and leave through ``os._exit``; ``links`` are the
    parent's ends, closed here first."""
    code = 1
    try:
        for src, out in links:
            src.close()
            out.close()
        warnings.simplefilter("error")
        with open(up, "wb") as out, open(down, "rb") as src:

            def exchange(obj: object) -> list:
                _send([out], obj)
                return _receive(src)  # type: ignore[return-value]

            out.write(pickle.dumps(share(i, w, exchange), pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)
