"""In-process span tracer for the stratamatch layers.

The tracer wraps every public function of each layer module from outside the
package: it replaces the function object wherever a loaded ``stratamatch``
module binds it (as a module attribute or as a value of a module-level dict
such as ``ESTIMATORS``), so a call through a re-export like
``from .matching import solve_match`` is recorded too. ``uninstall`` puts the
original objects back. Spans stay in memory until the caller writes them out.

A span is ``[span_id, parent_id, call_id, name, start, end]`` with times from
``time.perf_counter``. The tracer keeps one parent stack, so it assumes the
traced code calls the layers from one thread (no workload passes
``--threads``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("dataset", "regression", "tree", "matching", "estimation", "balance", "cli")


def public_functions(package: str = "stratamatch") -> dict[int, tuple[object, str]]:
    """``id(fn) -> (fn, "layer.name")`` for the functions each layer defines."""
    found: dict[int, tuple[object, str]] = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for name, fn in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__):
                found[id(fn)] = (fn, f"{layer}.{name}")
    return found


class Tracer:
    def __init__(self, package: str = "stratamatch"):
        self.package = package
        self.spans: list[list] = []
        self.call_id = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, object, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.call_id, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()

        return traced

    def install(self) -> int:
        """Wrap every binding of every public layer function; returns the
        number of bindings replaced."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        targets = public_functions(self.package)
        wrapped = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        prefix = self.package + "."
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(val) in wrapped:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapped[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in wrapped:
                            self._restore.append((val, key, item))
                            val[key] = wrapped[id(item)]
        return len(self._restore)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[5] - s[4]
    return own


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, and the list of
    inclusive durations in ms. Inclusive time counts only outermost spans of a
    name, so a function that calls itself is not counted twice."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s[3], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "ms": []})
        row["calls"] += 1
        row["self_s"] += own[s[0]]
        row["ms"].append((s[5] - s[4]) * 1e3)
        parent = s[1]
        while parent is not None and by_id[parent][3] != s[3]:
            parent = by_id[parent][1]
        if parent is None:
            row["incl_s"] += s[5] - s[4]
    return out
