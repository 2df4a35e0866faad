#!/usr/bin/env python3
"""Fixed reference task that ``run.py`` times beside every program call.

It does the same kinds of work as ``stratamatch estimate`` (interpreter and
numpy start-up, CSV parsing in Python, column sorts and a least-squares fit
in numpy, and a pure-Python branch-and-bound search) but imports nothing
from ``stratamatch``, so no change to the package can move its time. The
benchmark divides program wall times by this task's median wall time from
the same run, which cancels how fast the machine happened to be during that
run.

    python3 perfbench/reference.py <input.csv>

prints one checksum line, which must be identical on every call with the same
input.
"""

from __future__ import annotations

import csv
import sys

import numpy as np

ROWS = 4000
SEARCH_REPEATS = 6


def search(weights: list[float], target: float, k: int) -> float:
    """Smallest |sum - target| over the k-subsets of ``weights``, by
    depth-first search with a prune on the running sum."""
    best = [float("inf")]

    def dfs(i: int, s: float, n: int) -> None:
        if n == k:
            best[0] = min(best[0], abs(s - target))
            return
        if i == len(weights) or s > 3.0:
            return
        dfs(i + 1, s + weights[i], n + 1)
        dfs(i + 1, s, n)

    dfs(0, 0.0, 0)
    return best[0]


def main(path: str) -> None:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for _, row in zip(range(ROWS), reader)]
    cols = [i for i, h in enumerate(header) if h.startswith("x")]
    x = np.array([[float(row[i]) for i in cols] for row in rows])
    y = np.array([float(row[header.index("y")]) for row in rows])
    acc = 0.0
    for j in range(len(cols)):
        order = np.argsort(x[:, j], kind="stable")
        acc += float(x[order[:100], j].sum())
    coef, *_ = np.linalg.lstsq(np.column_stack([np.ones(len(x)), x]), y, rcond=None)
    weights = [((i * 7919) % 97) / 97.0 for i in range(24)]
    gap = min(search(weights, 1.3, 4) for _ in range(SEARCH_REPEATS))
    print(f"{acc:.9e} {float(np.abs(coef).sum()):.9e} {gap:.9e}")


if __name__ == "__main__":
    main(sys.argv[1])
