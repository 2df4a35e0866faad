import os
from pathlib import Path

import numpy as np
import pytest

from stratamatch.dataset import Dataset, _frozen, make_dataset

# the CLI tests start ``python -m stratamatch`` in child processes; point them
# at this checkout's sources, as pytest's ``pythonpath`` setting does in-process
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def control_only(x: np.ndarray, y: np.ndarray) -> Dataset:
    """Assemble an all-control dataset, bypassing positivity validation."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
    return Dataset(
        t=_frozen(np.zeros(x.shape[0])),
        x=_frozen(x),
        y=_frozen(np.asarray(y, dtype=np.float64)),
        feature_names=names,
    )


def full_scan_shortlist(control: Dataset, leaf_indices, treated, weights, psi: int):
    """The candidate ids and features of the ``psi`` nearest leaf controls,
    from the weighted distance of every leaf row: the shortlist formula
    without the partial-distance screen of ``select_candidates``."""
    w = np.asarray(weights, dtype=np.float64)
    if np.all(w == 0):
        w = np.ones_like(w)
    leaf_indices = np.asarray(leaf_indices)
    diff = control.x[leaf_indices] - treated
    dist = np.sqrt(np.sum(w * diff * diff, axis=1))
    k = min(max(1, int(psi)), dist.size)
    near = np.flatnonzero(dist <= dist[np.argpartition(dist, k - 1)[k - 1]])
    order = near[np.argsort(dist[near], kind="stable")[:k]]
    chosen = leaf_indices[order]
    return control.rows()[chosen], control.x[chosen]


def solution_bits(sol):
    """Everything a solve reports, with floats as bits."""
    return (sol.selected, sol.selected_ids, sol.epsilon.hex(), sol.a.hex(), sol.objective.hex(),
            sol.nodes)


def toy_dataset(seed: int = 0, n_treated: int = 8, n_control: int = 60, p: int = 3) -> Dataset:
    """Small mixed dataset with a piecewise-linear outcome and effect 1.0."""
    rng = np.random.default_rng(seed)
    n = n_treated + n_control
    x = rng.uniform(0, 1, size=(n, p))
    t = np.zeros(n)
    t[rng.choice(n, size=n_treated, replace=False)] = 1
    base = np.where(x[:, 0] <= 0.5, 2.0 * x[:, 0], 3.0 - x[:, 0]) + 0.5 * x[:, 1]
    y = base + t * 1.0 + rng.normal(0, 0.05, n)
    names = tuple(f"x{j + 1}" for j in range(p))
    return make_dataset(t, x, y, names)


@pytest.fixture
def toy():
    return toy_dataset()
