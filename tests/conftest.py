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
