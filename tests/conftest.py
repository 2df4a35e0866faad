import os
from pathlib import Path

import numpy as np
import pytest

from stratamatch.dataset import Dataset, _frozen, make_dataset
from stratamatch.regression import _std, ols_fit
from stratamatch.tree import TreeNode, _presort, _scan, should_split

# the CLI tests start ``python -m stratamatch`` in child processes; point them
# at this checkout's sources, as pytest's ``pythonpath`` setting does in-process
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def in_children(monkeypatch, module, name, marks, broken, when=lambda: True):
    """Replace ``module.name`` by ``broken(original, *args)`` in forked
    children while ``when()`` holds, each of which appends a line to
    ``marks``; this process keeps the original."""
    parent, original = os.getpid(), getattr(module, name)

    def replaced(*args, **kwargs):
        if os.getpid() == parent or not when():
            return original(*args, **kwargs)
        with open(marks, "a") as f:
            f.write("child\n")
        return broken(original, *args, **kwargs)

    monkeypatch.setattr(module, name, replaced)


def exit_1(original, *args, **kwargs):
    """A broken call for :func:`in_children`: the child exits with status 1."""
    os._exit(1)


def half_payload(dumps, obj, *args):
    """A broken ``pickle.dumps`` for :func:`in_children`: half the bytes."""
    data = dumps(obj, *args)
    return data[:len(data) // 2]


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


def serial_build_tree(control: Dataset, lambda_: float, theta: int, max_depth: int
                      ) -> list[TreeNode]:
    """The nodes of ``build_tree``'s model tree, grown in one process by one
    recursion: the tree of the serial builder, which each process count of
    ``build_tree`` must give bit for bit."""
    x, y = control.x, control.y
    n, p = x.shape
    nodes: list[TreeNode] = []
    root_fit = ols_fit(x, y)
    order = np.empty((p, n), dtype=np.int32)
    for j in range(p):
        order[j] = _presort(x[:, j])
    goes_left = np.zeros(n, dtype=bool)

    def grow(indices, depth, fit, lo):
        node_id = len(nodes)
        nodes.append(None)
        node = TreeNode(node_id=node_id, depth=depth, control_indices=indices,
                        r2_adj=fit.r2_adj, n=int(indices.size))
        span = order[:, lo:lo + indices.size]
        cand = None
        if depth < max_depth and indices.size >= p + 2:
            cand = _scan(x, y, range(p), span, _std(y[indices]))
        if cand is not None:
            mask = x[indices, cand.feature] <= cand.threshold
            lidx = indices[mask]
            ridx = indices[~mask]
            lfit = ols_fit(x[lidx], y[lidx])
            rfit = ols_fit(x[ridx], y[ridx])
            if should_split(fit, lfit, rfit, lidx.size, ridx.size, lambda_, theta):
                node.split = (cand.feature, cand.threshold)
                node.sdr = cand.sdr
                nodes[node_id] = node
                goes_left[indices] = mask
                for row in span:
                    side = goes_left[row]
                    left, right = row.compress(side), row.compress(~side)
                    row[:left.size] = left
                    row[left.size:] = right
                node.left = grow(lidx, depth + 1, lfit, lo)
                node.right = grow(ridx, depth + 1, rfit, lo + lidx.size)
                return node_id
        node.leaf_model = fit
        nodes[node_id] = node
        return node_id

    grow(np.arange(n), 0, root_fit, 0)
    return nodes


def node_bits(nodes: list[TreeNode]) -> list[tuple]:
    """Everything a tree's nodes hold, with floats as bits."""

    def bits(v):
        return None if v is None else float(v).hex()

    out = []
    for nd in nodes:
        fit = nd.leaf_model
        model = None if fit is None else (
            bits(fit.intercept), fit.coefficients.tobytes(), fit.coefficients.flags.writeable,
            bits(fit.r2), bits(fit.r2_adj), fit.n_obs, fit.rank_deficient)
        split = None if nd.split is None else (nd.split[0], bits(nd.split[1]))
        out.append((nd.node_id, nd.depth, nd.n, nd.control_indices.tobytes(), bits(nd.r2_adj),
                    split, bits(nd.sdr), nd.left, nd.right, model))
    return out


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
