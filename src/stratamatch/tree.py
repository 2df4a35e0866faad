"""Control-only model tree: variance-reduction splits, per-leaf linear fits.

The tree is grown on control units alone. Each node scans every feature and
every unique value as a candidate threshold, keeps the single split with the
largest standard-deviation reduction, and accepts it only if at least one
child's adjusted R-squared beats the parent's by more than a size penalty.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import _fork, dataset
from .dataset import Dataset
from .regression import LinearFit, _std, ols_fit

logger = logging.getLogger(__name__)

DEFAULT_LAMBDA = 0.1
DEFAULT_MAX_DEPTH = 32


def default_theta(p: int) -> int:
    """Minimum-size guard for the split penalty: ``max(30, 2p)``."""
    return max(30, 2 * p)


@dataclass
class SplitCandidate:
    feature: int
    threshold: float
    sdr: float


@dataclass
class TreeNode:
    """One arena slot. Internal nodes carry a split and child ids; leaves
    carry the linear model fitted on their control units."""

    node_id: int
    depth: int
    control_indices: np.ndarray
    r2_adj: float | None
    n: int
    split: tuple[int, float] | None = None
    sdr: float | None = None
    left: int | None = None
    right: int | None = None
    leaf_model: LinearFit | None = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None


@dataclass
class TreeModel:
    """Node arena plus the hyperparameters the tree was grown with."""

    nodes: list[TreeNode]
    root: int
    lambda_: float
    theta: int
    p: int
    feature_names: tuple[str, ...] = field(default_factory=tuple)

    def node(self, node_id: int) -> TreeNode:
        return self.nodes[node_id]

    def leaves(self) -> list[TreeNode]:
        return [nd for nd in self.nodes if nd.is_leaf]


def best_split(x: np.ndarray, y: np.ndarray) -> SplitCandidate | None:
    """The deviation-reduction-maximizing split over all features and values.

    Candidate rules are ``x_j <= s`` for every unique value ``s`` of every
    feature, skipping each feature's maximum (which would leave the right
    side empty). Ties break toward the lower feature index, then the lower
    threshold. Returns ``None`` when no feature admits a two-sided split.

    Per feature, the scan walks the values in sorted order and evaluates all
    thresholds from cumulative sums. This function sorts its own input;
    :func:`build_tree` sorts each feature once at the root and hands every
    child its parent's order filtered by membership, so a tree costs one
    O(p n log n) sort plus O(p n) per node.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] < 2:
        return None
    return _scan(x, y, range(x.shape[1]), np.argsort(x, axis=0, kind="stable").T, _std(y))


@np.errstate(over="ignore")  # an overflowing sum of squares is redone below
def _scan(x: np.ndarray, y: np.ndarray, features: range, orders: np.ndarray,
          sd_parent: float) -> SplitCandidate | None:
    """:func:`best_split` over the ascending ``features``, where ``orders[k]``
    lists one node's rows by ascending ``x[:, features[k]]``, ties in
    ascending row order, and ``sd_parent`` is the node's outcome deviation."""
    best: SplitCandidate | None = None
    for j, order in zip(features, orders):
        xs = x[order, j]
        ys = y.take(order)
        cut = np.nonzero(xs[:-1] < xs[1:])[0]
        if cut.size == 0:
            continue
        vals = _reductions(ys, cut, sd_parent)
        if vals is None:
            # the sum of squares passed the float range (|y| beyond ~1e154):
            # redo the sums on y and sd_parent scaled by one power of two,
            # exact, so that y peaks in [0.5, 1)
            e = math.frexp(float(np.max(np.abs(ys))))[1]
            vals = np.ldexp(_reductions(np.ldexp(ys, -e), cut, math.ldexp(sd_parent, -e)), e)
        k = int(np.argmax(vals))  # first maximum: lowest threshold wins ties
        if best is None or float(vals[k]) > best.sdr:
            best = SplitCandidate(feature=j, threshold=float(xs[cut[k]]), sdr=float(vals[k]))
    return best


def _reductions(ys: np.ndarray, cut: np.ndarray, sd_parent: float) -> np.ndarray | None:
    """The deviation reduction of splitting ``ys`` after each position in
    ``cut``, from cumulative sums; ``None`` if the sum of ``ys * ys`` is not
    finite. Every other sum is then finite too."""
    n = ys.size
    cs2 = np.cumsum(ys * ys)
    if not math.isfinite(cs2[-1]):
        return None
    cs = np.cumsum(ys)
    nl = cut + 1.0
    nr = n - nl
    sl = cs[cut]
    sl2 = cs2[cut]
    sr = cs[-1] - sl
    sr2 = cs2[-1] - sl2
    # E[y^2] - E[y]^2, clamped against cancellation noise
    varl = np.maximum(sl2 / nl - (sl / nl) ** 2, 0.0)
    varr = np.maximum(sr2 / nr - (sr / nr) ** 2, 0.0)
    return sd_parent - (nl / n) * np.sqrt(varl) - (nr / n) * np.sqrt(varr)


def _presort(col: np.ndarray) -> np.ndarray:
    """``np.argsort(col, kind="stable")``, from the cheapest sort that gives it.

    A column of at most two values (``-0.0`` equals ``0.0``) needs no sort:
    the rows of the low value, then the rest, each in row order. Otherwise
    the default quicksort serves when it leaves no two equal values, since
    the order of distinct values is unique; a tie falls back to the stable
    sort, which keeps tied rows in row order.
    """
    col = np.ascontiguousarray(col)
    low = col == col.min()
    if np.all(low | (col == col.max())):
        return np.concatenate([np.flatnonzero(low), np.flatnonzero(~low)])
    order = np.argsort(col)
    ranked = col[order]
    if np.all(ranked[:-1] < ranked[1:]):
        return order
    return np.argsort(col, kind="stable")


def _r2a(fit: LinearFit) -> float:
    return -math.inf if fit.r2_adj is None else fit.r2_adj


def should_split(
    parent_fit: LinearFit,
    left_fit: LinearFit,
    right_fit: LinearFit,
    left_n: int,
    right_n: int,
    lambda_: float = DEFAULT_LAMBDA,
    theta: int = 30,
) -> bool:
    """Accept a split if either child's adjusted R-squared beats the parent's
    by strictly more than the small-child penalty.

    A child smaller than ``theta`` pays a flat ``lambda_`` penalty. An
    undefined adjusted R-squared counts as negative infinity, so that child
    can never justify the split on its own.
    """
    pa = _r2a(parent_fit)
    s1 = (_r2a(left_fit) - pa - lambda_ * (1.0 if theta - left_n > 0 else 0.0)) > 0.0
    s2 = (_r2a(right_fit) - pa - lambda_ * (1.0 if theta - right_n > 0 else 0.0)) > 0.0
    return bool(s1 or s2)


def build_tree(
    control: Dataset,
    lambda_: float = DEFAULT_LAMBDA,
    theta: int | None = None,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> TreeModel:
    """Grow the model tree on a control-only dataset.

    Each node fits its own least-squares model, takes the single best
    deviation-reducing split, fits the two children, and recurses into both
    when :func:`should_split` accepts. Nodes stop when no valid split exists,
    the acceptance test fails, the node has fewer than ``p + 2`` units (its
    adjusted R-squared is undefined), or the depth cap is reached.

    A control set smaller than ``p + 2`` yields a single-leaf tree with a
    warning.

    :func:`_fork.run` grows the tree in ``w`` processes at once, at most
    one per ``2 * _CHUNK_ROWS`` controls, so from 8 192 controls on; each
    makes LAPACK calls, and :mod:`._fork` says when the tree grows in one
    process. Every process runs the same recursion over the same nodes (see
    :func:`_grow`): process ``i`` presorts, scans and partitions only the
    features ``i, i + w, ...``, and each fit is made in one process and
    sent to all. Every process so takes the serial run's split, from the
    same sums, and the serial run's decision, from fits of the same rows by
    the same :func:`ols_fit`; pickling keeps every float's bits. Only this
    process keeps the nodes.
    """
    x, y = control.x, control.y
    n, p = x.shape
    if theta is None:
        theta = default_theta(p)
    if n < p + 2:
        logger.warning(
            "control set too small for any split (n=%d < p+2=%d); single-leaf tree", n, p + 2
        )
    nodes = _fork.run(n // (2 * dataset._CHUNK_ROWS),
                      lambda i, w, exchange: _grow(x, y, lambda_, theta, max_depth,
                                                   i, w, exchange), blas=True)[0]
    model = TreeModel(
        nodes=nodes,
        root=0,
        lambda_=lambda_,
        theta=theta,
        p=p,
        feature_names=control.feature_names,
    )
    logger.info(
        "tree built: %d nodes, %d leaves, depth<=%d",
        len(nodes), len(model.leaves()), max(nd.depth for nd in nodes),
    )
    return model


def _grow(x: np.ndarray, y: np.ndarray, lambda_: float, theta: int, max_depth: int,
          share: int, w: int, exchange: _fork.Exchange) -> list[TreeNode] | None:
    """The node arena of :func:`build_tree`, grown by process ``share`` of
    ``w``, which talk through ``exchange``; ``None`` in every process but
    the first.

    Each process runs the same recursion over the same nodes. At each node
    it scans its own features and the processes exchange their best
    candidates, so each takes the one the serial scan takes: the largest
    ``sdr``, then the lowest feature. The node's fits (the children's, and
    the root's beside them) are dealt to the processes (see :func:`_deal`)
    and exchanged, so every process takes the same :func:`should_split`
    decision. Each process then partitions its own features' rows.
    """
    n, p = x.shape
    mine = range(share, p, w)
    # alone, this process fits the root before it allocates order, so that
    # the fit's temporaries come and go first; several processes deal the
    # root's fit beside its children's, to a child (see _deal)
    root_rows = np.arange(n)
    root_fit = _fit(x, y, root_rows) if w == 1 else None
    # order[k, lo:hi] lists one node's rows by ascending feature mine[k],
    # ties in row order. A split stable-partitions its node's span, left
    # child first, so each child's span is its parent's order filtered by
    # membership, and one array of int32 rows serves the whole tree.
    order = np.empty((len(mine), n), dtype=np.int32 if n < 2**31 else np.int64)
    for k, j in enumerate(mine):
        order[k] = _presort(x[:, j])
    goes_left = np.zeros(n, dtype=bool)  # membership flags of the node being split
    nodes: list[TreeNode] = []

    def fits(rows: list[np.ndarray]) -> list[LinearFit]:
        owners = _deal([r.size for r in rows], w)
        made = exchange([_fit(x, y, r) if owner == share else None
                         for r, owner in zip(rows, owners)])
        return [made[owner][k] for k, owner in enumerate(owners)]

    def grow(indices: np.ndarray, depth: int, fit: LinearFit | None, lo: int) -> int:
        node_id = len(nodes)
        nodes.append(None)  # type: ignore[arg-type]  # reserve slot; filled below
        span = order[:, lo:lo + indices.size]
        cand = None
        if depth < max_depth and indices.size >= p + 2:
            cand = _best(exchange(_scan(x, y, mine, span, _std(y[indices]))))
        # the fits this node needs: the root's own, then its children's
        rows = [] if fit is not None else [indices]
        if cand is not None:
            mask = x[indices, cand.feature] <= cand.threshold
            rows += [indices[mask], indices[~mask]]
        made = fits(rows) if rows else []
        if fit is None:
            fit = made.pop(0)
        node = TreeNode(
            node_id=node_id,
            depth=depth,
            control_indices=indices,
            r2_adj=fit.r2_adj,
            n=int(indices.size),
        )
        if cand is not None:
            (lidx, ridx), (lfit, rfit) = rows[-2:], made
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

    grow(root_rows, 0, root_fit, 0)
    del grow  # its closure refers to itself: order dies now, not at a later collection
    return nodes if share == 0 else None


def _fit(x: np.ndarray, y: np.ndarray, rows: np.ndarray) -> LinearFit:
    """:func:`ols_fit` on ``rows`` of ``x`` and ``y``; the root, whose rows
    are all of them, fits ``x`` itself, not a copy."""
    if rows.size == y.size:
        return ols_fit(x, y)
    return ols_fit(x[rows], y[rows])


def _deal(sizes: list[int], w: int) -> list[int]:
    """For fits of ``sizes`` rows, the process of ``w`` that makes each: the
    largest fit first, each to the process with the fewest rows so far, the
    last on a tie. So the first process, which holds the run's other data
    and keeps the nodes, makes the smaller fits, and its peak memory stays
    below the serial run's."""
    load = [0] * w
    owners = [0] * len(sizes)
    for k in sorted(range(len(sizes)), key=lambda k: -sizes[k]):
        owners[k] = min(reversed(range(w)), key=load.__getitem__)
        load[owners[k]] += sizes[k]
    return owners


def _best(cands: list[SplitCandidate | None]) -> SplitCandidate | None:
    """The candidate the serial scan keeps among each process's best: the
    largest ``sdr``, then the lowest feature, then the lowest threshold."""
    return min((c for c in cands if c is not None),
               key=lambda c: (-c.sdr, c.feature, c.threshold), default=None)


def assign_leaf(tree: TreeModel, features: np.ndarray) -> int:
    """Route one unit's feature vector to its leaf; returns the node id.

    At each internal node, values at or below the threshold go left.
    """
    features = np.asarray(features, dtype=np.float64)
    node = tree.nodes[tree.root]
    while not node.is_leaf:
        f, s = node.split  # type: ignore[misc]
        node = tree.nodes[node.left if features[f] <= s else node.right]  # type: ignore[index]
    return node.node_id


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def export_rules(tree: TreeModel) -> str:
    """Human-readable rule listing, one line per leaf.

    Example line: ``x3 ≤ 0.41 ∧ x7 > 0.5 → leaf 12, n=212, r2_adj=0.91``.
    """
    names = tree.feature_names or tuple(f"f{j}" for j in range(tree.p))
    lines: list[str] = []

    def walk(node_id: int, conds: list[str]) -> None:
        node = tree.nodes[node_id]
        if node.is_leaf:
            path = " ∧ ".join(conds) if conds else "(root)"
            r2a = "n/a" if node.r2_adj is None else f"{node.r2_adj:.4f}"
            lines.append(f"{path} → leaf {node.node_id}, n={node.n}, r2_adj={r2a}")
            return
        f, s = node.split  # type: ignore[misc]
        walk(node.left, conds + [f"{names[f]} ≤ {_fmt(s)}"])  # type: ignore[arg-type]
        walk(node.right, conds + [f"{names[f]} > {_fmt(s)}"])  # type: ignore[arg-type]

    walk(tree.root, [])
    return "\n".join(lines) + "\n"


def tree_to_dict(tree: TreeModel) -> dict:
    """Machine-readable nested dump of the whole tree."""
    names = tree.feature_names or tuple(f"f{j}" for j in range(tree.p))

    def walk(node_id: int) -> dict:
        node = tree.nodes[node_id]
        out: dict = {
            "id": node.node_id,
            "depth": node.depth,
            "n": node.n,
            "r2_adj": node.r2_adj,
        }
        if node.is_leaf:
            fit = node.leaf_model
            out["model"] = None if fit is None else {
                "intercept": fit.intercept,
                "coefficients": [float(c) for c in fit.coefficients],
                "r2": fit.r2,
                "r2_adj": fit.r2_adj,
                "rank_deficient": fit.rank_deficient,
            }
        else:
            f, s = node.split  # type: ignore[misc]
            out["split"] = {"feature": int(f), "name": names[f], "threshold": float(s), "sdr": node.sdr}
            out["left"] = walk(node.left)  # type: ignore[arg-type]
            out["right"] = walk(node.right)  # type: ignore[arg-type]
        return out

    return {
        "lambda": tree.lambda_,
        "theta": tree.theta,
        "p": tree.p,
        "root": walk(tree.root),
    }
