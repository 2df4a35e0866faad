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
    return _scan(x, y, np.argsort(x, axis=0, kind="stable").T, _std(y))


@np.errstate(over="ignore")  # an overflowing sum of squares is redone below
def _scan(x: np.ndarray, y: np.ndarray, orders: np.ndarray,
          sd_parent: float) -> SplitCandidate | None:
    """:func:`best_split` over the rows ``orders[j]`` of ``x`` and ``y``, where
    ``orders[j]`` lists one node's rows by ascending ``x[:, j]``, ties in
    ascending row order, and ``sd_parent`` is the node's outcome deviation."""
    best: SplitCandidate | None = None
    for j, order in enumerate(orders):
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
    """
    x, y = control.x, control.y
    n, p = x.shape
    if theta is None:
        theta = default_theta(p)
    nodes: list[TreeNode] = []
    # order[j, lo:hi] lists one node's rows by ascending feature j, ties in
    # row order. A split stable-partitions its node's span, left child first,
    # so each child's span is its parent's order filtered by membership, and
    # one array of int32 rows serves the whole tree.
    order = np.empty((p, n), dtype=np.int32 if n < 2**31 else np.int64)
    for j in range(p):
        order[j] = np.argsort(x[:, j], kind="stable")
    goes_left = np.zeros(n, dtype=bool)  # membership flags of the node being split

    def grow(indices: np.ndarray, depth: int, fit: LinearFit, lo: int) -> int:
        node_id = len(nodes)
        nodes.append(None)  # type: ignore[arg-type]  # reserve slot; filled below
        node = TreeNode(
            node_id=node_id,
            depth=depth,
            control_indices=indices,
            r2_adj=fit.r2_adj,
            n=int(indices.size),
        )
        span = order[:, lo:lo + indices.size]
        cand = None
        if depth < max_depth and indices.size >= p + 2:
            cand = _scan(x, y, span, _std(y[indices]))
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

    if n < p + 2:
        logger.warning(
            "control set too small for any split (n=%d < p+2=%d); single-leaf tree", n, p + 2
        )
    grow(np.arange(n), 0, ols_fit(x, y), 0)
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
