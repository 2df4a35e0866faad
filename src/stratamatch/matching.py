"""Exact balanced control selection for a single treated unit.

Given a treated unit's feature vector and a pool of control candidates, the
matcher picks the non-empty candidate subset minimizing ``a + m2 * eps``:
``eps`` caps, feature by feature, the absolute weighted sum of the selected
candidates' signed deviations from the treated unit (so opposite-side
deviations cancel), and ``a`` caps every selected candidate's single largest
weighted absolute deviation. The optimum is found by depth-first implicit
enumeration over include/exclude decisions with lower-bound pruning, which is
exhaustive-with-pruning on small pools and branch-and-bound on larger ones.
The search is a loop over an explicit stack, so pool size is not limited by
recursion depth; its set-up (deviations, suffix bounds) and its incumbent
seeding from all singletons and pairs run in numpy. An independent
full-enumeration oracle and a two-stage strictly-hierarchical solver are
provided for cross-checking.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import EmptyInput, HierarchyBoundWarning, NoCandidates, OracleTooLarge

logger = logging.getLogger(__name__)

DEFAULT_M2 = 1e6
DEFAULT_PSI = 20
DEFAULT_NODE_BUDGET = 1000
DELTA_PRECISION = 1e-9

_ORACLE_MAX = 20

_HIERARCHY_MSG = (
    "m2 is at or below the sufficiency bound for strict deviation-sum priority; "
    "the per-unit cap may override sum minimization on near-ties"
)


@dataclass(frozen=True)
class MatchProblem:
    """One treated unit's selection instance.

    ``candidate_ids`` carry the candidates' original control indices, used
    for audit trails and for deterministic tie-breaking. Weights must be
    non-negative; features are assumed to share one scale (normalize first).
    """

    treated_features: np.ndarray
    candidate_features: np.ndarray
    weights: np.ndarray
    m2: float = DEFAULT_M2
    candidate_ids: np.ndarray | None = None

    def __post_init__(self):
        mu = np.asarray(self.treated_features, dtype=np.float64).reshape(-1)
        cand = np.asarray(self.candidate_features, dtype=np.float64)
        if cand.ndim == 1:
            cand = cand.reshape(-1, 1)
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if cand.shape[0] == 0:
            raise NoCandidates("a match problem needs at least one candidate")
        if mu.size == 0:
            raise EmptyInput("treated feature vector is empty")
        if cand.shape[1] != mu.size or w.size != mu.size:
            raise EmptyInput("feature dimensions of treated unit, candidates, and weights disagree")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(cand)) and np.all(np.isfinite(w))):
            raise EmptyInput("match problem contains non-finite values")
        if np.any(w < 0):
            raise EmptyInput("weights must be non-negative")
        if not self.m2 > 0:
            raise EmptyInput("m2 must be positive")
        ids = self.candidate_ids
        if ids is None:
            ids = np.arange(cand.shape[0])
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.size != cand.shape[0]:
            raise EmptyInput("candidate_ids length does not match candidate count")
        for name, arr in (("treated_features", mu), ("candidate_features", cand),
                          ("weights", w), ("candidate_ids", ids)):
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.m2 <= hierarchy_m2_bound(self):
            warnings.warn(_HIERARCHY_MSG, HierarchyBoundWarning, stacklevel=2)

    @property
    def n_candidates(self) -> int:
        return int(self.candidate_features.shape[0])

    @property
    def p(self) -> int:
        return int(self.treated_features.size)


@dataclass(frozen=True)
class SolverStats:
    method: str
    nodes: int
    time_s: float
    suboptimal: bool = False
    node_budget: int | None = None


@dataclass(frozen=True)
class MatchSolution:
    """Selected candidate subset with its certified deviation levels.

    ``selected`` holds positions into the problem's candidate arrays, in
    ascending order; ``selected_ids`` the corresponding original indices.
    ``objective == a + m2 * epsilon`` by construction.
    """

    selected: tuple[int, ...]
    selected_ids: tuple[int, ...]
    epsilon: float
    a: float
    objective: float
    stats: SolverStats


def hierarchy_m2_bound(prob: MatchProblem, delta: float = DELTA_PRECISION) -> float:
    """Smallest ``m2`` guaranteeing sum-deviation priority at precision ``delta``.

    Computed as ``n_candidates * max_j (w_j * range_j) / delta`` where
    ``range_j`` spans candidate and treated values of feature ``j``. Any
    ``m2`` strictly above this makes every feasible reduction of ``eps``
    (of at least ``delta``) outweigh the full possible range of ``a``.
    """
    cand = np.asarray(prob.candidate_features, dtype=np.float64)
    mu = np.asarray(prob.treated_features, dtype=np.float64)
    hi = np.maximum(cand.max(axis=0), mu)
    lo = np.minimum(cand.min(axis=0), mu)
    w = np.asarray(prob.weights, dtype=np.float64)
    abar = cand.shape[0] * float(np.max(w * (hi - lo)))
    return abar / delta


def select_candidates(
    control: Dataset,
    leaf_indices: np.ndarray,
    treated_features: np.ndarray,
    weights: np.ndarray,
    psi: int = DEFAULT_PSI,
    m2: float = DEFAULT_M2,
) -> MatchProblem:
    """Build a match problem from the ``psi`` nearest controls in one leaf.

    Distance is ``sqrt(sum_j w_j * (t_j - c_ij)^2)`` (weights enter once,
    unsquared). Ties break toward the lower original index. If the leaf has
    fewer than ``psi`` controls, all of them become candidates. An all-zero
    weight vector falls back to unit weights with a warning.

    Raises:
        NoCandidates: if ``leaf_indices`` is empty.
    """
    leaf_indices = np.asarray(leaf_indices, dtype=np.int64)
    if leaf_indices.size == 0:
        raise NoCandidates("leaf holds no control units")
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if np.all(w == 0):
        logger.warning("all feature weights are zero; falling back to unit weights")
        w = np.ones_like(w)
    mu = np.asarray(treated_features, dtype=np.float64).reshape(-1)
    feats = control.x[leaf_indices]
    diff = feats - mu
    dist = np.sqrt(np.sum(w * diff * diff, axis=1))
    k = min(max(1, int(psi)), dist.size)
    # only entries at or below the k-th smallest distance can be chosen; a
    # stable sort of those, by position, keeps the lower-index tie-break
    near = np.flatnonzero(dist <= dist[np.argpartition(dist, k - 1)[k - 1]])
    order = near[np.argsort(dist[near], kind="stable")[:k]]
    chosen = leaf_indices[order]
    return MatchProblem(
        treated_features=mu,
        candidate_features=control.x[chosen],
        weights=w,
        m2=m2,
        candidate_ids=control.rows()[chosen],
    )


# ---------------------------------------------------------------------------
# shared exact evaluation


def _prep(prob: MatchProblem) -> tuple[list[list[float]], list[float], list[int], int, int]:
    delta_np = prob.weights * (prob.candidate_features - prob.treated_features)
    n, p = delta_np.shape
    dev = np.abs(delta_np).max(axis=1)
    return delta_np.tolist(), dev.tolist(), prob.candidate_ids.tolist(), n, p


def _evaluate(delta: list[list[float]], dev: list[float], sel: tuple[int, ...]) -> tuple[float, float]:
    """Exact (eps, a) for a selected subset; the single source of truth all
    solvers share, accumulating in ascending position order."""
    sums = [0.0] * len(delta[0])
    for i in sel:
        sums = [s + d for s, d in zip(sums, delta[i])]
    eps = max(abs(s) for s in sums)
    a = max(dev[i] for i in sel)
    return eps, a


def _id_key(ids: list[int], sel: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(ids[i] for i in sel))


class _Incumbent:
    __slots__ = ("sel", "eps", "a", "obj", "key")

    def __init__(self):
        self.sel: tuple[int, ...] | None = None
        self.eps = 0.0
        self.a = 0.0
        self.obj = float("inf")
        self.key: tuple[int, ...] = ()

    def offer(self, sel, eps, a, obj, key) -> None:
        if self.sel is None or obj < self.obj or (obj == self.obj and key < self.key):
            self.sel, self.eps, self.a, self.obj, self.key = sel, eps, a, obj, key


def _suffix_bounds(delta: list[list[float]], n: int, p: int):
    """Per-feature sums of the positive and of the negative deviations of
    candidates ``k..n-1``, accumulated from the last candidate backwards."""
    d = np.asarray(delta, dtype=np.float64)
    spos = np.zeros((n + 1, p))
    sneg = np.zeros((n + 1, p))
    # add.accumulate is sequential, so each suffix sum rounds like a loop
    spos[:n] = np.add.accumulate(np.where(d > 0, d, 0.0)[::-1], axis=0)[::-1]
    sneg[:n] = np.add.accumulate(np.where(d < 0, d, 0.0)[::-1], axis=0)[::-1]
    return spos.tolist(), sneg.tolist()


def _min_suffix(dev: list[float], n: int) -> list[float]:
    out = np.full(n + 1, np.inf)
    out[:n] = np.minimum.accumulate(np.asarray(dev, dtype=np.float64)[::-1])[::-1]
    return out.tolist()


def _seed_incumbent(
    delta: list[list[float]], dev: list[float], ids: list[int], m2: float, inc: _Incumbent
) -> None:
    """Offer the best singleton or pair to ``inc``.

    numpy scores every singleton and, one row at a time, every pair
    ``(i, k)`` with ``i < k``, keeping only each row's minimum, so memory
    stays O(n * p). Subsets scoring within a small margin of the overall
    minimum are then re-scored through :func:`_evaluate` and offered in
    enumeration order (singletons, then pairs by ``i`` and ``k``), so the
    incumbent and its tie-break are those of offering every subset.
    """
    d = np.asarray(delta, dtype=np.float64)
    dv = np.asarray(dev, dtype=np.float64)
    n = dv.size

    def pair_scores(i: int) -> np.ndarray:
        eps = np.abs(d[i + 1:] + d[i]).max(axis=1)
        return np.maximum(dv[i + 1:], dv[i]) + m2 * eps

    single = dv + m2 * dv
    row_best = np.array([pair_scores(i).min() for i in range(n - 1)] + [np.inf])
    best = float(min(single.min(), row_best.min()))
    cut = best + 1e-9 * (1.0 + abs(best))

    def consider(sel: tuple[int, ...]) -> None:
        eps, a = _evaluate(delta, dev, sel)
        inc.offer(sel, eps, a, a + m2 * eps, _id_key(ids, sel))

    for i in np.flatnonzero(single <= cut).tolist():
        consider((i,))
    for i in np.flatnonzero(row_best <= cut).tolist():
        for k in (np.flatnonzero(pair_scores(i) <= cut) + i + 1).tolist():
            consider((i, k))


def solve_match(prob: MatchProblem, node_budget: int | None = None) -> MatchSolution:
    """Exact minimizer of ``a + m2 * eps`` over non-empty candidate subsets.

    Depth-first search over include/exclude decisions in candidate order,
    include branch first. The search runs as a loop: the list of included
    positions doubles as the explicit stack, so backtracking pops the deepest
    included candidate, subtracts its deviations from the running sums, and
    explores its exclude branch. No recursion means no depth limit on the
    candidate count.

    Partial selections are pruned with a joint lower bound: the cap can only
    grow from the included candidates' largest deviation (kept as a stack of
    running maxima), and each feature's final signed sum is confined to the
    interval spanned by the undecided candidates' positive and negative
    deviations. The bound stops early once it passes the incumbent. Set-up
    (deviations, suffix bounds) is vectorized, and the incumbent is seeded
    from the best singleton or pair found by a numpy screen. Objective ties
    resolve to the lexicographically smallest selected original-index set.

    With a ``node_budget``, search stops after that many nodes and the best
    incumbent is returned flagged as possibly suboptimal (and logged); with
    the default ``None`` the search is exhaustive, hence exact.
    """
    t0 = time.perf_counter()
    delta, dev, ids, n, p = _prep(prob)
    m2 = prob.m2
    inc = _Incumbent()
    _seed_incumbent(delta, dev, ids, m2, inc)

    spos, sneg = _suffix_bounds(delta, n, p)
    min_dev = _min_suffix(dev, n)
    limit = float("inf") if node_budget is None else node_budget
    thr = inc.obj + 1e-9 + 1e-12 * abs(inc.obj)
    sums = [0.0] * p
    included: list[int] = []
    caps: list[float] = []
    nodes = 0
    budget_hit = False
    k = 0
    while True:
        if nodes >= limit:
            budget_hit = True
            break
        nodes += 1
        if k < n:
            a_lb = caps[-1] if caps else min_dev[k]
            # the bound at eps_lb = 0; the loop tests only positive maxima
            if a_lb <= thr:
                eps_lb = 0.0
                for s, lo_d, hi_d in zip(sums, sneg[k], spos[k]):
                    m = s + lo_d
                    if m <= 0.0:
                        m = -(s + hi_d)
                        if m <= 0.0:
                            continue
                    # a_lb + m2 * eps_lb only grows with eps_lb, so the first
                    # feature that passes the threshold decides the prune
                    if m > eps_lb:
                        eps_lb = m
                        if a_lb + m2 * m > thr:
                            break
                else:
                    sums = [s + d for s, d in zip(sums, delta[k])]
                    included.append(k)
                    caps.append(dev[k] if not caps or dev[k] > caps[-1] else caps[-1])
                    k += 1
                    continue
        elif included:
            sel = tuple(included)
            eps, a = _evaluate(delta, dev, sel)
            obj = a + m2 * eps
            if obj <= inc.obj:  # only a possible winner needs its id key
                inc.offer(sel, eps, a, obj, _id_key(ids, sel))
                thr = inc.obj + 1e-9 + 1e-12 * abs(inc.obj)
        # this node is done: resume at the exclude branch of the deepest include
        if not included:
            break
        k = included.pop()
        caps.pop()
        # subtract instead of restoring a saved copy: the exclude branch's
        # bounds, and so the nodes visited, depend on (s + row) - row
        sums = [s - d for s, d in zip(sums, delta[k])]
        k += 1

    if budget_hit:
        # per-solve noise stays at debug; callers aggregate via stats.suboptimal
        logger.debug(
            "match solver stopped at node budget %d; returning best incumbent (possibly suboptimal)",
            node_budget,
        )
    assert inc.sel is not None
    stats = SolverStats(
        method="subset-bb",
        nodes=nodes,
        time_s=time.perf_counter() - t0,
        suboptimal=budget_hit,
        node_budget=node_budget,
    )
    return MatchSolution(
        selected=inc.sel,
        selected_ids=tuple(ids[i] for i in inc.sel),
        epsilon=inc.eps,
        a=inc.a,
        objective=inc.obj,
        stats=stats,
    )


def solve_match_bruteforce(prob: MatchProblem) -> MatchSolution:
    """Independent oracle: evaluate every non-empty subset.

    A vectorized screen finds the near-optimal band, which is then re-scored
    with the shared exact evaluation so results agree bit-for-bit with
    :func:`solve_match`. Limited to 20 candidates.

    Raises:
        OracleTooLarge: for more than 20 candidates.
    """
    t0 = time.perf_counter()
    n = prob.n_candidates
    if n > _ORACLE_MAX:
        raise OracleTooLarge(f"oracle enumerates at most 2^{_ORACLE_MAX} subsets (got n={n})")
    delta, dev, ids, _, p = _prep(prob)
    m2 = prob.m2

    delta_np = np.asarray(delta, dtype=np.float64)
    dev_np = np.asarray(dev, dtype=np.float64)
    shifts = np.arange(n, dtype=np.uint32)
    total = 1 << n
    chunk = 1 << 14

    def screen(masks: np.ndarray) -> np.ndarray:
        bits = ((masks[:, None] >> shifts) & 1).astype(np.float64)
        sums = bits @ delta_np
        eps = np.abs(sums).max(axis=1)
        a = (bits * dev_np).max(axis=1)
        return a + m2 * eps

    best_v = np.inf
    for start in range(1, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        vals = screen(masks)
        v = float(vals.min())
        if v < best_v:
            best_v = v

    margin = 1e-9 * (1.0 + abs(best_v))
    inc = _Incumbent()
    for start in range(1, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        vals = screen(masks)
        for mask in masks[vals <= best_v + margin]:
            sel = tuple(i for i in range(n) if (int(mask) >> i) & 1)
            eps, a = _evaluate(delta, dev, sel)
            inc.offer(sel, eps, a, a + m2 * eps, _id_key(ids, sel))
    assert inc.sel is not None
    stats = SolverStats(method="bruteforce", nodes=total - 1, time_s=time.perf_counter() - t0)
    return MatchSolution(
        selected=inc.sel,
        selected_ids=tuple(ids[i] for i in inc.sel),
        epsilon=inc.eps,
        a=inc.a,
        objective=inc.obj,
        stats=stats,
    )


def solve_match_lexicographic(prob: MatchProblem) -> MatchSolution:
    """Two-stage strictly hierarchical solve: minimize ``eps`` first, then
    minimize ``a`` among subsets attaining that exact ``eps``.

    This is the reference semantics the big-M objective of
    :func:`solve_match` approximates; with ``m2`` above
    :func:`hierarchy_m2_bound` the two agree on ``eps``.
    """
    t0 = time.perf_counter()
    delta, dev, ids, n, p = _prep(prob)
    spos, sneg = _suffix_bounds(delta, n, p)
    min_dev = _min_suffix(dev, n)
    nodes = 0

    def eps_lower(k: int, sums: list[float]) -> float:
        out = 0.0
        sp = spos[k]
        sn = sneg[k]
        for j in range(p):
            lo = sums[j] + sn[j]
            hi = sums[j] + sp[j]
            if lo > 0.0:
                m = lo
            elif hi < 0.0:
                m = -hi
            else:
                m = 0.0
            if m > out:
                out = m
        return out

    # stage 1: minimum achievable eps
    best_eps = float("inf")
    for i in range(n):
        e, _ = _evaluate(delta, dev, (i,))
        if e < best_eps:
            best_eps = e
    sums = [0.0] * p
    included: list[int] = []

    def rec_eps(k: int) -> None:
        nonlocal best_eps, nodes
        nodes += 1
        if k == n:
            if included:
                e, _ = _evaluate(delta, dev, tuple(included))
                if e < best_eps:
                    best_eps = e
            return
        if eps_lower(k, sums) > best_eps + 1e-9 + 1e-12 * best_eps:
            return
        row = delta[k]
        for j in range(p):
            sums[j] += row[j]
        included.append(k)
        rec_eps(k + 1)
        included.pop()
        for j in range(p):
            sums[j] -= row[j]
        rec_eps(k + 1)

    rec_eps(0)

    # stage 2: minimum a among eps-optimal subsets (exact eps equality)
    inc = _Incumbent()

    def rec_a(k: int) -> None:
        nonlocal nodes
        nodes += 1
        if k == n:
            if included:
                sel = tuple(included)
                eps, a = _evaluate(delta, dev, sel)
                if eps == best_eps:
                    inc.offer(sel, eps, a, a, _id_key(ids, sel))
            return
        if eps_lower(k, sums) > best_eps + 1e-9 + 1e-12 * best_eps:
            return
        a_lb = max(dev[i] for i in included) if included else min_dev[k]
        if a_lb > inc.obj + 1e-9 + 1e-12 * abs(inc.obj):
            return
        row = delta[k]
        for j in range(p):
            sums[j] += row[j]
        included.append(k)
        rec_a(k + 1)
        included.pop()
        for j in range(p):
            sums[j] -= row[j]
        rec_a(k + 1)

    rec_a(0)
    assert inc.sel is not None
    stats = SolverStats(method="lexicographic", nodes=nodes, time_s=time.perf_counter() - t0)
    return MatchSolution(
        selected=inc.sel,
        selected_ids=tuple(ids[i] for i in inc.sel),
        epsilon=inc.eps,
        a=inc.a,
        objective=inc.a + prob.m2 * inc.eps,
        stats=stats,
    )
