"""Exact balanced control selection for a single treated unit.

Each leaf's controls are prepared once as a candidate pool: the rows, their
ids, the distance weights and a feature-major copy of the heaviest-weight
columns. A treated unit's candidates are its ``psi`` nearest pool controls.
A partial distance search over the heavy columns rules out most rows before
the full weighted distance runs, and the shortlist is bit-identical to a
full scan of the leaf.

Given a treated unit's feature vector and its candidates, the matcher picks
the non-empty candidate subset minimizing ``a + m2 * eps``: ``eps`` caps,
feature by feature, the absolute weighted sum of the selected candidates'
signed deviations from the treated unit (so opposite-side deviations
cancel), and ``a`` caps every selected candidate's single largest weighted
absolute deviation. The optimum is found by a level-synchronous
(breadth-first) branch-and-bound over include/exclude decisions: the frontier
of partial subsets is held as numpy arrays and decided one candidate at a
time, every include child is scored as a complete subset, and states whose
lower bound passes the incumbent are pruned. A frontier wider than a fixed
cap is searched in depth-first chunks, so memory stays bounded for any pool
size. The search is exhaustive unless a node budget (a cap on the frontier
states expanded) is given. Set-up (deviations, suffix bounds) and incumbent
seeding from all singletons and pairs, scored a block of rows at a time,
also run in numpy. The same search, scored on ``eps`` alone and ranked on
``(eps, a)``, gives the strictly hierarchical solution; an independent
full-enumeration oracle is provided for cross-checking.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import Dataset
from .errors import EmptyInput, NoCandidates, OracleTooLarge

logger = logging.getLogger(__name__)

DEFAULT_M2 = 1e6
DEFAULT_PSI = 20
DEFAULT_NODE_BUDGET: int | None = None
DELTA_PRECISION = 1e-9

_ORACLE_MAX = 20
# widest frontier solve_match expands in one step; a wider one is split into
# chunks searched depth-first, which bounds memory but not the pool size
_FRONTIER_MAX = 1 << 10
# most floats the seed screen's pair block holds, as (rows, n, p)
_PAIR_BLOCK = 1 << 16
_EPS = 2.0**-52  # float64 machine epsilon
# heaviest-weight features select_candidates sums over every pool row. The
# weights are concentrated: on hyb20var data five leave 150 of 2.7k-7.6k leaf
# rows (p50) to the full distance
_SCREEN_COLUMNS = 5


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
        if not 0 < self.m2 < np.inf:
            raise EmptyInput("m2 must be finite and positive")
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


@dataclass(frozen=True)
class CandidatePool:
    """One leaf's controls, prepared once for every treated unit routed there.

    ``features`` holds the leaf's rows (row-major, in leaf order) and ``ids``
    their original row ids. ``weights`` are the distance weights after the
    zero-weight fallback. ``screen`` is a feature-major copy of the
    ``screen_columns``, the heaviest-weight features, which
    :func:`select_candidates` sums over every row before it touches the rest.
    Build one with :func:`candidate_pool`.
    """

    features: np.ndarray
    ids: np.ndarray
    weights: np.ndarray
    screen_columns: np.ndarray
    screen: np.ndarray


def candidate_pool(control: Dataset, leaf_indices: np.ndarray, weights: np.ndarray) -> CandidatePool:
    """The :class:`CandidatePool` of the controls at positions ``leaf_indices``.

    An all-zero weight vector falls back to unit weights, with one warning
    per pool.

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
    feats = control.x[leaf_indices]
    cols = np.argsort(-w, kind="stable")[:_SCREEN_COLUMNS]
    return CandidatePool(
        features=feats,
        ids=control.rows()[leaf_indices],
        weights=w,
        screen_columns=cols,
        screen=np.ascontiguousarray(feats[:, cols].T),
    )


def select_candidates(
    pool: CandidatePool,
    treated_features: np.ndarray,
    psi: int = DEFAULT_PSI,
    m2: float = DEFAULT_M2,
) -> MatchProblem:
    """Build a match problem from the ``psi`` nearest controls of a pool.

    Distance is ``sqrt(sum_j w_j * (t_j - c_ij)^2)`` (weights enter once,
    unsquared). Ties break toward the lower leaf position, and candidates
    come nearest first. If the pool has fewer than ``psi`` controls, all of
    them become candidates.

    Only a few rows get that full distance; the rest are ruled out by a
    partial distance search (Bei & Gray, 1985):

    1. ``s_i``, the sum of row ``i``'s terms ``w_j * (t_j - c_ij)^2`` over
       the pool's screen columns, is formed for every row. It is a lower
       bound on row ``i``'s squared distance.
    2. ``U`` is the largest squared distance, by the full formula, among the
       ``k`` rows with the smallest ``s_i``. The ``k``-th smallest squared
       distance is at most ``U``.
    3. The full formula, the ``k``-th smallest cut-off and the stable
       tie-break then run only on the rows with
       ``s_i <= U * (1 + 4 * p * eps)``, in ascending leaf position.

    The output is bit-identical to a full scan of the pool, every row tied
    at the cut-off included. A row's full distance is computed from that row
    alone, so it rounds the same on any subset of rows. And no row at or
    below the cut-off is screened out. Each term of ``s_i`` is formed by the
    same operations as in the full formula, so the two sums add the same
    non-negative floats: ``s_i`` rounds up by at most ``(h - 1) * u``
    relative (``u = eps / 2``, ``h`` screen columns), and the full sum rounds
    down by at most ``(p - 1) * u``. A row whose correctly rounded ``sqrt``
    does not exceed that of ``U`` has a squared distance within ``4 * u`` of
    ``U``, and the threshold itself rounds by ``u``. The first-order total,
    at most ``(2p + 4) * u``, stays below the margin of ``8p * u``.
    """
    mu = np.asarray(treated_features, dtype=np.float64).reshape(-1)
    w = pool.weights
    n, p = pool.features.shape
    k = min(max(1, int(psi)), n)
    cols = pool.screen_columns
    gap = pool.screen - mu[cols, None]
    partial = (w[cols, None] * gap * gap).sum(axis=0)
    nearest = np.argpartition(partial, k - 1)[:k]
    diff = pool.features[nearest] - mu
    bound = np.sum(w * diff * diff, axis=1).max()
    survivors = np.flatnonzero(partial <= bound * (1.0 + 4 * p * _EPS))
    feats = pool.features[survivors]
    diff = feats - mu
    dist = np.sqrt(np.sum(w * diff * diff, axis=1))
    # only entries at or below the k-th smallest distance can be chosen; a
    # stable sort of those, by position, keeps the lower-index tie-break
    near = np.flatnonzero(dist <= dist[np.argpartition(dist, k - 1)[k - 1]])
    order = near[np.argsort(dist[near], kind="stable")[:k]]
    return MatchProblem(
        treated_features=mu,
        candidate_features=feats[order],
        weights=w,
        m2=m2,
        candidate_ids=pool.ids[survivors[order]],
    )


# ---------------------------------------------------------------------------
# shared exact evaluation


def _deviations(prob: MatchProblem) -> tuple[np.ndarray, np.ndarray]:
    """Weighted signed deviations from the treated unit (n x p) and each
    candidate's largest absolute one."""
    d = prob.weights * (prob.candidate_features - prob.treated_features)
    return d, np.abs(d).max(axis=1)


def _prep(prob: MatchProblem) -> tuple[list[list[float]], list[float], list[int], int, int]:
    d, dev = _deviations(prob)
    n, p = d.shape
    return d.tolist(), dev.tolist(), prob.candidate_ids.tolist(), n, p


def _evaluate(delta: list[list[float]], dev: list[float], sel: tuple[int, ...]) -> tuple[float, float]:
    """Exact (eps, a) for a selected subset; the single source of truth all
    solvers share, accumulating in ascending position order."""
    sums = [0.0] * len(delta[0])
    for i in sel:
        sums = [s + d for s, d in zip(sums, delta[i])]
    eps = max(abs(s) for s in sums)
    a = max(dev[i] for i in sel)
    return eps, a


class _Incumbent:
    """The best subset offered so far. Each offered subset is scored through
    :func:`_evaluate` and ranked by ``rank(eps, a, sorted original ids)``;
    the first of equally ranked subsets is kept."""

    def __init__(self, rank, delta: list[list[float]], dev: list[float], ids: list[int]):
        self.rank, self.delta, self.dev, self.ids = rank, delta, dev, ids
        self.sel: tuple[int, ...] | None = None
        self.key: tuple | None = None
        self.eps = self.a = 0.0

    def offer(self, sel: tuple[int, ...]) -> None:
        eps, a = _evaluate(self.delta, self.dev, sel)
        key = self.rank(eps, a, tuple(sorted(self.ids[i] for i in sel)))
        if self.key is None or key < self.key:
            self.sel, self.eps, self.a, self.key = sel, eps, a, key


def _by_objective(m2: float):
    """Rank on ``a + m2 * eps``, then on the sorted original ids."""
    return lambda eps, a, ids: (a + m2 * eps, ids)


def _solution(prob: MatchProblem, inc: _Incumbent, stats: SolverStats) -> MatchSolution:
    assert inc.sel is not None
    return MatchSolution(
        selected=inc.sel,
        selected_ids=tuple(prob.candidate_ids[list(inc.sel)].tolist()),
        epsilon=inc.eps,
        a=inc.a,
        objective=inc.a + prob.m2 * inc.eps,
        stats=stats,
    )


def _suffix_bounds(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature sums of the positive and of the negative deviations of
    candidates ``k..n-1`` (row ``k``), accumulated from the last candidate
    backwards; row ``n`` is zero."""
    n, p = d.shape
    spos = np.zeros((n + 1, p))
    sneg = np.zeros((n + 1, p))
    # add.accumulate is sequential, so each suffix sum rounds like a loop
    spos[:n] = np.add.accumulate(np.where(d > 0, d, 0.0)[::-1], axis=0)[::-1]
    sneg[:n] = np.add.accumulate(np.where(d < 0, d, 0.0)[::-1], axis=0)[::-1]
    return spos, sneg


def _min_suffix(dev: np.ndarray) -> np.ndarray:
    out = np.full(dev.size + 1, np.inf)
    out[:-1] = np.minimum.accumulate(dev[::-1])[::-1]
    return out


def _seed_incumbent(d: np.ndarray, dv: np.ndarray, wa: float, we: float, offer) -> None:
    """Pass the best singletons and pairs under the score ``wa*a + we*eps``
    to ``offer``.

    numpy scores every singleton and, one block of rows ``i`` at a time,
    every pair ``(i, k)`` with ``i < k``, so memory stays
    O(block * n * p). A pair scores ``d[k] + d[i]`` exactly as a per-row
    loop would, so the scores do not depend on the block size. Subsets
    scoring within a small relative margin of the overall minimum are offered
    in enumeration order (singletons, then pairs by ``i`` and ``k``), so the
    incumbent and its tie-break are those of offering every subset.
    """
    n, p = d.shape
    single = wa * dv + we * dv
    best = float(single.min())
    # numpy rounds these scores exactly as _evaluate does, so a relative
    # margin suffices; an absolute one would pass every pair of a problem
    # whose weights are tiny. The margin grows with best, so pairs kept
    # under an earlier block's margin hold every pair the final one keeps.
    pairs = []
    block = max(1, _PAIR_BLOCK // (n * p))
    for i0 in range(0, n - 1, block):
        rows = np.arange(i0, min(i0 + block, n - 1))
        eps = np.abs(d[None, :] + d[rows, None]).max(axis=2)
        score = wa * np.maximum(dv[None, :], dv[rows, None]) + we * eps
        score[np.arange(n) <= rows[:, None]] = np.inf
        best = min(best, float(score.min()))
        i, k = np.nonzero(score <= best + 1e-9 * abs(best))
        pairs.append((i + i0, k, score[i, k]))
    cut = best + 1e-9 * abs(best)
    for i in np.flatnonzero(single <= cut).tolist():
        offer((i,))
    for i, k, score in pairs:
        keep = score <= cut
        for pair in zip(i[keep].tolist(), k[keep].tolist()):
            offer(pair)


def _rounding_slack(we: float, n: int, dev: np.ndarray) -> float:
    """Absolute pruning margin that covers floating-point rounding.

    A state's bound compares three computed signed sums per feature with
    exact arithmetic: the state's prefix sum, the undecided candidates'
    suffix total, and the completed subset's sum that :func:`_evaluate`
    forms. Each adds at most ``n`` terms of size at most ``D = max(dev)``,
    so each is within ``gamma_n * n * D ~ n**2 * u * D`` of its exact value
    (``u = eps / 2``, Higham's ``gamma_n``), and adding the first two costs
    one more rounding of size ``<= 2 * n * u * D``. A computed ``eps`` lower
    bound therefore exceeds the computed ``eps`` of any completion by less
    than ``5 * n**2 * u * D = 2.5 * n**2 * eps * D``. Scaling by the ``eps``
    weight ``we`` and adding the weighted cap round by a few ``u`` relative
    to the score, which the threshold's relative term ``1e-12 * |score|``
    covers. ``3 * we * n**2 * eps * D`` is therefore safe. It is
    proportional to the weights, so a problem whose weights are multiplied
    by a power of two is searched through exactly the same states.
    """
    return 3.0 * we * n * n * _EPS * float(dev.max())


def _take(trail, index):
    """The trail of the frontier states picked by ``index``. The root
    frontier, whose trail is ``None``, holds one state and is never cut."""
    parent, flag, k, up = trail
    return parent[index], flag[index], k, up


def _included(trail, j: int) -> tuple[int, ...]:
    """Positions included by state ``j`` of the frontier with this trail,
    ascending."""
    out = []
    while trail is not None:
        parent, flag, k, trail = trail
        if flag[j]:
            out.append(k)
        j = parent[j]
    return tuple(reversed(out))


def _search(
    prob: MatchProblem, wa: float, we: float, rank, node_budget: int | None,
) -> tuple[_Incumbent, int, bool]:
    """Level-synchronous branch-and-bound on the score ``wa*a + we*eps``.

    Returns the incumbent under ``rank``, the frontier states expanded and
    whether ``node_budget`` stopped the search. ``rank`` orders subsets by
    the score first.

    Include/exclude decisions are made in candidate order. The frontier of
    partial subsets that decided candidates ``0..k-1`` is held as arrays:
    each state's running signed sums (one row per state, added in ascending
    position order exactly as :func:`_evaluate` adds them) and its running
    cap (``-inf`` while nothing is included). Deciding candidate ``k`` forms
    every state's include and exclude child with one concatenation. Each
    include child is also a complete subset (the undecided candidates left
    out); all of them are scored at once and the best score lowers the
    pruning threshold.

    A state is pruned when its lower bound passes the threshold: the cap can
    only grow from the included candidates' largest deviation (or from the
    smallest undecided one while nothing is included), and each feature's
    final signed sum is confined to the interval spanned by the undecided
    candidates' positive and negative deviations. The threshold starts from
    the best singleton or pair of a numpy screen, and its margin covers the
    rounding of the bound (see :func:`_rounding_slack`). Subsets scoring
    within the margin of the best are re-scored through :func:`_evaluate`
    and offered under ``rank`` at the end.

    A state records only its parent's index in the previous frontier and
    whether it included the candidate, so any pool size works. A frontier
    wider than a fixed cap is split into chunks searched depth-first one
    after another, which bounds memory and leaves the result unchanged.
    """
    d, dv = _deviations(prob)
    n, p = d.shape
    inc = _Incumbent(rank, d.tolist(), dv.tolist(), prob.candidate_ids.tolist())
    _seed_incumbent(d, dv, wa, we, inc.offer)

    spos, sneg = _suffix_bounds(d)
    min_dev = _min_suffix(dv)
    slack = _rounding_slack(we, n, dv)
    limit = float("inf") if node_budget is None else node_budget
    best = wa * inc.a + we * inc.eps
    thr = best + slack + 1e-12 * abs(best)
    # (trail, positions in the expanded frontier, candidate k, scores) of the
    # include children that scored within the threshold
    found = []
    nodes = 0
    budget_hit = False
    # a frontier: next candidate k, sums, caps and its trail, which is
    # (parent index per state, include flag per state, k - 1, parent trail).
    # A seed with a = 0 is final: only candidates with dev 0 reach it, every
    # set of them scores 0 on both eps and a, and the seed has offered each
    # of them alone, which beats every larger set of them on the id
    # tie-break. Exact twins of the treated unit would otherwise tie on all
    # 2**z subsets. An eps = 0 seed with a > 0 is not final when a does not
    # enter the score.
    stack = [(0, np.zeros((1, p)), np.full(1, -np.inf), None)] if inc.a > 0.0 else []
    while stack:
        k, sums, caps, trail = stack.pop()
        # prune the states whose every completion scores above the threshold
        lo = sums + sneg[k]
        hi = sums + spos[k]
        np.negative(hi, out=hi)
        np.maximum(lo, hi, out=lo)
        eps_lb = np.maximum(lo.max(axis=1), 0.0)
        a_lb = np.where(caps < 0.0, min_dev[k], caps)
        keep = np.flatnonzero(wa * a_lb + we * eps_lb <= thr)
        width = keep.size
        if width < caps.size:
            sums, caps, trail = sums[keep], caps[keep], _take(trail, keep)
        if width > _FRONTIER_MAX:
            # search the first chunk to the end before the next one starts
            for c in reversed(range(0, width, _FRONTIER_MAX)):
                part = slice(c, c + _FRONTIER_MAX)
                stack.append((k, sums[part], caps[part], _take(trail, part)))
            continue
        if nodes + width > limit:
            budget_hit = True
            width = int(limit - nodes)
            sums, caps = sums[:width], caps[:width]
        nodes += width
        if width:
            in_sums = sums + d[k]
            in_caps = np.maximum(caps, dv[k])
            score = wa * in_caps + we * np.abs(in_sums).max(axis=1)
            low = float(score.min())
            if low < best:
                best = low
                thr = best + slack + 1e-12 * abs(best)
            hit = np.flatnonzero(score <= thr)
            if hit.size:
                found.append((trail, hit, k, score[hit]))
            if k + 1 < n and not budget_hit:
                r = np.arange(width)
                stack.append((k + 1, np.concatenate((in_sums, sums)),
                              np.concatenate((in_caps, caps)),
                              (np.concatenate((r, r)), np.arange(2 * width) < width, k, trail)))
        if budget_hit:
            break

    for trail, hit, k, score in found:
        for j in hit[score <= thr].tolist():
            inc.offer(_included(trail, j) + (k,))
    return inc, nodes, budget_hit


def solve_match(prob: MatchProblem, node_budget: int | None = None) -> MatchSolution:
    """Exact minimizer of ``a + m2 * eps`` over non-empty candidate subsets.

    Runs the branch-and-bound of :func:`_search` on that score; objective
    ties resolve to the lexicographically smallest selected original-index
    set. ``stats.nodes`` counts the frontier states expanded. With a
    ``node_budget``, search stops after expanding exactly that many states
    and the best subset scored so far is returned flagged as possibly
    suboptimal (and logged); with the default ``None`` the search is
    exhaustive, hence exact.
    """
    t0 = time.perf_counter()
    inc, nodes, budget_hit = _search(prob, 1.0, prob.m2, _by_objective(prob.m2), node_budget)
    if budget_hit:
        # per-solve noise stays at debug; callers aggregate via stats.suboptimal
        logger.debug(
            "match solver stopped at node budget %d; returning best incumbent (possibly suboptimal)",
            node_budget,
        )
    stats = SolverStats(
        method="subset-bb",
        nodes=nodes,
        time_s=time.perf_counter() - t0,
        suboptimal=budget_hit,
        node_budget=node_budget,
    )
    return _solution(prob, inc, stats)


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
    inc = _Incumbent(_by_objective(m2), delta, dev, ids)
    for start in range(1, total, chunk):
        masks = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        vals = screen(masks)
        for mask in masks[vals <= best_v + margin]:
            inc.offer(tuple(i for i in range(n) if (int(mask) >> i) & 1))
    stats = SolverStats(method="bruteforce", nodes=total - 1, time_s=time.perf_counter() - t0)
    return _solution(prob, inc, stats)


def solve_match_lexicographic(prob: MatchProblem) -> MatchSolution:
    """Strictly hierarchical solve: the smallest ``eps`` first, then the
    smallest ``a`` among subsets attaining that exact ``eps``, then the
    lexicographically smallest selected original-index set.

    Runs the exhaustive search of :func:`solve_match` on the score ``eps``
    alone, so ``a`` prunes nothing; the subsets within the pruning margin of
    the best ``eps`` are re-scored through :func:`_evaluate` and ranked on
    ``(eps, a, ids)``. ``stats.nodes`` counts the frontier states expanded.

    This is the reference semantics the big-M objective of
    :func:`solve_match` approximates; with ``m2`` above
    :func:`hierarchy_m2_bound` the two agree on ``eps``.
    """
    t0 = time.perf_counter()
    inc, nodes, _ = _search(prob, 0.0, 1.0, lambda eps, a, ids: (eps, a, ids), None)
    return _solution(prob, inc, SolverStats("lexicographic", nodes, time.perf_counter() - t0))
