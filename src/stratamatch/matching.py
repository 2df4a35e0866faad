"""Exact balanced control selection for treated units, one subset each.

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
of partial subsets is held as feature-major numpy arrays and decided one
candidate at a time, largest total deviation first, every include child is
scored as a complete subset, and states whose lower bound passes the
incumbent are pruned. Up to ``_BATCH`` problems share one frontier, so the
per-step call overhead is paid once for all of them; each problem still
sees exactly the states and thresholds it would see alone. A problem's
frontier wider than a fixed cap is searched in depth-first chunks, so memory
stays bounded for any pool size. The search always runs to the end, so every
solution is a certified optimum; ``psi`` candidates bound a problem's work
by its ``2**psi`` subsets.
Set-up (deviations, suffix bounds) and incumbent seeding from all singletons
and pairs, scored a block of rows at a time, also run in numpy. Found
subsets are re-scored in ascending candidate order, so the decision order
changes no reported bit. The same search, scored on ``eps`` alone and
ranked on ``(eps, a)``, gives the strictly hierarchical solution; an
independent full-enumeration oracle is provided for cross-checking.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_M2, DEFAULT_PSI
from .dataset import Dataset
from .errors import EmptyInput, NoCandidates, NonFiniteResult, OracleTooLarge

logger = logging.getLogger(__name__)

DELTA_PRECISION = 1e-9

_ORACLE_MAX = 20
# most states of one problem that _search expands in one step; a problem's
# wider frontier is split into chunks searched depth-first, which bounds
# memory but not the pool size
_FRONTIER_MAX = 1 << 10
# problems one run of _search solves together (16 ran faster than 50 or 200),
# so a frontier holds at most 2 * _BATCH * _FRONTIER_MAX states
_BATCH = 16
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
class MatchSolution:
    """Selected candidate subset with its certified deviation levels.

    ``selected`` holds positions into the problem's candidate arrays, in
    ascending order; ``selected_ids`` the corresponding original indices.
    ``objective == a + m2 * epsilon`` by construction. ``nodes`` counts the
    problem's own frontier states expanded (the subsets scored, for the
    brute-force oracle).
    """

    selected: tuple[int, ...]
    selected_ids: tuple[int, ...]
    epsilon: float
    a: float
    objective: float
    nodes: int


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
        NonFiniteResult: if a weight is infinite or NaN, as when the
            outcome's regression slope overflows; no distance is defined.
    """
    leaf_indices = np.asarray(leaf_indices, dtype=np.int64)
    if leaf_indices.size == 0:
        raise NoCandidates("leaf holds no control units")
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if not np.isfinite(w).all():
        raise NonFiniteResult(f"feature weights {w.tolist()!r} are not all finite numbers")
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


@np.errstate(over="ignore")  # a distance past the float range is inf, and sorts last
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


def _solution(prob: MatchProblem, inc: _Incumbent, nodes: int) -> MatchSolution:
    assert inc.sel is not None
    return MatchSolution(
        selected=inc.sel,
        selected_ids=tuple(prob.candidate_ids[list(inc.sel)].tolist()),
        epsilon=inc.eps,
        a=inc.a,
        objective=inc.a + prob.m2 * inc.eps,
        nodes=nodes,
    )


def _suffix_bounds(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature sums of the positive and of the negative deviations of rows
    ``k..`` (row ``k``) of each problem in ``d`` (problems x rows x features),
    accumulated from the last row backwards.

    ``d`` is zero padded past each problem's last candidate, so the row after
    it is zero, and the padding adds exact zeros: each suffix sum rounds like
    a loop over that problem's candidates alone.
    """
    # add.accumulate is sequential, so each suffix sum rounds like a loop
    spos = np.add.accumulate(np.where(d > 0, d, 0.0)[:, ::-1], axis=1)[:, ::-1]
    sneg = np.add.accumulate(np.where(d < 0, d, 0.0)[:, ::-1], axis=1)[:, ::-1]
    return spos, sneg


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

    Every signed sum the search or :func:`_evaluate` computes adds at most
    ``n`` terms of size at most ``D = max(dev)``, in some order, so it is
    within ``gamma_n * n * D ~ n**2 * u * D`` of its exact value (``u = eps /
    2``, Higham's ``gamma_n``). That holds for the search's prefix sums,
    added in decision order, for the suffix totals, and for the sums
    :func:`_evaluate` adds in ascending position order; the two computed
    sums of one subset therefore differ by at most ``n**2 * eps * D``.

    Caps are exact, so a subset's computed score ``wa*a + we*eps`` is within
    ``T = we * n**2 * u * D`` of its exact score. Let ``S`` be the smallest
    exact score over all subsets. Every computed score, hence the best one,
    is at least ``S - T``. The optimum under :func:`_evaluate` scores at
    most ``S + T`` there, so its exact score is at most ``S + 2T`` and its
    score in the search at most ``S + 3T``, within ``4T`` of the best: the
    found filter keeps it. A state on its path has a computed bound of at
    most its exact bound, itself at most ``S + 2T``, plus the prefix and
    suffix errors (``2T``) and one more rounding of size ``<= 2 * we * n *
    u * D`` for adding them. That exceeds the best by at most ``(2.5 *
    n**2 + n) * we * eps * D <= 3 * we * n**2 * eps * D`` for ``n >= 2``
    (one candidate's sums are exact). Forming the score rounds by a few
    ``u`` relative to it, which the threshold's relative term ``1e-12 *
    |score|`` covers. ``3 * we * n**2 * eps * D`` is therefore safe. It is
    proportional to the weights, so a problem whose weights are multiplied
    by a power of two is searched through exactly the same states.
    """
    return 3.0 * we * n * n * _EPS * float(dev.max())


def _scale_shift(dev: np.ndarray, weight: float) -> int:
    """The power of two a problem's deviations are scaled by for the search.

    Every sum, bound and score the search forms is at most ``weight * n *
    D``, where ``D = max(dev)`` and ``weight = wa + we``, plus rounding and
    the pruning margin, which stay far below a factor of two. When that
    bound reaches half the float range, the shift brings ``D`` into [0.5,
    1): scores that overflow to ``inf`` prune nothing, and the search would
    visit all ``2**n`` subsets. A power of two scales every sum and score
    exactly, so the search expands the same states (see
    :func:`_rounding_slack`), unless a deviation turns subnormal. Otherwise
    the shift is 0 and every bit stays.
    """
    top = float(dev.max())
    if weight * dev.size * top < np.finfo(np.float64).max / 2:
        return 0
    return -math.frexp(top)[1]


def _take(trail, index):
    """The trail of the frontier states picked by ``index``. A root frontier
    has no trail (``None``)."""
    if trail is None:
        return None
    parent, flag, k, up = trail
    return parent[index], flag[index], k, up


def _included(trail, j: int, g: int) -> list[int]:
    """Decision positions that state ``j`` of the frontier with this trail
    included, from the last decision back; ``g`` is the state's problem."""
    out = []
    while trail is not None:
        parent, flag, k, trail = trail
        if flag[j]:
            out.append(int(k[g]))
        j = parent[j]
    return out


def _pick(sums: np.ndarray, caps: np.ndarray, g: np.ndarray, trail, index: np.ndarray):
    """The frontier states picked by ``index``: sums, caps, problems, trail."""
    return np.take(sums, index, axis=1), caps[index], g[index], _take(trail, index)


def _rank_in_problem(g: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Each state's position among the frontier states of its own problem
    ``g``, in frontier order; ``width`` counts the states per problem."""
    order = np.argsort(g, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(g.size) - np.repeat(np.cumsum(width) - width, width)
    return rank


@np.errstate(over="ignore")  # a score past the float range is inf, which ranks last
def _search(
    probs: list[MatchProblem], wa: float, we: list[float], ranks: list
) -> list[tuple[_Incumbent, int]]:
    """Level-synchronous branch-and-bound on the score ``wa*a + we*eps``, for
    several problems at once.

    Returns, per problem, the incumbent under its ``rank`` and the frontier
    states expanded. ``we`` and ``rank`` are given per problem; each
    ``rank`` orders subsets by the score first. The search is exhaustive:
    it ends only when every state is expanded or pruned, so the incumbent is
    the optimum under ``rank``.

    Each problem decides its candidates in descending order of the sum of
    their absolute weighted deviations (stable, so ties keep the lower
    position): the candidates that move the sums most are decided first,
    which tightens the suffix bounds early. The frontier of partial subsets
    is held as arrays: each state's problem, its running signed sums
    (feature-major, one column per state, added in decision order) and its
    running cap (``-inf`` while nothing is included). Deciding the next
    candidate of every state's problem forms all include and exclude
    children with one concatenation. Each include child is also a complete
    subset (the undecided candidates left out); all of them are scored at
    once, and each problem's best score lowers its own pruning threshold.
    Bounds, deviations, thresholds and slacks are gathered per state from
    zero-padded per-problem tables, so problems with different candidate
    counts or feature counts share a frontier.

    A state is pruned when its lower bound passes its problem's threshold:
    the cap can only grow from the included candidates' largest deviation
    (or from the smallest undecided one while nothing is included), and
    each feature's final signed sum is confined to the interval spanned by
    the undecided candidates' positive and negative deviations. The
    threshold starts from the best singleton or pair of a numpy screen, and
    its margin covers the rounding of the bound and of the decision order
    (see :func:`_rounding_slack`). Subsets scoring within the margin of the
    best are mapped back to their candidate positions, sorted, re-scored
    through :func:`_evaluate` and offered under ``rank`` at the end, so the
    reported ``eps`` and ``a`` add in ascending position order whatever the
    decision order.

    A state records only its parent's index in the previous frontier and
    whether it included the candidate, so any pool size works. A problem
    whose frontier is wider than ``_FRONTIER_MAX`` has it split into chunks
    searched depth-first one after another, and frontier ``i`` holds chunk
    ``i`` of every such problem. Each problem therefore sees exactly the
    states and thresholds it would see alone: its states keep their order
    within every frontier, a frontier holds at most one of its chunks, and
    the chunks are popped in the order a search of that problem alone pops
    them.
    """
    G = len(probs)
    n = np.array([prob.n_candidates for prob in probs])
    N = int(n.max()) + 1
    P = max(prob.p for prob in probs)
    we = np.asarray(we, dtype=np.float64)
    # each problem's deviations in decision order, zero padded to N x P, and
    # its deviation caps, padded with inf
    dpad = np.zeros((G, N, P))
    dvpad = np.full((G, N), np.inf)
    slack = np.empty(G)
    best = np.empty(G)
    incs, orders, shifts = [], [], []
    for g, prob in enumerate(probs):
        d, dv = _deviations(prob)
        shift = _scale_shift(dv, wa + we[g])
        if shift:
            d, dv = np.ldexp(d, shift), np.ldexp(dv, shift)
        inc = _Incumbent(ranks[g], d.tolist(), dv.tolist(), prob.candidate_ids.tolist())
        _seed_incumbent(d, dv, wa, float(we[g]), inc.offer)
        order = np.argsort(-np.abs(d).sum(axis=1), kind="stable")
        dpad[g, :d.shape[0], :d.shape[1]] = d[order]
        dvpad[g, :dv.size] = dv[order]
        slack[g] = _rounding_slack(we[g], dv.size, dv)
        best[g] = wa * inc.a + we[g] * inc.eps
        incs.append(inc)
        orders.append(order)
        shifts.append(shift)

    def columns(a: np.ndarray) -> np.ndarray:
        # feature-major: column g * N + k holds row k of problem g
        return np.ascontiguousarray(a.reshape(G * N, P).T)

    spos, sneg = (columns(s) for s in _suffix_bounds(dpad))
    dcols = columns(dpad)
    dev = dvpad.reshape(-1)
    min_dev = np.minimum.accumulate(dvpad[:, ::-1], axis=1)[:, ::-1].reshape(-1)
    base = np.arange(G) * N
    thr = best + slack + 1e-12 * np.abs(best)
    nodes = np.zeros(G, dtype=np.int64)
    # (trail, positions in the expanded frontier, their problems, k, scores)
    # of the include children that scored within their threshold
    found = []
    # a frontier: next candidate k per problem, sums (features x states),
    # caps, the problem g of each state, and its trail, which is (parent index
    # per state, include flag per state, the parent frontier's k, parent
    # trail).
    # A seed with a = 0 is final: only candidates with dev 0 reach it, every
    # set of them scores 0 on both eps and a, and the seed has offered each
    # of them alone, which beats every larger set of them on the id
    # tie-break. Exact twins of the treated unit would otherwise tie on all
    # 2**z subsets. An eps = 0 seed with a > 0 is not final when a does not
    # enter the score.
    roots = np.array([g for g, inc in enumerate(incs) if inc.a > 0.0], dtype=np.int64)
    stack = []
    if roots.size:
        stack.append((np.zeros(G, dtype=np.int64), np.zeros((P, roots.size)),
                      np.full(roots.size, -np.inf), roots, None))
    while stack:
        k, sums, caps, g, trail = stack.pop()
        # prune the states whose every completion scores above the threshold
        col = (base + k)[g]
        lo = sums + np.take(sneg, col, axis=1)
        hi = sums + np.take(spos, col, axis=1)
        np.negative(hi, out=hi)
        np.maximum(lo, hi, out=lo)
        eps_lb = np.maximum(lo.max(axis=0), 0.0)
        a_lb = np.where(caps < 0.0, min_dev[col], caps)
        keep = wa * a_lb + we[g] * eps_lb <= thr[g]
        if not keep.all():
            sums, caps, g, trail = _pick(sums, caps, g, trail, np.flatnonzero(keep))
        if not g.size:
            continue
        width = np.bincount(g, minlength=G)
        if g.size > _FRONTIER_MAX and width.max() > _FRONTIER_MAX:
            # expand each problem's first chunk now and search it to the end
            # before its next chunk starts
            chunk = _rank_in_problem(g, width) // _FRONTIER_MAX
            for c in range(int(chunk.max()), 0, -1):
                stack.append((k, *_pick(sums, caps, g, trail, np.flatnonzero(chunk == c))))
            sums, caps, g, trail = _pick(sums, caps, g, trail, np.flatnonzero(chunk == 0))
            width = np.minimum(width, _FRONTIER_MAX)
        nodes += width
        col = (base + k)[g]
        in_sums = sums + np.take(dcols, col, axis=1)
        in_caps = np.maximum(caps, dev[col])
        score = wa * in_caps + we[g] * np.abs(in_sums).max(axis=0)
        if (score < best[g]).any():
            np.minimum.at(best, g, score)
            thr = best + slack + 1e-12 * np.abs(best)
        hit = np.flatnonzero(score <= thr[g])
        if hit.size:
            found.append((trail, hit, g[hit], k, score[hit]))
        # only problems with undecided candidates go on
        more = (k + 1 < n)[g]
        if not more.all():
            keep = np.flatnonzero(more)
            in_sums, in_caps = np.take(in_sums, keep, axis=1), in_caps[keep]
            sums, caps, g, trail = _pick(sums, caps, g, trail, keep)
        if g.size:
            r = np.arange(g.size)
            stack.append((k + 1, np.concatenate((in_sums, sums), axis=1),
                          np.concatenate((in_caps, caps)), np.concatenate((g, g)),
                          (np.concatenate((r, r)), np.arange(2 * g.size) < g.size, k, trail)))

    for trail, hit, gh, k, score in found:
        ok = score <= thr[gh]
        for j, g in zip(hit[ok].tolist(), gh[ok].tolist()):
            picked = orders[g][_included(trail, j, g) + [int(k[g])]]
            incs[g].offer(tuple(sorted(picked.tolist())))
    for inc, shift in zip(incs, shifts):
        if shift:  # past the float range, eps or a scales back to inf
            inc.eps, inc.a = float(np.ldexp(inc.eps, -shift)), float(np.ldexp(inc.a, -shift))
    return list(zip(incs, nodes.tolist()))


def solve_match(
    problems: MatchProblem | Sequence[MatchProblem],
) -> MatchSolution | list[MatchSolution]:
    """Exact minimizer of ``a + m2 * eps`` over non-empty candidate subsets.

    Takes one :class:`MatchProblem` and returns its :class:`MatchSolution`,
    or a sequence of problems and returns their solutions as a list in the
    same order. Consecutive groups of at most ``_BATCH`` problems share one
    run of the branch-and-bound of :func:`_search`, which saves per-step
    call overhead; each problem's result, ``nodes`` included, equals
    that of solving it alone.

    Objective ties resolve to the lexicographically smallest selected
    original-index set. The search is exhaustive, so every solution is a
    certified optimum; ``nodes`` counts the problem's frontier states
    expanded, at most the ``2**n`` subsets of its ``n`` candidates.

    Raises:
        TypeError: if an item of the sequence is not a :class:`MatchProblem`.
    """
    if isinstance(problems, MatchProblem):
        return solve_match([problems])[0]
    probs = list(problems)
    for prob in probs:
        if not isinstance(prob, MatchProblem):
            raise TypeError(f"solve_match takes MatchProblem instances, not {type(prob).__name__}")
    out = []
    for start in range(0, len(probs), _BATCH):
        group = probs[start:start + _BATCH]
        results = _search(group, 1.0, [prob.m2 for prob in group],
                          [_by_objective(prob.m2) for prob in group])
        for prob, (inc, nodes) in zip(group, results):
            out.append(_solution(prob, inc, nodes))
    return out


def solve_match_bruteforce(prob: MatchProblem) -> MatchSolution:
    """Independent oracle: evaluate every non-empty subset.

    A vectorized screen finds the near-optimal band, which is then re-scored
    with the shared exact evaluation so results agree bit-for-bit with
    :func:`solve_match`. Limited to 20 candidates.

    Raises:
        OracleTooLarge: for more than 20 candidates.
    """
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
    return _solution(prob, inc, total - 1)


def solve_match_lexicographic(prob: MatchProblem) -> MatchSolution:
    """Strictly hierarchical solve: the smallest ``eps`` first, then the
    smallest ``a`` among subsets attaining that exact ``eps``, then the
    lexicographically smallest selected original-index set.

    Runs the exhaustive search of :func:`solve_match` on the score ``eps``
    alone, so ``a`` prunes nothing; the subsets within the pruning margin of
    the best ``eps`` are re-scored through :func:`_evaluate` and ranked on
    ``(eps, a, ids)``. ``nodes`` counts the frontier states expanded.

    This is the reference semantics the big-M objective of
    :func:`solve_match` approximates; with ``m2`` above
    :func:`hierarchy_m2_bound` the two agree on ``eps``.
    """
    [(inc, nodes)] = _search([prob], 0.0, [1.0], [lambda eps, a, ids: (eps, a, ids)])
    return _solution(prob, inc, nodes)
