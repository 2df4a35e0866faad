"""Independent reference implementations the tests compare the package with.

``solve_match_bruteforce`` scores every non-empty candidate subset, the
oracle of acceptance criterion 3 and of the matching property tests.
``best_split`` scans one node's rows after sorting them afresh, the
reference for the tree's presorted split search. Neither is part of the
pipeline; both reuse the package's exact evaluation, so results agree bit
for bit.
"""

import numpy as np

from stratamatch.matching import (
    MatchProblem,
    MatchSolution,
    _deviations,
    _Incumbent,
    _solution,
)
from stratamatch.regression import _std
from stratamatch.tree import SplitCandidate, _scan

_ORACLE_MAX = 20


class OracleTooLarge(ValueError):
    """The exhaustive oracle was asked to enumerate more than 2^20 subsets."""


def _prep(prob: MatchProblem) -> tuple[list[list[float]], list[float], list[int], int, int]:
    d, dev = _deviations(prob)
    n, p = d.shape
    return d.tolist(), dev.tolist(), prob.candidate_ids.tolist(), n, p


def solve_match_bruteforce(prob: MatchProblem) -> MatchSolution:
    """Independent oracle: evaluate every non-empty subset.

    A vectorized screen finds the near-optimal band, which is then re-scored
    with the shared exact evaluation so results agree bit-for-bit with
    :func:`~stratamatch.matching.solve_match`. ``nodes`` counts the subsets
    scored. Limited to 20 candidates.

    Raises:
        OracleTooLarge: for more than 20 candidates.
    """
    n = prob.n_candidates
    if n > _ORACLE_MAX:
        raise OracleTooLarge(f"oracle enumerates at most 2^{_ORACLE_MAX} subsets (got n={n})")
    delta, dev, ids, _, _ = _prep(prob)
    m2 = prob.m2

    delta_np = np.asarray(delta, dtype=np.float64)
    dev_np = np.asarray(dev, dtype=np.float64)
    shifts = np.arange(n, dtype=np.uint32)
    masks = np.arange(1, 1 << n, dtype=np.uint32)
    # every mask's score, at most 8 MB for n = 20, formed a chunk at a time
    vals = np.empty(masks.size)
    chunk = 1 << 14
    for start in range(0, masks.size, chunk):
        bits = ((masks[start:start + chunk, None] >> shifts) & 1).astype(np.float64)
        eps = np.abs(bits @ delta_np).max(axis=1)
        a = (bits * dev_np).max(axis=1)
        vals[start:start + chunk] = a + m2 * eps

    best_v = float(vals.min())
    margin = 1e-9 * (1.0 + abs(best_v))
    inc = _Incumbent(lambda eps, a, ids: (a + m2 * eps, ids), delta, dev, ids)
    for mask in masks[vals <= best_v + margin].tolist():
        inc.offer(tuple(i for i in range(n) if (mask >> i) & 1))
    return _solution(prob, inc, masks.size)


def best_split(x: np.ndarray, y: np.ndarray) -> SplitCandidate | None:
    """The deviation-reduction-maximizing split over all features and values.

    Candidate rules are ``x_j <= s`` for every unique value ``s`` of every
    feature, skipping each feature's maximum (which would leave the right
    side empty). Ties break toward the lower feature index, then the lower
    threshold. Returns ``None`` when no feature admits a two-sided split.

    This function sorts its own input and runs the tree's scan on it;
    :func:`~stratamatch.tree.build_tree` sorts each feature once at the root
    and hands every child its parent's order filtered by membership.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape[0] < 2:
        return None
    return _scan(x, y, range(x.shape[1]), np.argsort(x, axis=0, kind="stable").T, _std(y))
