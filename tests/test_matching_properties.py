"""Property checks of the subset solvers against full-enumeration oracles,
and of the candidate shortlist against a full scan of the leaf.

Coordinates are drawn mostly from a dyadic grid so that deviations tie and
cancel exactly, candidates repeat, and weights include zeros: the inputs
where tie-breaking and the pruning tolerance matter most.
"""

from itertools import combinations

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import control_only, full_scan_shortlist, solution_bits  # noqa: E402
from oracles import _prep, solve_match_bruteforce  # noqa: E402

from stratamatch.dataset import Dataset, _frozen  # noqa: E402
from stratamatch.matching import (  # noqa: E402
    MatchProblem,
    _evaluate,
    candidate_pool,
    select_candidates,
    solve_match,
    solve_match_lexicographic,
)

GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
CHECKS = settings(derandomize=True, deadline=None, database=None, max_examples=300)


@st.composite
def problems(draw):
    p = draw(st.integers(1, 4))
    coord = st.one_of(st.sampled_from(GRID), st.floats(0.0, 1.0))
    vec = st.lists(coord, min_size=p, max_size=p)
    distinct = draw(st.lists(vec, min_size=1, max_size=6))
    # candidates repeat: each is drawn, with replacement, from the distinct rows
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=10))
    ids = draw(st.permutations(range(100, 100 + len(picks))))
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=p, max_size=p))
    return MatchProblem(
        treated_features=np.array(draw(vec)),
        candidate_features=np.array([distinct[i] for i in picks]),
        weights=np.array(weights),
        m2=draw(st.sampled_from([1.0, 1e6])),
        candidate_ids=np.array(ids),
    )


@CHECKS
@given(problems())
def test_solver_equals_oracle(prob):
    got = solve_match(prob)
    want = solve_match_bruteforce(prob)
    assert got.objective == want.objective
    assert got.selected_ids == want.selected_ids
    assert abs(got.epsilon - want.epsilon) <= 1e-9
    assert abs(got.a - want.a) <= 1e-9


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.lists(problems(), max_size=20))
def test_batched_solve_equals_solving_each_problem_alone(probs):
    # up to 20 problems span two groups of the batched core; they differ in
    # candidate count, feature count and m2, and may hold exact twins
    got = solve_match(probs)
    assert [solution_bits(sol) for sol in got] == [solution_bits(solve_match(prob)) for prob in probs]


def _lexicographic_enumeration(prob):
    """The subset minimizing ``(eps, a, sorted original ids)``, over every
    non-empty subset scored through the solvers' shared evaluation."""
    delta, dev, ids, n, _ = _prep(prob)
    subsets = (sel for size in range(1, n + 1) for sel in combinations(range(n), size))
    return min((*_evaluate(delta, dev, sel), tuple(sorted(ids[i] for i in sel)), sel)
               for sel in subsets)


@CHECKS
@given(problems())
def test_lexicographic_solver_equals_enumeration(prob):
    got = solve_match_lexicographic(prob)
    eps, a, _, sel = _lexicographic_enumeration(prob)
    assert (got.selected, got.epsilon, got.a) == (sel, eps, a)
    assert got.objective == a + prob.m2 * eps


@st.composite
def leaves(draw):
    """A control set, a leaf of it, a treated unit, weights and ``psi``.

    Up to 8 features, so the screen (the 5 heaviest) often leaves some out.
    Coordinates come from the dyadic grid, from [0, 1], or from a grid
    value moved by one ulp, so distances tie or nearly tie after the sqrt.
    """
    p = draw(st.integers(1, 8))
    nudged = st.builds(lambda g, up: float(np.nextafter(g, 2.0 if up else -1.0)),
                       st.sampled_from(GRID), st.booleans())
    coord = st.one_of(st.sampled_from(GRID), st.floats(0.0, 1.0), nudged)
    vec = st.lists(coord, min_size=p, max_size=p)
    distinct = draw(st.lists(vec, min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=60))
    x = np.array([distinct[i] for i in picks])
    leaf = draw(st.lists(st.integers(0, len(picks) - 1), min_size=1, max_size=len(picks),
                         unique=True))
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0, 50.0]),
                                     min_size=p, max_size=p)))
    scale = draw(st.sampled_from([1.0, 2.0**-60]))
    psi = draw(st.one_of(st.just(1), st.integers(1, len(leaf) + 3)))
    return control_only(x, np.zeros(len(picks))), np.array(leaf), np.array(draw(vec)), \
        weights * scale, psi


@CHECKS
@given(leaves())
def test_shortlist_equals_full_scan(case):
    control, leaf, treated, weights, psi = case
    got = select_candidates(candidate_pool(control, leaf, weights), treated, psi=psi)
    ids, feats = full_scan_shortlist(control, leaf, treated, weights, psi)
    assert got.candidate_ids.tolist() == ids.tolist()
    assert got.candidate_features.tobytes() == feats.tobytes()


def _copied_leaf_pool(control, leaf, weights):
    """The pool of ``leaf`` built from a copy of its rows: a control set
    that holds only them, in leaf order, with their row ids."""
    copy = Dataset(t=control.t[leaf], x=_frozen(control.x[leaf]), y=control.y[leaf],
                   feature_names=control.feature_names, row_ids=control.rows()[leaf])
    return candidate_pool(copy, np.arange(leaf.size), weights)


def _problem_bits(prob):
    return (prob.treated_features.tobytes(), prob.candidate_features.tobytes(),
            prob.weights.tobytes(), prob.m2.hex(), prob.candidate_ids.tobytes())


_TIES = control_only(np.array([[1.0], [0.0], [1.0], [1.0], [0.0], [1.0], [2.0]]), np.zeros(7))


@CHECKS
@given(leaves())
# a one-row leaf at p = 1
@example((control_only(np.array([[0.25], [0.5]]), np.zeros(2)), np.array([1]), np.array([0.0]),
          np.array([1.0]), 1))
# all-zero weights, which fall back to unit weights
@example((control_only(np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]), np.zeros(3)),
          np.array([2, 0, 1]), np.array([0.5, 0.5]), np.zeros(2), 2))
# four rows tied at the cut-off of psi = 3, in a leaf that skips one
@example((_TIES, np.array([6, 5, 4, 3, 2, 0]), np.array([0.0]), np.array([1.0]), 3))
def test_pool_of_the_control_rows_equals_a_pool_of_a_copy_of_the_leaf(case):
    control, leaf, treated, weights, psi = case
    pool = candidate_pool(control, leaf, weights)
    copied = _copied_leaf_pool(control, leaf, weights)
    assert pool.screen.tobytes() == copied.screen.tobytes()
    assert pool.x[pool.rows].tobytes() == copied.x.tobytes()
    assert _problem_bits(select_candidates(pool, treated, psi=psi)) == \
        _problem_bits(select_candidates(copied, treated, psi=psi))
