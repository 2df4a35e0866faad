"""Property checks of the subset solver against the full-enumeration oracle.

Coordinates are drawn mostly from a dyadic grid so that deviations tie and
cancel exactly, candidates repeat, and weights include zeros: the inputs
where tie-breaking and the pruning tolerance matter most.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from stratamatch.matching import MatchProblem, solve_match, solve_match_bruteforce  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore::stratamatch.errors.HierarchyBoundWarning")

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
    assert not got.stats.suboptimal
    assert got.objective == want.objective
    assert got.selected_ids == want.selected_ids
    assert abs(got.epsilon - want.epsilon) <= 1e-9
    assert abs(got.a - want.a) <= 1e-9


@CHECKS
@given(problems(), st.integers(0, 40))
def test_budgeted_solver_returns_a_valid_incumbent(prob, budget):
    got = solve_match(prob, node_budget=budget)
    assert got.stats.nodes <= budget
    assert got.selected and list(got.selected) == sorted(set(got.selected))
    assert got.objective == got.a + prob.m2 * got.epsilon
    assert got.objective >= solve_match_bruteforce(prob).objective
