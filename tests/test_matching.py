import logging

import numpy as np
import pytest

from stratamatch.errors import (
    EmptyInput,
    HierarchyBoundWarning,
    NoCandidates,
    OracleTooLarge,
)
from stratamatch.matching import (
    MatchProblem,
    hierarchy_m2_bound,
    select_candidates,
    solve_match,
    solve_match_bruteforce,
    solve_match_lexicographic,
)

from conftest import control_only

# small instances keep m2 below the strict-priority bound by design
pytestmark = pytest.mark.filterwarnings("ignore::stratamatch.errors.HierarchyBoundWarning")


def _problem(treated, candidates, weights=None, **kw):
    treated = np.asarray(treated, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim == 1:
        candidates = candidates.reshape(-1, 1)
    if treated.ndim == 0:
        treated = treated.reshape(1)
    if weights is None:
        weights = np.ones(candidates.shape[1])
    return MatchProblem(
        treated_features=treated,
        candidate_features=candidates,
        weights=np.asarray(weights, dtype=np.float64),
        **kw,
    )


WORKED = dict(treated=[5.0], candidates=[3.0, 4.0, 4.5, 6.0, 7.0])


def test_worked_example_solution():
    sol = solve_match(_problem(**WORKED))
    assert sol.selected == (1, 3)  # the units at 4 and 6
    assert sol.epsilon == 0.0
    assert sol.a == 1.0
    assert sol.objective == 1.0


def test_worked_example_all_solvers_agree():
    prob = _problem(**WORKED)
    a = solve_match(prob)
    b = solve_match_bruteforce(prob)
    c = solve_match_lexicographic(prob)
    assert a.selected == b.selected == c.selected
    assert a.objective == b.objective
    assert a.epsilon == b.epsilon == c.epsilon
    assert a.a == b.a == c.a


def test_single_candidate():
    sol = solve_match(_problem([2.0], [5.0]))
    assert sol.selected == (0,)
    assert sol.epsilon == 3.0
    assert sol.a == 3.0


def test_identical_candidates_zero_objective():
    prob = _problem([1.0, 2.0], [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
    sol = solve_match(prob)
    assert sol.epsilon == 0.0 and sol.a == 0.0 and sol.objective == 0.0
    # ties resolve to the lexicographically smallest id set
    assert sol.selected == (0,)


def test_solution_scores_are_reproducible():
    # epsilon and a must match a direct recomputation on the chosen subset
    rng = np.random.default_rng(11)
    prob = _problem(rng.uniform(0, 1, 3), rng.uniform(0, 1, (8, 3)), rng.uniform(0, 10, 3))
    sol = solve_match(prob)
    sel = np.array(sol.selected)
    diff = prob.candidate_features[sel].mean(axis=0) - prob.treated_features
    eps = float(np.max(np.abs(prob.weights * diff)))
    dev = np.abs(prob.weights * (prob.candidate_features[sel] - prob.treated_features))
    assert sol.epsilon == pytest.approx(eps, abs=1e-12)
    assert sol.a == pytest.approx(float(dev.max()), abs=1e-12)
    assert sol.objective == pytest.approx(sol.a + prob.m2 * sol.epsilon, rel=1e-12)


def test_oracle_equivalence_batch():
    rng = np.random.default_rng(99)
    for _ in range(100):
        n_c = int(rng.integers(1, 11))
        p = int(rng.integers(1, 6))
        prob = _problem(
            rng.uniform(0, 1, p), rng.uniform(0, 1, (n_c, p)), rng.uniform(0, 10, p)
        )
        a = solve_match(prob)
        b = solve_match_bruteforce(prob)
        assert a.objective == b.objective
        assert a.selected == b.selected
        assert abs(a.epsilon - b.epsilon) <= 1e-9
        assert abs(a.a - b.a) <= 1e-9


def test_lexicographic_matches_bigm_above_bound():
    rng = np.random.default_rng(100)
    for _ in range(50):
        n_c = int(rng.integers(1, 11))
        p = int(rng.integers(1, 6))
        base = _problem(rng.uniform(0, 1, p), rng.uniform(0, 1, (n_c, p)), rng.uniform(0, 10, p))
        prob = _problem(
            base.treated_features,
            base.candidate_features,
            base.weights,
            m2=10.0 * hierarchy_m2_bound(base),
        )
        assert solve_match(prob).epsilon == solve_match_lexicographic(prob).epsilon


def test_permutation_invariance_of_selected_ids():
    rng = np.random.default_rng(12)
    treated = rng.uniform(0, 1, 2)
    cands = rng.uniform(0, 1, (7, 2))
    w = rng.uniform(0, 10, 2)
    base = solve_match(_problem(treated, cands, w))
    perm = rng.permutation(7)
    permuted = MatchProblem(
        treated_features=treated,
        candidate_features=cands[perm],
        weights=w,
        candidate_ids=perm,
    )
    sol = solve_match(permuted)
    assert sorted(sol.selected_ids) == sorted(base.selected_ids)
    assert sol.objective == pytest.approx(base.objective, rel=1e-12)


def test_node_budget_flags_suboptimal():
    rng = np.random.default_rng(13)
    prob = _problem(rng.uniform(0, 1, 4), rng.uniform(0, 1, (18, 4)), rng.uniform(0, 10, 4))
    full = solve_match(prob)
    assert not full.stats.suboptimal
    capped = solve_match(prob, node_budget=3)
    assert capped.stats.suboptimal
    assert capped.stats.nodes <= 3
    # the incumbent is still a valid (possibly worse) solution
    assert capped.objective >= full.objective


def test_bruteforce_size_guard():
    prob = _problem(np.zeros(1), np.zeros((21, 1)))
    with pytest.raises(OracleTooLarge):
        solve_match_bruteforce(prob)


def test_problem_validation():
    with pytest.raises(NoCandidates):
        _problem([1.0], np.zeros((0, 1)))
    with pytest.raises(EmptyInput):
        MatchProblem(
            treated_features=np.array([1.0, 2.0]),
            candidate_features=np.array([[1.0]]),
            weights=np.array([1.0, 1.0]),
        )


def test_hierarchy_bound_value():
    # single feature, weight 2, values {0, 1} with treated at 0.5:
    # range 1, so bound = n_c * 2 * 1 / delta
    prob = _problem([0.5], [[0.0], [1.0]], [2.0], m2=1e30)
    assert hierarchy_m2_bound(prob, delta=1e-9) == pytest.approx(2 * 2 * 1.0 / 1e-9, rel=1e-12)


def test_hierarchy_warning_fires_below_bound():
    with pytest.warns(HierarchyBoundWarning):
        _problem([0.5], [[0.0], [1.0]], [2.0], m2=1.0)


def test_no_hierarchy_warning_above_bound():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", HierarchyBoundWarning)
        _problem([0.5], [[0.0], [1.0]], [2.0], m2=1e30)


def _pool(seed=21, n=40, p=2):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, p))
    y = rng.uniform(0, 1, size=n)
    return control_only(x, y)


def test_select_candidates_nearest_by_weighted_distance():
    control = _pool()
    treated = np.array([0.5, 0.5])
    w = np.array([1.0, 1.0])
    prob = select_candidates(control, np.arange(control.n), treated, w, psi=5, m2=1e6)
    assert prob.candidate_features.shape == (5, 2)
    d_all = np.sqrt((w * (control.x - treated) ** 2).sum(axis=1))
    chosen = sorted(prob.candidate_ids)
    best5 = sorted(np.argsort(d_all, kind="stable")[:5])
    assert chosen == [int(i) for i in best5]


def test_select_candidates_psi_larger_than_pool():
    control = _pool(n=3)
    prob = select_candidates(
        control, np.arange(3), np.array([0.5, 0.5]), np.ones(2), psi=20, m2=1e6
    )
    assert prob.candidate_features.shape[0] == 3


def test_select_candidates_empty_pool():
    control = _pool()
    with pytest.raises(NoCandidates):
        select_candidates(
            control, np.array([], dtype=int), np.array([0.5, 0.5]), np.ones(2),
            psi=5, m2=1e6,
        )


def test_select_candidates_zero_weights_fall_back(caplog):
    control = _pool()
    with caplog.at_level(logging.WARNING):
        prob = select_candidates(
            control, np.arange(control.n), np.array([0.5, 0.5]), np.zeros(2),
            psi=5, m2=1e6,
        )
    assert any("weight" in r.message.lower() for r in caplog.records)
    np.testing.assert_array_equal(prob.weights, [1.0, 1.0])


def test_matched_ids_map_to_rows():
    control = _pool()
    prob = select_candidates(
        control, np.arange(control.n), np.array([0.5, 0.5]), np.ones(2), psi=6, m2=1e6
    )
    sol = solve_match(prob)
    assert set(sol.selected_ids).issubset(set(int(r) for r in control.rows()))


def test_select_candidates_psi_one_keeps_exact_twin():
    control = control_only(np.array([[0.5], [0.9]]), np.array([1.0, 2.0]))
    prob = select_candidates(
        control, np.arange(2), np.array([0.5]), np.ones(1), psi=1, m2=1e6
    )
    assert tuple(prob.candidate_ids) == (0,)


def test_select_candidates_zero_weight_drops_a_feature():
    # weight (4, 0): only the first coordinate matters, so (0.1, 9) is nearer
    control = control_only(
        np.array([[0.1, 9.0], [0.3, 0.0]]), np.array([1.0, 2.0])
    )
    prob = select_candidates(
        control,
        np.arange(2),
        np.array([0.0, 0.0]),
        np.array([4.0, 0.0]),
        psi=1,
        m2=1e6,
    )
    assert tuple(prob.candidate_ids) == (0,)


def test_solve_exact_twin_scores_zero():
    prob = _problem(0.5, [0.2, 0.5, 0.9], weights=[2.0])
    sol = solve_match(prob)
    assert sol.selected == (1,)
    assert sol.epsilon == 0.0 and sol.a == 0.0


def test_lexicographic_breaks_eps_tie_on_a():
    # dyadic values so both pairs cancel exactly: {0.25, 0.75} and
    # {0.0, 1.0} center on 0.5, and the tighter pair must win the
    # secondary objective
    prob = _problem(0.5, [0.25, 0.75, 0.0, 1.0])
    lex = solve_match_lexicographic(prob)
    assert lex.epsilon == 0.0
    assert sorted(lex.selected) == [0, 1]
    assert lex.a == 0.25
    big_m = solve_match(prob)
    assert sorted(big_m.selected) == [0, 1]
