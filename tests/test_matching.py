import logging
import math

import numpy as np
import pytest

from stratamatch import matching
from stratamatch.bench import generate_hyb20var
from stratamatch.config import PipelineConfig
from stratamatch.dataset import make_dataset
from stratamatch.estimation import fit_pipeline
from stratamatch.errors import (
    EmptyInput,
    HierarchyBoundWarning,
    NoCandidates,
)
from stratamatch.matching import (
    MatchProblem,
    _evaluate,
    candidate_pool,
    hierarchy_m2_bound,
    select_candidates,
    solve_match,
    solve_match_lexicographic,
)

from conftest import control_only, full_scan_shortlist, held_peak, solution_bits
from oracles import OracleTooLarge, _prep, solve_match_bruteforce


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


def test_large_pool_search_has_no_depth_limit():
    # 1498 candidates lie on one side of the treated unit; only the last two
    # cancel. The search goes 1500 levels deep and still ends exhaustively; a
    # recursive search raised RecursionError here
    cands = np.r_[np.linspace(0.9, 1.0, 1498), 0.5 + 2.0**-4, 0.5 - 2.0**-4]
    prob = _problem(0.5, cands)
    sol = solve_match(prob)
    assert sol.selected == (1498, 1499)
    assert (sol.epsilon, sol.a, sol.objective) == (0.0, 2.0**-4, 2.0**-4)
    eps, a = _evaluate(*_prep(prob)[:2], sol.selected)
    assert (sol.epsilon, sol.a) == (eps, a)


@pytest.mark.parametrize("k", [4, 6, 8])
def test_psi_bounds_the_search_on_ties(k):
    # the treated unit at 1 and k candidates each at 0 and at 2: every
    # balanced subset ties on eps = 0 and a = 1, so pruning helps little. The
    # search still ends exhaustively, on the oracle's optimum, within the
    # 2**(2k + 1) states a tree over 2k candidates can hold
    prob = _problem(1.0, np.r_[np.zeros(k), np.full(k, 2.0)])
    sol = solve_match(prob)
    want = solve_match_bruteforce(prob)
    assert solution_bits(sol)[:5] == solution_bits(want)[:5]
    assert sol.nodes < 2 ** (2 * k + 1)


def test_lexicographic_search_has_no_depth_limit():
    # 1498 candidates lie on one side of the treated unit; only the last two
    # cancel. The lexicographic search runs to the end, and its recursive
    # form raised RecursionError here
    cands = np.r_[np.linspace(0.9, 1.0, 1498), 0.5 + 2.0**-4, 0.5 - 2.0**-4]
    sol = solve_match_lexicographic(_problem(0.5, cands))
    assert sol.selected == (1498, 1499)
    assert (sol.epsilon, sol.a) == (0.0, 2.0**-4)


def _seed_offers_one_row_at_a_time(d, dv, wa, we, offer):
    """The seed screen scoring the pairs ``(i, k)`` one row ``i`` at a time:
    the reference for the blocked screen's offers and their order."""
    n = dv.size

    def pair_scores(i):
        eps = np.abs(d[i + 1:] + d[i]).max(axis=1)
        return wa * np.maximum(dv[i + 1:], dv[i]) + we * eps

    single = wa * dv + we * dv
    row_best = np.array([pair_scores(i).min() for i in range(n - 1)] + [np.inf])
    best = float(min(single.min(), row_best.min()))
    cut = best + 1e-9 * abs(best)
    for i in np.flatnonzero(single <= cut).tolist():
        offer((i,))
    for i in np.flatnonzero(row_best <= cut).tolist():
        for k in (np.flatnonzero(pair_scores(i) <= cut) + i + 1).tolist():
            offer((i, k))


@pytest.mark.parametrize("wa, we", [(1.0, 1e6), (1.0, 1.0), (0.0, 1.0)])
def test_blocked_seed_screen_offers_as_one_row_at_a_time(wa, we):
    rng = np.random.default_rng(3)
    n, p = 300, 2
    assert matching._PAIR_BLOCK // (n * p) < (n - 1) // 2  # three blocks or more
    dyadic = rng.integers(-4, 5, size=(n, p)) / 8.0
    for d in (dyadic, rng.uniform(-1, 1, (n, p)), np.abs(dyadic) + 0.125):
        dv = np.abs(d).max(axis=1)
        got, want = [], []
        matching._seed_incumbent(d, dv, wa, we, got.append)
        _seed_offers_one_row_at_a_time(d, dv, wa, we, want.append)
        assert got == want


# (selected_ids, nodes, objective.hex()) of the exhaustive search on
# _pinned_problem(seed): any change to expansion order, pruning or tie-breaks
# shows here.
PINNED_EXHAUSTIVE = [
    ((230, 372, 35, 67, 156, 398, 341, 50, 291), 7812, "0x1.b167b2ede3a39p+15"),
    ((179,), 27, "0x1.aff7086a47d8dp+20"),
    ((241,), 648, "0x1.1612201c82fcap+20"),
    ((26, 14, 376, 254), 2166, "0x1.23f37fae1d52ep+18"),
    ((207,), 108, "0x1.b7042cb966fd3p+19"),
    ((65,), 58, "0x1.a491161908401p+19"),
    ((90, 36, 361), 2162, "0x1.40b550a02b5fbp+18"),
    ((223, 236, 362, 201, 11, 184, 336), 4705, "0x1.69274ee6c40c1p+10"),
    ((159,), 58, "0x1.75f42133077f5p+18"),
    ((83,), 127, "0x1.6a266f1b7637ep+20"),
    ((303,), 54, "0x1.473784f0a8628p+19"),
    ((333, 282), 407, "0x1.e109e151c6dd6p+17"),
    ((96,), 69, "0x1.3d70df503664fp+20"),
    ((186, 197, 263), 169, "0x1.57c44f4642050p+17"),
    ((365, 107), 105, "0x1.e844379386279p+19"),
    ((320,), 52, "0x1.f07eb5319f81bp+19"),
    ((147,), 588, "0x1.febf05d48f326p+19"),
    ((184,), 46, "0x1.7cdf2aec58975p+20"),
    ((46,), 457, "0x1.f18ec031c9cd5p+20"),
    ((205, 115, 13, 262, 30, 395, 108, 31), 2363, "0x1.02b879a1b6019p+17"),
    # m2 = 1: the cap alone can pass the incumbent
    ((373,), 74, "0x1.81e54cff47428p+1"),
    ((171,), 20, "0x1.4db9582230f3cp-2"),
    ((216,), 24, "0x1.29bf3ff4afb46p+1"),
    ((190,), 25, "0x1.400b18570858ep+0"),
]


def _pinned_problem(seed):
    # psi=20 nearest candidates from a uniform pool, as select_candidates
    # builds them; the default m2 for seeds below 20
    rng = np.random.default_rng(1000 + seed)
    p = int(rng.integers(2, 13))
    mu = rng.uniform(0, 1, p)
    pool = rng.uniform(0, 1, (400, p))
    w = rng.uniform(0, 10, p)
    near = np.argsort(np.sqrt((w * (pool - mu) ** 2).sum(axis=1)), kind="stable")[:20]
    return MatchProblem(
        treated_features=mu, candidate_features=pool[near], weights=w, candidate_ids=near,
        m2=1e6 if seed < 20 else 1.0,
    )


@pytest.mark.parametrize("seed", range(len(PINNED_EXHAUSTIVE)))
def test_exhaustive_search_order_is_pinned(seed):
    sol = solve_match(_pinned_problem(seed))
    assert (sol.selected_ids, sol.nodes, sol.objective.hex()) == PINNED_EXHAUSTIVE[seed]


def test_search_does_not_depend_on_the_weight_scale():
    # scaling every weight by a power of two scales every sum and score
    # exactly, so the pruning margin must scale too: the search then expands
    # the same states. A fixed absolute margin let nothing prune here. The
    # lexicographic search runs exhaustively, on the first 14 candidates
    def scaled(prob, n, scale):
        return MatchProblem(
            treated_features=prob.treated_features, candidate_features=prob.candidate_features[:n],
            weights=prob.weights * scale, candidate_ids=prob.candidate_ids[:n], m2=prob.m2,
        )

    for seed in range(len(PINNED_EXHAUSTIVE)):
        prob = _pinned_problem(seed)
        want = solve_match(prob)
        got = solve_match(scaled(prob, 20, 2.0**-60))
        assert (got.selected_ids, got.nodes) == (want.selected_ids, want.nodes)
        assert got.objective == want.objective * 2.0**-60
        want = solve_match_lexicographic(scaled(prob, 14, 1.0))
        got = solve_match_lexicographic(scaled(prob, 14, 2.0**-60))
        assert (got.selected_ids, got.nodes) == (want.selected_ids, want.nodes)
        assert (got.epsilon, got.a) == (want.epsilon * 2.0**-60, want.a * 2.0**-60)


def test_scores_past_the_float_range_search_a_pinned_number_of_states():
    # y = 5e307 * a + t on 60 rows makes the weight of a near 5e307, and
    # a + m2 * eps then overflows on most subsets: unscaled, nothing would
    # prune and each problem would visit its 2**20 subsets. The search scales
    # the deviations by a power of two, so each problem expands the states,
    # and finds the subset and the eps and a bits, of the same problem with
    # its weights scaled by hand
    rng = np.random.default_rng(0)
    t = (np.arange(60) % 3 == 0).astype(int)
    a, b = rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)
    fit = fit_pipeline(make_dataset(t, np.column_stack([a, b]), 5e307 * a + t, ("a", "b")),
                       PipelineConfig())
    probs = [select_candidates(candidate_pool(fit.control, fit.tree.node(leaf).control_indices,
                                              fit.weights), fit.treated.x[k])
             for leaf, units in fit.leaves.items() for k in units]
    sols = solve_match(probs)
    assert sum(s.nodes for s in sols) == 598_230
    assert max(s.nodes for s in sols) == 83_183
    assert sum(not np.isfinite(s.objective) for s in sols) == 6
    for prob, sol in zip(probs, sols):
        dev = prob.weights * (prob.candidate_features - prob.treated_features)
        e = math.frexp(float(np.abs(dev).max()))[1]
        scaled = solve_match(MatchProblem(prob.treated_features, prob.candidate_features,
                                          np.ldexp(prob.weights, -e), m2=prob.m2,
                                          candidate_ids=prob.candidate_ids))
        assert (sol.selected_ids, sol.nodes) == (scaled.selected_ids, scaled.nodes)
        assert (sol.epsilon, sol.a) == (math.ldexp(scaled.epsilon, e), math.ldexp(scaled.a, e))


def test_exact_twins_end_the_search():
    # every subset of the 20 twins scores 0; the lowest id alone wins the
    # tie-break, without enumerating the 2**20 tied subsets
    mu = np.array([0.5, 1.0, 0.0])
    cands = np.vstack([np.random.default_rng(3).uniform(0, 1, (5, 3)), np.tile(mu, (20, 1))])
    ids = np.arange(25)[::-1]
    sol = solve_match(MatchProblem(mu, cands, np.ones(3), candidate_ids=ids))
    assert sol.selected_ids == (0,)
    assert sol.objective == 0.0
    assert sol.nodes == 0


def _past_64_problem():
    # only the last three of 100 candidates cancel (1 + 2 - 3 = 0, a = 3);
    # every other one lies 10 or more to one side, so any set holding it
    # scores at least 10. The optimum needs positions past 63, which a
    # state keeps in its second mask word, and three members, which the
    # singleton and pair seeding cannot find
    return _problem(0.0, np.r_[10.0 + np.arange(97.0), 1.0, 2.0, -3.0])


def test_exhaustive_search_past_64_candidates():
    sol = solve_match(_past_64_problem())
    assert sol.selected == (97, 98, 99)
    assert (sol.epsilon, sol.a, sol.objective) == (0.0, 3.0, 3.0)


def _milp_instance(psi, seed):
    rng = np.random.default_rng(100 * seed + psi)
    p = int(rng.integers(4, 7))
    return _problem(rng.uniform(0, 1, p), rng.uniform(0, 1, (psi, p)), rng.uniform(0, 10, p))


MILP_PSI = [24, 28, 32, 36, 40]


@pytest.mark.parametrize("cap", [2, 16])
def test_frontier_cap_does_not_change_results(monkeypatch, cap):
    # a frontier wider than the cap is searched in depth-first chunks: the
    # states expanded change, the result must not, in either search order.
    # The last two problems decide their small candidates past position 63,
    # in a second mask word; the last one's frontier there is wider than the
    # cap, so those words pass through the chunks as well as the batch
    pinned = [_pinned_problem(seed) for seed in range(len(PINNED_EXHAUSTIVE))]
    probs = pinned + [_milp_instance(psi, seed) for psi in MILP_PSI for seed in range(2)]
    small = np.round(np.random.default_rng(1).uniform(-1, 1, 10), 3)
    probs += [_past_64_problem(), _problem(0.0, np.r_[10.0 + np.arange(90.0), small])]

    def results(batched):
        sols = solve_match(probs) if batched else [solve_match(prob) for prob in probs]
        sols += [solve_match_lexicographic(prob) for prob in pinned]
        return [(sol.selected_ids, sol.objective.hex(), sol.epsilon.hex(), sol.a.hex())
                for sol in sols]

    monkeypatch.setattr(matching, "_FRONTIER_MAX", 1 << 62)
    want = results(False)
    monkeypatch.setattr(matching, "_FRONTIER_MAX", cap)
    assert results(False) == want
    # one list: chunk i of every problem shares frontier i
    assert results(True) == want


def test_solve_match_takes_a_list():
    assert solve_match([]) == []
    with pytest.raises(TypeError):
        solve_match([_problem(**WORKED), "not a problem"])
    rng = np.random.default_rng(5)
    twin = np.array([0.5, 0.25])
    probs = [
        _problem(**WORKED),
        # an exact twin ends its search at the seed, with no state expanded
        _problem(twin, np.vstack([rng.uniform(0, 1, (6, 2)), twin]), [1.0, 3.0]),
        _milp_instance(24, 0),
        _pinned_problem(0),
        _problem(rng.uniform(0, 1, 7), rng.uniform(0, 1, (3, 7)), m2=1.0),
    ]
    probs = probs * 4  # more than one group of _BATCH problems
    assert len(probs) > matching._BATCH
    sols = solve_match(probs)
    assert [solution_bits(sol) for sol in sols] == [solution_bits(solve_match(prob)) for prob in probs]
    assert sols[1].nodes == 0


def test_batched_solve_equals_unit_solves_on_desk_data():
    d = generate_hyb20var(seed=7, n_treated=100, n_control=4900)
    fit = fit_pipeline(d, PipelineConfig())
    probs = []
    for leaf_id, units in sorted(fit.leaves.items()):
        pool = candidate_pool(fit.control, fit.tree.node(leaf_id).control_indices, fit.weights)
        probs += [select_candidates(pool, fit.treated.x[k]) for k in units]
    assert len(probs) == 100
    got = [solution_bits(sol) for sol in solve_match(probs)]
    assert got == [solution_bits(solve_match(prob)) for prob in probs]


def _milp_objective(prob):
    """Optimal ``a + m2 * eps`` from scipy's MILP solver (HiGHS), re-scored
    exactly on the subset it selects.

    Variables are the selection indicators ``s_i``, then ``eps`` and ``a``:
    minimize ``a + m2 * eps`` subject to ``|sum_i s_i delta_ij| <= eps``,
    ``a >= dev_i * s_i`` and ``sum_i s_i >= 1``.
    """
    pytest.importorskip("scipy", minversion="1.9")  # milp arrived in 1.9
    from scipy import optimize
    delta, dev, _, n, p = _prep(prob)
    d = np.asarray(delta)
    zp, zn = np.zeros(p), np.zeros(n)
    rows = np.vstack([
        np.c_[d.T, -np.ones(p), zp],  # sum_i s_i delta_ij - eps <= 0
        np.c_[-d.T, -np.ones(p), zp],  # -sum_i s_i delta_ij - eps <= 0
        np.c_[np.diag(dev), zn, -np.ones(n)],  # dev_i s_i - a <= 0
        np.r_[np.ones(n), 0.0, 0.0][None],  # sum_i s_i >= 1
    ])
    upper = np.r_[np.zeros(2 * p + n), np.inf]
    lower = np.r_[np.full(2 * p + n, -np.inf), 1.0]
    res = optimize.milp(
        np.r_[zn, prob.m2, 1.0],
        constraints=optimize.LinearConstraint(rows, lower, upper),
        integrality=np.r_[np.ones(n), 0.0, 0.0],
        bounds=optimize.Bounds(np.zeros(n + 2), np.r_[np.ones(n), np.inf, np.inf]),
        options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    sel = tuple(np.flatnonzero(res.x[:n] > 0.5).tolist())
    eps, a = _evaluate(delta, dev, sel)
    return res.fun, a + prob.m2 * eps


@pytest.mark.parametrize("psi", MILP_PSI)
def test_milp_oracle_agrees_above_bruteforce_limit(psi):
    for seed in range(2):
        prob = _milp_instance(psi, seed)
        sol = solve_match(prob)
        reported, rescored = _milp_objective(prob)
        assert rescored == pytest.approx(sol.objective, rel=1e-9)
        assert reported == pytest.approx(sol.objective, rel=1e-9)


def test_bruteforce_size_guard():
    prob = _problem(np.zeros(1), np.zeros((21, 1)))
    with pytest.raises(OracleTooLarge):
        solve_match_bruteforce(prob)


def test_problem_validation():
    with pytest.raises(NoCandidates):
        _problem([1.0], np.zeros((0, 1)))
    for m2 in (0.0, np.inf, np.nan):
        with pytest.raises(EmptyInput):
            _problem([1.0], [[2.0]], m2=m2)
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
    prob = select_candidates(candidate_pool(control, np.arange(control.n), w), treated, psi=5, m2=1e6)
    assert prob.candidate_features.shape == (5, 2)
    d_all = np.sqrt((w * (control.x - treated) ** 2).sum(axis=1))
    chosen = sorted(prob.candidate_ids)
    best5 = sorted(np.argsort(d_all, kind="stable")[:5])
    assert chosen == [int(i) for i in best5]


def test_select_candidates_psi_larger_than_pool():
    control = _pool(n=3)
    prob = select_candidates(
        candidate_pool(control, np.arange(3), np.ones(2)), np.array([0.5, 0.5]), psi=20, m2=1e6
    )
    assert prob.candidate_features.shape[0] == 3


def test_select_candidates_empty_pool():
    control = _pool()
    with pytest.raises(NoCandidates):
        select_candidates(
            candidate_pool(control, np.array([], dtype=int), np.ones(2)), np.array([0.5, 0.5]),
            psi=5, m2=1e6,
        )


def test_select_candidates_zero_weights_fall_back(caplog):
    control = _pool()
    with caplog.at_level(logging.WARNING):
        prob = select_candidates(
            candidate_pool(control, np.arange(control.n), np.zeros(2)), np.array([0.5, 0.5]),
            psi=5, m2=1e6,
        )
    assert any("weight" in r.message.lower() for r in caplog.records)
    np.testing.assert_array_equal(prob.weights, [1.0, 1.0])


def test_matched_ids_map_to_rows():
    control = _pool()
    prob = select_candidates(
        candidate_pool(control, np.arange(control.n), np.ones(2)), np.array([0.5, 0.5]),
        psi=6, m2=1e6,
    )
    sol = solve_match(prob)
    assert set(sol.selected_ids).issubset(set(int(r) for r in control.rows()))


def test_select_candidates_psi_one_keeps_exact_twin():
    control = control_only(np.array([[0.5], [0.9]]), np.array([1.0, 2.0]))
    prob = select_candidates(
        candidate_pool(control, np.arange(2), np.ones(1)), np.array([0.5]), psi=1, m2=1e6
    )
    assert tuple(prob.candidate_ids) == (0,)


def test_select_candidates_ties_at_cutoff_keep_lower_positions_in_order():
    # distances (1, 0, 1, 1, 0, 1, 2): the third pick is tied four ways and
    # goes to the lowest position; candidates come nearest first
    x = np.array([[1.0], [0.0], [1.0], [1.0], [0.0], [1.0], [2.0]])
    control = control_only(x, np.zeros(len(x)))
    for psi, want in ((3, (1, 4, 0)), (5, (1, 4, 0, 2, 3)), (7, (1, 4, 0, 2, 3, 5, 6))):
        pool = candidate_pool(control, np.arange(len(x)), np.ones(1))
        prob = select_candidates(pool, np.array([0.0]), psi=psi)
        assert tuple(prob.candidate_ids) == want


@pytest.mark.parametrize("psi", [1, 20, 40])
def test_shortlist_equals_full_scan_on_desk_data(psi):
    d = generate_hyb20var(seed=7, n_treated=100, n_control=4900)
    fit = fit_pipeline(d, PipelineConfig())
    for leaf_id, units in fit.leaves.items():
        leaf = fit.tree.node(leaf_id).control_indices
        pool = candidate_pool(fit.control, leaf, fit.weights)
        for k in units:
            got = select_candidates(pool, fit.treated.x[k], psi=psi)
            ids, feats = full_scan_shortlist(fit.control, leaf, fit.treated.x[k], fit.weights, psi)
            assert got.candidate_ids.tolist() == ids.tolist()
            assert got.candidate_features.tobytes() == feats.tobytes()


def test_pool_shares_the_control_rows_and_copies_only_its_screen():
    control = _pool(seed=22, n=4000, p=20)
    leaf = np.arange(1, 4000, 2)
    w = np.linspace(0.0, 1.0, 20)
    pool, peak = held_peak(candidate_pool, control, leaf, w)
    assert np.shares_memory(pool.x, control.x)
    assert not np.shares_memory(pool.screen, control.x)
    assert pool.screen.tobytes() == control.x[leaf][:, pool.screen_columns].T.tobytes()
    assert pool.x[pool.rows].tobytes() == control.x[leaf].tobytes()
    # the screen's 5 columns and the ids, one column's gather beside them,
    # and no copy of the leaf's 20 columns
    assert peak < pool.screen.nbytes + pool.ids.nbytes + control.x[leaf].nbytes / 5


def test_select_candidates_zero_weight_drops_a_feature():
    # weight (4, 0): only the first coordinate matters, so (0.1, 9) is nearer
    control = control_only(
        np.array([[0.1, 9.0], [0.3, 0.0]]), np.array([1.0, 2.0])
    )
    prob = select_candidates(
        candidate_pool(control, np.arange(2), np.array([4.0, 0.0])),
        np.array([0.0, 0.0]),
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
