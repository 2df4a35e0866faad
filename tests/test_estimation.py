import logging

import numpy as np
import pytest

from stratamatch.bench import generate_hyb20var
from stratamatch.config import PipelineConfig
from stratamatch.dataset import make_dataset, normalize_min_max
from stratamatch.errors import (
    EmptyInput,
    EstimationImpossible,
    StrategyRequiresBinary,
)
from stratamatch.estimation import (
    ESTIMATORS,
    SkipRecord,
    StratumOutcome,
    _normalize_and_split,
    aggregate_att,
    estimate_m5c_m,
    estimate_m5c_mf,
    estimate_naive,
    estimate_strategies,
    fit_pipeline,
    robust_att_1to1,
    robust_att_1tok,
    robust_att_ktok,
)
from stratamatch.matching import candidate_pool, select_candidates
from stratamatch.regression import feature_weights

from conftest import held_peak, partly_skipped, toy_dataset
from oracles import solve_match_bruteforce

# five treated units (two successes), seven controls (two successes)
BINARY_STRATUM = StratumOutcome(
    treated=np.array([1.0, 1.0, 0.0, 0.0, 0.0]),
    control=np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
)


def test_binary_stratum_1to1_is_zero():
    assert robust_att_1to1(BINARY_STRATUM) == 0.0


def test_binary_stratum_1tok_value():
    # (2 * (1 - 2/7) + 3 * (0 - 2/7)) / 5 = 4/35
    assert robust_att_1tok(BINARY_STRATUM) == pytest.approx(4.0 / 35.0, abs=1e-9)


def test_binary_stratum_ktok_value():
    assert robust_att_ktok(BINARY_STRATUM) == pytest.approx(4.0 / 35.0, abs=1e-9)


def test_1tok_equals_ktok_exactly_on_table():
    assert robust_att_1tok(BINARY_STRATUM) == robust_att_ktok(BINARY_STRATUM)


def test_1tok_equals_ktok_exactly_random():
    rng = np.random.default_rng(42)
    for i in range(300):
        nt = int(rng.integers(1, 12))
        nc = int(rng.integers(1, 12))
        if i % 2 == 0:
            yt = rng.integers(0, 2, nt).astype(float)
            yc = rng.integers(0, 2, nc).astype(float)
        else:
            yt = rng.normal(size=nt)
            yc = rng.normal(size=nc)
        s = StratumOutcome(treated=yt, control=yc)
        assert robust_att_1tok(s) == robust_att_ktok(s)


def test_1to1_requires_binary():
    s = StratumOutcome(treated=np.array([0.5]), control=np.array([0.0]))
    with pytest.raises(StrategyRequiresBinary):
        robust_att_1to1(s)


def test_1to1_no_discordance():
    s = StratumOutcome(treated=np.array([1.0, 1.0]), control=np.array([1.0, 1.0, 1.0]))
    assert robust_att_1to1(s) == 0.0


def test_1to1_single_discordant_pair():
    s = StratumOutcome(treated=np.array([1.0]), control=np.array([0.0]))
    assert robust_att_1to1(s) == 1.0


def test_1tok_single_treated():
    s = StratumOutcome(treated=np.array([7.0]), control=np.array([1.0, 2.0, 3.0]))
    assert robust_att_1tok(s) == pytest.approx(5.0, abs=1e-15)


def test_1tok_constant_outcomes():
    s = StratumOutcome(treated=np.array([2.0, 2.0]), control=np.array([2.0, 2.0]))
    assert robust_att_1tok(s) == 0.0


def test_ktok_direct_arithmetic():
    s = StratumOutcome(treated=np.array([3.0, 5.0]), control=np.array([1.0, 1.0, 1.0]))
    assert robust_att_ktok(s) == pytest.approx(3.0, abs=1e-15)


def test_ktok_equal_means():
    s = StratumOutcome(treated=np.array([1.0, 3.0]), control=np.array([2.0, 2.0]))
    assert robust_att_ktok(s) == 0.0


def test_1to1_all_discordant():
    # two (1,0) pairs and nothing else
    s = StratumOutcome(treated=np.array([1.0, 1.0]), control=np.array([0.0, 0.0]))
    assert robust_att_1to1(s) == 1.0


def test_stratum_requires_both_groups():
    with pytest.raises(EmptyInput):
        StratumOutcome(treated=np.array([]), control=np.array([1.0]))


def test_aggregate_att_weights_by_treated_count():
    # strata effects 1.0 (2 treated) and 4.0 (6 treated)
    assert aggregate_att([1.0, 4.0], [2, 6]) == pytest.approx(3.25, abs=1e-15)


def test_aggregate_att_single_stratum():
    assert aggregate_att([2.5], [7]) == 2.5


def test_aggregate_att_equal_weights():
    assert aggregate_att([1.0, 3.0], [2, 2]) == pytest.approx(2.0, abs=1e-15)


def test_aggregate_att_weighted_mean():
    assert aggregate_att([0.0, 4.0], [1, 3]) == pytest.approx(3.0, abs=1e-15)


def test_aggregate_att_equals_flat_mean():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        sizes = rng.integers(1, 10, size=k)
        unit_effects = [rng.normal(size=n) for n in sizes]
        stratum_means = [float(np.mean(u)) for u in unit_effects]
        flat = float(np.mean(np.concatenate(unit_effects)))
        agg = aggregate_att(stratum_means, [int(n) for n in sizes])
        assert agg == pytest.approx(flat, abs=1e-12)


def test_aggregate_att_validation():
    with pytest.raises(EmptyInput):
        aggregate_att([], [])
    with pytest.raises(EmptyInput):
        aggregate_att([1.0], [0])
    with pytest.raises(EmptyInput):
        aggregate_att([1.0, 2.0], [1])


def test_naive_diff_in_means_frozen():
    d = make_dataset(
        np.array([0, 0, 1, 1]),
        np.zeros((4, 1)),
        np.array([1.0, 3.0, 4.0, 8.0]),
        ("a",),
    )
    assert estimate_naive(d).att == pytest.approx(4.0, abs=1e-15)


def test_naive_diff_constant_groups():
    d = make_dataset(
        np.array([0, 0, 1, 1]),
        np.zeros((4, 1)),
        np.array([3.0, 3.0, 5.0, 5.0]),
        ("a",),
    )
    assert estimate_naive(d).att == 2.0


def test_naive_diff_identical_groups():
    d = make_dataset(
        np.array([0, 1]),
        np.zeros((2, 1)),
        np.array([4.0, 4.0]),
        ("a",),
    )
    assert estimate_naive(d).att == 0.0


def test_naive_diff_on_binary_table_equals_group_strategy():
    y = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    t = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    d = make_dataset(t, np.zeros((12, 1)), y, ("a",))
    s = StratumOutcome(treated=y[:5], control=y[5:])
    assert estimate_naive(d).att == pytest.approx(robust_att_ktok(s), abs=1e-12)
    assert estimate_naive(d).att == pytest.approx(4.0 / 35.0, abs=1e-9)


def test_naive_diff_agrees_with_estimate_naive_when_the_control_sum_overflows():
    # 40 controls at 2.5e307 sum past DBL_MAX; their mean and the effect do not
    t = np.array([0] * 40 + [1] * 20)
    y = np.array([2.5e307] * 40 + [1.0] * 20)
    d = make_dataset(t, np.zeros((60, 1)), y, ("a",))
    assert estimate_naive(d).att == 1.0 - 2.5e307


def test_registry_contents():
    assert set(ESTIMATORS) == {"m5c-mf", "m5c-m", "naive", "strategies"}


def test_m5c_mf_att_is_mean_of_iatts():
    d = toy_dataset(seed=1)
    rep = estimate_m5c_mf(d, PipelineConfig())
    assert rep.method == "m5c-mf"
    assert rep.att == float(np.mean([r.iatt for r in rep.iatt]))
    assert rep.n_used + len(rep.skipped) == d.n_treated


def test_default_matches_are_certified():
    # every match search runs to the end, so each unit's match is the optimum
    # of full enumeration over its candidates; psi = 14 keeps that cheap
    cfg = PipelineConfig(psi=14)
    d = generate_hyb20var(seed=7, n_treated=100, n_control=4900)
    rep = estimate_m5c_mf(d, cfg)
    fit = fit_pipeline(d, cfg)
    position = {int(r): k for k, r in enumerate(fit.treated.rows())}
    assert len(rep.iatt) == 100
    for r in rep.iatt:
        pool = candidate_pool(fit.control, fit.tree.node(r.leaf).control_indices, fit.weights)
        prob = select_candidates(pool, fit.treated.x[position[r.treated_row]], cfg.psi, cfg.m2)
        want = solve_match_bruteforce(prob)
        assert (r.matched_rows, r.objective) == (want.selected_ids, want.objective)


def test_constant_outcome_weights_are_zero_and_fall_back_once_per_pool(caplog):
    # least squares would leave rounding noise (about 1e-16) in these weights
    d = generate_hyb20var(seed=7, n_treated=100, n_control=4900)
    d = make_dataset(d.t, d.x, np.ones(d.n), d.feature_names)
    fit = fit_pipeline(d, PipelineConfig())
    assert fit.weights.tobytes() == np.zeros(d.p).tobytes()
    with caplog.at_level(logging.WARNING, logger="stratamatch.matching"):
        rep = estimate_m5c_mf(d, PipelineConfig())
    fallbacks = [r for r in caplog.records if "falling back to unit weights" in r.message]
    assert len(fallbacks) == len(fit.leaves) < len(rep.iatt)
    assert rep.att == 0.0


def test_m5c_mf_records_are_complete_and_sorted():
    d = toy_dataset(seed=2)
    rep = estimate_m5c_mf(d, PipelineConfig())
    rows = [r.treated_row for r in rep.iatt]
    assert rows == sorted(rows)
    for r in rep.iatt:
        assert r.matched_rows, "every matched unit records its control rows"
        assert r.epsilon is not None and r.epsilon >= 0
        assert r.a is not None and r.a >= 0
        assert r.objective is not None
        # matched rows must be control rows
        assert d.t[list(r.matched_rows)].sum() == 0


def test_m5c_mf_iatt_reconstructs_from_outcomes():
    d = toy_dataset(seed=3)
    rep = estimate_m5c_mf(d, PipelineConfig())
    for r in rep.iatt:
        counterfactual = float(np.mean(d.y[list(r.matched_rows)]))
        assert r.iatt == pytest.approx(float(d.y[r.treated_row]) - counterfactual, abs=1e-12)


def test_m5c_mf_recovers_toy_effect():
    d = toy_dataset(seed=4, n_treated=20, n_control=300)
    rep = estimate_m5c_mf(d, PipelineConfig())
    assert rep.att == pytest.approx(1.0, abs=0.15)


def test_m5c_mf_constant_counterfactual_is_exact():
    # every control shares the treated units' covariate profile and outcome c;
    # treated outcomes are c + 2, so the effect must come out exactly 2
    n_c, c = 12, 3.5
    x = np.tile(np.array([0.4, 0.7]), (n_c + 3, 1))
    t = np.array([1, 1, 1] + [0] * n_c)
    y = np.array([c + 2.0] * 3 + [c] * n_c)
    d = make_dataset(t, x, y, ("a", "b"))
    rep = estimate_m5c_mf(d, PipelineConfig())
    assert rep.att == 2.0


def test_m5c_mf_single_control_forces_that_match():
    d = make_dataset(
        np.array([1, 0]),
        np.array([[0.2], [0.8]]),
        np.array([5.0, 1.5]),
        ("a",),
    )
    rep = estimate_m5c_mf(d, PipelineConfig())
    assert rep.n_used == 1
    assert rep.iatt[0].matched_rows == (1,)
    assert rep.iatt[0].iatt == pytest.approx(3.5, abs=1e-15)


def test_m5c_mf_row_order_independence():
    d = toy_dataset(seed=5, n_treated=10, n_control=120)
    rep = estimate_m5c_mf(d, PipelineConfig())
    perm = np.random.default_rng(0).permutation(d.n)
    d2 = make_dataset(d.t[perm], d.x[perm], d.y[perm], d.feature_names)
    rep2 = estimate_m5c_mf(d2, PipelineConfig())
    assert rep2.att == pytest.approx(rep.att, rel=1e-12, abs=1e-12)
    # per-unit effects agree once rows are mapped back
    back = {int(perm[i]): i for i in range(d.n)}
    own = {r.treated_row: r.iatt for r in rep.iatt}
    permuted = {int(perm[r.treated_row]): r.iatt for r in rep2.iatt}
    assert set(own) == set(permuted)
    for row, v in own.items():
        assert permuted[row] == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_m5c_m_predicts_counterfactual():
    d = toy_dataset(seed=7, n_treated=15, n_control=200)
    rep = estimate_m5c_m(d, PipelineConfig())
    assert rep.method == "m5c-m"
    assert rep.att == pytest.approx(1.0, abs=0.2)
    for r in rep.iatt:
        assert r.matched_rows == ()


def test_m5c_m_exact_on_linear_controls():
    # controls follow y = 2x exactly, treated sit at y = 2x + 5, so the
    # model-predicted counterfactual is exact and the effect is 5
    rng = np.random.default_rng(12)
    xc = rng.uniform(0.0, 1.0, size=40)
    xt = rng.uniform(0.0, 1.0, size=6)
    x = np.concatenate([xt, xc]).reshape(-1, 1)
    t = np.array([1] * 6 + [0] * 40)
    y = np.concatenate([2.0 * xt + 5.0, 2.0 * xc])
    d = make_dataset(t, x, y, ("a",))
    rep = estimate_m5c_m(d, PipelineConfig())
    assert rep.att == pytest.approx(5.0, abs=1e-9)


def test_m5c_m_skips_when_no_leaf_fit():
    # 3 controls with p=2 cannot support any leaf fit diagnostics
    rng = np.random.default_rng(8)
    x = rng.uniform(size=(5, 2))
    t = np.array([1, 1, 0, 0, 0])
    y = rng.uniform(size=5)
    d = make_dataset(t, x, y, ("a", "b"))
    with pytest.raises(EstimationImpossible):
        estimate_m5c_m(d, PipelineConfig())


def test_m5c_m_skips_only_the_unit_whose_leaf_has_no_fit(caplog):
    with caplog.at_level(logging.WARNING, logger="stratamatch.estimation"):
        rep = estimate_m5c_m(partly_skipped(), PipelineConfig())
    assert rep.skipped == (SkipRecord(treated_row=53, reason="leaf_fit_undefined"),)
    assert [r.treated_row for r in rep.iatt] == [52]
    assert rep.att == pytest.approx(2.0, abs=1e-12)
    assert rep.tree.node(rep.iatt[0].leaf).n == 50
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert warnings == ["m5c-m: skipped 1 of 2 treated units"]


def test_m5c_mf_still_works_on_tiny_control_pool():
    rng = np.random.default_rng(9)
    x = rng.uniform(size=(5, 2))
    t = np.array([1, 1, 0, 0, 0])
    y = rng.uniform(size=5)
    d = make_dataset(t, x, y, ("a", "b"))
    rep = estimate_m5c_mf(d, PipelineConfig())
    assert rep.n_used == 2


def test_estimate_naive_matches_direct_difference():
    d = toy_dataset(seed=10)
    rep = estimate_naive(d, PipelineConfig())
    assert rep.att == pytest.approx(np.mean(d.y[d.t == 1]) - np.mean(d.y[d.t == 0]), abs=1e-12)
    assert rep.n_used == d.n_treated


def test_estimate_strategies_reports_strata():
    d = toy_dataset(seed=11, n_treated=15, n_control=200)
    rep = estimate_strategies(d, PipelineConfig())
    assert rep.method == "strategy-1:k"
    assert rep.strata, "per-stratum details are reported"
    for s in rep.strata:
        assert {"stratum", "n_treated", "n_control", "att_1tok", "att_ktok"} <= set(s)
    # headline equals the flat mean of unit effects
    assert rep.att == pytest.approx(float(np.mean([r.iatt for r in rep.iatt])), abs=1e-12)
    # and the treated-weighted stratum aggregate agrees
    agg = aggregate_att(
        [s["att_1tok"] for s in rep.strata], [s["n_treated"] for s in rep.strata]
    )
    assert rep.att == pytest.approx(agg, abs=1e-9)


def test_estimate_strategies_binary_outcomes_add_1to1():
    rng = np.random.default_rng(12)
    n = 120
    x = rng.uniform(size=(n, 2))
    t = np.zeros(n)
    t[rng.choice(n, size=20, replace=False)] = 1
    y = (rng.random(n) < 0.4).astype(float)
    d = make_dataset(t, x, y, ("a", "b"))
    rep = estimate_strategies(d, PipelineConfig())
    assert all("att_1to1" in s for s in rep.strata)


def test_config_validation_runs():
    d = toy_dataset(seed=13)
    from stratamatch.errors import ConfigError

    with pytest.raises(ConfigError):
        estimate_m5c_mf(d, PipelineConfig(psi=0))
    with pytest.raises(ConfigError):
        estimate_m5c_mf(d, PipelineConfig(lambda_=-0.5))


def test_normalize_and_split_holds_no_control_copy_beside_the_weights():
    d = normalize_min_max(toy_dataset(seed=14, n_treated=200, n_control=3800, p=10))
    _, weights_peak = held_peak(feature_weights, d)
    (control, treated, weights), peak = held_peak(_normalize_and_split, d, PipelineConfig())
    result = weights.nbytes + sum(a.nbytes for part in (control, treated)
                                  for a in (part.t, part.x, part.y, part.row_ids))
    # the regression's arrays are freed before the split copies the groups,
    # so the peak is the larger of the two, not their sum
    assert peak < max(weights_peak, result) + control.x.nbytes / 2
