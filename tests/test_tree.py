import json
import logging

import numpy as np
import pytest

from stratamatch.regression import LinearFit, ols_fit
from stratamatch.tree import (
    TreeModel,
    TreeNode,
    _fit,
    _presort,
    assign_leaf,
    build_tree,
    default_theta,
    export_rules,
    should_split,
    tree_to_dict,
)

from conftest import control_only, given, held_peak, settings, st
from oracles import best_split
from tree_tables import trees


def test_default_theta_floor():
    assert default_theta(2) == 30
    assert default_theta(20) == 40


def _sdr(parent, left, right):
    """Standard-deviation reduction of a partition, with population
    standard deviations."""
    n = len(parent)
    return np.std(parent) - len(left) / n * np.std(left) - len(right) / n * np.std(right)


def test_sdr_known_value():
    # the middle threshold splits y into {1, 2} and {3, 4}: sd(parent) =
    # sqrt(1.25), and each child contributes 0.5 * 0.5
    cand = best_split(np.array([[1.0], [2.0], [3.0], [4.0]]), np.array([1.0, 2.0, 3.0, 4.0]))
    assert cand.threshold == 2.0
    assert cand.sdr == pytest.approx(np.sqrt(1.25) - 0.5, abs=1e-12)


def test_sdr_no_reduction_for_random_shuffle():
    # y = 1, 4, 2, 3: feature 0 splits it into {1, 4} and {2, 3}, feature 1
    # into {1, 2} and {4, 3}, which reduces the deviation more
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    cand = best_split(x, np.array([1.0, 4.0, 2.0, 3.0]))
    assert cand.feature == 1
    assert cand.sdr == pytest.approx(np.sqrt(1.25) - 0.5, abs=1e-12)


def test_best_split_step_function():
    x = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    cand = best_split(x, y)
    assert cand is not None
    assert cand.feature == 0
    assert cand.threshold == 0.0
    # parent sd is 5, both children are pure
    assert cand.sdr == pytest.approx(5.0, abs=1e-12)


def test_best_split_prefers_lower_feature_on_tie():
    # the two features are identical, so their best splits tie exactly
    col = np.array([0.0, 0.0, 1.0, 1.0])
    x = np.column_stack([col, col])
    cand = best_split(x, np.array([0.0, 0.0, 10.0, 10.0]))
    assert cand.feature == 0


def test_best_split_prefers_lower_threshold_on_tie():
    # y constant: every threshold gives sdr 0, the first must win
    x = np.array([[1.0], [2.0], [3.0]])
    cand = best_split(x, np.array([1.0, 1.0, 1.0]))
    assert cand.threshold == 1.0


def test_best_split_none_for_constant_feature():
    x = np.array([[2.0], [2.0], [2.0]])
    assert best_split(x, np.array([1.0, 2.0, 3.0])) is None


def _fit_of(r2_adj):
    return LinearFit(
        intercept=0.0,
        coefficients=np.zeros(1),
        r2=0.9,
        r2_adj=r2_adj,
        n_obs=50,
        rank_deficient=False,
    )


def test_should_split_improvement_wins():
    assert should_split(_fit_of(0.5), _fit_of(0.8), _fit_of(0.4), 50, 50, 0.1, 30)


def test_should_split_penalty_blocks_small_child():
    # child improves by 0.08 < lambda, and is below theta
    assert not should_split(_fit_of(0.5), _fit_of(0.58), _fit_of(0.4), 10, 50, 0.1, 30)
    # same improvement is enough once the child is big
    assert should_split(_fit_of(0.5), _fit_of(0.58), _fit_of(0.4), 30, 50, 0.1, 30)


def test_should_split_requires_strict_gain():
    assert not should_split(_fit_of(0.5), _fit_of(0.5), _fit_of(0.5), 50, 50, 0.1, 30)


def test_should_split_undefined_child_never_helps():
    assert not should_split(_fit_of(0.5), _fit_of(None), _fit_of(None), 50, 50, 0.1, 30)


def _piecewise(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 1))
    y = np.where(x[:, 0] <= 0.5, x[:, 0], 10.0 - x[:, 0]) + rng.normal(0, 0.01, n)
    return control_only(x, y)


def test_build_tree_recovers_breakpoint():
    tree = build_tree(_piecewise(), theta=30)
    root = tree.node(tree.root)
    assert root.split is not None
    feature, threshold = root.split
    assert feature == 0
    assert 0.45 < threshold < 0.55
    for leaf in tree.leaves():
        if leaf.r2_adj is not None:
            assert leaf.r2_adj > 0.99


def test_build_tree_linear_data_stays_single_leaf():
    single = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0, 1, size=(300, 2))
        y = 2.0 * x[:, 0] - x[:, 1] + rng.normal(0, 0.1, 300)
        tree = build_tree(control_only(x, y))
        if len(tree.nodes) == 1:
            single += 1
    # an already-linear response should essentially never split
    assert single >= 45


def test_build_tree_node_metadata_consistent():
    tree = build_tree(_piecewise(), theta=30)
    d = _piecewise()
    for node in tree.nodes:
        assert node.n == len(node.control_indices)
        if node.split is None:
            assert node.leaf_model is not None
            continue
        feature, threshold = node.split
        left = tree.node(node.left)
        right = tree.node(node.right)
        got = set(left.control_indices) | set(right.control_indices)
        assert got == set(node.control_indices)
        assert np.all(d.x[left.control_indices, feature] <= threshold)
        assert np.all(d.x[right.control_indices, feature] > threshold)
        # stored gain must reproduce from the children outcome vectors
        recomputed = _sdr(
            d.y[node.control_indices],
            d.y[left.control_indices],
            d.y[right.control_indices],
        )
        assert node.sdr == pytest.approx(recomputed, abs=1e-9)


def test_build_tree_depth_cap():
    tree = build_tree(_piecewise(), theta=5, max_depth=1)
    assert max(nd.depth for nd in tree.nodes) <= 1


def test_build_tree_tiny_control_set_warns(caplog):
    x = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    with caplog.at_level(logging.WARNING):
        tree = build_tree(control_only(x, np.array([1.0, 2.0, 3.0])))
    assert len(tree.nodes) == 1
    assert tree.node(0).is_leaf
    assert any("single-leaf" in r.message for r in caplog.records)


def test_build_tree_deterministic():
    a = build_tree(_piecewise(seed=7), theta=30)
    b = build_tree(_piecewise(seed=7), theta=30)
    assert export_rules(a) == export_rules(b)
    assert tree_to_dict(a) == tree_to_dict(b)


def test_assign_leaf_boundary_goes_left():
    tree = build_tree(_piecewise(), theta=30)
    _, threshold = tree.node(tree.root).split
    left = tree.node(tree.root).left
    right = tree.node(tree.root).right
    assert assign_leaf(tree, np.array([threshold])) in _subtree_leaves(tree, left)
    eps = np.nextafter(threshold, 1.0)
    assert assign_leaf(tree, np.array([eps])) in _subtree_leaves(tree, right)


def _subtree_leaves(tree, node_id):
    node = tree.node(node_id)
    if node.is_leaf:
        return {node_id}
    return _subtree_leaves(tree, node.left) | _subtree_leaves(tree, node.right)


def test_assign_leaf_routes_all_controls_home():
    d = _piecewise()
    tree = build_tree(d, theta=30)
    for leaf in tree.leaves():
        for i in leaf.control_indices[:10]:
            assert assign_leaf(tree, d.x[i]) == leaf.node_id


def test_export_rules_format():
    tree = build_tree(_piecewise(), theta=30)
    text = export_rules(tree)
    lines = text.strip().splitlines()
    assert len(lines) == len(tree.leaves())
    assert any("x1 ≤" in ln for ln in lines)
    assert any("x1 >" in ln for ln in lines)
    assert all("leaf" in ln and "n=" in ln for ln in lines)


def test_export_rules_single_leaf():
    x = np.array([[0.0], [1.0], [2.0]])
    tree = build_tree(control_only(x, np.array([1.0, 2.0, 3.0])))
    assert "(root)" in export_rules(tree)


def test_tree_to_dict_round_trips_structure():
    tree = build_tree(_piecewise(), theta=30)
    blob = tree_to_dict(tree)
    assert blob["p"] == 1

    def count(node):
        if "split" not in node:
            assert node["model"] is not None
            return 1
        return count(node["left"]) + count(node["right"])

    assert count(blob["root"]) == len(tree.leaves())


def test_sdr_pure_children_equals_parent_sd():
    cand = best_split(np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([0.0, 0.0, 10.0, 10.0]))
    assert cand.sdr == pytest.approx(5.0)


def test_sdr_constant_parent_is_zero():
    # every threshold of a constant outcome reduces nothing; the first wins
    cand = best_split(np.array([[0.0], [1.0], [2.0], [3.0]]), np.full(4, 3.0))
    assert (cand.threshold, cand.sdr) == (0.0, 0.0)


def test_best_split_picks_informative_feature():
    # feature 0 is pure noise; feature 1 separates the outcome clusters
    rng = np.random.default_rng(3)
    n = 200
    noise = rng.uniform(size=n)
    grp = np.repeat([0.0, 1.0], n // 2)
    y = np.where(grp > 0.5, 10.0, 0.0) + rng.normal(0, 0.1, n)
    cand = best_split(np.column_stack([noise, grp]), y)
    assert cand is not None and cand.feature == 1


def test_should_split_one_good_child_suffices():
    # the left child regresses but the right improves by 0.15 at full size
    assert should_split(_fit_of(0.5), _fit_of(0.4), _fit_of(0.65), 50, 50, 0.1, 30)


def test_assign_leaf_single_leaf_returns_root():
    x = np.array([[0.0], [1.0], [2.0]])
    tree = build_tree(control_only(x, np.array([1.0, 2.0, 3.0])))
    assert assign_leaf(tree, np.array([0.7])) == tree.root
    assert assign_leaf(tree, np.array([99.0])) == tree.root


def test_assign_leaf_routes_to_matching_regime():
    d = _piecewise(seed=5)
    tree = build_tree(d, theta=30)
    leaf = tree.node(assign_leaf(tree, np.array([0.9])))
    pred = leaf.leaf_model.intercept + leaf.leaf_model.coefficients[0] * 0.9
    assert pred == pytest.approx(10.0 - 0.9, abs=0.1)


def _fit_bits(fit):
    return (fit.intercept.hex(), fit.coefficients.tobytes(), fit.r2.hex(),
            None if fit.r2_adj is None else fit.r2_adj.hex(), fit.n_obs, fit.rank_deficient)


@pytest.mark.parametrize("select", ["all", "half", "one"])
def test_fit_of_rows_keeps_the_bits_and_makes_no_copy_of_them(select):
    rng = np.random.default_rng(6)
    x, y = rng.uniform(size=(20000, 20)), rng.normal(size=20000)
    rows = {"all": np.arange(20000), "half": np.flatnonzero(x[:, 0] <= 0.5),
            "one": np.array([7])}[select]
    copy = x[rows]
    want, copy_peak = held_peak(ols_fit, copy, y[rows])
    got, peak = held_peak(_fit, x, y, rows)
    assert _fit_bits(got) == _fit_bits(want)
    # ols_fit's own arrays, y's rows and one gather block: no copy of the rows
    assert peak < copy_peak + max(copy.nbytes / 4, 1024)


def _tree_by_node_search(control, lambda_, theta, max_depth):
    """The tree :func:`build_tree` grows, with every node's split found by
    :func:`best_split` on that node's own rows, which sorts them afresh."""
    x, y = control.x, control.y
    n, p = x.shape
    nodes = []

    def grow(indices, depth, fit):
        node_id = len(nodes)
        nodes.append(None)
        node = TreeNode(node_id=node_id, depth=depth, control_indices=indices,
                        r2_adj=fit.r2_adj, n=int(indices.size))
        cand = None
        if depth < max_depth and indices.size >= p + 2:
            cand = best_split(x[indices], y[indices])
        if cand is not None:
            mask = x[indices, cand.feature] <= cand.threshold
            lidx, ridx = indices[mask], indices[~mask]
            lfit, rfit = ols_fit(x[lidx], y[lidx]), ols_fit(x[ridx], y[ridx])
            if should_split(fit, lfit, rfit, lidx.size, ridx.size, lambda_, theta):
                node.split = (cand.feature, cand.threshold)
                node.sdr = cand.sdr
                nodes[node_id] = node
                node.left = grow(lidx, depth + 1, lfit)
                node.right = grow(ridx, depth + 1, rfit)
                return node_id
        node.leaf_model = fit
        nodes[node_id] = node
        return node_id

    grow(np.arange(n), 0, ols_fit(x, y))
    return TreeModel(nodes=nodes, root=0, lambda_=lambda_, theta=theta, p=p,
                     feature_names=control.feature_names)


# per-column value sets: constant, binary, -0.0 beside 0.0, a few levels
_LEVELS = [(0.0, 0.25, 0.5, 0.75, 1.0), (-1.0, 1e-300, 0.5, 3.0), (-0.0, 0.0, 1.0), (0.0, 1.0),
           (-0.0, 0.0), (0.0,)]


@st.composite
def _tied_controls(draw):
    n = draw(st.integers(4, 80).map(lambda k: 84 - k))  # large n first
    p = draw(st.sampled_from((3, 5, 2, 4, 1)))
    # hypothesis picks the shape, the level sets and the model; a seeded
    # generator fills the cells, as drawn lists would be mostly one value
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.column_stack([rng.choice(np.array(draw(st.sampled_from(_LEVELS))), n)
                         for _ in range(p)])
    noise = rng.choice(np.array([0.0, 0.01, -0.01, 0.03]), n)
    # columns a and d pick which linear model holds: a model tree's reason to split
    perm = draw(st.permutations(range(p)))
    a, b, c, d = (perm[i % p] for i in range(4))
    y = (noise + np.where(x[:, a] > 0.0, 4.0 * x[:, b] + 3.0, -4.0 * x[:, c])
         + np.where(x[:, d] > 0.5, 2.0, -2.0) * x[:, b])
    return control_only(x, y)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(control=_tied_controls(),
       lambda_=st.sampled_from((0.0, 0.1)),
       theta=st.sampled_from((1, 2, 5, 30)),
       max_depth=st.sampled_from((32, 2, 1)))
def test_presorted_tree_equals_a_fresh_sort_at_every_node(control, lambda_, theta, max_depth):
    got = build_tree(control, lambda_, theta, max_depth)
    want = _tree_by_node_search(control, lambda_, theta, max_depth)
    assert json.dumps(tree_to_dict(got)) == json.dumps(tree_to_dict(want))
    assert len(got.nodes) == len(want.nodes)
    for a, b in zip(got.nodes, want.nodes):
        assert a.control_indices.dtype == b.control_indices.dtype
        assert a.control_indices.tobytes() == b.control_indices.tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(trees())
def test_every_leaf_holds_a_control_and_a_fit_and_every_split_partitions_its_rows(case):
    # the match form builds a candidate pool in every leaf a treated unit
    # reaches, and the model form predicts from every leaf's fit
    control, lambda_, theta, max_depth = case
    model = build_tree(control, lambda_, theta, max_depth)
    assert np.array_equal(model.node(model.root).control_indices, np.arange(control.n))
    for node in model.nodes:
        rows = node.control_indices
        if node.is_leaf:
            assert rows.size >= 1
            assert isinstance(node.leaf_model, LinearFit)
            continue
        f, s = node.split
        left, right = model.node(node.left).control_indices, model.node(node.right).control_indices
        assert np.array_equal(np.sort(np.concatenate((left, right))), np.sort(rows))
        assert np.all(control.x[left, f] <= s) and np.all(control.x[right, f] > s)


def test_the_tree_tables_grow_split_and_deep_trees():
    # the tree property tests see real trees: in a derandomized sample of
    # 150 tables, at least 30 split and at least 10 reach depth 2
    pytest.importorskip("hypothesis")
    depths = []

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(trees())
    def grow(case):
        depths.append(max(nd.depth for nd in build_tree(*case).nodes))

    grow()
    assert len(depths) == 150
    assert sum(d >= 1 for d in depths) >= 30
    assert sum(d >= 2 for d in depths) >= 10


def test_build_tree_sorts_each_feature_once(monkeypatch):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(400, 3))
    y = 20.0 * (x[:, 0] > 0.5) + 10.0 * (x[:, 1] > 0.5) + x[:, 2] + rng.normal(0, 0.01, 400)
    calls = []
    argsort = np.argsort

    def counting(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    tree = build_tree(control_only(x, y), theta=10)
    assert sum(not nd.is_leaf for nd in tree.nodes) >= 3
    assert len(calls) == x.shape[1]


# level sets of few-valued columns: constant, two-valued (-0.0 equals 0.0),
# subnormal and near-overflow values; None draws distinct values
_PRESORT_LEVELS = [(2.5,), (0.0, 1.0), (-0.0, 0.0), (-0.0, 0.0, 1.0), (5e-324, 0.0),
                   (-5e-324, 0.0, -0.0, 5e-324), (1e308, -1e308), (-1e308, 0.0, 1e308),
                   (0.4, 0.1, 0.3, 0.2, 0.1), None]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(n=st.integers(1, 60), levels=st.sampled_from(_PRESORT_LEVELS),
       scale=st.sampled_from((1.0, 1e-310, 1e300)), seed=st.integers(0, 2**32 - 1))
def test_presort_equals_the_stable_argsort(n, levels, scale, seed):
    rng = np.random.default_rng(seed)
    if levels is None:
        col = rng.standard_normal(n) * scale
        col[rng.integers(0, n)] = rng.choice([-0.0, 0.0, 1e308, -1e308])
    else:
        col = rng.choice(np.array(levels), n)
    x = np.column_stack([col, -col])  # a strided column, as build_tree passes
    assert np.array_equal(_presort(x[:, 0]), np.argsort(col, kind="stable"))


def test_build_tree_on_two_valued_columns_calls_no_argsort(monkeypatch):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, size=(400, 4)).astype(float)
    x[:, 2] = 7.0  # a constant column
    x[::5, 3] = -0.0  # 0.0 and -0.0 are one value
    y = 20.0 * x[:, 0] + 10.0 * x[:, 0] * x[:, 1] + x[:, 3] + rng.normal(0, 0.01, 400)
    calls = []
    argsort = np.argsort

    def counting(*args, **kwargs):
        calls.append(1)
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    tree = build_tree(control_only(x, y), theta=10)
    assert not tree.nodes[tree.root].is_leaf
    assert calls == []


def test_sdr_stays_finite_when_the_squares_of_y_overflow():
    # the fourth draw of 8 rows, y in [1.2e200, 6e200): its four controls
    # accept a split whose sums of y * y pass the float range
    rng = np.random.default_rng(0)
    for _ in range(4):
        y, a = rng.uniform(1.2e200, 6e200, 8), rng.uniform(0, 1, 8)
    c = np.arange(8) % 2 == 0
    blob = tree_to_dict(build_tree(control_only(a[c][:, None], y[c])))
    json.dumps(blob, allow_nan=False)
    split = blob["root"]["split"]
    # the exact reduction, from deviations taken about each side's mean
    left = y[c][a[c] <= split["threshold"]]
    right = y[c][a[c] > split["threshold"]]
    want = (np.std(y[c] / 1e200) - (left.size * np.std(left / 1e200)
                                    + right.size * np.std(right / 1e200)) / 4) * 1e200
    assert split["sdr"] == pytest.approx(want, rel=1e-9)


def test_best_split_of_scaled_outcomes_scales_its_sdr():
    # outcomes times 2**600 square past the float range; the scan keeps the
    # split and scales its reduction exactly
    rng = np.random.default_rng(5)
    x, y = rng.uniform(size=(30, 3)), rng.uniform(1.0, 6.0, size=30)
    small = best_split(x, y)
    big = best_split(x, y * 2.0**600)
    assert (big.feature, big.threshold) == (small.feature, small.threshold)
    assert big.sdr == small.sdr * 2.0**600
