import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratamatch.balance import (
    _sorted_counts,
    compute_balance,
    matched_pool,
    post_match_report,
    pre_match_report,
    report_to_dict,
    report_to_text,
)
from stratamatch.errors import NonFiniteResult

from conftest import toy_dataset


def _row(treated, control, control_weights=None):
    """The FeatureBalance of one feature: ``compute_balance`` on the two
    samples as one-column matrices."""
    t = np.asarray(treated, dtype=np.float64).reshape(-1, 1)
    c = np.asarray(control, dtype=np.float64).reshape(-1, 1)
    return compute_balance(t, c, ("x",), control_weights=control_weights).features[0]


def test_smd_identical_groups():
    v = np.array([1.0, 2.0, 3.0])
    assert _row(v, v).smd == 0.0


def test_smd_known_value():
    # means 1 and 0, population variances 1 and 0: |1| / sqrt(1/2)
    assert _row(np.array([0.0, 2.0]), np.array([0.0, 0.0])).smd == pytest.approx(
        math.sqrt(2.0), abs=1e-12
    )


def test_smd_constant_groups():
    same = _row(np.array([3.0, 3.0]), np.array([3.0, 3.0])).smd
    assert same == 0.0
    apart = _row(np.array([3.0, 3.0]), np.array([4.0, 4.0])).smd
    assert math.isinf(apart)


def test_smd_weighted_equals_replication():
    t = np.array([1.0, 2.0, 4.0])
    c = np.array([0.0, 1.0])
    weighted = _row(t, c, control_weights=np.array([2.0, 1.0])).smd
    replicated = _row(t, np.array([0.0, 0.0, 1.0])).smd
    assert weighted == pytest.approx(replicated, abs=1e-12)


def test_variance_ratio_known_value():
    # population variances: 1 and 1/4
    assert _row(np.array([0.0, 2.0]), np.array([0.0, 1.0])).variance_ratio == pytest.approx(4.0)


def test_variance_ratio_degenerate_control():
    assert math.isnan(_row(np.array([0.0, 2.0]), np.array([1.0, 1.0])).variance_ratio)


def test_ks_identical_zero():
    v = np.array([1.0, 2.0, 3.0, 4.0])
    assert _row(v, v).ks == 0.0


def test_ks_disjoint_one():
    assert _row(np.array([10.0, 11.0]), np.array([0.0, 1.0])).ks == 1.0


def test_ks_half_shift():
    # half the mass differs
    t = np.array([0.0, 1.0])
    c = np.array([0.0, 2.0])
    assert _row(t, c).ks == pytest.approx(0.5)


def test_ks_weighted_equals_replication():
    t = np.array([0.5, 1.5, 2.5])
    c = np.array([0.0, 1.0])
    weighted = _row(t, c, control_weights=np.array([2.0, 1.0])).ks
    replicated = _row(t, np.array([0.0, 0.0, 1.0])).ks
    assert weighted == pytest.approx(replicated, abs=1e-12)


def test_overlap_identical_one():
    v = np.linspace(0, 1, 50)
    assert _row(v, v).overlap == pytest.approx(1.0)


def test_overlap_disjoint_zero():
    assert _row(np.linspace(0, 1, 50), np.linspace(5, 6, 50)).overlap == 0.0


def test_overlap_single_point():
    assert _row(np.array([2.0, 2.0]), np.array([2.0])).overlap == 1.0


def test_compute_balance_shapes():
    rng = np.random.default_rng(0)
    xt = rng.normal(size=(30, 3))
    xc = rng.normal(size=(100, 3))
    rep = compute_balance(xt, xc, ("a", "b", "c"))
    assert len(rep.features) == 3
    assert rep.n_treated == 30 and rep.n_control == 100
    assert all(f.smd >= 0 for f in rep.features)
    assert rep.mean_abs_smd >= 0
    assert rep.worst_smd >= rep.mean_abs_smd


def test_pre_match_report_uses_groups(toy):
    rep = pre_match_report(toy)
    assert rep.scope == "pre"
    assert rep.n_treated == toy.n_treated
    assert rep.n_control == toy.n_control
    assert len(rep.features) == toy.p


def test_matched_pool_weights_average_per_stratum(toy):
    matches = [(0, (1, 2)), (3, (2,))]
    xt, xc, wc = matched_pool(toy, matches)
    assert xt.shape[0] == 2
    # control row 2 appears in both strata: weight 1/2 + 1
    assert xc.shape[0] == 2
    assert wc.sum() == pytest.approx(2.0)
    i2 = list(np.flatnonzero((xc == toy.x[2]).all(axis=1)))
    assert len(i2) == 1
    assert wc[i2[0]] == pytest.approx(1.5)


def test_post_match_exact_twins_balance_perfectly():
    # controls 0..3 duplicate the treated units' profiles exactly
    from stratamatch.dataset import make_dataset

    x_t = np.array([[0.1, 0.9], [0.4, 0.2], [0.7, 0.6], [0.3, 0.3]])
    x = np.vstack([x_t, x_t, np.random.default_rng(1).uniform(size=(6, 2))])
    t = np.array([1] * 4 + [0] * 10)
    y = np.arange(14.0)
    d = make_dataset(t, x, y, ("a", "b"))
    # treated rows 0..3; their twins are control rows 4..7
    matches = [(i, (i + 4,)) for i in range(4)]
    rep = post_match_report(d, matches)
    for f in rep.features:
        assert f.smd == pytest.approx(0.0, abs=1e-12)
        assert f.ks == pytest.approx(0.0, abs=1e-12)


def test_post_match_scope(toy):
    matches = [(0, (1, 2)), (3, (2, 4))]
    rep = post_match_report(toy, matches)
    assert rep.scope == "post"
    assert rep.n_treated == 2


def test_report_serialization_round_trip(toy):
    rep = pre_match_report(toy)
    blob = report_to_dict(rep)
    text = json.dumps(blob)
    assert json.loads(text) == blob
    rendered = report_to_text(rep)
    assert "mean |SMD|" in rendered
    for f in rep.features:
        assert f.name in rendered


def test_report_json_handles_nonfinite():
    xt = np.array([[0.0], [2.0]])
    xc = np.array([[1.0], [1.0]])  # zero control variance: VR is nan
    rep = compute_balance(xt, xc, ("a",))
    blob = report_to_dict(rep)
    feature = blob["features"][0]
    assert feature["variance_ratio"] is None
    json.dumps(blob)  # must not raise


def test_smd_unit_gap_unit_variance():
    # means 1 and 0, both population variances 1
    assert _row(np.array([0.0, 2.0]), np.array([-1.0, 1.0])).smd == 1.0


def test_smd_single_treated_at_control_mean():
    assert _row(np.array([5.0]), np.array([4.0, 6.0])).smd == 0.0


def test_variance_ratio_equal_spreads():
    assert _row(np.array([0.0, 2.0]), np.array([3.0, 5.0])).variance_ratio == 1.0


def test_variance_ratio_double_spread():
    t = np.array([0.0, 2.0, 2.0, 4.0])  # population variance 2
    c = np.array([0.0, 0.0, 2.0, 2.0])  # population variance 1
    assert _row(t, c).variance_ratio == 2.0


def test_variance_ratio_degenerate_treated_is_zero():
    assert _row(np.array([7.0]), np.array([4.0, 6.0])).variance_ratio == 0.0


def test_ks_identical_ecdfs_different_sizes():
    assert _row(np.array([0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0])).ks == 0.0


def test_overlap_half_shifted_uniforms():
    rng = np.random.default_rng(10)
    t = rng.uniform(0.0, 1.0, 10_000)
    c = rng.uniform(0.5, 1.5, 10_000)
    assert _row(t, c).overlap == pytest.approx(0.5, abs=0.05)


# The formulas of the per-metric code that compute_balance replaced: a stable
# argsort with a cumulative weight sum on every path, and the CDF gap read on
# the union1d of both samples. compute_balance must keep their bits.


def _reference_ks(t, c, w):
    wc = np.ones_like(c) if w is None else w
    ts = np.sort(t)
    corder = np.argsort(c, kind="stable")
    cs = c[corder]
    ccum = np.cumsum(wc[corder])
    grid = np.union1d(ts, cs)
    ft = np.searchsorted(ts, grid, side="right") / ts.size
    idx = np.searchsorted(cs, grid, side="right")
    fc = np.where(idx > 0, ccum[np.maximum(idx - 1, 0)], 0.0) / ccum[-1]
    return float(np.max(np.abs(ft - fc)))


def _reference_row(t, c, w, bins):
    wc = np.ones_like(c) if w is None else w
    mt, mc = float(np.mean(t)), float(np.sum(wc * c) / np.sum(wc))
    vt, vc = float(np.var(t)), float(np.sum(wc * (c - mc) ** 2) / np.sum(wc))
    denom = math.sqrt((vt + vc) / 2.0)
    smd = (0.0 if mt == mc else math.inf) if denom == 0.0 else abs(mt - mc) / denom
    lo, hi = float(min(t.min(), c.min())), float(max(t.max(), c.max()))
    if lo == hi:
        ovl = 1.0
    else:
        pt, _ = np.histogram(t, bins=bins, range=(lo, hi))
        pc, _ = np.histogram(c, bins=bins, range=(lo, hi), weights=wc)
        ovl = float(np.sum(np.minimum(pt / pt.sum(), pc / pc.sum())))
    vr = math.nan if vc == 0.0 else vt / vc
    return (mt, mc, smd, vr, _reference_ks(t, c, w), ovl)


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


# few levels, so ties are common; -0.0 sits beside 0.0
_LEVELS = st.sampled_from([0.0, -0.0, 1.0, 1.0, 0.5, -2.0, 1e-300, 3.0, 0.1, 0.7])
# weights with ties and zeros
_WEIGHTS = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0, 2.5])


@st.composite
def _comparisons(draw):
    p = draw(st.integers(1, 3))
    n_t = draw(st.integers(1, 6))
    n_c = draw(st.integers(1, 60))
    xt = np.array(draw(st.lists(_LEVELS, min_size=n_t * p, max_size=n_t * p))).reshape(n_t, p)
    xc = np.array(draw(st.lists(_LEVELS, min_size=n_c * p, max_size=n_c * p))).reshape(n_c, p)
    if draw(st.booleans()):  # a constant column on both sides
        xt[:, 0] = xc[:, 0] = draw(_LEVELS)
    w = None
    if draw(st.booleans()):
        w = np.array(draw(st.lists(_WEIGHTS, min_size=n_c, max_size=n_c)))
        if w.sum() == 0:
            w[draw(st.integers(0, n_c - 1))] = draw(st.sampled_from([0.1, 1 / 3, 1.0]))
    return xt, xc, w, draw(st.sampled_from([1, 3, 20]))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_comparisons())
def test_balance_keeps_the_bits_of_the_per_metric_formulas(case):
    xt, xc, w, bins = case
    names = tuple(f"x{j}" for j in range(xt.shape[1]))
    rep = compute_balance(xt, xc, names, control_weights=w, bins=bins)
    for j, f in enumerate(rep.features):
        got = (f.mean_treated, f.mean_control, f.smd, f.variance_ratio, f.ks, f.overlap)
        assert _bits(got) == _bits(_reference_row(xt[:, j], xc[:, j], w, bins))


# pooled ranges: ordinary, subnormal-wide, a few ulps wide, near or past the
# float range; some of them are too narrow or too wide for a bin count
_SPANS = [(0.0, 1.0), (-3.0, 7.5), (0.0, 40 * 5e-324), (0.0, 1e-323), (-5e-324, 1e-300),
          (1.0, 1.0 + 64 * 2.0**-52), (-1e308, 0.0), (1e300, 1.7e308), (-1e308, 1e308),
          (-0.0, 2.0**-1000)]


def _np_edges(lo, hi, bins):
    """``np.histogram``'s edges over ``[lo, hi]``, or None where it cannot
    form them."""
    if not math.isfinite(hi - lo):
        return None
    try:
        return np.histogram_bin_edges(np.empty(0), bins=bins, range=(lo, hi))
    except ValueError:
        return None


@st.composite
def _binned_samples(draw):
    lo, hi = draw(st.sampled_from(_SPANS))
    bins = draw(st.sampled_from([1, 2, 3, 7, 20]))
    edges = _np_edges(lo, hi, bins)
    edges = np.array([lo, hi]) if edges is None else edges
    # values on the edges, one ulp either side of them, and between them
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    fracs = np.array(draw(st.lists(st.floats(0.0, 1.0), max_size=30)))
    inner = (1.0 - fracs) * lo + fracs * hi
    pool = np.clip(np.concatenate([near, inner]), lo, hi)
    picks = draw(st.lists(st.integers(0, pool.size - 1), min_size=2, max_size=60))
    v = np.concatenate([[lo, hi], pool[picks]])
    split = draw(st.integers(1, v.size - 1))
    return v[:split], v[split:], bins


# the moments of a near-overflow span overflow; only the overlap is compared
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_binned_samples(), st.booleans())
def test_overlap_counts_off_the_sorted_columns_equal_np_histogram(case, weighted):
    t, c, bins = case
    w = np.linspace(0.1, 2.0, c.size) if weighted else None
    lo, hi = float(min(t.min(), c.min())), float(max(t.max(), c.max()))
    edges = _np_edges(lo, hi, bins)
    if edges is None:  # where np.histogram cannot bin, the report refuses
        with pytest.raises(NonFiniteResult):
            compute_balance(t[:, None], c[:, None], ("x",), control_weights=w, bins=bins)
        return
    for v in (t, c):
        assert np.array_equal(_sorted_counts(np.sort(v), edges),
                              np.histogram(v, bins=bins, range=(lo, hi))[0])
    got = compute_balance(t[:, None], c[:, None], ("x",), control_weights=w, bins=bins)
    assert _bits([got.features[0].overlap]) == _bits([_reference_row(t, c, w, bins)[5]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column, bins", [
    ([-1e308, 0.5, 0.25, 1e308], 20),  # the span overflows
    ([-1e308, 0.5, 0.25, 1e308], 1),
    ([0.0, 5e-324, 0.0, 1e-323], 20),  # two ulps of the subnormals
    ([1.0, 1.0, 1.0 + 2.0**-52, 1.0], 20),  # one ulp at 1
])
def test_a_range_that_cannot_be_binned_is_a_data_error(column, bins):
    v = np.array(column)
    with pytest.raises(NonFiniteResult, match=f"feature 'x'.*bins={bins}"):
        compute_balance(v[:2, None], v[2:, None], ("x",), bins=bins)


def test_matched_pool_unknown_row_raises(toy):
    with pytest.raises(KeyError):
        matched_pool(toy, [(0, (1, toy.n + 5))])


def _exact_smd_vr(t, c, w):
    """SMD and variance ratio from the exact rational moments."""
    from fractions import Fraction

    def moments(v, w):
        v, w = [Fraction(a) for a in v], [Fraction(b) for b in w]
        m = sum(a * b for a, b in zip(v, w)) / sum(w)
        return m, sum(b * (a - m) ** 2 for a, b in zip(v, w)) / sum(w)

    mt, vt = moments(t, [1.0] * len(t))
    mc, vc = moments(c, w)
    return math.sqrt(float((mt - mc) ** 2 / ((vt + vc) / 2))), vt / vc


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("control, weights, vr", [
    ([0.0, 1.0, 2.0, 0.5], None, math.inf),  # only the treated variance overflows
    ([-1e200, 1e200, 0.0, 0.0], [1.0, 1.0, 3.0, 4.0], None),  # both do
], ids=["treated", "both"])
def test_smd_of_variances_that_overflow_is_scale_free(control, weights, vr):
    t = [-1e200, 1e200, 3e199]
    row = _row(t, control, None if weights is None else np.array(weights))
    smd, exact_vr = _exact_smd_vr(t, control, weights or [1.0] * len(control))
    assert row.smd == pytest.approx(smd, rel=1e-12)
    assert not row.smd_good
    if vr is None:  # the exact ratio is within the float range
        vr = pytest.approx(float(exact_vr), rel=1e-12)
    assert row.variance_ratio == vr
    assert row.mean_treated == 1e199


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("treated, control, weights", [
    ([1e308, 1e308], [0.0, 1.0, 0.5, 0.2], None),  # the treated sum overflows
    ([1e308, 1e308], [1e308, 1e308, 0.0], [3.0, 3.0, 1.0]),  # and the weighted control sum
    ([-1.7e308, -1.7e308, -1.0], [-1e308, -9e307], [0.5, 2.5]),
], ids=["treated", "weighted", "negative"])
def test_means_whose_sums_overflow_are_finite(treated, control, weights):
    from fractions import Fraction

    def exact(v, w):
        w = [Fraction(b) for b in w]
        return float(sum(Fraction(a) * b for a, b in zip(v, w)) / sum(w))

    row = _row(treated, control, None if weights is None else np.array(weights))
    assert row.mean_treated == pytest.approx(exact(treated, [1.0] * len(treated)), rel=1e-15)
    assert row.mean_control == pytest.approx(exact(control, weights or [1.0] * len(control)),
                                             rel=1e-15)


def test_finite_means_keep_their_bits():
    rng = np.random.default_rng(5)
    t, c, w = rng.normal(size=37), rng.normal(size=53), rng.uniform(0.1, 3.0, size=53)
    row = _row(t, c, w)
    assert row.mean_treated == float(np.mean(t))
    assert row.mean_control == float(np.sum(w * c) / np.sum(w))
