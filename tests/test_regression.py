import warnings
from fractions import Fraction

import numpy as np
import pytest

from stratamatch.regression import _mean, _std, feature_weights, ols_fit

from conftest import control_only, given, settings, st


def test_ols_known_line():
    # x = (0, 1, 2), y = (0, 1, 1): slope 1/2, intercept 1/6, R^2 = 3/4
    fit = ols_fit(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 1.0]))
    assert fit.coefficients[0] == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert fit.r2 == pytest.approx(0.75, abs=1e-12)
    assert fit.n_obs == 3
    assert not fit.rank_deficient


def test_ols_exact_fit_r2_one():
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    fit = ols_fit(x, 2.0 * x[:, 0] + 3.0)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)
    assert fit.intercept == pytest.approx(3.0, abs=1e-10)


def test_ols_constant_outcome():
    fit = ols_fit(np.array([[0.0], [1.0], [2.0]]), np.array([5.0, 5.0, 5.0]))
    # zero total variation counts as perfectly explained
    assert fit.r2 == 1.0


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(80, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 0.0]) + rng.normal(size=80)
    fit = ols_fit(x, y)
    resid = y - fit.predict(x)
    assert abs(resid.sum()) < 1e-8
    for j in range(4):
        assert abs(resid @ x[:, j]) < 1e-8


def test_ols_rank_deficient_flagged():
    x = np.column_stack([np.arange(6.0), 2.0 * np.arange(6.0)])
    fit = ols_fit(x, np.arange(6.0))
    assert fit.rank_deficient


def test_ols_r2_affine_invariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(50, 2))
    y = x @ np.array([1.0, 2.0]) + rng.normal(size=50)
    r2 = ols_fit(x, y).r2
    r2_scaled = ols_fit(3.0 * x + 7.0, y).r2
    assert r2 == pytest.approx(r2_scaled, abs=1e-10)


def test_predict_matches_manual():
    fit = ols_fit(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 1.0]))
    x_new = np.array([[4.0]])
    assert fit.predict(x_new)[0] == pytest.approx(fit.intercept + 0.5 * 4.0, abs=1e-12)


def test_adjusted_r2_known_value():
    # R^2 = 3/4 on n = 3, p = 1: 1 - (1 - 3/4) * 2 / 1 = 1/2
    fit = ols_fit(np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 1.0]))
    assert fit.r2_adj == pytest.approx(0.5, abs=1e-12)
    assert fit.r2_adj == 1.0 - (1.0 - fit.r2) * 2 / 1
    rng = np.random.default_rng(7)
    x = rng.normal(size=(30, 2))
    fit = ols_fit(x, x @ np.array([1.0, -1.0]) + rng.normal(size=30))
    assert fit.r2_adj == 1.0 - (1.0 - fit.r2) * 29 / 27


def test_adjusted_r2_below_r2():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 2))
    fit = ols_fit(x, x[:, 0] + rng.normal(size=30))
    assert fit.r2 < 1.0
    assert fit.r2_adj < fit.r2


def test_adjusted_r2_needs_dof():
    # n <= p + 1 leaves no residual degree of freedom
    for n in (3, 2):
        fit = ols_fit(np.arange(2.0 * n).reshape(n, 2), np.arange(float(n)))
        assert fit.r2_adj is None


def test_ols_small_n_has_no_adjusted():
    fit = ols_fit(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
    assert fit.r2_adj is None


def test_std_dev_population():
    assert _std(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(np.sqrt(1.25), abs=1e-15)


def test_feature_weights_are_abs_coefficients():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(200, 3))
    y = x @ np.array([2.0, -3.0, 0.0]) + rng.normal(0, 0.01, 200)
    d = control_only(x, y)
    w = feature_weights(d)
    assert w.shape == (3,)
    assert np.all(w >= 0)
    assert w[1] > w[0] > w[2]
    assert w[0] == pytest.approx(2.0, abs=0.05)
    assert w[1] == pytest.approx(3.0, abs=0.05)


def test_adjusted_r2_perfect_fit_is_fixed_point():
    # a constant outcome is a perfect fit by convention: R^2 is exactly 1
    rng = np.random.default_rng(9)
    for n, p in ((30, 2), (5, 1)):
        fit = ols_fit(rng.normal(size=(n, p)), np.full(n, 2.5))
        assert fit.r2 == fit.r2_adj == 1.0


def test_std_dev_known_values():
    assert _std(np.array([5.0, 5.0, 5.0])) == 0.0
    assert _std(np.array([0.0, 0.0, 10.0, 10.0])) == 5.0


def test_feature_weights_constant_outcome_all_zero():
    rng = np.random.default_rng(6)
    d = control_only(rng.uniform(size=(50, 4)), np.full(50, 2.5))
    np.testing.assert_allclose(feature_weights(d), np.zeros(4), atol=1e-10)


def test_feature_weights_pick_up_benchmark_signal():
    # average over generations: the linear, interaction, and jump terms
    # all leave a clearly positive slope on their feature
    from stratamatch.bench import generate_hyb20var

    w_sum = np.zeros(20)
    reps = 10
    for s in range(reps):
        d = generate_hyb20var(n_treated=50, n_control=1950, seed=s)
        w_sum += feature_weights(d)
    w = w_sum / reps
    names = ["x1", "x2", "x4", "x6", "x7"]
    floors = [0.3, 0.15, 2.0, 0.3, 0.05]
    for name, floor in zip(names, floors):
        assert w[int(name[1:]) - 1] > floor, name


def test_ols_r2_stays_finite_when_the_sums_of_squares_overflow():
    # |y| near 1e200: resid @ resid and the centered sum pass DBL_MAX
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(8, 2))
    y = rng.uniform(1.0, 6.0, size=8)
    fit = ols_fit(x, y * 1e200)
    assert np.isfinite(fit.r2) and np.isfinite(fit.r2_adj)
    assert fit.r2 == pytest.approx(ols_fit(x, y).r2, rel=1e-9)


def test_ols_r2_stays_finite_when_the_residuals_overflow():
    # the slope, -2e308, and y minus the fitted values pass the float range;
    # the exact r2 is 1 - 3.2 / 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = ols_fit(np.array([[0.1], [0.3], [0.5], [0.7]]),
                      np.array([1e308, -1e308, 1e308, -1e308]))
    assert fit.r2 == pytest.approx(0.2, rel=1e-12)
    assert fit.r2_adj == pytest.approx(1.0 - 0.8 * 3 / 2, rel=1e-12)


def test_ols_constant_outcome_whose_sum_overflows_is_a_perfect_fit():
    # three outcomes of 1e308 sum past DBL_MAX; their mean does not
    fit = ols_fit(np.array([[0.1], [0.3], [0.5]]), np.full(3, 1e308))
    assert fit.r2 == 1.0


HUGE = st.builds(lambda m, s: s * m, st.sampled_from([1e307, 2.5e307, 1e308, 1.7976931348623157e308]),
                 st.sampled_from([1.0, -1.0]))


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), HUGE),
                min_size=1, max_size=60))
def test_mean_keeps_the_bits_of_every_finite_mean(values):
    v = np.array(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _mean(v)
    with np.errstate(over="ignore", invalid="ignore"):
        want = float(np.mean(v))
    if np.isfinite(want):
        assert got.hex() == want.hex()
        return
    # the float sum of v / s is exact up to rounding errors of the order of
    # the sum of |v|; with values of one sign that is relative to the mean
    exact = sum(map(Fraction, values)) / len(values)
    scale = sum(abs(Fraction(x)) for x in values) / len(values)
    assert np.isfinite(got)
    assert abs(Fraction(got) - exact) <= Fraction(1e-12) * scale


def test_mean_of_controls_near_2_5e307_is_finite():
    # one halving is not enough: 40 halves still sum past DBL_MAX
    v = np.full(40, 2.5e307)
    with np.errstate(over="ignore"):
        assert np.isinf(np.mean(v / 2))
    assert _mean(v) == 2.5e307
