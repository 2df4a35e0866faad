import csv
import io

import numpy as np
import pytest

from stratamatch.bench import (
    PRESETS,
    generate_hyb20var,
    run_bias_study,
    run_bootstrap_study,
    summary_to_dict,
    write_records_csv,
)
from stratamatch.config import PipelineConfig
from stratamatch.errors import ConfigError, InvalidSample


def test_presets_shapes():
    assert PRESETS == {"hyb20var": (200, 19800), "hyb20var-desk": (100, 4900)}


def test_generate_shapes_and_types():
    d = generate_hyb20var(seed=0, n_treated=30, n_control=500)
    assert d.n == 530 and d.p == 20
    assert d.n_treated == 30
    assert d.feature_names == tuple(f"x{j}" for j in range(1, 21))
    # first five features continuous on [0, 10], rest binary
    assert d.x[:, :5].min() >= 0.0 and d.x[:, :5].max() <= 10.0
    assert set(np.unique(d.x[:, 5:])) <= {0.0, 1.0}


def test_generate_exact_treated_count():
    for seed in range(5):
        d = generate_hyb20var(seed=seed, n_treated=17, n_control=83)
        assert int(d.t.sum()) == 17


def test_generate_outcome_formula_pins_down():
    # removing the deterministic part must leave uniform noise in [0, 1)
    d = generate_hyb20var(seed=1, n_treated=25, n_control=400)
    x, y, t = d.x, d.y, d.t
    det = (
        0.5 * x[:, 0]
        + 0.3 * x[:, 1]
        + 0.2 * x[:, 0] * x[:, 5]
        + 0.5 * np.sin(x[:, 2])
        + 0.5 * x[:, 3] ** 2
        + 0.3 * (x[:, 6] == 1.0)
        + 2.0 * t
    )
    noise = y - det
    assert noise.min() >= 0.0
    assert noise.max() < 1.0


def test_generate_deterministic_per_seed():
    a = generate_hyb20var(seed=5, n_treated=10, n_control=100)
    b = generate_hyb20var(seed=5, n_treated=10, n_control=100)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.t, b.t)
    c = generate_hyb20var(seed=6, n_treated=10, n_control=100)
    assert not np.array_equal(a.y, c.y)


def test_generate_validates_spec():
    with pytest.raises(ConfigError):
        generate_hyb20var(n_treated=0, n_control=10, seed=0)


def _reference_draw(n_treated, n_control, seed):
    """The generator's draw sequence, written out: ``default_rng(seed)``,
    then 5 uniforms in [0, 10), 15 probabilities in [0.1, 0.9), the binary
    draws, the noise, the outcome formula, and ``choice`` of the treated."""
    rng = np.random.default_rng(seed)
    n = n_treated + n_control
    xc = rng.uniform(0.0, 10.0, size=(n, 5))
    probs = rng.uniform(0.1, 0.9, size=15)
    xb = (rng.random(size=(n, 15)) < probs).astype(np.float64)
    noise = rng.uniform(0.0, 1.0, size=n)
    x = np.column_stack([xc, xb])
    y0 = (0.5 * x[:, 0] + 0.3 * x[:, 1] + 0.2 * x[:, 0] * x[:, 5] + 0.5 * np.sin(x[:, 2])
          + 0.5 * x[:, 3] ** 2 + 0.3 * (x[:, 6] == 1.0) + noise)
    t = np.zeros(n, dtype=np.int64)
    t[rng.choice(n, size=n_treated, replace=False)] = 1
    return t, x, np.where(t == 1, y0 + 2.0, y0)


@pytest.mark.parametrize("shape", [(100, 4900, 7), (12, 240, 11), (3, 2, 0)])
def test_generate_is_the_reference_draw_sequence_bit_for_bit(shape):
    # the data of every `gen` file and `bench` study, and so perfbench's
    # inputs, come from this stream
    d = generate_hyb20var(*shape)
    t, x, y = _reference_draw(*shape)
    for got, want in ((d.t, t), (d.x, x), (d.y, y)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


_TINY = (10, 200)


def test_bias_study_records_and_summaries():
    res = run_bias_study(*_TINY, ["naive", "strategies"], 3, cfg=PipelineConfig())
    assert res.kind == "bias"
    assert res.replications == 3
    assert res.true_att == 2.0
    assert len(res.records) == 6
    methods = {r.method for r in res.records}
    assert methods == {"naive", "strategies"}
    for r in res.records:
        assert r.error is None
        assert r.bias == pytest.approx(r.estimate - 2.0, abs=1e-12)
        assert r.runtime_s >= 0
    assert {s.method for s in res.summaries} == methods
    for s in res.summaries:
        assert s.n_ok == 3 and s.n_failed == 0
        assert s.ci_low is not None and s.ci_low <= s.mean_estimate <= s.ci_high


def test_bias_study_deterministic():
    a = run_bias_study(*_TINY, ["naive"], 3, cfg=PipelineConfig())
    b = run_bias_study(*_TINY, ["naive"], 3, cfg=PipelineConfig())
    assert [r.estimate for r in a.records] == [r.estimate for r in b.records]
    assert [r.seed for r in a.records] == [r.seed for r in b.records]


def test_bias_study_distinct_rep_seeds():
    res = run_bias_study(*_TINY, ["naive"], 4, cfg=PipelineConfig())
    seeds = [r.seed for r in res.records]
    assert len(set(seeds)) == 4


def test_bias_study_rejects_unknown_method():
    with pytest.raises(ConfigError):
        run_bias_study(*_TINY, ["nope"], 2, cfg=PipelineConfig())


def test_bootstrap_full_sample_reproduces_plain_estimate():
    from stratamatch.estimation import estimate_naive

    d = generate_hyb20var(*_TINY, seed=4)
    res = run_bootstrap_study(d, ["naive"], 3, treated_sample=d.n_treated,
                              seed=0, cfg=PipelineConfig())
    plain = estimate_naive(d, PipelineConfig())
    for r in res.records:
        assert r.estimate == pytest.approx(plain.att, abs=1e-12)
    assert res.true_att is None


def test_bootstrap_subsample_varies():
    d = generate_hyb20var(*_TINY, seed=4)
    res = run_bootstrap_study(d, ["naive"], 4, treated_sample=5,
                              seed=0, cfg=PipelineConfig())
    estimates = [r.estimate for r in res.records]
    assert len(set(estimates)) > 1


def test_bootstrap_rejects_oversample():
    d = generate_hyb20var(*_TINY, seed=4)
    with pytest.raises(InvalidSample):
        run_bootstrap_study(d, ["naive"], 2, treated_sample=d.n_treated + 1,
                            seed=0, cfg=PipelineConfig())


def test_records_csv_round_trip():
    res = run_bias_study(*_TINY, ["naive"], 2, cfg=PipelineConfig())
    text = write_records_csv(res)
    assert text.count("\r\n") == 3  # csv.writer's row ends: the header and two rows
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2
    for row, rec in zip(rows, res.records):
        assert row["method"] == rec.method
        assert float(row["estimate"]) == rec.estimate
        assert int(row["seed"]) == rec.seed


def test_summary_to_dict_is_json_ready(tmp_path):
    import json

    res = run_bias_study(*_TINY, ["naive"], 2, cfg=PipelineConfig())
    blob = summary_to_dict(res)
    json.dumps(blob)
    assert blob["kind"] == "bias"
    assert blob["replications"] == 2
    assert len(blob["methods"]) == 1


def test_errors_recorded_not_raised():
    # 21 controls with p=20 leave the root fit without residual dof
    res = run_bias_study(2, 21, ["m5c-m", "naive"], 2, cfg=PipelineConfig())
    m = [r for r in res.records if r.method == "m5c-m"]
    assert all(r.error is not None and r.estimate is None for r in m)
    sm = next(s for s in res.summaries if s.method == "m5c-m")
    assert sm.n_failed == 2 and sm.mean_estimate is None
    naive_sum = next(s for s in res.summaries if s.method == "naive")
    assert naive_sum.n_ok == 2


def test_bias_study_naive_ci_brackets_truth():
    # the additive-effect design makes naive unbiased here, so at 30
    # replications its interval should cover the true value of 2
    res = run_bias_study(*_TINY, ["naive"], 30, cfg=PipelineConfig())
    (s,) = res.summaries
    assert s.ci_low <= 2.0 <= s.ci_high


def test_bias_study_single_rep_single_method():
    res = run_bias_study(*_TINY, ["naive"], 1, cfg=PipelineConfig())
    assert len(res.records) == 1
    (s,) = res.summaries
    assert s.n_ok == 1
    assert s.mean_estimate == res.records[0].estimate
    assert s.ci_low is None and s.ci_high is None


def test_bootstrap_ci_covers_full_data_estimate():
    from stratamatch.estimation import estimate_naive

    d = generate_hyb20var(*_TINY, seed=6)
    res = run_bootstrap_study(d, ["naive"], 30, treated_sample=7,
                              seed=0, cfg=PipelineConfig())
    plain = estimate_naive(d, PipelineConfig())
    (s,) = res.summaries
    assert s.ci_low <= plain.att <= s.ci_high
