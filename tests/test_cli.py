import argparse
import gc
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conftest import given, partly_skipped, settings, st


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "stratamatch", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    r = run_cli(
        "gen", "--preset", "hyb20var-desk", "--n-treated", "12", "--n-control", "240",
        "--seed", "11", "--out", str(path),
    )
    assert r.returncode == 0, r.stderr
    return path


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert "stratamatch" in r.stdout


def test_no_subcommand_is_usage_error():
    r = run_cli()
    assert r.returncode == 2


def test_gen_writes_loadable_csv(data_csv):
    header = data_csv.read_text().splitlines()[0]
    assert header.split(",")[:2] == ["t", "y"]
    assert len(data_csv.read_text().splitlines()) == 253


def test_gen_round_trips_exact_floats(data_csv):
    from stratamatch.bench import generate_hyb20var
    from stratamatch.dataset import load_dataset

    d = load_dataset(data_csv, treatment_col="t", outcome_col="y")
    ref = generate_hyb20var(seed=11, n_treated=12, n_control=240)
    np.testing.assert_array_equal(d.x, ref.x)
    np.testing.assert_array_equal(d.y, ref.y)
    np.testing.assert_array_equal(d.t, ref.t)


def test_estimate_writes_artifacts(tmp_path, data_csv):
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--method", "m5c-mf", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    for name in ("report.json", "audit.jsonl", "summary.txt", "tree_rules.txt", "tree.json"):
        assert (out / name).exists(), name
    blob = json.loads((out / "report.json").read_text())
    assert set(blob) == {"payload", "meta"}
    payload = blob["payload"]
    assert payload["method"] == "m5c-mf"
    assert payload["n_used"] + payload["n_skipped"] == 12
    assert isinstance(payload["att"], float)
    # audit holds one json line per treated unit
    lines = (out / "audit.jsonl").read_text().strip().splitlines()
    assert len(lines) == 12
    rows = [json.loads(ln) for ln in lines]
    assert all("treated_row" in row for row in rows)


def test_constant_outcome_estimate_is_certified(tmp_path):
    # a constant outcome leaves only rounding noise (about 1e-16) in the
    # feature weights; the solver's pruning margin scales with them, so the
    # default exhaustive search still ends and certifies every match
    data = tmp_path / "desk.csv"
    r = run_cli("gen", "--preset", "hyb20var-desk", "--seed", "7", "--out", str(data))
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in data.read_text().splitlines()]
    col = rows[0].index("y")
    for row in rows[1:]:
        row[col] = "1.0"
    data.write_text("\n".join(",".join(row) for row in rows) + "\n")
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data), "--treatment", "t", "--outcome", "y", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    summary = (out / "summary.txt").read_text()
    assert "\nmatches       100\n" in summary


def test_estimate_m5c_m_reports_a_partial_skip(tmp_path):
    d = partly_skipped()
    data = tmp_path / "skip.csv"
    data.write_text("t,y,x\n" + "".join(f"{int(t)},{float(y)!r},{float(x)!r}\n"
                                        for t, y, x in zip(d.t, d.y, d.x[:, 0])))
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data), "--treatment", "t", "--outcome", "y",
        "--method", "m5c-m", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    assert "WARNING stratamatch.estimation: m5c-m: skipped 1 of 2 treated units" in r.stderr
    audit = [json.loads(line) for line in (out / "audit.jsonl").read_text().splitlines()]
    assert [rec["treated_row"] for rec in audit] == [52, 53]
    assert audit[1] == {"treated_row": 53, "skipped": "leaf_fit_undefined"}
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert (payload["n_used"], payload["n_skipped"]) == (1, 1)
    summary = (out / "summary.txt").read_text()
    assert "\ntreated used  1 of 2\nskipped       1\n" in summary


def test_estimate_naive_skips_tree_artifacts(tmp_path, data_csv):
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--method", "naive", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    assert (out / "report.json").exists()
    assert not (out / "tree.json").exists()


def test_estimate_missing_column_exit_3(tmp_path, data_csv):
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "zz", "--outcome", "y",
        "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 3
    assert "zz" in r.stderr


def test_estimate_missing_file_exit_3(tmp_path):
    r = run_cli(
        "estimate", "--input", str(tmp_path / "nope.csv"), "--treatment", "t",
        "--outcome", "y", "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 3


def _estimate_exit(tmp_path, csv_path):
    return run_cli(
        "estimate", "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
        "--method", "naive", "--out", str(tmp_path / "x"),
    )


def _assert_one_line_data_error(r, *parts):
    assert r.returncode == 3, r.stderr
    assert "Traceback" not in r.stderr
    (line,) = [ln for ln in r.stderr.splitlines() if ln.startswith("ERROR")]
    assert "data error" in line
    for part in parts:
        assert part in line


def test_estimate_non_utf8_file_exit_3(tmp_path):
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(b"t,y,a\n0,1,2\n1,3,caf\xe9\n")
    _assert_one_line_data_error(_estimate_exit(tmp_path, csv_path), "latin1.csv", "line 3")


def test_estimate_oversized_cell_exit_3(tmp_path):
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text("t,y,a\n0,1,2\n1,3," + "1" * 200_000 + "\n")
    _assert_one_line_data_error(_estimate_exit(tmp_path, csv_path), "wide.csv", "line 3")


def test_estimate_finite_oversized_cell_exit_3(tmp_path):
    # a cell that numpy's C reader reads as 1.0 but the csv reader refuses
    csv_path = tmp_path / "wide.csv"
    csv_path.write_text("t,y,a\n0,1,2\n1,3," + "0" * 200_000 + "1\n")
    _assert_one_line_data_error(_estimate_exit(tmp_path, csv_path), "wide.csv", "line 3")


@pytest.mark.parametrize("rest", ["", "\n\n", "\n \n"])
def test_estimate_no_data_rows_exit_3_without_a_warning(tmp_path, rest):
    csv_path = tmp_path / "empty.csv"
    csv_path.write_text("t,y,a\n" + rest)
    r = _estimate_exit(tmp_path, csv_path)
    _assert_one_line_data_error(r, "empty.csv: no data rows")
    assert "Warning" not in r.stderr


def _strict_json(text):
    def _refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=_refuse)


@pytest.mark.parametrize("command", ["estimate", "tree"])
def test_feature_span_beyond_the_float_range_runs(tmp_path, command):
    # max - min of column a overflows; the run ends without a traceback and
    # writes no NaN or infinity
    csv_path = tmp_path / "huge.csv"
    csv_path.write_text("t,y,a\n0,1,1e308\n1,2,-1e308\n0,3,1e308\n1,4,0\n")
    out = tmp_path / "out"
    r = run_cli(command, "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
                "--out", str(out))
    assert r.returncode in (0, 3), r.stderr
    assert "Traceback" not in r.stderr and "Warning" not in r.stderr
    for path in out.glob("*.json"):
        _strict_json(path.read_text())
    for path in out.glob("*.jsonl"):
        for line in path.read_text().splitlines():
            _strict_json(line)
    if command == "estimate":
        assert r.returncode == 0
        assert _strict_json((out / "report.json").read_text())["payload"]["att"] == 2.0


def _overflowing_outcomes_csv(tmp_path):
    # every treated-minus-control difference is -2e308, beyond the float range
    csv_path = tmp_path / "huge_y.csv"
    rows = [f"{k % 2},{'-1e308' if k % 2 else '1e308'},0.{k + 1}" for k in range(6)]
    csv_path.write_text("t,y,a\n" + "\n".join(rows) + "\n")
    return csv_path


@pytest.mark.parametrize("method", ["m5c-mf", "m5c-m", "naive", "strategies"])
def test_estimate_non_finite_effect_exit_3(tmp_path, method):
    out = tmp_path / "out"
    r = run_cli("estimate", "--input", str(_overflowing_outcomes_csv(tmp_path)),
                "--treatment", "t", "--outcome", "y", "--method", method, "--out", str(out))
    _assert_one_line_data_error(r, "not a finite number" if method != "strategies" else "float range")
    assert not out.exists() or not any(out.iterdir())


def test_tree_non_finite_fit_writes_no_nan(tmp_path):
    out = tmp_path / "out"
    r = run_cli("tree", "--input", str(_overflowing_outcomes_csv(tmp_path)),
                "--treatment", "t", "--outcome", "y", "--out", str(out))
    assert r.returncode in (0, 3), r.stderr
    assert "Traceback" not in r.stderr
    if r.returncode == 3:
        _assert_one_line_data_error(r, "tree.json")
    for path in out.glob("*.json"):
        _strict_json(path.read_text())


def test_tree_constant_outcomes_whose_sum_overflows_fit_exactly(tmp_path):
    # the three controls all have y = 1e308: their sum overflows, their mean
    # does not, so the root model is a perfect fit
    out = tmp_path / "out"
    r = run_cli("tree", "--input", str(_overflowing_outcomes_csv(tmp_path)),
                "--treatment", "t", "--outcome", "y", "--out", str(out))
    assert r.returncode == 0, r.stderr
    model = _strict_json((out / "tree.json").read_text())["root"]["model"]
    assert model["r2"] == model["r2_adj"] == 1.0


@pytest.mark.parametrize("method", ["m5c-mf", "m5c-m", "naive", "strategies"])
def test_overflowing_effect_prints_only_its_error_line(tmp_path, method):
    # the overflows on the way to the error are expected: no RuntimeWarning
    # or other text joins the log lines
    r = run_cli("estimate", "--input", str(_overflowing_outcomes_csv(tmp_path)),
                "--treatment", "t", "--outcome", "y", "--method", method,
                "--out", str(tmp_path / "out"))
    assert r.returncode == 3
    (line,) = [ln for ln in r.stderr.splitlines() if not ln.startswith("INFO ")]
    assert line.startswith("ERROR stratamatch.cli: data error: ")


@pytest.mark.parametrize("command", ["estimate", "tree"])
def test_outcomes_whose_squares_overflow_give_a_finite_sdr(tmp_path, command):
    # 8 rows with y in [1.2e200, 6e200): y * y passes the float range, and the
    # accepted root split's sdr is computed on y scaled by a power of two
    rng = np.random.default_rng(0)
    for _ in range(4):
        y, a = rng.uniform(1.2e200, 6e200, 8), rng.uniform(0, 1, 8)
    csv_path = tmp_path / "y6e200.csv"
    csv_path.write_text("t,y,a\n" + "".join(
        f"{k % 2},{float(y[k])!r},{float(a[k])!r}\n" for k in range(8)))
    out = tmp_path / "out"
    r = run_cli(command, "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "Warning" not in r.stderr
    root = _strict_json((out / "tree.json").read_text())["root"]
    assert 0.0 < root["split"]["sdr"] < 6e200


def _y5e307_csv(tmp_path):
    """60 rows, every third treated, y = 5e307 * a + t: 40 controls with y
    near 2.5e307, whose sum passes DBL_MAX while every effect is finite, and
    a feature weight near 5e307."""
    rng = np.random.default_rng(0)
    t = (np.arange(60) % 3 == 0).astype(int)
    a, b = rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)
    y = 5e307 * a + t
    csv_path = tmp_path / "y5e307.csv"
    csv_path.write_text("t,y,a,b\n" + "".join(
        f"{t[i]},{float(y[i])!r},{float(a[i])!r},{float(b[i])!r}\n" for i in range(60)))
    return csv_path


@pytest.mark.parametrize("method", ["naive", "strategies"])
def test_control_means_whose_sum_overflows_give_a_finite_att(tmp_path, method):
    out = tmp_path / "out"
    r = run_cli("estimate", "--input", str(_y5e307_csv(tmp_path)), "--treatment", "t",
                "--outcome", "y", "--method", method, "--out", str(out))
    assert r.returncode == 0, r.stderr
    att = _strict_json((out / "report.json").read_text())["payload"]["att"]
    assert att == 1.2603640039875318e+306


def test_match_objectives_past_the_float_range_exit_3(tmp_path):
    # the weight of a is near 5e307: the search ends, and six of the twenty
    # objectives a + m2 * eps are beyond the float range
    r = run_cli("estimate", "--input", str(_y5e307_csv(tmp_path)), "--treatment", "t",
                "--outcome", "y", "--out", str(tmp_path / "out"))
    _assert_one_line_data_error(r, "objective of treated row", "not a finite number")


def _inf_weight_csv(tmp_path):
    # the regression slope of y on a overflows, so the weight of a is inf
    csv_path = tmp_path / "inf_weight.csv"
    csv_path.write_text("t,y,a\n0,-1e308,0\n0,1e308,1\n1,-1e308,0\n1,1e308,1\n"
                        "0,-1e308,0\n0,1e308,1\n")
    return csv_path


def test_infinite_feature_weight_exit_3(tmp_path):
    # no distance to a control is defined
    r = run_cli("estimate", "--input", str(_inf_weight_csv(tmp_path)), "--treatment", "t",
                "--outcome", "y", "--out", str(tmp_path / "out"))
    _assert_one_line_data_error(r, "feature weights [inf] are not all finite numbers")


@pytest.mark.filterwarnings("error")
def test_infinite_feature_weight_model_form_warns_nothing(tmp_path, caplog):
    # the leaf model's prediction for the treated rows is nan; the run
    # refuses it without a RuntimeWarning on the way
    from stratamatch import cli

    code = cli.main(["estimate", "--input", str(_inf_weight_csv(tmp_path)), "--treatment", "t",
                     "--outcome", "y", "--method", "m5c-m", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "iatt of treated row 2 is nan" in caplog.text


@pytest.mark.filterwarnings("error")
def test_distances_past_the_float_range_shortlist_without_warnings(tmp_path):
    # both weights are near 1e308, so the distance of the last control
    # overflows; the treated unit's exact twin is still its match
    from stratamatch import cli

    csv_path = tmp_path / "near_overflow.csv"
    csv_path.write_text("t,y,x0,x1\n1,0,0,0\n" + "0,0,0,0\n" * 7
                        + "0,0,5e-324,5e-324\n0,1e308,0,5e-324\n")
    out = tmp_path / "out"
    code = cli.main(["estimate", "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
                     "--psi", "1", "--out", str(out)])
    assert code == 0
    assert _strict_json((out / "report.json").read_text())["payload"]["att"] == 0.0


_MAGNITUDES = [0.0, 5e-324, 1e-300, 1.0, 1e300, 1e308]


@st.composite
def _bad_tables(draw):
    """A ``t,y,x0..`` table of 4-60 rows with both groups present, whose
    outcome and feature cells are drawn from zero, subnormal, tiny, unit,
    huge and near-overflow magnitudes of either sign."""
    n, p = draw(st.integers(4, 60)), draw(st.integers(1, 3))
    cell = st.builds(lambda m, s: s * m, st.sampled_from(_MAGNITUDES), st.sampled_from([1, -1]))
    t = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    t[0], t[1] = 1, 0
    rows = draw(st.lists(st.lists(cell, min_size=p + 1, max_size=p + 1), min_size=n, max_size=n))
    header = ",".join(["t", "y"] + [f"x{j}" for j in range(p)])
    return header + "\n" + "".join(
        ",".join([str(t[i])] + [repr(float(v)) for v in rows[i]]) + "\n" for i in range(n))


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_bad_tables(), st.sampled_from([1, 2, 4, 6]))
def test_any_table_ends_in_a_documented_exit_code(table, psi):
    # every method either writes strict JSON or exits 2, 3 or 4; no
    # exception escapes main
    from stratamatch import cli

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "table.csv"
        csv_path.write_text(table)
        for method in ("m5c-mf", "m5c-m", "naive", "strategies"):
            out = Path(tmp) / method
            code = cli.main(["estimate", "--input", str(csv_path), "--treatment", "t",
                             "--outcome", "y", "--method", method, "--psi", str(psi),
                             "--out", str(out)])
            assert code in (0, 2, 3, 4)
            for path in out.glob("*.json"):
                _strict_json(path.read_text())
            for path in out.glob("*.jsonl"):
                for line in path.read_text().splitlines():
                    _strict_json(line)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(_bad_tables(), st.sampled_from([1, 2, 4, 6]))
def test_balance_of_any_table_ends_in_a_documented_exit_code(table, psi):
    # balance on the audit of every default run that exits 0
    from stratamatch import cli

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "table.csv"
        csv_path.write_text(table)
        data = ["--input", str(csv_path), "--treatment", "t", "--outcome", "y"]
        run = Path(tmp) / "run"
        if cli.main(["estimate", *data, "--psi", str(psi), "--out", str(run)]) != 0:
            return
        out = Path(tmp) / "balance"
        code = cli.main(["balance", *data, "--audit", str(run / "audit.jsonl"),
                         "--out", str(out)])
        assert code in (0, 2, 3, 4)
        for path in out.glob("*.json"):
            _strict_json(path.read_text())


def _repro_balance_csv(tmp_path, name):
    # 60 rows; column b spans the float range, column c two subnormal ulps
    rng = np.random.default_rng(0)
    t = np.zeros(60, dtype=int)
    t[::3] = 1
    a = rng.random(60)
    y = a + t
    if name == "b":
        col = a.copy()
        col[0], col[1] = -1e308, 1e308
    else:
        col = np.zeros(60)
        col[5], col[7] = 5e-324, 1e-323
    csv_path = tmp_path / f"{name}.csv"
    csv_path.write_text(f"t,y,a,{name}\n" + "".join(
        f"{t[i]},{float(y[i])!r},{float(a[i])!r},{float(col[i])!r}\n" for i in range(60)))
    return csv_path


@pytest.mark.parametrize("name, span", [("b", "[-1e+308, 1e+308]"), ("c", "[0.0, 1e-323]")])
def test_balance_of_a_range_that_cannot_be_binned_exit_3(tmp_path, name, span):
    data = ["--input", str(_repro_balance_csv(tmp_path, name)), "--treatment", "t",
            "--outcome", "y"]
    r = run_cli("estimate", *data, "--out", str(tmp_path / "run"))
    assert r.returncode == 0, r.stderr
    r = run_cli("balance", *data, "--audit", str(tmp_path / "run" / "audit.jsonl"),
                "--out", str(tmp_path / "balance"))
    assert r.returncode == 3
    (line,) = [ln for ln in r.stderr.splitlines() if not ln.startswith("INFO ")]
    assert line.startswith(f"ERROR stratamatch.cli: data error: feature '{name}'")
    assert span in line and "bins=20" in line
    assert not (tmp_path / "balance").exists()


def _treated_at_1e308(tmp_path):
    """A 6-row ``t,y,a`` file whose two treated rows have ``a = 1e308``, and
    an audit that matches them: the sum of their ``a`` passes the float
    range, their mean does not."""
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("t,y,a\n1,1,1e308\n1,2,1e308\n0,1,0\n0,2,1\n0,3,0.5\n0,1,0.2\n")
    audit = tmp_path / "audit.jsonl"
    audit.write_text('{"treated_row": 0, "matched_rows": [2]}\n'
                     '{"treated_row": 1, "matched_rows": [3, 4]}\n')
    return ["balance", "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
            "--audit", str(audit), "--out", str(tmp_path / "balance")]


def test_balance_of_a_finite_mean_whose_sum_overflows_exit_0(tmp_path):
    r = run_cli(*_treated_at_1e308(tmp_path))
    assert r.returncode == 0, r.stderr
    blob = _strict_json((tmp_path / "balance" / "balance.json").read_text())
    for scope in ("pre", "post"):
        (row,) = blob[scope]["features"]
        assert row["mean_treated"] == 1e308
    assert blob["pre"]["features"][0]["mean_control"] == 0.425
    assert blob["post"]["features"][0]["mean_control"] == 0.375


def test_balance_variance_ratio_of_a_constant_side_at_1e308_is_zero(tmp_path):
    # the treated a = [1e308, 1e308] has variance 0, so the ratio is 0, though
    # np.var overflows and the control variance underflows at the treated scale
    r = run_cli(*_treated_at_1e308(tmp_path))
    assert r.returncode == 0, r.stderr
    blob = _strict_json((tmp_path / "balance" / "balance.json").read_text())
    for scope in ("pre", "post"):
        (row,) = blob[scope]["features"]
        assert (row["variance_ratio"], row["vr_in_range"]) == (0.0, False)
    text = (tmp_path / "balance" / "balance.txt").read_text()
    assert text.count("   0.0000   OUT ") == 2


def test_balance_of_no_finite_smd_prints_n_a(tmp_path, caplog):
    # both reports' only SMD is infinite: their mean |SMD| is undefined, which
    # the JSON writes as null and the text and the log as n/a, not nan
    from stratamatch import cli

    caplog.set_level(logging.INFO)
    assert cli.main(_treated_at_1e308(tmp_path)) == 0
    blob = _strict_json((tmp_path / "balance" / "balance.json").read_text())
    for scope in ("pre", "post"):
        assert (blob[scope]["mean_abs_smd"], blob[scope]["worst_smd"]) == (None, "inf")
    text = (tmp_path / "balance" / "balance.txt").read_text()
    assert text.count("mean |SMD| = n/a   worst = inf\n") == 2
    assert "nan" not in text
    assert any("pre mean |SMD| n/a -> post n/a;" in r.getMessage() for r in caplog.records)


def test_balance_with_a_non_finite_number_writes_no_file(tmp_path, monkeypatch, caplog):
    # no finite input gives a non-finite number any more, so a metric is made one
    from stratamatch import balance, cli

    monkeypatch.setattr(balance, "_ks_sorted", lambda *args: math.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(_treated_at_1e308(tmp_path))
    assert rc == 3
    (line,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert line.startswith("data error: cannot write ")
    assert "balance.json" in line and "Out of range float" in line
    assert not (tmp_path / "balance").exists()


@pytest.mark.parametrize("command, refused", [
    ("estimate", "report.json"), ("tree", "tree.json"), ("bench", "summary.json"),
])
def test_a_refused_artifact_leaves_no_out(tmp_path, data_csv, monkeypatch, caplog,
                                          command, refused):
    # one artifact is made to hold a NaN: every text is formed before the
    # first file is written, so the files formed before it are not written
    from stratamatch import bench, cli, tree

    payload = cli._report_payload
    monkeypatch.setattr(*{
        "estimate": (cli, "_report_payload", lambda *a: {**payload(*a), "att": math.nan}),
        "tree": (tree, "tree_to_dict", lambda model: {"nan": math.nan}),
        "bench": (bench, "summary_to_dict", lambda result: {"nan": math.nan}),
    }[command])
    io = ["--input", str(data_csv), "--treatment", "t", "--outcome", "y"]
    argv = {"estimate": io, "tree": io,
            "bench": ["--replications", "1", "--methods", "naive"]}[command]
    out = tmp_path / "out"
    assert cli.main([command, *argv, "--out", str(out)]) == 3
    (line,) = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert line.startswith(f"data error: cannot write {out / refused}: Out of range float")
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "tree"])
def test_outcomes_near_1e200_fit_a_finite_r2(tmp_path, command):
    # the outcomes' sums of squares pass the float range, their ratio does not:
    # the root model's r2 is finite, so the run writes its tree and exits 0
    csv_path = tmp_path / "y1e200.csv"
    csv_path.write_text(
        "t,y,a,b\n0,3.577e+200,0.805,0.808\n1,2.917e+200,0.286,0.054\n"
        "0,1.244e+200,0.408,0.045\n1,2.173e+200,0.999,0.652\n0,5.488e+200,0.435,0.974\n"
        "1,3.465e+200,0.844,0.392\n0,3.778e+200,0.677,0.061\n1,1.321e+200,0.271,0.880\n"
    )
    out = tmp_path / "out"
    r = run_cli(command, "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    model = _strict_json((out / "tree.json").read_text())["root"]["model"]
    assert 0.0 <= model["r2"] <= 1.0
    if command == "estimate":
        assert _strict_json((out / "report.json").read_text())["payload"]["att"] < 0.0


def test_estimate_directory_input_exit_3(tmp_path):
    folder = tmp_path / "folder.csv"
    folder.mkdir()
    _assert_one_line_data_error(_estimate_exit(tmp_path, folder), "folder.csv")


def test_estimate_repeated_column_exit_3(tmp_path):
    csv_path = tmp_path / "dup.csv"
    csv_path.write_text("t,y,y\n0,1,2\n1,3,4\n0,2,2\n1,4,4\n")
    _assert_one_line_data_error(_estimate_exit(tmp_path, csv_path), "dup.csv", "'y'")


def _assert_one_column_exit_2(tmp_path, data_csv, command, *extra):
    argv = [command, "--input", str(data_csv), "--treatment", "t", "--outcome", "t",
            "--out", str(tmp_path / "x"), *extra]
    if command == "balance":
        argv += ["--audit", str(tmp_path / "audit.jsonl")]
    r = run_cli(*argv)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    (line,) = [ln for ln in r.stderr.splitlines() if ln.startswith("ERROR")]
    assert "configuration error" in line and "'t'" in line
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["estimate", "balance", "tree"])
def test_treatment_and_outcome_naming_one_column_exit_2(tmp_path, data_csv, command):
    _assert_one_column_exit_2(tmp_path, data_csv, command)


@pytest.mark.parametrize("command", ["estimate", "balance", "tree"])
def test_dry_run_treatment_and_outcome_naming_one_column_exit_2(tmp_path, data_csv, command):
    # a dry run checks the columns as the real run does, before the paths
    _assert_one_column_exit_2(tmp_path, data_csv, command, "--dry-run")


_PIPELINE_FLAGS = {"--config", "--lambda", "--theta", "--psi", "--m2", "--max-depth"}
_SETTING_FLAGS = {
    "estimate": _PIPELINE_FLAGS,
    "bench": _PIPELINE_FLAGS | {"--seed"},
    "tree": {"--config", "--lambda", "--theta", "--max-depth"},
    "balance": {"--bins"},
    "gen": {"--seed"},
}


def test_each_subcommand_takes_only_the_settings_it_reads():
    from stratamatch import cli
    from stratamatch.config import PipelineConfig

    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_SETTING_FLAGS)
    settings = _PIPELINE_FLAGS | {"--seed", "--bins"}
    for name, parser in sub.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        assert flags & settings == _SETTING_FLAGS[name], name
    assert sum(map(len, _SETTING_FLAGS.values())) == 19
    attrs = {f.name for f in fields(PipelineConfig)}
    assert attrs == set(cli._CFG_KEYS.values())
    assert attrs == {"lambda_", "theta", "psi", "m2", "max_depth"}


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--seed", "-1"],
        ["gen", "--seed", str(2**64)],
        ["gen", "--seed", "banana"],
        ["bench", "--seed", "-1"],
        ["balance", "--bins", "0", "--input", "d.csv", "--treatment", "t", "--outcome", "y",
         "--audit", "audit.jsonl"],
    ],
)
def test_bad_seed_or_bins_is_usage_error(tmp_path, argv):
    from stratamatch import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, argv", [
    ("--bins", ["balance", "--bins", "100000000000"]),
    ("--n-treated", ["gen", "--preset", "hyb20var", "--n-treated", "100000000000"]),
    ("--n-control", ["gen", "--preset", "hyb20var", "--n-control", "100000000000"]),
], ids=["bins", "n-treated", "n-control"])
def test_a_size_too_large_to_allocate_is_a_configuration_error(tmp_path, data_csv, flag, argv):
    # numpy refuses these sizes before it touches any memory
    if argv[0] == "balance":
        io = ["--input", str(data_csv), "--treatment", "t", "--outcome", "y"]
        assert run_cli("estimate", *io, "--out", str(tmp_path / "run")).returncode == 0
        argv = [*argv, *io, "--audit", str(tmp_path / "run" / "audit.jsonl")]
    r = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    errors = [line for line in r.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1 and "configuration error" in errors[0] and flag in errors[0]
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "out").exists()


def test_estimate_issues_no_warning(tmp_path, data_csv):
    from stratamatch import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([
            "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
            "--method", "m5c-mf", "--out", str(tmp_path / "run"),
        ])
    assert rc == 0


def test_estimate_unknown_method_exit_2(tmp_path, data_csv):
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--method", "zzz", "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 2


def test_unknown_method_names_the_choices(tmp_path, data_csv):
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--method", "zzz", "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 2 and "Traceback" not in r.stderr
    (line,) = [ln for ln in r.stderr.splitlines() if ln.startswith("ERROR")]
    assert "configuration error: unknown method 'zzz'" in line and "m5c-mf" in line


def test_method_help_names_every_estimator():
    from stratamatch import cli
    from stratamatch.estimation import ESTIMATORS

    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    (method,) = [a for a in sub.choices["estimate"]._actions if a.dest == "method"]
    assert all(name in method.help for name in ESTIMATORS)


def test_estimate_bad_flag_value_exit_2(tmp_path, data_csv):
    for flag, value in (("--psi", "0"), ("--psi", "banana"), ("--m2", "inf"),
                        ("--m2", "nan"), ("--lambda", "nan"), ("--lambda", "inf")):
        r = run_cli(
            "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
            flag, value, "--out", str(tmp_path / "x"),
        )
        assert r.returncode == 2, (flag, value, r.stderr)
        assert "Traceback" not in r.stderr


def test_dry_run_validates_without_writing(tmp_path, data_csv):
    out = tmp_path / "dry"
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--dry-run", "--out", str(out),
    )
    assert r.returncode == 0
    assert not out.exists()


def test_config_file_applies_and_flags_win(tmp_path, data_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# pipeline settings\npsi = 5\nmax_depth = 3\nmethod = m5c-mf\n")
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--config", str(cfg), "--psi", "7", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert payload["config"]["psi"] == 7
    assert payload["config"]["max_depth"] == 3
    assert payload["method"] == "m5c-mf"


@pytest.mark.parametrize(
    "key", ["zeta", "m1", "threads", "per_leaf_weights", "global_candidates", "seed", "bins"]
)
def test_config_file_unknown_key_exit_2(tmp_path, data_csv, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = 1\n")
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--config", str(cfg), "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 2
    assert "unknown key" in r.stderr


def test_node_budget_flag_is_usage_error(tmp_path, data_csv):
    from stratamatch import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
                  "--node-budget", "5", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_config_file_node_budget_none_is_accepted(tmp_path, data_csv):
    # older config files name the removed budget; 'none' changes nothing
    cfg = tmp_path / "run.cfg"
    cfg.write_text("node_budget = none\n")
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--config", str(cfg), "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    config = json.loads((out / "report.json").read_text())["payload"]["config"]
    assert set(config) == {"lambda_", "theta", "psi", "m2", "max_depth", "method"}


def test_config_file_node_budget_number_exit_2(tmp_path, data_csv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("node_budget = 50\n")
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--config", str(cfg), "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    (line,) = [ln for ln in r.stderr.splitlines() if ln.startswith("ERROR")]
    assert "'node_budget' was removed" in line and "exhaustive" in line
    assert not (tmp_path / "x").exists()


def test_config_file_bad_value_exit_2(tmp_path, data_csv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("psi = banana\n")
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--config", str(cfg), "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 2


@pytest.mark.parametrize("content", [None, b"psi = 5 # caf\xe9\n"])
def test_config_file_unreadable_exit_2(tmp_path, data_csv, content):
    # a directory, then a file that is not UTF-8
    cfg = tmp_path / "run.cfg"
    if content is None:
        cfg.mkdir()
    else:
        cfg.write_bytes(content)
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--config", str(cfg), "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    (line,) = [ln for ln in r.stderr.splitlines() if ln.startswith("ERROR")]
    assert "configuration error" in line and str(cfg) in line


@pytest.mark.parametrize("method", ["m5c-mf", "m5c-m", "strategies"])
def test_estimate_grows_the_tree_once(tmp_path, data_csv, monkeypatch, method):
    from stratamatch import cli, estimation

    calls = []
    build_tree = estimation.build_tree

    def counting(*args, **kwargs):
        calls.append(1)
        return build_tree(*args, **kwargs)

    monkeypatch.setattr(estimation, "build_tree", counting)
    rc = cli.main([
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--method", method, "--out", str(tmp_path / "run"),
    ])
    assert rc == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [("estimate", "--method", "m5c-mf"),
                                  ("estimate", "--method", "m5c-m"),
                                  ("estimate", "--method", "strategies"),
                                  ("tree",)], ids=lambda a: a[-1])
def test_raw_features_are_freed_before_the_tree_grows(tmp_path, data_csv, monkeypatch, argv):
    # neither the loaded nor the normalized feature matrix outlives the split
    import weakref

    from stratamatch import cli, dataset, estimation

    raw, normalized = [], []
    load_dataset, build_tree = dataset.load_dataset, estimation.build_tree
    normalize_min_max = dataset.normalize_min_max

    def loading(*args, **kwargs):
        d = load_dataset(*args, **kwargs)
        raw.append(weakref.ref(d.x))
        return d

    def normalizing(d):
        dn = normalize_min_max(d)
        normalized.append(weakref.ref(dn.x))
        return dn

    def building(*args, **kwargs):
        gc.collect()
        assert raw and raw[0]() is None, "the raw feature matrix is still alive"
        assert normalized and all(ref() is None for ref in normalized), \
            "the normalized feature matrix is still alive"
        return build_tree(*args, **kwargs)

    monkeypatch.setattr(dataset, "load_dataset", loading)
    monkeypatch.setattr(dataset, "normalize_min_max", normalizing)
    monkeypatch.setattr(estimation, "normalize_min_max", normalizing)
    monkeypatch.setattr(estimation, "build_tree", building)
    rc = cli.main([*argv, "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
                   "--out", str(tmp_path / "run")])
    assert rc == 0


@pytest.mark.parametrize("method", ["m5c-mf", "m5c-m", "naive", "strategies"])
def test_artifacts_describe_the_input_dataset(tmp_path, data_csv, method):
    # the report carries the dataset's facts that the artifacts print; on
    # 0/1 outcomes every stratum of the strategies also holds the 1:1 effect
    from stratamatch import cli

    rows = [line.split(",") for line in data_csv.read_text().splitlines()]
    header, body = rows[0], rows[1:]
    ys = sorted(float(row[1]) for row in body)
    for row in body:
        row[1] = "1" if float(row[1]) > ys[len(ys) // 2] else "0"
    csv_path = tmp_path / "binary.csv"
    csv_path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    n_treated = sum(row[0] == "1" for row in body)
    out = tmp_path / "run"
    assert cli.main(["estimate", "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
                     "--method", method, "--out", str(out)]) == 0
    payload = _strict_json((out / "report.json").read_text())["payload"]
    assert payload["dataset"] == {
        "n": len(body), "p": len(header) - 2, "n_treated": n_treated,
        "n_control": len(body) - n_treated, "feature_names": header[2:],
    }
    assert (f"dataset       n={len(body)} p={len(header) - 2} treated={n_treated} "
            f"control={len(body) - n_treated}\n") in (out / "summary.txt").read_text()
    if method == "strategies":
        assert payload["strata"] and all("att_1to1" in s for s in payload["strata"])


def _leaf_ids(node):
    if "split" not in node:
        return {node["id"]}
    return _leaf_ids(node["left"]) | _leaf_ids(node["right"])


def test_audit_leaves_are_leaves_of_exported_tree(tmp_path, data_csv):
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    leaves = _leaf_ids(json.loads((out / "tree.json").read_text())["root"])
    audit = [json.loads(line) for line in (out / "audit.jsonl").read_text().splitlines()]
    used = {rec["leaf"] for rec in audit if "leaf" in rec}
    assert used and used <= leaves


def test_balance_flow(tmp_path, data_csv):
    run_dir = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--out", str(run_dir),
    )
    assert r.returncode == 0, r.stderr
    bal_dir = tmp_path / "bal"
    r = run_cli(
        "balance", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--audit", str(run_dir / "audit.jsonl"), "--out", str(bal_dir),
    )
    assert r.returncode == 0, r.stderr
    blob = json.loads((bal_dir / "balance.json").read_text())
    assert set(blob) == {"pre", "post"}
    text = (bal_dir / "balance.txt").read_text()
    assert "pre" in text and "post" in text


def test_balance_missing_audit_exit_3(tmp_path, data_csv):
    r = run_cli(
        "balance", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--audit", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "bal"),
    )
    assert r.returncode == 3


# rows 13 and 17 of data_csv are treated, rows 0, 1 and 2 controls
_MATCH = '{"treated_row": 13, "matched_rows": [1, 2]}'


@pytest.mark.parametrize("lines, parts", [
    ([_MATCH, "not json"], ["line 2"]),
    ([_MATCH, '{"treated_row": 0, "matched_rows": [999999]}'], ["line 2", "999999"]),
    ([_MATCH, '{"treated_row": 999999, "matched_rows": [1]}'], ["line 2", "999999"]),
    ([_MATCH, '{"matched_rows": [1]}'], ["line 2", "treated_row"]),
    ([_MATCH, '{"treated_row": 0, "matched_rows": ["x"]}'], ["line 2", "'x'"]),
    (['{"treated_row": 0, "skipped": "no candidates"}'], ["no matched control sets"]),
    ([_MATCH, '{"treated_row": 0, "matched_rows": [1]}'], ["line 2", "treated_row 0",
                                                          "control unit"]),
    ([_MATCH, '{"treated_row": 17, "matched_rows": [1, 13]}'], ["line 2", "matched row 13",
                                                                "treated unit"]),
])
def test_balance_bad_audit_exit_3(tmp_path, data_csv, lines, parts):
    audit = tmp_path / "audit.jsonl"
    audit.write_text("\n".join(lines) + "\n")
    r = run_cli(
        "balance", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--audit", str(audit), "--out", str(tmp_path / "bal"),
    )
    _assert_one_line_data_error(r, str(audit), *parts)
    assert not (tmp_path / "bal").exists()


@pytest.mark.parametrize("command, out", [
    ("estimate", "file"), ("estimate", "file/sub"), ("balance", "file"), ("tree", "file"),
    ("bench", "file"), ("gen", "dir"),
])
def test_unusable_out_exit_2(tmp_path, data_csv, command, out):
    """An ``--out`` that names an existing file, a path under one or, for
    ``gen``, a directory ends in one configuration error line; ``estimate``,
    ``tree`` and ``bench`` end before they read any input or run any
    replication."""
    (tmp_path / "file").write_text("kept\n")
    (tmp_path / "dir").mkdir()
    audit = tmp_path / "audit.jsonl"
    audit.write_text(_MATCH + "\n")
    io = ["--input", str(data_csv), "--treatment", "t", "--outcome", "y"]
    argv = {
        "estimate": io,
        "balance": [*io, "--audit", str(audit)],
        "tree": io,
        "bench": ["--replications", "1", "--methods", "naive"],
        "gen": ["--n-treated", "5", "--n-control", "20"],
    }[command]
    r = run_cli(command, *argv, "--out", str(tmp_path / out))
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    (line,) = [ln for ln in r.stderr.splitlines() if ln.startswith("ERROR")]
    assert f"configuration error: cannot write --out {tmp_path / out}" in line
    if command in ("estimate", "tree", "bench"):
        assert not [ln for ln in r.stderr.splitlines()
                    if ln.startswith("INFO") and ("loaded" in ln or "replication" in ln)]
    assert (tmp_path / "file").read_text() == "kept\n"
    assert not any((tmp_path / "dir").iterdir())


def test_tree_export(tmp_path, data_csv):
    out = tmp_path / "tree"
    r = run_cli(
        "tree", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    blob = json.loads((out / "tree.json").read_text())
    assert "root" in blob and "feature_scaling" in blob
    assert (out / "tree_rules.txt").read_text().strip()


@pytest.mark.parametrize("method", ["m5c-mf", "m5c-m", "strategies"])
def test_estimate_writes_the_tree_files_that_tree_writes(tmp_path, data_csv, method):
    # an estimate's thresholds are in normalized units; its tree.json carries
    # the scaling that maps them back to raw units, as tree's does
    from stratamatch import cli

    io = ["--input", str(data_csv), "--treatment", "t", "--outcome", "y"]
    assert cli.main(["tree", *io, "--out", str(tmp_path / "tree")]) == 0
    assert cli.main(["estimate", *io, "--method", method, "--out", str(tmp_path / "est")]) == 0
    for name in ("tree.json", "tree_rules.txt"):
        assert (tmp_path / "est" / name).read_bytes() == (tmp_path / "tree" / name).read_bytes()
    assert len(json.loads((tmp_path / "est" / "tree.json").read_text())["feature_scaling"]) == 20


def test_bench_bias_artifacts(tmp_path):
    out = tmp_path / "bench"
    r = run_cli(
        "bench", "--study", "bias", "--preset", "hyb20var-desk", "--replications", "2",
        "--methods", "naive,strategies", "--seed", "1", "--out", str(out),
        "--config", "/dev/null",
    )
    assert r.returncode == 0, r.stderr
    lines = (out / "records.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2
    blob = json.loads((out / "summary.json").read_text())
    assert blob["kind"] == "bias"
    assert set(blob["methods"]) == {"naive", "strategies"}


def test_bench_bootstrap_needs_sample_size(tmp_path):
    r = run_cli(
        "bench", "--study", "bootstrap", "--replications", "2",
        "--methods", "naive", "--out", str(tmp_path / "b"),
    )
    assert r.returncode == 2


def test_bench_bias_refuses_a_treated_sample(tmp_path, monkeypatch, caplog):
    # the flag belongs to the bootstrap study: the bias study refuses it
    # before it draws any data or makes --out
    from stratamatch import bench, cli

    def no_draw(*args):
        raise AssertionError("the bias study drew data")

    monkeypatch.setattr(bench, "generate_hyb20var", no_draw)
    out = tmp_path / "b"
    rc = cli.main(["bench", "--study", "bias", "--treated-sample", "5", "--replications", "1",
                   "--methods", "naive", "--out", str(out)])
    assert rc == 2
    (error,) = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
    assert error.startswith("configuration error") and "--treated-sample" in error
    assert not out.exists()


def test_bench_unknown_preset_exit_2(tmp_path):
    r = run_cli(
        "bench", "--preset", "nope", "--replications", "1",
        "--methods", "naive", "--out", str(tmp_path / "b"),
    )
    assert r.returncode == 2


def test_bench_unknown_method_exit_2(tmp_path):
    r = run_cli(
        "bench", "--replications", "1", "--methods", "naive,zzz",
        "--out", str(tmp_path / "b"),
    )
    assert r.returncode == 2


def test_tab_separated_input(tmp_path):
    csv_path = tmp_path / "d.tsv"
    csv_path.write_text(
        "t\ty\ta\tb\n" + "\n".join(
            f"{i % 2}\t{i / 7}\t{i}\t{i * 2}" for i in range(40)
        ) + "\n"
    )
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
        "--tab", "--method", "naive", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr


def test_encode_categoricals_flow(tmp_path):
    csv_path = tmp_path / "d.csv"
    rows = ["t,y,group,a"]
    for i in range(40):
        rows.append(f"{i % 2},{i / 3},{'north' if i % 3 else 'south'},{i}")
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
        "--encode-categoricals", "--method", "naive", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert "group=north" in payload["dataset"]["feature_names"]


def test_estimate_minimal_six_row_dataset(tmp_path):
    csv_path = tmp_path / "six.csv"
    csv_path.write_text(
        "t,y,a\n"
        "1,5.0,0.2\n"
        "1,6.0,0.8\n"
        "0,1.0,0.1\n"
        "0,2.0,0.4\n"
        "0,3.0,0.6\n"
        "0,4.0,0.9\n"
    )
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
        "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["n_used"] == 2
    tree = json.loads((out / "tree.json").read_text())
    assert "split" not in tree["root"]  # 4 controls can only make one leaf
    audit = [json.loads(line) for line in (out / "audit.jsonl").read_text().splitlines()]
    assert len(audit) == 2
    for rec in audit:
        assert rec.get("matched_rows"), rec


def test_balance_pre_report_random_assignment(tmp_path):
    # treatment in the generator is independent of the covariates, so the
    # raw groups should already look balanced at this sample size
    csv_path = tmp_path / "mid.csv"
    r = run_cli(
        "gen", "--preset", "hyb20var-desk", "--n-treated", "40", "--n-control", "800",
        "--seed", "7", "--out", str(csv_path),
    )
    assert r.returncode == 0, r.stderr
    run_dir = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
        "--out", str(run_dir),
    )
    assert r.returncode == 0, r.stderr
    bal_dir = tmp_path / "bal"
    r = run_cli(
        "balance", "--input", str(csv_path), "--treatment", "t", "--outcome", "y",
        "--audit", str(run_dir / "audit.jsonl"), "--out", str(bal_dir),
    )
    assert r.returncode == 0, r.stderr
    pre = json.loads((bal_dir / "balance.json").read_text())["pre"]
    assert pre["scope"] == "pre"
    assert pre["n_treated"] == 40 and pre["n_control"] == 800
    assert pre["mean_abs_smd"] < 0.25


_IN_PROCESS = """
import sys
from stratamatch import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.exit(code)
"""


def _entry_and_main(tmp_path, *argv, sink="pipes"):
    """``python -m stratamatch argv`` and ``cli.main(argv)``, each in a fresh
    interpreter and writing to its own ``out`` directory: the exit code and
    the bytes of stdout and stderr, with that directory's path replaced by
    ``OUT``. ``sink`` sends the two streams to two pipes, to two files, or
    both to one file (then stdout holds both, in the order written, and
    stderr is empty). Both run with Python's default buffering of the
    streams."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    runs = []
    for name, head in (("entry", ["-m", "stratamatch"]), ("main", ["-c", _IN_PROCESS])):
        out = tmp_path / name
        args = [a.replace("{out}", str(out)) for a in argv]
        cmd = [sys.executable, *head, *args]
        if sink == "pipes":
            r = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
            streams = r.stdout, r.stderr
        else:
            paths = tmp_path / f"{name}.stdout", tmp_path / f"{name}.stderr"
            with open(paths[0], "wb") as stdout, open(paths[1], "wb") as stderr:
                r = subprocess.run(cmd, stdout=stdout, env=env,
                                   stderr=stdout if sink == "one_file" else stderr, timeout=300)
            streams = paths[0].read_bytes(), paths[1].read_bytes()
        runs.append((r.returncode, *(s.replace(str(out).encode(), b"OUT") for s in streams)))
    return runs


_EXITS = pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["estimate", "--out", "{out}"], 2),
    (["estimate", "--input", "{data}", "--treatment", "t", "--outcome", "y", "--psi", "0",
      "--out", "{out}"], 2),
    (["estimate", "--input", "{out}/missing.csv", "--treatment", "t", "--outcome", "y",
      "--out", "{out}"], 3),
], ids=["version", "help", "usage", "config", "data"])


def _exits_as_main_returns(tmp_path, data_csv, argv, code, sink):
    argv = [a.replace("{data}", str(data_csv)) for a in argv]
    entry, main = _entry_and_main(tmp_path, *argv, sink=sink)
    assert entry == main
    assert entry[0] == code
    assert entry[1] + entry[2]  # every case writes something
    assert b"Traceback" not in entry[2]


@_EXITS
def test_entry_point_exits_as_main_returns(tmp_path, data_csv, argv, code):
    _exits_as_main_returns(tmp_path, data_csv, argv, code, "pipes")


@_EXITS
@pytest.mark.parametrize("sink", ["files", "one_file"])
def test_entry_point_writes_to_files_as_main_does(tmp_path, data_csv, argv, code, sink):
    _exits_as_main_returns(tmp_path, data_csv, argv, code, sink)


def _estimate_writes_what_main_writes(tmp_path, data_csv, sink):
    entry, main = _entry_and_main(tmp_path, "estimate", "--input", str(data_csv),
                                  "--treatment", "t", "--outcome", "y", "--out", "{out}",
                                  sink=sink)
    assert entry == main and entry[0] == 0
    assert b"att = " in entry[1] + entry[2]
    for name in ("audit.jsonl", "summary.txt", "tree.json", "tree_rules.txt"):
        assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()
    payloads = [json.loads((tmp_path / side / "report.json").read_text())["payload"]
                for side in ("entry", "main")]
    assert payloads[0] == payloads[1]


def test_entry_point_estimate_writes_what_main_writes(tmp_path, data_csv):
    _estimate_writes_what_main_writes(tmp_path, data_csv, "pipes")


@pytest.mark.parametrize("sink", ["files", "one_file"])
def test_entry_point_estimate_writes_to_files_what_main_writes(tmp_path, data_csv, sink):
    _estimate_writes_what_main_writes(tmp_path, data_csv, sink)


class _Exited(Exception):
    pass


@pytest.mark.parametrize("argv, code", [(["--version"], 0), (["--no-such-flag"], 2)],
                         ids=["version", "usage"])
def test_run_flushes_then_leaves_through_os_exit(monkeypatch, capsys, argv, code):
    from stratamatch import cli

    calls = []

    def leaving(status):
        calls.append(("exit", status))
        raise _Exited

    monkeypatch.setattr(sys, "argv", ["stratamatch", *argv])
    monkeypatch.setattr(logging, "shutdown", lambda: calls.append(("logging",)))
    monkeypatch.setattr(cli.os, "_exit", leaving)
    with pytest.raises(_Exited):
        cli.run()
    assert calls == [("logging",), ("exit", code)]
    out = capsys.readouterr()
    assert ("stratamatch" in out.out) == (code == 0)
    assert ("usage:" in out.err) == (code == 2)


@pytest.mark.parametrize("raised, status, stderr", [(None, 0, ""), (3, 3, ""),
                                                    ("a message", 1, "a message\n")],
                         ids=["none", "int", "str"])
def test_run_exits_with_a_system_exit_code_as_the_interpreter_does(monkeypatch, capsys,
                                                                   raised, status, stderr):
    from stratamatch import cli

    def main():
        raise SystemExit(raised)

    def leaving(code):
        raise _Exited(code)

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(cli.os, "_exit", leaving)
    with pytest.raises(_Exited) as exc:
        cli.run()
    assert exc.value.args == (status,)
    assert capsys.readouterr().err == stderr


def test_run_passes_any_other_exception_through(monkeypatch):
    from stratamatch import cli

    def main():
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "main", main)
    monkeypatch.setattr(cli.os, "_exit", lambda code: pytest.fail("os._exit was called"))
    with pytest.raises(RuntimeError, match="a bug"):
        cli.run()


def test_installed_command_runs_the_entry_function():
    import importlib
    from pathlib import Path

    from stratamatch import cli

    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    module, name = project["project"]["scripts"]["stratamatch"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.run
