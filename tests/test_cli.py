import json
import subprocess
import sys

import numpy as np
import pytest


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
        "--method", "m5c-mf", "--seed", "11", "--out", str(out),
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


def test_estimate_unknown_method_exit_2(tmp_path, data_csv):
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--method", "zzz", "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 2


def test_estimate_bad_flag_value_exit_2(tmp_path, data_csv):
    for flag, value in (("--psi", "0"), ("--node-budget", "banana")):
        r = run_cli(
            "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
            flag, value, "--out", str(tmp_path / "x"),
        )
        assert r.returncode == 2, (flag, value)


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
    cfg.write_text("# pipeline settings\npsi = 5\nseed = 11\nnode_budget = 50\nmethod = m5c-mf\n")
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--config", str(cfg), "--psi", "7", "--node-budget", "none", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert payload["config"]["psi"] == 7
    assert payload["config"]["solver_node_budget"] is None
    assert payload["config"]["seed"] == 11
    assert payload["method"] == "m5c-mf"


@pytest.mark.parametrize(
    "key", ["zeta", "m1", "threads", "per_leaf_weights", "global_candidates"]
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


def test_config_file_bad_value_exit_2(tmp_path, data_csv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("psi = banana\n")
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--config", str(cfg), "--out", str(tmp_path / "x"),
    )
    assert r.returncode == 2


@pytest.mark.filterwarnings("ignore::stratamatch.errors.HierarchyBoundWarning")
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


def _leaf_ids(node):
    if "split" not in node:
        return {node["id"]}
    return _leaf_ids(node["left"]) | _leaf_ids(node["right"])


def test_audit_leaves_are_leaves_of_exported_tree(tmp_path, data_csv):
    out = tmp_path / "run"
    r = run_cli(
        "estimate", "--input", str(data_csv), "--treatment", "t", "--outcome", "y",
        "--seed", "11", "--out", str(out),
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
        "--seed", "11", "--out", str(run_dir),
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
