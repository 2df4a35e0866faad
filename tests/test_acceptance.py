"""End-to-end acceptance checks.

One test per release criterion, each printing a single verdict line; run
with ``pytest -v`` to see one pass/fail line per criterion, or ``-s`` for
the measured numbers.
"""

import hashlib
import json
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

import stratamatch as sm
from stratamatch.dataset import Dataset, _frozen, normalize_min_max
from stratamatch.estimation import StratumOutcome

from oracles import solve_match_bruteforce


def _verdict(num, desc, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{state}] {desc}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


# ---------------------------------------------------------------------------
# shared expensive inputs


@pytest.fixture(scope="module")
def instances500():
    rng = np.random.default_rng(20260818)
    out = []
    for _ in range(500):
        n_c = int(rng.integers(1, 13))
        p = int(rng.integers(1, 11))
        out.append(
            sm.MatchProblem(
                treated_features=rng.uniform(0, 1, size=p),
                candidate_features=rng.uniform(0, 1, size=(n_c, p)),
                weights=rng.uniform(0, 10, size=p),
            )
        )
    return out


@pytest.fixture(scope="module")
def desk_study():
    cfg = sm.PipelineConfig()
    t0 = time.perf_counter()
    res = sm.run_bias_study(*sm.PRESETS["hyb20var-desk"], ["m5c-mf", "naive"], 30, cfg=cfg)
    elapsed = time.perf_counter() - t0
    return res, elapsed


def test_criterion_01_worked_example():
    prob = sm.MatchProblem(
        treated_features=np.array([5.0]),
        candidate_features=np.array([[3.0], [4.0], [4.5], [6.0], [7.0]]),
        weights=np.array([1.0]),
    )
    sol = sm.solve_match(prob)
    bf = solve_match_bruteforce(prob)
    lex = sm.solve_match_lexicographic(prob)
    exact = (
        sol.selected == (1, 3)
        and sol.epsilon == 0.0
        and sol.a == 1.0
        and bf.selected == sol.selected
        and lex.selected == sol.selected
        and bf.epsilon == sol.epsilon == lex.epsilon
        and bf.a == sol.a == lex.a
    )
    for _ in range(20):
        sm.solve_match(prob)
    best = min(
        (lambda t0: (sm.solve_match(prob), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(5)
    )
    _verdict(
        1,
        "worked example selects {4, 6} with eps=0, a=1, all solvers agree, < 1 ms",
        exact and best < 1e-3,
        f"best solve {best * 1e6:.0f} us",
    )


def test_criterion_02_binary_table_values():
    s = StratumOutcome(
        treated=np.array([1.0, 1.0, 0.0, 0.0, 0.0]),
        control=np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    )
    v11 = sm.robust_att_1to1(s)
    v1k = sm.robust_att_1tok(s)
    vkk = sm.robust_att_ktok(s)
    ok = v11 == 0.0 and abs(v1k - 4.0 / 35.0) <= 1e-9 and abs(vkk - 4.0 / 35.0) <= 1e-9
    _verdict(2, "strategy table: 1to1=0, 1tok=ktok=4/35 within 1e-9", ok,
             f"1to1={v11}, 1tok={v1k:.10f}, ktok={vkk:.10f}")


def test_criterion_03_oracle_equivalence_500(instances500):
    t0 = time.perf_counter()
    mismatches = 0
    for prob in instances500:
        a = sm.solve_match(prob)
        b = solve_match_bruteforce(prob)
        if (
            a.objective != b.objective
            or abs(a.epsilon - b.epsilon) > 1e-9
            or abs(a.a - b.a) > 1e-9
        ):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        "500 instances: search objective equals oracle exactly, eps/a within 1e-9, < 60 s",
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} mismatches in {elapsed:.1f}s",
    )


def test_criterion_04_hierarchy_bound_500(instances500):
    mismatches = 0
    for base in instances500:
        prob = sm.MatchProblem(
            treated_features=base.treated_features,
            candidate_features=base.candidate_features,
            weights=base.weights,
            m2=10.0 * sm.hierarchy_m2_bound(base),
        )
        if sm.solve_match(prob).epsilon != sm.solve_match_lexicographic(prob).epsilon:
            mismatches += 1
    _verdict(
        4,
        "500 instances with m2 above the sufficiency bound: eps matches the "
        "lexicographic solver on every instance",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_05_strategy_equality_1000():
    rng = np.random.default_rng(77)
    bad = 0
    for i in range(1000):
        nt = int(rng.integers(1, 15))
        nc = int(rng.integers(1, 15))
        if i % 2 == 0:
            yt = rng.integers(0, 2, nt).astype(float)
            yc = rng.integers(0, 2, nc).astype(float)
        else:
            yt = rng.normal(size=nt)
            yc = rng.normal(size=nc)
        s = StratumOutcome(treated=yt, control=yc)
        if sm.robust_att_1tok(s) != sm.robust_att_ktok(s):
            bad += 1
    _verdict(5, "1000 random strata: 1tok equals ktok bitwise", bad == 0, f"{bad} unequal")


def test_criterion_06_aggregation_identity_200():
    rng = np.random.default_rng(78)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 10))
        sizes = [int(n) for n in rng.integers(1, 12, size=k)]
        unit_effects = [rng.normal(size=n) for n in sizes]
        stratum_means = [float(np.mean(u)) for u in unit_effects]
        flat = float(np.mean(np.concatenate(unit_effects)))
        agg = sm.aggregate_att(stratum_means, sizes)
        worst = max(worst, abs(agg - flat))
    _verdict(
        6,
        "200 multi-stratum configurations: weighted aggregate equals flat mean within 1e-12",
        worst <= 1e-12,
        f"worst deviation {worst:.2e}",
    )


def test_criterion_07_leaf_error_bound_20():
    checked = 0
    violations = 0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(200, 600))
        p = int(rng.integers(2, 5))
        x = rng.uniform(0, 1, size=(n, p))
        knots = rng.uniform(0.3, 0.7, size=p)
        coef = rng.normal(0, 2, size=(2, p))
        region = (x[:, 0] > knots[0]).astype(int)
        y = np.array([x[i] @ coef[region[i]] for i in range(n)]) + rng.normal(0, 0.1, n)
        d = Dataset(
            t=_frozen(np.zeros(n)),
            x=_frozen(x),
            y=_frozen(y),
            feature_names=tuple(f"x{j + 1}" for j in range(p)),
        )
        dn = normalize_min_max(d)
        tree = sm.build_tree(dn)
        for leaf in tree.leaves():
            fit = leaf.leaf_model
            if fit is None or fit.r2_adj is None:
                continue
            idx = np.asarray(leaf.control_indices)
            resid = dn.y[idx] - fit.predict(dn.x[idx])
            mse = float(np.mean(resid**2))
            nl = idx.size
            bound = (1 - fit.r2_adj) * (nl - 1) / (nl - p - 1) * float(np.var(dn.y[idx])) + 1e-9
            checked += 1
            if mse > bound:
                violations += 1
    _verdict(
        7,
        "20 piecewise datasets: every defined leaf satisfies the residual error bound",
        checked > 0 and violations == 0,
        f"{checked} leaves checked, {violations} violations",
    )


def test_criterion_08_desk_scale_bias(desk_study):
    res, elapsed = desk_study
    est = {
        m: np.array([r.estimate for r in res.records if r.method == m and r.error is None])
        for m in ("m5c-mf", "naive")
    }
    assert len(est["m5c-mf"]) == 30 and len(est["naive"]) == 30
    b_star = 3.0 * float(est["naive"].std(ddof=1)) / np.sqrt(30)
    dev = abs(float(est["m5c-mf"].mean()) - 2.0)
    mab_mf = float(np.abs(est["m5c-mf"] - 2.0).mean())
    mab_nv = float(np.abs(est["naive"] - 2.0).mean())
    ok = dev <= b_star and mab_mf <= 1.1 * mab_nv and elapsed <= 600.0
    _verdict(
        8,
        "30-replication desk study: matched estimator unbiased within 3 naive "
        "standard errors and no worse than 1.1x naive mean absolute bias, <= 10 min",
        ok,
        f"|mean-2|={dev:.4f} vs B*={b_star:.4f}; mab {mab_mf:.4f} vs naive {mab_nv:.4f}; "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_post_match_balance():
    d = sm.generate_hyb20var(seed=0, n_treated=100, n_control=4900)
    rep = sm.estimate_m5c_mf(d, sm.PipelineConfig())
    matches = [(r.treated_row, r.matched_rows) for r in rep.iatt if r.matched_rows]
    post = sm.post_match_report(d, matches)
    smd = {f.name: f.smd for f in post.features}
    relevant = ["x1", "x2", "x3", "x4", "x6", "x7"]
    avg = float(np.mean([smd[n] for n in relevant]))
    _verdict(
        9,
        "pooled post-match balance: mean |SMD| over the outcome-relevant features < 0.1",
        avg < 0.1,
        f"mean |SMD| {avg:.4f}",
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "stratamatch", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _payload_digest(path):
    payload = json.loads(path.read_text())["payload"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_criterion_10_determinism(tmp_path):
    data = tmp_path / "data.csv"
    r = _run_cli(
        "gen", "--preset", "hyb20var-desk", "--n-treated", "15", "--n-control", "300",
        "--seed", "3", "--out", str(data),
    )
    assert r.returncode == 0, r.stderr
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = _run_cli(
            "estimate", "--input", str(data), "--treatment", "t", "--outcome", "y",
            "--method", "m5c-mf", "--out", str(out),
        )
        assert r.returncode == 0, r.stderr
        outs.append(out)
    a, b = outs
    same_payload = _payload_digest(a / "report.json") == _payload_digest(b / "report.json")
    same_files = all(
        _digest(a / f) == _digest(b / f)
        for f in ("audit.jsonl", "tree_rules.txt", "tree.json", "summary.txt")
    )
    _verdict(
        10,
        "identical data and config give byte-identical report sections",
        same_payload and same_files,
    )


def test_criterion_11_tree_build_scaling():
    def make(n):
        rng = np.random.default_rng(5)
        p = 10
        x = rng.uniform(0, 1, size=(n, p))
        y = (
            x @ rng.normal(0, 1, p)
            + 0.5 * np.sin(3 * x[:, 0])
            + (x[:, 1] > 0.5) * x[:, 2]
            + rng.normal(0, 0.3, n)
        )
        d = Dataset(
            t=_frozen(np.zeros(n)),
            x=_frozen(x),
            y=_frozen(y),
            feature_names=tuple(f"x{j + 1}" for j in range(p)),
        )
        return normalize_min_max(d)

    def median_time(d):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            sm.build_tree(d)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    d20, d40 = make(20000), make(40000)
    sm.build_tree(d20)
    sm.build_tree(d40)
    t20, t40 = median_time(d20), median_time(d40)
    ratio = t40 / t20
    _verdict(
        11,
        "tree build at n=40k controls takes at most 3x the n=20k median (p=10)",
        ratio <= 3.0,
        f"t20={t20 * 1e3:.0f}ms t40={t40 * 1e3:.0f}ms ratio={ratio:.2f}",
    )
