#!/usr/bin/env python3
"""End-to-end benchmark of the ``stratamatch`` command line.

Run from the root of a stratamatch checkout:

    python3 perfbench/run.py --workload full --seed 1 --seconds 40 --trace 0

With ``--trace 0`` every ``stratamatch estimate`` and ``stratamatch balance``
call is a fresh process, timed from spawn to exit, and its artifacts are
checked. With ``--trace 1`` the same calls run inside this process with every
public layer function wrapped (see ``spans.py``) and the per-layer numbers are
reported instead. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a human-readable
table, the environment record and the input digests come before it and are
also written under ``.perfbench/results/``. See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
STRATAMATCH = (sys.executable, "-m", "stratamatch")
REFERENCE = (sys.executable, str(Path(__file__).resolve().parent / "reference.py"))

N_FILES = 8  # input files per run; every run estimates each once, then file 0 again
BALANCE_FILES = 4  # each call on the first four files is followed by balance calls
BALANCE_REPEATS = 2
CALL_TIMEOUT_S = 150.0
TRUE_ATT = 2.0
ATT_TOLERANCE = 0.5
# every measured process runs its BLAS on one thread: idle BLAS threads spin
# on the other core of a small shared machine and add noise, not signal
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    estimate_args: tuple[str, ...]
    matching: bool  # the estimate call selects control sets
    exhaustive: bool = False  # every match must be certified optimal
    expected_spans: tuple[str, ...] = ()


_COMMON_SPANS = (
    "cli.main", "cli.cmd_estimate", "cli.cmd_balance", "dataset.load_dataset",
    "dataset.normalize_min_max", "dataset.split_by_treatment", "regression.feature_weights",
    "tree.build_tree", "tree.assign_leaf", "balance.pre_match_report",
    "balance.post_match_report",
)
_MATCH_SPANS = _COMMON_SPANS + (
    "estimation.estimate_m5c_mf", "matching.select_candidates", "matching.solve_match",
)
EXACT_CONFIG = "node_budget = none\n"

WORKLOADS = {
    "full": Workload((), matching=True, expected_spans=_MATCH_SPANS),
    "exact": Workload(("--config", "{exact_config}"), matching=True, exhaustive=True,
                      expected_spans=_MATCH_SPANS),
    "model": Workload(("--method", "m5c-m"), matching=False,
                      expected_spans=_COMMON_SPANS + ("estimation.estimate_m5c_m",)),
}


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the order
    BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# fresh processes


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    returncode: int
    timed_out: bool


def run_fresh(argv: list[str], log: Path) -> Proc:
    """Run one process to completion; wall time from spawn to reaping, peak
    RSS from the kernel's rusage for that process.

    Linux folds the spawning process's high-water RSS into the child's
    ``ru_maxrss`` at exec, so the caller must stay smaller than the program
    it measures: in fresh-process runs this process never imports numpy or
    stratamatch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "ab") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], CALL_TIMEOUT_S)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, not ready)


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Estimate:
    """What one estimate call left behind, once checked."""

    errors: list[str]
    digest: str = ""
    matched: int = 0
    certified: int = 0
    objectives: list[float] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)
    budget_hits: int = 0
    leaves: int = 0
    skipped: int = 0

    @property
    def counts(self) -> tuple:
        """The program's own counters, which repeats must reproduce exactly."""
        return (tuple(self.nodes), self.budget_hits, self.leaves)


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _count_leaves(node: dict) -> int:
    if "split" not in node:
        return 1
    return _count_leaves(node["left"]) + _count_leaves(node["right"])


def check_estimate(out: Path, n_treated: int, wl: Workload) -> Estimate:
    """The checks every estimate call must pass (see README)."""
    try:
        payload = json.loads((out / "report.json").read_text())["payload"]
        lines = [ln for ln in (out / "audit.jsonl").read_text().splitlines() if ln.strip()]
        records = [json.loads(ln) for ln in lines]
        leaves = _count_leaves(json.loads((out / "tree.json").read_text())["root"])
        m2 = payload["config"]["m2"]
    except (OSError, ValueError, KeyError) as exc:
        return Estimate([f"unreadable artifacts: {exc}"])
    errors = []
    if len(records) != n_treated:
        errors.append(f"audit.jsonl has {len(records)} lines for {n_treated} treated units")
    att = payload.get("att")
    if not isinstance(att, (int, float)) or not abs(att - TRUE_ATT) <= ATT_TOLERANCE:
        errors.append(f"att {att!r} is not within {ATT_TOLERANCE} of {TRUE_ATT}")
    matched = [r for r in records if r.get("matched_rows")]
    for r in matched:
        if not math.isclose(r["objective"], r["a"] + m2 * r["epsilon"], rel_tol=1e-12):
            errors.append(f"unit {r['treated_row']}: objective != a + m2*epsilon")
            break
    if wl.matching and not matched:
        errors.append("no matched units")
    est = Estimate(
        errors,
        digest=_digest(payload),
        matched=len(matched),
        certified=sum(1 for r in matched if not r.get("suboptimal")),
        objectives=[r["objective"] for r in matched],
        nodes=[r["nodes"] for r in records if r.get("nodes") is not None],
        budget_hits=sum(1 for r in records if r.get("suboptimal")),
        leaves=leaves,
        skipped=sum(1 for r in records if "skipped" in r),
    )
    if wl.exhaustive and est.certified != est.matched:
        errors.append(f"{est.matched - est.certified} matches not certified on an exhaustive run")
    return est


# outcome-relevant hyb20var features, as in acceptance criterion 09
RELEVANT_FEATURES = ("x1", "x2", "x3", "x4", "x6", "x7")
POST_SMD_LIMIT = 0.1


def check_balance(out: Path) -> list[str]:
    """Criterion 09: pooled post-match mean |SMD| over the outcome-relevant
    features stays below 0.1. (Post below pre over all features is no check
    here: hyb20var assigns treatment at random, so pre-match balance already
    sits at its sampling floor.)"""
    try:
        post = json.loads((out / "balance.json").read_text())["post"]
        smd = {f["name"]: f["smd"] for f in post["features"]}
        avg = statistics.fmean(smd[n] for n in RELEVANT_FEATURES)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable balance.json: {exc}"]
    if not avg < POST_SMD_LIMIT:
        return [f"post-match mean |SMD| over {','.join(RELEVANT_FEATURES)} is {avg!r}, "
                f"not below {POST_SMD_LIMIT}"]
    return []


class Ledger:
    """Attempts, failures and the per-file determinism record of one run."""

    def __init__(self, n_treated: int):
        self.n_treated = n_treated
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: dict[tuple[str, int], Estimate] = {}

    def record(self, label: str, key: tuple[str, int], est: Estimate, extra_errors: list[str]) -> bool:
        """Count one call's units; ``key`` names the (configuration, input)
        whose first clean call the later ones must reproduce."""
        errors = list(est.errors) + list(extra_errors)
        first = self.first.get(key)
        if first is None and not errors:
            self.first[key] = est
        elif first is not None and not est.errors:
            if est.digest != first.digest:
                errors.append("report.json payload digest differs from the first call on this input")
            if est.counts != first.counts:
                errors.append("node counts, budget hits or tree leaves differ from the first call")
        self.attempted += self.n_treated
        self.failed += self.n_treated if errors else est.skipped
        self.errors.extend(f"{label}: {e}" for e in errors)
        return not errors

    def quality(self, kind: str) -> dict[str, float]:
        """Certified share and mean objective, pooled over the run's inputs."""
        ests = [e for key, e in sorted(self.first.items()) if key[0] == kind]
        matched = sum(e.matched for e in ests)
        objectives = [o for e in ests for o in e.objectives]
        return {
            "certified_frac": sum(e.certified for e in ests) / matched if matched else math.nan,
            "match_objective_mean": math.fsum(objectives) / len(objectives) if objectives else math.nan,
        }


# ---------------------------------------------------------------------------
# inputs and environment


@dataclass(frozen=True)
class Inputs:
    files: list[Path]
    data_seeds: list[int]
    sha256: list[str]
    n_treated: int


def make_inputs(seed: int, n_files: int, work: Path) -> Inputs:
    """Write ``n_files`` hyb20var CSVs with ``stratamatch gen`` before any
    timing. File i of seed s uses data seed s*N_FILES+i, so two seeds never
    share a file."""
    files, seeds, digests = [], [], []
    for i in range(n_files):
        data_seed = seed * N_FILES + i
        path = work / f"input-{data_seed}.csv"
        p = run_fresh([*STRATAMATCH, "gen", "--preset", "hyb20var", "--seed", str(data_seed),
                       "--out", str(path)], work / f"gen-{data_seed}.log")
        if p.returncode != 0:
            raise RuntimeError(f"stratamatch gen failed for data seed {data_seed}")
        files.append(path)
        seeds.append(data_seed)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    with open(files[0]) as fh:
        header = fh.readline().rstrip("\n").split(",")
        t_col = header.index("t")
        n_treated = sum(1 for line in fh if line.split(",")[t_col] == "1")
    return Inputs(files, seeds, digests, n_treated)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "commit": git_commit(),
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# runs


def io_args(csv: Path) -> list[str]:
    return ["--input", str(csv), "--treatment", "t", "--outcome", "y"]


def estimate_argv(wl: Workload, csv: Path, out: Path, exact_config: Path) -> list[str]:
    extra = [a.format(exact_config=exact_config) for a in wl.estimate_args]
    return ["estimate", *io_args(csv), "--out", str(out), *extra]


def balance_argv(csv: Path, audit: Path, out: Path) -> list[str]:
    return ["balance", *io_args(csv), "--audit", str(audit), "--out", str(out)]


def setup_audit(csv: Path, out: Path, inputs: Inputs, ledger: Ledger, key: tuple[str, int]) -> Path:
    """Untimed default (m5c-mf) estimate whose audit supplies the matched
    control sets for ``balance`` on a workload that selects none."""
    p = run_fresh([*STRATAMATCH, *estimate_argv(WORKLOADS["full"], csv, out, Path())],
                  out.with_suffix(".log"))
    est = check_estimate(out, inputs.n_treated, WORKLOADS["full"]) if p.returncode == 0 else Estimate([])
    ledger.record(f"set-up m5c-mf estimate ({csv.name})", key, est,
                  [] if p.returncode == 0 else [f"exit code {p.returncode}"])
    return out / "audit.jsonl"


def _label(kind: str, k: int, i: int) -> str:
    return f"{kind} call {k} (input {i})"


class Reference:
    """The fixed task of ``reference.py``, run as a fresh process before and
    after every timed program call. The gated timings are each call's wall
    time divided by the mean of those two reference times. A shared machine
    flips between a fast and a slow state (about 1.5x apart) that lasts a few
    seconds, and the mix of the two differs from run to run; the ratio
    cancels it, while no change to the package can move the reference."""

    def __init__(self, csv: Path, work: Path):
        self.argv = [*REFERENCE, str(csv)]
        self.log = work / "reference.log"
        self.wall_s: list[float] = []
        self.calls = 0

    def run(self, ledger: Ledger) -> int:
        """Run the task once; returns the index of its time in ``wall_s``."""
        p = run_fresh(self.argv, self.log)
        self.calls += 1
        if p.returncode != 0:
            ledger.errors.append(f"reference task exited {p.returncode}")
        self.wall_s.append(p.wall_s)
        return len(self.wall_s) - 1

    def ratio(self, wall_s: float, before: int) -> float:
        """``wall_s`` of a call made right after reference run ``before``, over
        the mean of that run and the next one."""
        return wall_s / ((self.wall_s[before] + self.wall_s[before + 1]) / 2)

    def check(self, ledger: Ledger) -> None:
        lines = self.log.read_text().splitlines() if self.log.exists() else []
        if len(lines) != self.calls or len(set(lines)) != 1:
            ledger.errors.append("reference task output is missing or differs between calls")


def run_e2e(wl: Workload, inputs: Inputs, seconds: float, work: Path, exact_config: Path):
    ledger = Ledger(inputs.n_treated)
    version = [*STRATAMATCH, "--version"]
    run_fresh(version, work / "version.log")  # fills the bytecode cache when it is written
    setup: list[Proc] = []  # one --version call per iteration, so they span the run
    # balance needs matched control sets; the model run selects none, so its
    # balance calls read the audit of an untimed default run on the same input
    audits = {} if wl.matching else {
        i: setup_audit(csv, work / f"setup-{i}", inputs, ledger, ("setup", i))
        for i, csv in enumerate(inputs.files[:BALANCE_FILES])}
    ref = Reference(inputs.files[0], work)
    ref.run(ledger)  # warm-up

    est: list[tuple[float, int]] = []  # (wall time, index of the reference run before it)
    bal: list[tuple[float, int]] = []
    rss: list[float] = []
    ref.wall_s.clear()
    deadline = time.perf_counter() + seconds
    k, last = 0, 0.0
    while k <= N_FILES or time.perf_counter() + last < deadline:
        t_iter = time.perf_counter()
        i = k % N_FILES
        csv, out = inputs.files[i], work / f"call-{k}"
        setup.append(run_fresh(version, work / "version.log"))
        if setup[-1].returncode != 0:
            ledger.errors.append(f"stratamatch --version exited {setup[-1].returncode}")
        before = ref.run(ledger)
        p = run_fresh([*STRATAMATCH, *estimate_argv(wl, csv, out, exact_config)], work / f"call-{k}.log")
        extra = [] if p.returncode == 0 else [f"exit code {p.returncode}" + (" (timed out)" if p.timed_out else "")]
        result = check_estimate(out, inputs.n_treated, wl) if not extra else Estimate([])
        balances = []
        for _ in range(BALANCE_REPEATS if i < BALANCE_FILES else 0):
            before_b = ref.run(ledger)
            b = run_fresh([*STRATAMATCH, *balance_argv(csv, audits.get(i, out / "audit.jsonl"), out / "balance")],
                          work / f"balance-{k}.log")
            balances.append((b.wall_s, before_b))
            if b.returncode != 0:
                extra.append(f"balance exit code {b.returncode}")
            else:
                extra.extend(check_balance(out / "balance"))
        if ledger.record(_label("estimate", k, i), ("main", i), result, extra):
            est.append((p.wall_s, before))
            bal.extend(balances)
            rss.append(p.rss_mb)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        last = time.perf_counter() - t_iter
    ref.run(ledger)  # the reference run after the last call
    ref.check(ledger)
    est_s = [w for w, _ in est]
    bal_s = [w for w, _ in bal]

    quality = ledger.quality("main" if wl.matching else "setup")
    metrics = {}
    if est_s and bal_s:
        metrics = {
            "estimate_rel": statistics.median(ref.ratio(w, j) for w, j in est),
            "balance_rel": statistics.median(ref.ratio(w, j) for w, j in bal),
            "setup_s": statistics.median(p.wall_s for p in setup),
            "peak_rss_mb": statistics.median(rss),
            **quality,
        }
    samples = {
        "calls": k,
        "estimate_s": est_s,
        "balance_s": bal_s,
        "estimate_rel": [ref.ratio(w, j) for w, j in est],
        "balance_rel": [ref.ratio(w, j) for w, j in bal],
        "reference_s": ref.wall_s,
        "setup_s": [p.wall_s for p in setup],
        "peak_rss_mb": rss,
    }
    units = metric_units("end_to_end")
    n_quality = N_FILES if wl.matching else BALANCE_FILES
    counts = {"setup_s": len(setup), "certified_frac": n_quality,
              "match_objective_mean": n_quality, "balance_rel": len(bal_s)}
    table = [(name, metrics.get(name, math.nan), unit, counts.get(name, len(rss)))
             for name, unit in units.items()]
    # the raw wall times behind the ratios, printed but not gated
    for name in ("estimate_s", "balance_s", "reference_s"):
        values = samples[name]
        table.append((name, statistics.median(values) if values else math.nan, "s", len(values)))
    failed_frac = ledger.failed / ledger.attempted if ledger.attempted else math.nan
    table.append(("failed_frac", failed_frac, "frac", ledger.attempted))
    return ledger, metrics, units, table, samples, None


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


# per-layer metric -> (span name, field) read from one traced call's summary
_SPAN_METRICS = {
    "dataset.load_s": ("dataset.load_dataset", "incl_s"),
    "dataset.normalize_s": ("dataset.normalize_min_max", "incl_s"),
    "dataset.normalize_calls": ("dataset.normalize_min_max", "calls"),
    "dataset.split_s": ("dataset.split_by_treatment", "incl_s"),
    "regression.weights_s": ("regression.feature_weights", "incl_s"),
    "regression.weights_calls": ("regression.feature_weights", "calls"),
    "tree.build_s": ("tree.build_tree", "incl_s"),
    "tree.build_calls": ("tree.build_tree", "calls"),
    "tree.route_s": ("tree.assign_leaf", "incl_s"),
    "matching.shortlist_s": ("matching.select_candidates", "incl_s"),
    "matching.solve_s": ("matching.solve_match", "incl_s"),
    "balance.pre_s": ("balance.pre_match_report", "incl_s"),
    "balance.post_s": ("balance.post_match_report", "incl_s"),
}


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_traced(wl: Workload, inputs: Inputs, seconds: float, work: Path, exact_config: Path):
    """Alternate an untraced and a traced in-process estimate on the first
    input (the traced one followed by a traced balance) until time is up."""
    from spans import Tracer, summarize

    sys.path.insert(0, str(SRC))
    from stratamatch import cli
    from stratamatch.errors import HierarchyBoundWarning

    for layer in ("dataset", "regression", "tree", "matching", "estimation", "balance"):
        importlib.import_module(f"stratamatch.{layer}")
    ledger = Ledger(inputs.n_treated)
    csv = inputs.files[0]
    audit = None if wl.matching else setup_audit(csv, work / "setup", inputs, ledger, ("setup", 0))
    # warm the loader, tree and numpy paths before the first timed call
    if cli.main(estimate_argv(WORKLOADS["model"], csv, work / "warm-up", exact_config)) != 0:
        ledger.errors.append("warm-up m5c-m estimate failed")

    tracer = Tracer()
    untraced, traced, per_call = [], [], []
    deadline = time.perf_counter() + seconds
    k, last = 0, 0.0
    while k == 0 or time.perf_counter() + last < deadline:
        t_iter = time.perf_counter()
        out_u, out_t = work / f"untraced-{k}", work / f"traced-{k}"
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            rc = cli.main(estimate_argv(wl, csv, out_u, exact_config))
            untraced.append(time.perf_counter() - t0)
        ledger.record(_label("untraced estimate", k, 0), ("main", 0),
                      check_estimate(out_u, inputs.n_treated, wl) if rc == 0 else Estimate([]),
                      [] if rc == 0 else [f"exit code {rc}"])
        tracer.call_id = k
        first_span = len(tracer.spans)
        tracer.install()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = time.perf_counter()
                rc = cli.main(estimate_argv(wl, csv, out_t, exact_config))
                traced.append(time.perf_counter() - t0)
            rc_b = cli.main(balance_argv(csv, audit or out_t / "audit.jsonl", out_t / "balance"))
        finally:
            tracer.uninstall()
        est = check_estimate(out_t, inputs.n_treated, wl) if rc == 0 else Estimate([])
        extra = [] if rc == 0 else [f"exit code {rc}"]
        extra += check_balance(out_t / "balance") if rc_b == 0 else [f"balance exit code {rc_b}"]
        ledger.record(_label("traced estimate", k, 0), ("main", 0), est, extra)
        summary = summarize(tracer.spans[first_span:])
        per_call.append((summary, est, _dir_bytes(out_t),
                         sum(1 for w in caught if issubclass(w.category, HierarchyBoundWarning))))
        shutil.rmtree(out_u, ignore_errors=True)
        shutil.rmtree(out_t, ignore_errors=True)
        k += 1
        last = time.perf_counter() - t_iter

    all_spans = summarize(tracer.spans)
    for name in wl.expected_spans:
        if name not in all_spans:
            ledger.errors.append(f"expected span {name} recorded zero calls: "
                                 f"the function moved or is no longer called")

    def value(summary, est, nbytes, nwarn) -> dict[str, float]:
        row = {m: summary.get(s, {}).get(f, 0) for m, (s, f) in _SPAN_METRICS.items()}
        main = summary.get("cli.main", {}).get("incl_s", 0.0)
        cli_self = sum(v["self_s"] for n, v in summary.items() if n.startswith("cli."))
        row.update({
            "tree.leaves": est.leaves,
            "matching.nodes": sum(est.nodes),
            "matching.nodes.p50": statistics.median(est.nodes) if est.nodes else 0,
            "matching.nodes.max": max(est.nodes, default=0),
            "matching.nodes_per_s": (sum(est.nodes) / row["matching.solve_s"]
                                     if row["matching.solve_s"] else 0.0),
            "matching.budget_hits": est.budget_hits,
            "matching.problem_warnings": nwarn,
            "estimation.self_s": sum(v["self_s"] for n, v in summary.items()
                                     if n.startswith("estimation.")),
            "cli.self_s": cli_self,
            "cli.bytes_written": nbytes,
            "trace.coverage": (main - cli_self) / main if main else 0.0,
        })
        return row

    rows = [value(*c) for c in per_call]
    metrics = {m: statistics.median(r[m] for r in rows) for m in rows[0]}
    for span, prefix in (("matching.select_candidates", "matching.shortlist_ms"),
                         ("matching.solve_match", "matching.solve_ms")):
        ms = all_spans.get(span, {}).get("ms", [])
        metrics[f"{prefix}.p50"] = percentile(ms, 0.50)
        metrics[f"{prefix}.p95"] = percentile(ms, 0.95)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    units = metric_units("per_layer")
    metrics = {m: metrics[m] for m in units}
    table = [(m, v, units[m], k) for m, v in metrics.items()]
    samples = {"calls": k, "untraced_s": untraced, "traced_s": traced,
               "spans": {n: {f: v[f] for f in ("calls", "incl_s", "self_s")}
                         for n, v in all_spans.items()}}
    return ledger, metrics, units, table, samples, tracer.spans


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed; the input files derive from it alone")
    ap.add_argument("--seconds", type=float, required=True, help="measurement time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: in-process traced run reporting per-layer metrics")
    args = ap.parse_args(argv)
    if not (SRC / "stratamatch" / "__init__.py").is_file():
        print(f"perfbench: no stratamatch sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    for var in BLAS_VARS:
        os.environ[var] = "1"
    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        exact_config = work / "exact.cfg"
        exact_config.write_text(EXACT_CONFIG)
        inputs = make_inputs(args.seed, 1 if args.trace else N_FILES, work)
        env = environment()
        run = run_traced if args.trace else run_e2e
        ledger, metrics, units, table, samples, spans = run(
            wl, inputs, args.seconds, work, exact_config)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m: v for m, v in metrics.items() if math.isfinite(v)}
    correct = not ledger.errors and len(metrics) == len(units)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "inputs": [{"data_seed": s, "sha256": h} for s, h in zip(inputs.data_seeds, inputs.sha256)],
        "correct": correct, "errors": ledger.errors,
        "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": metrics, "samples": samples,
        "benchmark_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if spans is not None:
        (results / f"{tag}-spans.json").write_text(json.dumps(spans) + "\n")

    print(f"perfbench {tag}  commit {env['commit'][:12]}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}")
    for s, h in zip(inputs.data_seeds, inputs.sha256):
        print(f"  input data seed {s}: sha256 {h}")
    for name, val, unit, n in table:
        print(f"  {name:<28} {val:>14.6g} {unit:<10} n={n}")
    for err in ledger.errors:
        print(f"  CHECK FAILED: {err}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
