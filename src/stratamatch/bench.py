"""Synthetic benchmark harness: data generator, bias study, bootstrap study.

The generator draws a 20-feature dataset (5 continuous, 15 binary) with a
nonlinear, interaction-bearing control outcome and a constant additive
treatment effect, so the true effect on the treated is known exactly and
estimator bias can be measured directly.
"""

from __future__ import annotations

import csv
import logging
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .dataset import Dataset, make_dataset
from .errors import ConfigError, InvalidSample
from .estimation import ESTIMATORS

logger = logging.getLogger(__name__)

Z95 = 1.96


@dataclass(frozen=True)
class DgpSpec:
    """Shape and effect size of the synthetic generator.

    ``fixed_binary_probs`` freezes the binary features' success
    probabilities; by default they are redrawn from U(0.1, 0.9) on every
    generation, so each replication gets a fresh feature distribution.
    """

    name: str = "hyb20var"
    n_treated: int = 200
    n_control: int = 19800
    n_continuous: int = 5
    n_binary: int = 15
    continuous_low: float = 0.0
    continuous_high: float = 10.0
    true_att: float = 2.0
    seed: int = 0
    fixed_binary_probs: tuple[float, ...] | None = None


PRESETS: dict[str, DgpSpec] = {
    "hyb20var": DgpSpec(name="hyb20var", n_treated=200, n_control=19800),
    "hyb20var-desk": DgpSpec(name="hyb20var-desk", n_treated=100, n_control=4900),
}


def generate(spec: DgpSpec, seed: int | None = None) -> Dataset:
    """Draw one dataset from ``spec``; ``seed`` overrides ``spec.seed``."""
    if spec.n_continuous < 4 or spec.n_binary < 2:
        raise ConfigError("the outcome formula needs at least 4 continuous and 2 binary features")
    if spec.n_treated < 1 or spec.n_control < 1:
        raise ConfigError("both treated and control counts must be positive")
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    n = spec.n_treated + spec.n_control
    xc = rng.uniform(spec.continuous_low, spec.continuous_high, size=(n, spec.n_continuous))
    if spec.fixed_binary_probs is not None:
        probs = np.asarray(spec.fixed_binary_probs, dtype=np.float64)
        if probs.size != spec.n_binary:
            raise ConfigError("fixed_binary_probs length must equal n_binary")
    else:
        probs = rng.uniform(0.1, 0.9, size=spec.n_binary)
    xb = (rng.random(size=(n, spec.n_binary)) < probs).astype(np.float64)
    noise = rng.uniform(0.0, 1.0, size=n)
    x = np.column_stack([xc, xb])
    # control outcome: linear terms, one interaction, a sine, a square, one
    # binary bump, uniform noise; treatment adds a constant effect
    y0 = (
        0.5 * x[:, 0]
        + 0.3 * x[:, 1]
        + 0.2 * x[:, 0] * x[:, 5]
        + 0.5 * np.sin(x[:, 2])
        + 0.5 * x[:, 3] ** 2
        + 0.3 * (x[:, 6] == 1.0)
        + noise
    )
    y1 = y0 + spec.true_att
    t = np.zeros(n, dtype=np.int64)
    t[rng.choice(n, size=spec.n_treated, replace=False)] = 1
    y = np.where(t == 1, y1, y0)
    names = tuple(f"x{j + 1}" for j in range(x.shape[1]))
    return make_dataset(t, x, y, names)


def generate_hyb20var(
    seed: int = 0,
    n_treated: int = 200,
    n_control: int = 19800,
    fixed_binary_probs: tuple[float, ...] | None = None,
) -> Dataset:
    """Convenience wrapper over :func:`generate` at an explicit scale."""
    spec = replace(
        PRESETS["hyb20var"],
        n_treated=n_treated,
        n_control=n_control,
        fixed_binary_probs=fixed_binary_probs,
    )
    return generate(spec, seed=seed)


@dataclass(frozen=True)
class ReplicationRecord:
    replication: int
    seed: int
    method: str
    estimate: float | None
    bias: float | None
    runtime_s: float
    error: str | None = None


@dataclass(frozen=True)
class MethodSummary:
    method: str
    n_ok: int
    n_failed: int
    mean_estimate: float | None
    ci_low: float | None
    ci_high: float | None
    mean_abs_bias: float | None = None
    abs_bias_ci_low: float | None = None
    abs_bias_ci_high: float | None = None


@dataclass(frozen=True)
class StudyResult:
    kind: str
    replications: int
    true_att: float | None
    records: tuple[ReplicationRecord, ...]
    summaries: tuple[MethodSummary, ...]


def _ci(vals: list[float]) -> tuple[float, float | None, float | None]:
    mean = float(np.mean(vals))
    if len(vals) < 2:
        return mean, None, None
    half = Z95 * float(np.std(vals, ddof=1)) / math.sqrt(len(vals))
    return mean, mean - half, mean + half


def _summarize(records: list[ReplicationRecord], methods: list[str], with_bias: bool) -> tuple[MethodSummary, ...]:
    out = []
    for m in methods:
        mine = [r for r in records if r.method == m]
        ok = [r for r in mine if r.error is None]
        ests = [r.estimate for r in ok]
        if not ests:
            out.append(MethodSummary(m, 0, len(mine), None, None, None))
            continue
        mean, lo, hi = _ci(ests)
        summary = MethodSummary(m, len(ok), len(mine) - len(ok), mean, lo, hi)
        if with_bias:
            ab = [abs(r.bias) for r in ok]
            abm, ablo, abhi = _ci(ab)
            summary = replace(
                summary, mean_abs_bias=abm, abs_bias_ci_low=ablo, abs_bias_ci_high=abhi
            )
        out.append(summary)
    return tuple(out)


def _check(methods: list[str], replications: int) -> None:
    unknown = [m for m in methods if m not in ESTIMATORS]
    if unknown:
        raise ConfigError(f"unknown method(s): {', '.join(unknown)}")
    if replications < 1:
        raise ConfigError("replications must be at least 1")


def _study(kind: str, methods: list[str], replications: int, seed: int, true_att: float | None,
           cfg: PipelineConfig | None, draw: Callable[[int], Dataset]) -> StudyResult:
    """Time each method once on ``draw(rep_seed)``, for each replication's
    seed derived from ``seed``. A failure is recorded with its error, never
    raised; the bias is left out when ``true_att`` is unknown."""
    cfg = cfg or PipelineConfig()
    records: list[ReplicationRecord] = []
    for rep, child in enumerate(np.random.SeedSequence(seed).spawn(replications)):
        rep_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        d = draw(rep_seed)
        for m in methods:
            t0 = time.perf_counter()
            try:
                est = float(ESTIMATORS[m](d, cfg).att)
                err = None
            except Exception as exc:  # noqa: BLE001  (recorded, not fatal)
                est, err = None, f"{type(exc).__name__}: {exc}"
                logger.warning("replication %d, method %s failed: %s", rep, m, err)
            records.append(
                ReplicationRecord(
                    replication=rep,
                    seed=rep_seed,
                    method=m,
                    estimate=est,
                    bias=None if est is None or true_att is None else est - true_att,
                    runtime_s=time.perf_counter() - t0,
                    error=err,
                )
            )
        logger.info("%s study: replication %d/%d done", kind, rep + 1, replications)
    return StudyResult(
        kind=kind,
        replications=replications,
        true_att=true_att,
        records=tuple(records),
        summaries=_summarize(records, methods, with_bias=true_att is not None),
    )


def run_bias_study(
    spec: DgpSpec,
    methods: list[str],
    replications: int,
    cfg: PipelineConfig | None = None,
) -> StudyResult:
    """Repeatedly draw fresh datasets and score each method's bias.

    Every replication gets its own derived seed (recorded, so any row can be
    regenerated standalone). A method failing on a replication is recorded
    with its error and excluded from that method's summary, never fatal.
    """
    _check(methods, replications)
    return _study("bias", methods, replications, spec.seed, spec.true_att, cfg,
                  lambda rep_seed: generate(spec, seed=rep_seed))


def run_bootstrap_study(
    d: Dataset,
    methods: list[str],
    replications: int,
    treated_sample: int,
    seed: int = 0,
    cfg: PipelineConfig | None = None,
) -> StudyResult:
    """Re-estimate on treated subsamples while keeping the full control pool.

    Each replication draws ``treated_sample`` treated units without
    replacement (positions kept in original order, so a full-size sample
    reproduces the input dataset exactly).

    Raises:
        InvalidSample: if ``treated_sample`` exceeds the treated count.
    """
    _check(methods, replications)
    tpos = np.nonzero(d.t == 1)[0]
    if treated_sample > tpos.size:
        raise InvalidSample(
            f"treated_sample={treated_sample} exceeds the {tpos.size} treated units available"
        )
    if treated_sample < 1:
        raise ConfigError("treated_sample must be at least 1")

    def draw(rep_seed: int) -> Dataset:
        chosen = np.random.default_rng(rep_seed).choice(tpos, size=treated_sample, replace=False)
        mask = d.t == 0
        mask[chosen] = True
        idx = np.nonzero(mask)[0]
        return make_dataset(d.t[idx], d.x[idx], d.y[idx], d.feature_names)

    return _study("bootstrap", methods, replications, seed, None, cfg, draw)


def write_records_csv(result: StudyResult, path: str | Path) -> None:
    """Long-format per-replication rows: seed, method, estimate, bias, runtime."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["replication", "seed", "method", "estimate", "bias", "runtime_s", "error"])
        for r in result.records:
            wr.writerow(
                [
                    r.replication,
                    r.seed,
                    r.method,
                    "" if r.estimate is None else repr(r.estimate),
                    "" if r.bias is None else repr(r.bias),
                    repr(r.runtime_s),
                    r.error or "",
                ]
            )


def summary_to_dict(result: StudyResult) -> dict:
    return {
        "kind": result.kind,
        "replications": result.replications,
        "true_att": result.true_att,
        "methods": {
            s.method: {
                "n_ok": s.n_ok,
                "n_failed": s.n_failed,
                "mean_estimate": s.mean_estimate,
                "ci_low": s.ci_low,
                "ci_high": s.ci_high,
                "mean_abs_bias": s.mean_abs_bias,
                "abs_bias_ci_low": s.abs_bias_ci_low,
                "abs_bias_ci_high": s.abs_bias_ci_high,
            }
            for s in result.summaries
        },
    }
