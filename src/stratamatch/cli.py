"""Command-line interface.

Subcommands: ``estimate`` (fit and report), ``bench`` (synthetic studies),
``balance`` (pre/post diagnostics from a run's audit log), ``tree`` (export
the fitted tree), ``gen`` (write a synthetic dataset).

Logs go to stderr; data artifacts go to files. Exit codes: 0 success,
2 configuration error, 3 data error, 4 estimation impossible. Report
payloads exclude timestamps, so the same config and seed reproduce them
byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
import time
from pathlib import Path

from . import __version__
from .balance import post_match_report, pre_match_report, report_to_dict, report_to_text
from .bench import (
    PRESETS,
    generate,
    run_bias_study,
    run_bootstrap_study,
    summary_to_dict,
    write_records_csv,
)
from .config import PipelineConfig
from .dataset import Dataset, load_dataset
from .errors import (
    AuditNotFound,
    ConfigError,
    EmptyInput,
    EstimationImpossible,
    InvalidSample,
    NamedColumnAbsent,
    OracleTooLarge,
    ParseFailure,
    PositivityViolation,
    StrataMatchError,
)
from .estimation import ESTIMATORS, AttReport, fit_pipeline
from .tree import export_rules, tree_to_dict

logger = logging.getLogger(__name__)

_DATA_ERRORS = (
    NamedColumnAbsent,
    ParseFailure,
    PositivityViolation,
    EmptyInput,
    InvalidSample,
    AuditNotFound,
    OracleTooLarge,
    FileNotFoundError,
)

# config-file key -> PipelineConfig attribute
_CFG_KEYS = {
    "lambda": "lambda_",
    "theta": "theta",
    "psi": "psi",
    "m2": "m2",
    "node_budget": "solver_node_budget",
    "max_depth": "max_depth",
    "bins": "bins",
    "seed": "seed",
}


def _parse_value(attr: str, raw: str):
    raw = raw.strip()
    if attr in ("theta", "solver_node_budget") and raw.lower() == "none":
        return None
    try:
        if attr in ("lambda_", "m2"):
            return float(raw)
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{attr}: cannot parse {raw!r}") from exc


def parse_config_file(path: str | Path) -> tuple[dict, dict]:
    """Read ``key = value`` lines; ``#`` starts a comment.

    Returns (pipeline overrides, extras) where extras may carry ``method``.
    """
    overrides: dict = {}
    extras: dict = {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    for lineno, line in enumerate(p.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key == "method":
            extras["method"] = raw.strip()
            continue
        if key not in _CFG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr = _CFG_KEYS[key]
        overrides[attr] = _parse_value(attr, raw)
    return overrides, extras


def _resolve_config(args: argparse.Namespace) -> tuple[PipelineConfig, dict]:
    """Merge defaults, config file, and explicit CLI flags (in that order).

    Flags hold raw strings and parse like their config keys."""
    overrides: dict = {}
    extras: dict = {}
    if getattr(args, "config", None):
        overrides, extras = parse_config_file(args.config)
    for attr in _CFG_KEYS.values():
        if hasattr(args, attr):
            overrides[attr] = _parse_value(attr, getattr(args, attr))
    cfg = PipelineConfig(**overrides)
    cfg.validate()
    return cfg, extras


def _add_pipeline_flags(sp: argparse.ArgumentParser) -> None:
    g = sp.add_argument_group("pipeline")
    s = argparse.SUPPRESS
    g.add_argument("--config", help="key = value config file (flags override it)")
    g.add_argument("--lambda", dest="lambda_", default=s,
                   help="split acceptance penalty for small children")
    g.add_argument("--theta", dest="theta", default=s,
                   help="small-child size guard (default or 'none': max(30, 2p))")
    g.add_argument("--psi", default=s, help="candidate pool size per treated unit")
    g.add_argument("--m2", default=s, help="deviation-sum priority multiplier")
    g.add_argument("--node-budget", dest="solver_node_budget", default=s,
                   help="per-unit match search node budget ('none' for exhaustive search)")
    g.add_argument("--max-depth", dest="max_depth", default=s, help="tree depth cap")
    g.add_argument("--bins", default=s, help="histogram bins for overlap")
    g.add_argument("--seed", default=s, help="base seed for all randomness")


def _add_io_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", required=True, help="delimited data file with a header row")
    sp.add_argument("--treatment", required=True, help="0/1 treatment column name")
    sp.add_argument("--outcome", required=True, help="numeric outcome column name")
    sp.add_argument("--tab", action="store_true", help="tab-separated input (default comma)")
    sp.add_argument("--encode-categoricals", action="store_true",
                    help="one-hot encode non-numeric feature columns")


def _load(args: argparse.Namespace) -> Dataset:
    return load_dataset(
        args.input,
        treatment_col=args.treatment,
        outcome_col=args.outcome,
        delimiter="\t" if args.tab else ",",
        encode=args.encode_categoricals,
    )


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _report_payload(report: AttReport, cfg: PipelineConfig, method: str, d: Dataset) -> dict:
    return {
        "method": method,
        "config": {**cfg.as_dict(), "method": method},
        "dataset": {
            "n": d.n,
            "p": d.p,
            "n_treated": d.n_treated,
            "n_control": d.n_control,
            "feature_names": list(d.feature_names),
        },
        "att": report.att,
        "n_used": report.n_used,
        "n_skipped": len(report.skipped),
        "iatt": [dataclasses.asdict(r) for r in report.iatt],
        "skipped": [dataclasses.asdict(r) for r in report.skipped],
        "strata": [dict(s) for s in report.strata],
    }


def _write_audit(report: AttReport, path: Path) -> None:
    lines = []
    for r in report.iatt:
        lines.append(json.dumps(dataclasses.asdict(r), sort_keys=True))
    for r in report.skipped:
        lines.append(json.dumps({"treated_row": r.treated_row, "skipped": r.reason}, sort_keys=True))
    path.write_text("\n".join(lines) + "\n")


def _summary_text(report: AttReport, method: str, d: Dataset) -> str:
    lines = [
        f"method        {method}",
        f"att           {report.att!r}",
        f"treated used  {report.n_used} of {report.n_treated}",
        f"skipped       {len(report.skipped)}",
        f"dataset       n={d.n} p={d.p} treated={d.n_treated} control={d.n_control}",
    ]
    matched = [r for r in report.iatt if r.matched_rows]
    if matched:
        eps = [r.epsilon for r in matched if r.epsilon is not None]
        sub = sum(1 for r in matched if r.suboptimal)
        lines.append(f"matches       {len(matched)} (budget-limited: {sub})")
        lines.append(f"epsilon       mean={sum(eps) / len(eps)!r} max={max(eps)!r}")
    if report.strata:
        lines.append(f"strata        {len(report.strata)}")
    return "\n".join(lines) + "\n"


def cmd_estimate(args: argparse.Namespace) -> int:
    cfg, extras = _resolve_config(args)
    method = args.method or extras.get("method") or "m5c-mf"
    if method not in ESTIMATORS:
        raise ConfigError(f"unknown method {method!r} (choose from {', '.join(sorted(ESTIMATORS))})")
    if args.dry_run:
        if not Path(args.input).exists():
            raise FileNotFoundError(args.input)
        logger.info("dry run ok: method=%s config=%s", method, cfg.as_dict())
        return 0
    t0 = time.perf_counter()
    d = _load(args)
    report = ESTIMATORS[method](d, cfg)
    out = _out_dir(args)
    if report.tree is not None:
        (out / "tree_rules.txt").write_text(export_rules(report.tree))
        _dump_json(tree_to_dict(report.tree), out / "tree.json")
    _write_audit(report, out / "audit.jsonl")
    (out / "summary.txt").write_text(_summary_text(report, method, d))
    payload = _report_payload(report, cfg, method, d)
    meta = {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "runtime_s": time.perf_counter() - t0,
        "version": __version__,
        "input": str(args.input),
    }
    _dump_json({"payload": payload, "meta": meta}, out / "report.json")
    logger.info("att = %r (method %s); artifacts in %s", report.att, method, out)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    if args.preset not in PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r} (choose from {', '.join(PRESETS)})")
    spec = dataclasses.replace(PRESETS[args.preset], seed=cfg.seed)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError("no methods given")
    if args.study == "bootstrap" and args.treated_sample is None:
        raise ConfigError("bootstrap study needs --treated-sample")
    if args.dry_run:
        logger.info("dry run ok: %s study, preset=%s, methods=%s", args.study, args.preset, methods)
        return 0
    if args.study == "bias":
        result = run_bias_study(spec, methods, args.replications, cfg)
    else:
        d = generate(spec)
        result = run_bootstrap_study(
            d, methods, args.replications, args.treated_sample, seed=cfg.seed, cfg=cfg
        )
    out = _out_dir(args)
    write_records_csv(result, out / "records.csv")
    _dump_json(summary_to_dict(result), out / "summary.json")
    for s in result.summaries:
        logger.info(
            "%s: mean estimate %s (n_ok=%d, failed=%d)",
            s.method, s.mean_estimate, s.n_ok, s.n_failed,
        )
    logger.info("bench artifacts in %s", out)
    return 0


def cmd_balance(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    if args.dry_run:
        for path in (args.input, args.audit):
            if not Path(path).exists():
                raise FileNotFoundError(path)
        logger.info("dry run ok")
        return 0
    d = _load(args)
    audit = Path(args.audit)
    if not audit.exists():
        raise AuditNotFound(f"audit log not found: {audit}")
    matches: list[tuple[int, tuple[int, ...]]] = []
    for line in audit.read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        rows = rec.get("matched_rows")
        if rows:
            matches.append((int(rec["treated_row"]), tuple(int(r) for r in rows)))
    pre = pre_match_report(d, bins=cfg.bins)
    out = _out_dir(args)
    text = report_to_text(pre)
    blob = {"pre": report_to_dict(pre)}
    if matches:
        post = post_match_report(d, matches, bins=cfg.bins)
        text += "\n" + report_to_text(post)
        blob["post"] = report_to_dict(post)
    else:
        raise AuditNotFound(f"audit log {audit} holds no matched control sets")
    (out / "balance.txt").write_text(text)
    _dump_json(blob, out / "balance.json")
    logger.info(
        "balance: pre mean |SMD| %.4f -> post %.4f; artifacts in %s",
        pre.mean_abs_smd, post.mean_abs_smd, out,
    )
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    if args.dry_run:
        if not Path(args.input).exists():
            raise FileNotFoundError(args.input)
        logger.info("dry run ok")
        return 0
    d = _load(args)
    fit = fit_pipeline(d, cfg)
    out = _out_dir(args)
    (out / "tree_rules.txt").write_text(export_rules(fit.tree))
    blob = tree_to_dict(fit.tree)
    blob["feature_scaling"] = [list(pair) for pair in (fit.control.scaling or ())]
    _dump_json(blob, out / "tree.json")
    logger.info("tree: %d leaves; artifacts in %s", len(fit.tree.leaves()), out)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    cfg, _ = _resolve_config(args)
    if args.preset not in PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r} (choose from {', '.join(PRESETS)})")
    spec = PRESETS[args.preset]
    if args.n_treated is not None:
        spec = dataclasses.replace(spec, n_treated=args.n_treated)
    if args.n_control is not None:
        spec = dataclasses.replace(spec, n_control=args.n_control)
    if args.dry_run:
        logger.info("dry run ok: preset=%s seed=%d", args.preset, cfg.seed)
        return 0
    d = generate(spec, seed=cfg.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "y", *d.feature_names])
        for i in range(d.n):
            wr.writerow([int(d.t[i]), repr(float(d.y[i])), *(repr(float(v)) for v in d.x[i])])
    logger.info("wrote %s: n=%d (treated=%d), p=%d", out, d.n, d.n_treated, d.p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stratamatch",
        description="Stratified causal matching with exact per-unit control selection.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("estimate", help="estimate the effect on the treated")
    _add_io_flags(sp)
    sp.add_argument("--method", choices=sorted(ESTIMATORS), default=None,
                    help="estimator (default m5c-mf)")
    sp.add_argument("--out", required=True, help="output directory")
    _add_pipeline_flags(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("bench", help="synthetic benchmark studies")
    sp.add_argument("--preset", default="hyb20var-desk", help="generator preset")
    sp.add_argument("--study", choices=("bias", "bootstrap"), default="bias")
    sp.add_argument("--replications", type=int, default=30)
    sp.add_argument("--methods", default="m5c-mf,naive", help="comma-separated method list")
    sp.add_argument("--treated-sample", type=int, default=None,
                    help="treated subsample size (bootstrap study)")
    sp.add_argument("--out", required=True, help="output directory")
    _add_pipeline_flags(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("balance", help="pre/post balance for a completed run")
    _add_io_flags(sp)
    sp.add_argument("--audit", required=True, help="audit.jsonl from an estimate run")
    sp.add_argument("--out", required=True, help="output directory")
    _add_pipeline_flags(sp)
    sp.set_defaults(func=cmd_balance)

    sp = sub.add_parser("tree", help="fit and export the stratification tree")
    _add_io_flags(sp)
    sp.add_argument("--out", required=True, help="output directory")
    _add_pipeline_flags(sp)
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("gen", help="write a synthetic dataset")
    sp.add_argument("--preset", default="hyb20var-desk")
    sp.add_argument("--n-treated", type=int, default=None, help="override preset treated count")
    sp.add_argument("--n-control", type=int, default=None, help="override preset control count")
    sp.add_argument("--out", required=True, help="output CSV path")
    _add_pipeline_flags(sp)
    sp.set_defaults(func=cmd_gen)

    for parser in sub.choices.values():
        parser.add_argument("--dry-run", action="store_true",
                            help="validate configuration and inputs, then exit")
        parser.add_argument("--verbose", action="store_true", help="debug logging")
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        logger.error("configuration error: %s", exc)
        return 2
    except _DATA_ERRORS as exc:
        logger.error("data error: %s", exc)
        return 3
    except EstimationImpossible as exc:
        logger.error("estimation impossible: %s", exc)
        return 4
    except StrataMatchError as exc:
        logger.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
