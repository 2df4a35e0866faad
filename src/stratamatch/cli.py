"""Command-line interface.

Subcommands: ``estimate`` (fit and report), ``bench`` (synthetic studies),
``balance`` (pre/post diagnostics from a run's audit log), ``tree`` (export
the fitted tree), ``gen`` (write a synthetic dataset).

Logs go to stderr; data artifacts go to files. Exit codes: 0 success,
2 configuration error, 3 data error, 4 estimation impossible. Report
payloads exclude timestamps, so the same data and config reproduce them
byte for byte at a fixed BLAS thread count: the last bits of the tree's
``np.linalg.lstsq`` fits can move with that count on large data.

Each subcommand imports the layers and the standard-library modules it calls
inside its own function, so a call loads only what it uses: ``balance`` never
loads the tree or the matcher, and ``--version`` loads no numpy, ``json``,
``csv`` or ``dataclasses``.

:func:`main` is the in-process API. :func:`run` is the program's entry
point: it runs :func:`main`, flushes the logs and the standard streams, and
leaves through ``os._exit`` with its code, so the interpreter does not visit
every live object on the way out.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import (
    AuditNotFound,
    ConfigError,
    EstimationImpossible,
    NonFiniteResult,
    StrataMatchError,
)

if TYPE_CHECKING:
    from .config import PipelineConfig
    from .dataset import Dataset
    from .estimation import AttReport

logger = logging.getLogger(__name__)

# config-file key -> PipelineConfig attribute
_CFG_KEYS = {
    "lambda": "lambda_",
    "theta": "theta",
    "psi": "psi",
    "m2": "m2",
    "max_depth": "max_depth",
}


def _parse_value(attr: str, raw: str):
    raw = raw.strip()
    if attr == "theta" and raw.lower() == "none":
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
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
        if key == "node_budget":  # older config files' key, 'none' only: delete with ROADMAP item 2
            if raw.strip().lower() != "none":
                raise ConfigError(f"{path}:{lineno}: key {key!r} was removed; every match search "
                                  "is exhaustive (only 'none' is accepted)")
            continue
        if key not in _CFG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        attr = _CFG_KEYS[key]
        overrides[attr] = _parse_value(attr, raw)
    return overrides, extras


def _resolve_config(args: argparse.Namespace) -> tuple[PipelineConfig, dict]:
    """Merge defaults, config file, and explicit CLI flags (in that order).

    Flags hold raw strings and parse like their config keys."""
    from .config import PipelineConfig

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


def _add_pipeline_flags(sp: argparse.ArgumentParser, matching: bool = True) -> None:
    """``--config`` and the tree flags, plus the matcher flags if ``matching``.
    The config file may name any pipeline key either way."""
    g = sp.add_argument_group("pipeline")
    s = argparse.SUPPRESS
    g.add_argument("--config", help="key = value config file (flags override it)")
    g.add_argument("--lambda", dest="lambda_", default=s,
                   help="split acceptance penalty for small children")
    g.add_argument("--theta", dest="theta", default=s,
                   help="small-child size guard (default or 'none': max(30, 2p))")
    g.add_argument("--max-depth", dest="max_depth", default=s, help="tree depth cap")
    if not matching:
        return
    g.add_argument("--psi", default=s,
                   help="candidate pool size per treated unit; the exact match search "
                        "grows as 2**psi")
    g.add_argument("--m2", default=s, help="deviation-sum priority multiplier")


def _seed(raw: str) -> int:
    seed = int(raw)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return seed


def _bins(raw: str) -> int:
    bins = int(raw)
    if bins < 1:
        raise argparse.ArgumentTypeError("bins must be at least 1")
    return bins


def _add_seed_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=_seed, default=0, help="base seed for all randomness")


def _add_io_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--input", required=True, help="delimited data file with a header row")
    sp.add_argument("--treatment", required=True, help="0/1 treatment column name")
    sp.add_argument("--outcome", required=True, help="numeric outcome column name")
    sp.add_argument("--tab", action="store_true", help="tab-separated input (default comma)")
    sp.add_argument("--encode-categoricals", action="store_true",
                    help="one-hot encode non-numeric feature columns")


def _load(args: argparse.Namespace) -> Dataset:
    from .dataset import load_dataset

    return load_dataset(
        args.input,
        treatment_col=args.treatment,
        outcome_col=args.outcome,
        delimiter="\t" if args.tab else ",",
        encode=args.encode_categoricals,
    )


def _dry_run(args: argparse.Namespace, *paths: str, detail: str = "") -> int:
    """Check what a run would read, without reading it: the column check
    :func:`load_dataset` runs before it opens the file, then that every path
    exists."""
    from .dataset import check_distinct_columns

    check_distinct_columns(args.treatment, args.outcome)
    for path in paths:
        if not Path(path).exists():
            raise FileNotFoundError(path)
    logger.info("dry run ok%s", detail)
    return 0


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json(obj, path: Path, **kwargs) -> str:
    """``obj`` as strict JSON text for ``path``; a NaN or an infinity in it is
    a data error, raised before anything is written."""
    import json

    try:
        return json.dumps(obj, sort_keys=True, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NonFiniteResult(f"cannot write {path}: {exc}") from None


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(_json(obj, path, indent=2) + "\n")


def _report_payload(report: AttReport, iatt: list[dict], cfg: PipelineConfig,
                    method: str) -> dict:
    """``iatt`` holds the ``dataclasses.asdict`` of each ``report.iatt`` record."""
    import dataclasses

    return {
        "method": method,
        "config": {**cfg.as_dict(), "method": method},
        "dataset": {
            "n": report.n_treated + report.n_control,
            "p": len(report.feature_names),
            "n_treated": report.n_treated,
            "n_control": report.n_control,
            "feature_names": list(report.feature_names),
        },
        "att": report.att,
        "n_used": report.n_used,
        "n_skipped": len(report.skipped),
        "iatt": iatt,
        "skipped": [dataclasses.asdict(r) for r in report.skipped],
        "strata": [dict(s) for s in report.strata],
    }


def _write_audit(report: AttReport, iatt: list[dict], path: Path) -> None:
    lines = [_json(r, path) for r in iatt]
    for r in report.skipped:
        lines.append(_json({"treated_row": r.treated_row, "skipped": r.reason}, path))
    path.write_text("\n".join(lines) + "\n")


def _summary_text(report: AttReport, method: str) -> str:
    nt, nc = report.n_treated, report.n_control
    lines = [
        f"method        {method}",
        f"att           {report.att!r}",
        f"treated used  {report.n_used} of {nt}",
        f"skipped       {len(report.skipped)}",
        f"dataset       n={nt + nc} p={len(report.feature_names)} treated={nt} control={nc}",
    ]
    matched = [r for r in report.iatt if r.matched_rows]
    if matched:
        eps = [r.epsilon for r in matched if r.epsilon is not None]
        lines.append(f"matches       {len(matched)}")
        lines.append(f"epsilon       mean={sum(eps) / len(eps)!r} max={max(eps)!r}")
    if report.strata:
        lines.append(f"strata        {len(report.strata)}")
    return "\n".join(lines) + "\n"


def cmd_estimate(args: argparse.Namespace) -> int:
    import dataclasses

    from .dataset import normalize_min_max
    from .estimation import ESTIMATORS
    from .tree import export_rules, tree_to_dict

    cfg, extras = _resolve_config(args)
    method = args.method or extras.get("method") or "m5c-mf"
    if method not in ESTIMATORS:
        raise ConfigError(f"unknown method {method!r} (choose from {', '.join(sorted(ESTIMATORS))})")
    if args.dry_run:
        return _dry_run(args, args.input, detail=f": method={method} config={cfg.as_dict()}")
    t0 = time.perf_counter()
    # normalized as it loads, and bound to no name: the raw features die at
    # normalization and the normalized ones once the estimator has split them,
    # before the tree grows; the artifacts read the dataset's facts off the report
    report = ESTIMATORS[method](normalize_min_max(_load(args)), cfg)
    out = _out_dir(args)
    if report.tree is not None:
        _dump_json(tree_to_dict(report.tree), out / "tree.json")
        (out / "tree_rules.txt").write_text(export_rules(report.tree))
    iatt = [dataclasses.asdict(r) for r in report.iatt]
    _write_audit(report, iatt, out / "audit.jsonl")
    (out / "summary.txt").write_text(_summary_text(report, method))
    payload = _report_payload(report, iatt, cfg, method)
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
    import dataclasses

    from .bench import (
        PRESETS,
        generate,
        run_bias_study,
        run_bootstrap_study,
        summary_to_dict,
        write_records_csv,
    )

    cfg, _ = _resolve_config(args)
    if args.preset not in PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r} (choose from {', '.join(PRESETS)})")
    spec = dataclasses.replace(PRESETS[args.preset], seed=args.seed)
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
            d, methods, args.replications, args.treated_sample, seed=args.seed, cfg=cfg
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


def _read_matches(audit: Path, d: Dataset, input_path: str) -> list[tuple[int, tuple[int, ...]]]:
    """``(treated row, matched control rows)`` of each audit record that
    holds a match; every row id must be an integer row of ``d``."""
    import json

    try:
        lines = audit.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise AuditNotFound(f"cannot read audit log {audit}: {exc}") from None
    known = set(d.rows().tolist())
    matches = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"audit log {audit}, line {lineno}"
        try:
            rec = json.loads(line)
        except ValueError as exc:
            raise AuditNotFound(f"{where}: not JSON ({exc})") from None
        if not isinstance(rec, dict):
            raise AuditNotFound(f"{where}: not a JSON object")
        rows = rec.get("matched_rows")
        if not rows:
            continue
        if "treated_row" not in rec or not isinstance(rows, list):
            raise AuditNotFound(f"{where}: a match needs 'treated_row' and a 'matched_rows' list")
        for r in (rec["treated_row"], *rows):
            if isinstance(r, bool) or not isinstance(r, int):
                raise AuditNotFound(f"{where}: row id {r!r} is not an integer")
            if r not in known:
                raise AuditNotFound(f"{where}: row {r} is not in {input_path}")
        matches.append((rec["treated_row"], tuple(rows)))
    if not matches:
        raise AuditNotFound(f"audit log {audit} holds no matched control sets")
    return matches


def cmd_balance(args: argparse.Namespace) -> int:
    from .balance import _fmt, post_match_report, pre_match_report, report_to_dict, report_to_text

    if args.dry_run:
        return _dry_run(args, args.input, args.audit)
    d = _load(args)
    matches = _read_matches(Path(args.audit), d, args.input)
    pre = pre_match_report(d, bins=args.bins)
    post = post_match_report(d, matches, bins=args.bins)
    # both texts are formed, and a non-finite number refused, before any file is written
    text = report_to_text(pre) + "\n" + report_to_text(post)
    blob = _json({"pre": report_to_dict(pre), "post": report_to_dict(post)},
                 Path(args.out) / "balance.json", indent=2)
    out = _out_dir(args)
    (out / "balance.txt").write_text(text)
    (out / "balance.json").write_text(blob + "\n")
    logger.info(
        "balance: pre mean |SMD| %s -> post %s; artifacts in %s",
        _fmt(pre.mean_abs_smd), _fmt(post.mean_abs_smd), out,
    )
    return 0


def cmd_tree(args: argparse.Namespace) -> int:
    from .dataset import normalize_min_max
    from .estimation import fit_pipeline
    from .tree import export_rules, tree_to_dict

    cfg, _ = _resolve_config(args)
    if args.dry_run:
        return _dry_run(args, args.input)
    fit = fit_pipeline(normalize_min_max(_load(args)), cfg)
    out = _out_dir(args)
    blob = tree_to_dict(fit.tree)
    blob["feature_scaling"] = [list(pair) for pair in (fit.control.scaling or ())]
    _dump_json(blob, out / "tree.json")
    (out / "tree_rules.txt").write_text(export_rules(fit.tree))
    logger.info("tree: %d leaves; artifacts in %s", len(fit.tree.leaves()), out)
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    import csv
    import dataclasses

    from .bench import PRESETS, generate

    if args.preset not in PRESETS:
        raise ConfigError(f"unknown preset {args.preset!r} (choose from {', '.join(PRESETS)})")
    spec = PRESETS[args.preset]
    if args.n_treated is not None:
        spec = dataclasses.replace(spec, n_treated=args.n_treated)
    if args.n_control is not None:
        spec = dataclasses.replace(spec, n_control=args.n_control)
    if args.dry_run:
        logger.info("dry run ok: preset=%s seed=%d", args.preset, args.seed)
        return 0
    d = generate(spec, seed=args.seed)
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
    sp.add_argument("--method", default=None,
                    help="estimator: m5c-mf (default), m5c-m, naive or strategies")
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
    _add_seed_flag(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("balance", help="pre/post balance for a completed run")
    _add_io_flags(sp)
    sp.add_argument("--audit", required=True, help="audit.jsonl from an estimate run")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--bins", type=_bins, default=20, help="histogram bins for overlap")
    sp.set_defaults(func=cmd_balance)

    sp = sub.add_parser("tree", help="fit and export the stratification tree")
    _add_io_flags(sp)
    sp.add_argument("--out", required=True, help="output directory")
    _add_pipeline_flags(sp, matching=False)
    sp.set_defaults(func=cmd_tree)

    sp = sub.add_parser("gen", help="write a synthetic dataset")
    sp.add_argument("--preset", default="hyb20var-desk")
    sp.add_argument("--n-treated", type=int, default=None, help="override preset treated count")
    sp.add_argument("--n-control", type=int, default=None, help="override preset control count")
    sp.add_argument("--out", required=True, help="output CSV path")
    _add_seed_flag(sp)
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
    except EstimationImpossible as exc:
        logger.error("estimation impossible: %s", exc)
        return 4
    except (StrataMatchError, FileNotFoundError) as exc:
        logger.error("data error: %s", exc)
        return 3


def run() -> None:
    """Run :func:`main` on the command line and exit with its code.

    After :func:`main` returns, or raises ``SystemExit`` (argparse does, for
    ``--help``, ``--version`` and usage errors), the logs are shut down and
    the standard streams flushed, and the process leaves through
    ``os._exit``: the interpreter's teardown, which would visit every live
    object, is skipped. A ``SystemExit`` code that is not an int or ``None``
    is printed to stderr and exits 1, as the interpreter does. Any other
    exception passes through unchanged, with its traceback and exit 1, and
    so does a failed flush, which the interpreter then reports as usual.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    if code is None:
        code = 0
    elif not isinstance(code, int):
        print(code, file=sys.stderr)
        code = 1
    try:
        logging.shutdown()
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a closed pipe, a closed stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
