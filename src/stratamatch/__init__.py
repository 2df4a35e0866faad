"""Stratified causal matching with exact per-unit control selection.

Fits a piecewise-linear tree on controls only, matches each treated unit
to a balanced control subset inside its stratum by exact search, and
reports per-unit and aggregate effects with balance diagnostics.

``import stratamatch`` loads only the exception types; every other public
name imports its submodule (and numpy) on first access.
"""

from importlib import import_module as _import_module

from . import errors

__version__ = "0.1.0"

# submodule -> the public names it exports
_EXPORTS = {
    "balance": (
        "BalanceReport",
        "FeatureBalance",
        "compute_balance",
        "post_match_report",
        "pre_match_report",
    ),
    "bench": (
        "PRESETS",
        "StudyResult",
        "generate_hyb20var",
        "run_bias_study",
        "run_bootstrap_study",
    ),
    "config": ("PipelineConfig",),
    "dataset": (
        "Dataset",
        "load_dataset",
        "make_dataset",
        "normalize_min_max",
        "split_by_treatment",
    ),
    "errors": (
        "AuditNotFound",
        "ConfigError",
        "EmptyInput",
        "EstimationImpossible",
        "HierarchyBoundWarning",
        "InvalidSample",
        "MalformedInput",
        "NamedColumnAbsent",
        "NoCandidates",
        "NonFiniteResult",
        "ParseFailure",
        "PositivityViolation",
        "StrataMatchError",
        "StrategyRequiresBinary",
    ),
    "estimation": (
        "ESTIMATORS",
        "AttReport",
        "IattRecord",
        "PipelineFit",
        "StratumOutcome",
        "aggregate_att",
        "estimate_m5c_m",
        "estimate_m5c_mf",
        "estimate_naive",
        "estimate_strategies",
        "fit_pipeline",
        "robust_att_1to1",
        "robust_att_1tok",
        "robust_att_ktok",
    ),
    "matching": (
        "CandidatePool",
        "MatchProblem",
        "MatchSolution",
        "candidate_pool",
        "hierarchy_m2_bound",
        "select_candidates",
        "solve_match",
        "solve_match_lexicographic",
    ),
    "regression": ("LinearFit", "feature_weights", "ols_fit"),
    "tree": (
        "TreeModel",
        "TreeNode",
        "assign_leaf",
        "build_tree",
        "default_theta",
        "export_rules",
        "should_split",
        "tree_to_dict",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)

# the exception types need no numpy, so they are bound now
globals().update((name, getattr(errors, name)) for name in _EXPORTS["errors"])


def __getattr__(name: str):
    """Import a public name's submodule on first access (PEP 562)."""
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
