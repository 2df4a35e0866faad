"""Treatment-effect estimation on the treated.

Two tree-guided estimators share the discretize-then-match pipeline: the
match-form estimator replaces each treated unit's counterfactual with the
mean outcome of an optimally selected control subset from its leaf, and the
model-form estimator reads the counterfactual off the leaf's linear fit.
Alongside them live the stratum-level robust strategy estimators and the
treated-count-weighted aggregation identity, plus the naive baseline.

The stratum estimators run in exact rational arithmetic internally, so the
algebraic identities between them (1:k equals k:k; weighted stratum
aggregation equals the flat mean of unit-level effects) hold bit-for-bit
when converted back to floats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import _fork
from .config import PipelineConfig
from .dataset import Dataset, _row_positions, normalize_min_max, split_by_treatment
from .errors import EmptyInput, EstimationImpossible, NonFiniteResult, StrategyRequiresBinary
from .regression import _mean, feature_weights
from .tree import TreeModel, assign_leaf, build_tree

if TYPE_CHECKING:
    from fractions import Fraction

    from .matching import CandidatePool, MatchSolution

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# stratum-level robust strategies


@dataclass(frozen=True)
class StratumOutcome:
    """Outcome vectors of the treated and control units in one stratum."""

    treated: np.ndarray
    control: np.ndarray
    stratum_id: int | str = 0

    def __post_init__(self):
        t = np.asarray(self.treated, dtype=np.float64).reshape(-1)
        c = np.asarray(self.control, dtype=np.float64).reshape(-1)
        if t.size == 0 or c.size == 0:
            raise EmptyInput("a stratum needs at least one treated and one control unit")
        object.__setattr__(self, "treated", t)
        object.__setattr__(self, "control", c)


def _fractions(v: np.ndarray) -> list[Fraction]:
    from fractions import Fraction

    return [Fraction(float(x)) for x in v]


def robust_att_1to1(s: StratumOutcome) -> float:
    """Pair-based effect for binary outcomes in one stratum.

    Forms as many discordant pairs as possible, ``min(#T1, #C0)`` of kind
    (1,0) and ``min(#T0, #C1)`` of kind (0,1), then pairs leftover treated
    units concordantly while controls remain; returns the mean treated-minus-
    control difference over the formed pairs.

    Raises:
        StrategyRequiresBinary: if any outcome is not 0 or 1.
    """
    from fractions import Fraction

    yt, yc = s.treated, s.control
    if not (np.all((yt == 0) | (yt == 1)) and np.all((yc == 0) | (yc == 1))):
        raise StrategyRequiresBinary("1:1 pairing is defined for 0/1 outcomes only")
    t1 = int(np.sum(yt == 1))
    t0 = yt.size - t1
    c1 = int(np.sum(yc == 1))
    c0 = yc.size - c1
    d1 = min(t1, c0)
    d2 = min(t0, c1)
    conc = min(t1 - d1, c1 - d2) + min(t0 - d2, c0 - d1)
    n_pairs = d1 + d2 + conc
    # both groups being non-empty guarantees at least one pair
    return float(Fraction(d1 - d2, n_pairs))


def robust_att_1tok(s: StratumOutcome) -> float:
    """Each treated unit against all stratum controls: the mean over treated
    units of ``y_t - mean(control outcomes)``."""
    yc = _fractions(s.control)
    cbar = sum(yc) / len(yc)
    iatts = [v - cbar for v in _fractions(s.treated)]
    return float(sum(iatts) / len(iatts))


def robust_att_ktok(s: StratumOutcome) -> float:
    """Group-mean difference: ``mean(treated) - mean(control)``."""
    yt = _fractions(s.treated)
    yc = _fractions(s.control)
    return float(sum(yt) / len(yt) - sum(yc) / len(yc))


def aggregate_att(atts: list[float], n_treated: list[int]) -> float:
    """Combine per-stratum effects with weights proportional to each
    stratum's treated count. Equals the flat mean of unit-level effects when
    each stratum effect is the mean of its units'."""
    if len(atts) != len(n_treated) or not atts:
        raise EmptyInput("aggregate_att needs matching non-empty lists")
    if any(n <= 0 for n in n_treated):
        raise EmptyInput("stratum treated counts must be positive")
    total = float(sum(n_treated))
    return math.fsum(a * n for a, n in zip(atts, n_treated)) / total


# ---------------------------------------------------------------------------
# pipeline estimators


@dataclass(frozen=True)
class IattRecord:
    """One treated unit's estimated effect and its match audit trail."""

    treated_row: int
    leaf: int
    iatt: float
    matched_rows: tuple[int, ...] = ()
    epsilon: float | None = None
    a: float | None = None
    objective: float | None = None
    nodes: int | None = None


@dataclass(frozen=True)
class SkipRecord:
    treated_row: int
    reason: str


@dataclass(frozen=True)
class AttReport:
    """Estimate plus its unit-level decomposition.

    ``att`` is always the plain mean of the ``iatt`` values, so the
    decomposition reproduces the headline number exactly. ``n_treated``,
    ``n_control`` and ``feature_names`` describe the input dataset, so the
    artifacts describe it without holding it. ``tree`` is the tree the
    estimate was fitted with (``None`` for the naive baseline); it is
    exported beside the report, never serialised into it.
    """

    method: str
    att: float
    iatt: tuple[IattRecord, ...]
    skipped: tuple[SkipRecord, ...]
    n_treated: int
    n_control: int
    feature_names: tuple[str, ...]
    strata: tuple[dict, ...] = ()
    tree: TreeModel | None = field(default=None, compare=False, repr=False)

    @property
    def n_used(self) -> int:
        return len(self.iatt)


def _finish(method: str, records: list[IattRecord], skipped: list[SkipRecord],
            n_treated: int, n_control: int, feature_names: tuple[str, ...],
            strata: tuple[dict, ...] = (), tree: TreeModel | None = None) -> AttReport:
    """The report of ``records``, whose mean is the ``att``, on a dataset of
    ``n_treated`` treated and ``n_control`` control units.

    Raises:
        EstimationImpossible: when there is no record.
        NonFiniteResult: when the ``att``, or a number of some record, is
            infinite or NaN; nothing is reported then.
    """
    if not records:
        raise EstimationImpossible(f"{method}: every treated unit was skipped")
    records.sort(key=lambda r: r.treated_row)
    for r in records:
        for name in ("iatt", "epsilon", "a", "objective"):
            v = getattr(r, name)
            if v is not None and not math.isfinite(v):
                raise NonFiniteResult(
                    f"{method}: {name} of treated row {r.treated_row} is {v!r}, not a finite number"
                )
    att = _mean([r.iatt for r in records])
    if not math.isfinite(att):
        raise NonFiniteResult(f"{method}: att is {att!r}, not a finite number")
    if skipped:
        logger.warning("%s: skipped %d of %d treated units", method, len(skipped), n_treated)
    return AttReport(
        method=method,
        att=att,
        iatt=tuple(records),
        skipped=tuple(sorted(skipped, key=lambda r: r.treated_row)),
        n_treated=n_treated,
        n_control=n_control,
        feature_names=feature_names,
        strata=strata,
        tree=tree,
    )


@dataclass(frozen=True)
class PipelineFit:
    """The discretize step, fitted once per run and shared by every consumer.

    ``control`` and ``treated`` are the min-max normalized groups (both carry
    the scaling pairs), ``weights`` the global feature weights, ``tree`` the
    control-only model tree, and ``leaves`` maps each leaf that a treated
    unit reaches to the positions in ``treated`` of its treated units, the
    leaves in the order of their first unit.
    """

    control: Dataset
    treated: Dataset
    weights: np.ndarray
    tree: TreeModel
    leaves: dict[int, list[int]]


def _normalize_and_split(d: Dataset, cfg: PipelineConfig
                         ) -> tuple[Dataset, Dataset, np.ndarray]:
    """The steps that read the whole dataset: validate ``cfg``, normalize
    ``d`` (a pass-through if it is normalized), compute the feature weights
    and split it by treatment. Returns ``(control, treated, weights)``,
    which share no array with ``d``.

    The weights come before the split, so the regression's design and
    LAPACK's copy of it are freed before the control copy is made: beside
    ``d`` no two of them are held at once."""
    cfg.validate()
    dn = normalize_min_max(d)
    weights = feature_weights(dn)
    control, treated = split_by_treatment(dn)
    return control, treated, weights


def _grow(control: Dataset, treated: Dataset, weights: np.ndarray,
          cfg: PipelineConfig) -> PipelineFit:
    """Grow the tree on ``control`` and route every unit of ``treated``."""
    tree = build_tree(control, cfg.lambda_, cfg.theta_for(control.p), cfg.max_depth)
    leaves: dict[int, list[int]] = {}
    for k, x in enumerate(treated.x):
        leaves.setdefault(assign_leaf(tree, x), []).append(k)
    return PipelineFit(control=control, treated=treated, weights=weights, tree=tree, leaves=leaves)


def fit_pipeline(d: Dataset, cfg: PipelineConfig) -> PipelineFit:
    """Validate ``cfg``, normalize ``d``, compute the feature weights, split
    ``d`` by treatment, grow the tree on the controls and route every treated
    unit to its leaf.

    Only the control and treated copies, the weights and the tree are held
    while the tree grows: this call drops its reference to ``d`` after the
    split, so a dataset that the caller passed without keeping it, such as
    ``fit_pipeline(normalize_min_max(load_dataset(...)), cfg)``, is freed
    before :func:`build_tree` runs. A dataset the caller keeps stays alive.
    """
    parts = _normalize_and_split(d, cfg)
    del d
    return _grow(*parts, cfg)


def _match(pools: dict[int, CandidatePool], items: list[tuple[int, int]], x: np.ndarray,
           psi: int, m2: float) -> list[MatchSolution]:
    """Shortlist treated unit ``k`` (row ``x[k]``) in ``pools[leaf]`` and
    solve its match problem, for every ``(leaf, k)`` of ``items``; the
    solutions come in the order of ``items``.

    :func:`_fork.run` gives share ``i``, the strided ``items[i::w]``, to
    process ``i`` of ``w``, at most one per ``matching._BATCH`` problems.
    Each problem's solution, ``nodes`` included, does not depend on which
    problems share its :func:`solve_match` call, and pickling keeps every
    float's bits, so the split changes no bit.
    """
    from .matching import _BATCH, select_candidates, solve_match

    def solve(share):
        return solve_match([select_candidates(pools[leaf], x[k], psi, m2) for leaf, k in share])

    shares = _fork.run(len(items) // _BATCH, lambda i, w, _: solve(items[i::w]))
    solutions: list[MatchSolution] = [None] * len(items)
    for i, share in enumerate(shares):
        solutions[i::len(shares)] = share
    return solutions


def estimate_m5c_mf(d: Dataset, cfg: PipelineConfig | None = None) -> AttReport:
    """Match-form estimator: tree leaves stratify, one exact subset solve per
    treated unit picks its controls.

    Each leaf's controls are prepared once as a candidate pool. For each
    treated unit, the unit is routed to its leaf and the ``psi`` nearest pool
    controls by weighted distance become candidates, and :func:`solve_match`
    picks the subset whose mean outcome serves as the counterfactual. The
    shortlists and solves are split across forked processes (see
    :func:`_match`); the split changes no reported bit. Every treated unit
    is matched, none skipped: every leaf holds a control, since the root
    holds them all and a split only cuts between two values of its rows.
    Each leaf's pool is built once, and the problems are listed leaf by
    leaf, the leaves in the order of their first treated unit.

    Through the tree and the match the run holds the control and treated
    copies, not ``d``: a dataset its caller did not keep is freed before the
    tree grows, as in :func:`fit_pipeline`.

    Raises:
        NonFiniteResult: when a feature weight or a reported number is
            infinite or NaN.
    """
    from .matching import candidate_pool

    cfg = cfg or PipelineConfig()
    parts = _normalize_and_split(d, cfg)
    del d
    fit = _grow(*parts, cfg)
    control, treated = fit.control, fit.treated
    pools = {leaf_id: candidate_pool(control, fit.tree.node(leaf_id).control_indices, fit.weights)
             for leaf_id in fit.leaves}
    # (leaf, treated position) per problem
    matched = [(leaf_id, k) for leaf_id, units in fit.leaves.items() for k in units]
    solutions = _match(pools, matched, treated.x, cfg.psi, cfg.m2)
    del pools
    pos = _row_positions(control.rows(), [r for sol in solutions for r in sol.selected_ids])
    ends = np.cumsum([len(sol.selected_ids) for sol in solutions])[:-1]
    records: list[IattRecord] = []
    for (leaf_id, k), sol, at in zip(matched, solutions, np.split(pos, ends)):
        ys = control.y[at]
        records.append(IattRecord(
            treated_row=int(treated.rows()[k]),
            leaf=leaf_id,
            iatt=float(treated.y[k]) - _mean(ys),
            matched_rows=tuple(int(r) for r in sol.selected_ids),
            epsilon=sol.epsilon,
            a=sol.a,
            objective=sol.objective,
            nodes=sol.nodes,
        ))
    return _finish("m5c-mf", records, [], treated.n, control.n, control.feature_names,
                   tree=fit.tree)


def estimate_m5c_m(d: Dataset, cfg: PipelineConfig | None = None) -> AttReport:
    """Model-form estimator: the leaf's linear fit predicts the counterfactual.

    Treated units landing in a leaf whose fit has no residual degrees of
    freedom (fewer than ``p + 2`` controls) are skipped with a reason. A
    dataset the caller did not keep is freed before the tree grows, as in
    :func:`fit_pipeline`.

    Raises:
        EstimationImpossible: when every treated unit was skipped.
    """
    cfg = cfg or PipelineConfig()
    parts = _normalize_and_split(d, cfg)
    del d
    fit = _grow(*parts, cfg)
    treated = fit.treated
    rows = treated.rows()
    records: list[IattRecord] = []
    skipped: list[SkipRecord] = []
    for leaf_id, units in fit.leaves.items():
        model = fit.tree.node(leaf_id).leaf_model
        if model.r2_adj is None:
            skipped += [SkipRecord(int(rows[k]), "leaf_fit_undefined") for k in units]
            continue
        records += [IattRecord(treated_row=int(rows[k]), leaf=leaf_id,
                               iatt=float(treated.y[k]) - float(model.predict(treated.x[k])))
                    for k in units]
    return _finish("m5c-m", records, skipped, treated.n, fit.control.n,
                   fit.control.feature_names, tree=fit.tree)


def estimate_naive(d: Dataset, cfg: PipelineConfig | None = None) -> AttReport:
    """Naive baseline in report form; every treated unit's effect is its
    outcome minus the global control mean."""
    control_mean = _mean(d.y[d.t == 0])
    rows = d.rows()
    records = [
        IattRecord(treated_row=int(rows[k]), leaf=-1, iatt=float(d.y[k]) - control_mean)
        for k in np.nonzero(d.t == 1)[0]
    ]
    return _finish("naive", records, [], len(records), d.n_control, d.feature_names)


def estimate_strategies(d: Dataset, cfg: PipelineConfig | None = None) -> AttReport:
    """Tree-stratified robust estimation without per-unit subset solves.

    Leaves act as strata. Each treated unit is compared against all controls
    in its leaf (the 1:k strategy, which coincides with the group-mean k:k
    strategy), and stratum effects aggregate with treated-count weights. The
    per-stratum detail table carries all three strategy values; the 1:1 value
    is included when outcomes are binary, which is read off ``d`` before a
    dataset the caller did not keep is freed, ahead of the tree, as in
    :func:`fit_pipeline`.
    """
    cfg = cfg or PipelineConfig()
    binary = bool(np.all((d.y == 0) | (d.y == 1)))
    parts = _normalize_and_split(d, cfg)
    del d
    fit = _grow(*parts, cfg)
    control, treated = fit.control, fit.treated
    records: list[IattRecord] = []
    strata: list[dict] = []
    for leaf_id, units in sorted(fit.leaves.items()):
        yc = control.y[fit.tree.node(leaf_id).control_indices]
        s = StratumOutcome(treated=treated.y[units], control=yc, stratum_id=leaf_id)
        cbar = _mean(yc)
        for k in units:
            records.append(
                IattRecord(
                    treated_row=int(treated.rows()[k]),
                    leaf=leaf_id,
                    iatt=float(treated.y[k]) - cbar,
                )
            )
        try:
            att_1tok, att_ktok = robust_att_1tok(s), robust_att_ktok(s)
        except OverflowError:
            raise NonFiniteResult(
                f"strategy-1:k: the effect in stratum {leaf_id} is beyond the float range"
            ) from None
        detail = {
            "stratum": leaf_id,
            "n_treated": len(units),
            "n_control": int(yc.size),
            "att_1tok": att_1tok,
            "att_ktok": att_ktok,
        }
        if binary:
            detail["att_1to1"] = robust_att_1to1(s)
        strata.append(detail)
    return _finish("strategy-1:k", records, [], treated.n, control.n, control.feature_names,
                   strata=tuple(strata), tree=fit.tree)


ESTIMATORS = {
    "m5c-mf": estimate_m5c_mf,
    "m5c-m": estimate_m5c_m,
    "naive": estimate_naive,
    "strategies": estimate_strategies,
}
