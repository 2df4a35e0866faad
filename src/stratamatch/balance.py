"""Covariate balance diagnostics between treated and control groups.

:func:`compute_balance` scores every feature on four metrics and accepts an
optional weight vector on the control side, so the same code scores a raw
control pool and a matched pool in which each selected control counts
1/|selected| within its treated unit's match set.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _row_positions
from .errors import EmptyInput, NonFiniteResult

logger = logging.getLogger(__name__)

DEFAULT_BINS = 20
SMD_GOOD = 0.1
VR_LOW, VR_HIGH = 0.5, 2.0


def _check(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size == 0 or b.size == 0:
        raise EmptyInput("balance metrics need non-empty samples on both sides")
    return a, b


def _weights(v: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    if w is None:
        return np.ones_like(v)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if w.shape != v.shape or np.any(w < 0) or w.sum() == 0:
        raise EmptyInput("weights must be non-negative, match the sample, and not all be zero")
    return w


def _wmean(v: np.ndarray, w: np.ndarray | None = None) -> float:
    """The mean of ``v``, under the weights ``w`` if given, unless that
    overflows on finite values: then the mean of ``v / s`` times ``s``, a
    power of two above ``len(v)``, as ``regression._mean`` computes it, with
    the weights scaled to sum to one, so no partial sum can pass the float
    range. Every finite mean keeps its bits."""
    with np.errstate(over="ignore", invalid="ignore"):  # redone below
        m = float(np.mean(v) if w is None else np.sum(w * v) / np.sum(w))
    if math.isfinite(m) or not np.isfinite(v).all():
        return m
    s = math.ldexp(1.0, len(v).bit_length())
    if w is None:
        return float(np.mean(v / s)) * s
    return float(np.sum(w / np.sum(w) * (v / s))) * s


def _wvar(v: np.ndarray, w: np.ndarray, m: float) -> float:
    # population convention: weighted second moment about the weighted mean m
    return float(np.sum(w * (v - m) ** 2) / np.sum(w))


def _moments(t: np.ndarray, c: np.ndarray, wc: np.ndarray) -> tuple[float, float, float, float]:
    """Means and population variances of ``t``, and of ``c`` under the
    weights ``wc``: ``(mt, mc, vt, vc)``."""
    mc = _wmean(c, wc)
    return _wmean(t), mc, float(np.var(t)), _wvar(c, wc, mc)


def _scaled_smd_vr(t: np.ndarray, c: np.ndarray, wc: np.ndarray, vr: float) -> tuple[float, float]:
    """SMD and variance ratio of finite samples whose variances overflow.

    The SMD comes from the moments of ``t`` and ``c`` scaled by one power of
    two, exact, so that they peak in [0.5, 1); it is scale-free. For the
    ratio each side is scaled by its own power of two, ``2**-e_t`` and
    ``2**-e_c``, so neither variance underflows for the other side's
    magnitude, and the quotient is scaled back by ``2**(2 * (e_t - e_c))``.
    A control variance of zero at its own scale keeps the unscaled ratio
    ``vr``."""
    et, ec = (math.frexp(float(np.max(np.abs(v))))[1] for v in (t, c))
    e = max(et, ec)
    smd = _smd(*_moments(np.ldexp(t, -e), np.ldexp(c, -e), wc))
    _, _, vt, vc = _moments(np.ldexp(t, -et), np.ldexp(c, -ec), wc)
    if vc == 0.0:
        return smd, vr
    with np.errstate(over="ignore"):  # a ratio past the float range is inf
        return smd, float(np.ldexp(vt / vc, 2 * (et - ec)))


def _smd(mt: float, mc: float, vt: float, vc: float) -> float:
    denom = math.sqrt((vt + vc) / 2.0)
    if denom == 0.0:
        return 0.0 if mt == mc else math.inf
    return abs(mt - mc) / denom


def _vr(vt: float, vc: float) -> float:
    return math.nan if vc == 0.0 else vt / vc


def _control_cdf(c: np.ndarray, w: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted control values and the cumulative control mass at each.

    Unit weights (``w is None``) accumulate to exactly 1..n, so a plain sort
    serves. Other weights keep the stable order: the order of ties fixes the
    bits of the cumulative sum.
    """
    if w is None:
        return np.sort(c), np.arange(1.0, c.size + 1.0)
    order = np.argsort(c, kind="stable")
    return c[order], np.cumsum(w[order])


def _ks_sorted(ts: np.ndarray, cs: np.ndarray, ccum: np.ndarray) -> float:
    """KS distance of sorted treated values ``ts`` against sorted control
    values ``cs`` with cumulative mass ``ccum``.

    Between two treated values the treated CDF is flat and the control CDF
    only rises, so the gap peaks at a treated value or just below one: the
    CDFs are read there, with ``side="right"`` and ``side="left"``.
    """
    sides = ("right", "left")
    ft = np.concatenate([np.searchsorted(ts, ts, side=s) for s in sides]) / ts.size
    idx = np.concatenate([np.searchsorted(cs, ts, side=s) for s in sides])
    fc = np.where(idx > 0, ccum[np.maximum(idx - 1, 0)], 0.0) / ccum[-1]
    return float(np.max(np.abs(ft - fc)))


def _overlap(name: str, ts: np.ndarray, cs: np.ndarray, bins: int,
             weighted: tuple[np.ndarray, np.ndarray] | None) -> float:
    """Overlap of sorted treated values ``ts`` and sorted control values
    ``cs`` in ``bins`` equal-width bins over their pooled range.

    A side with unit weights is counted off its sorted values: each bin is
    closed on the left, the last one on both sides, as in ``np.histogram``,
    whose equal-width path corrects every index against the same edges. A
    weighted control pool, ``weighted = (c, wc)``, keeps ``np.histogram``:
    it adds the weights in input order, and that order fixes their bits.
    A span that overflows, or that is too narrow for ``bins`` distinct
    edges, raises :class:`NonFiniteResult`.
    """
    lo = float(min(ts[0], cs[0]))
    hi = float(max(ts[-1], cs[-1]))
    if lo == hi:
        return 1.0
    try:
        if not math.isfinite(hi - lo):
            raise ValueError("the span overflows")
        edges = np.histogram_bin_edges(ts, bins=bins, range=(lo, hi))
    except ValueError:
        raise NonFiniteResult(
            f"feature {name!r}: its pooled range [{lo!r}, {hi!r}] cannot be cut "
            f"into equal-width bins (bins={bins})") from None
    pt = _sorted_counts(ts, edges)
    if weighted is None:
        pc = _sorted_counts(cs, edges)
    else:
        pc, _ = np.histogram(weighted[0], bins=bins, range=(lo, hi), weights=weighted[1])
    p = pt / pt.sum()
    q = pc / pc.sum()
    return float(np.sum(np.minimum(p, q)))


def _sorted_counts(s: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts of sorted values ``s``, all within ``[edges[0], edges[-1]]``,
    per bin ``[edges[i], edges[i + 1])``; the last bin also holds
    ``edges[-1]``."""
    ends = np.searchsorted(s, edges, side="left")
    ends[-1] = s.size
    return np.diff(ends)


@dataclass(frozen=True)
class FeatureBalance:
    """Per-feature metric row with threshold annotations."""

    name: str
    mean_treated: float
    mean_control: float
    smd: float
    variance_ratio: float
    ks: float
    overlap: float

    @property
    def smd_good(self) -> bool:
        return self.smd < SMD_GOOD

    @property
    def vr_in_range(self) -> bool | None:
        if math.isnan(self.variance_ratio):
            return None
        return VR_LOW <= self.variance_ratio <= VR_HIGH


@dataclass(frozen=True)
class BalanceReport:
    """All per-feature rows for one comparison scope.

    ``scope`` is ``"pre"``, ``"post"``, or ``"stratum:<id>"``.
    """

    scope: str
    bins: int
    features: tuple[FeatureBalance, ...]
    n_treated: int
    n_control: int

    @property
    def mean_abs_smd(self) -> float:
        vals = [f.smd for f in self.features if math.isfinite(f.smd)]
        return float(np.mean(vals)) if vals else math.nan

    @property
    def worst_smd(self) -> float:
        return max((f.smd for f in self.features), default=math.nan)


def compute_balance(
    x_treated: np.ndarray,
    x_control: np.ndarray,
    feature_names: tuple[str, ...],
    control_weights: np.ndarray | None = None,
    scope: str = "pre",
    bins: int = DEFAULT_BINS,
) -> BalanceReport:
    """Score every feature column of a treated-vs-control comparison.

    Each column is sorted once, and the sort serves both the KS distance and
    the overlap; its means and variances serve both the SMD and the variance
    ratio. The SMD is ``|mean_t - mean_c| / sqrt((var_t + var_c) / 2)`` with
    population variances: 0 for equal means and ``inf`` for unequal ones
    when both variances are zero. The variance ratio is treated over
    control, ``nan`` when the control variance is zero. When the variances
    of finite values overflow, the SMD comes from the moments of the two
    sides scaled by one power of two, and the variance ratio from each side
    scaled by its own. A mean of finite values is finite: when its sum
    overflows, it is taken over the values scaled by a power of two. The KS
    distance is the largest vertical gap between the two empirical CDFs. The
    overlap is ``sum_b min(p_b, q_b)`` of the bin proportions of ``bins``
    equal-width bins over the pooled range: 1 for identical distributions
    and 0 for disjoint ones.

    Raises:
        NonFiniteResult: when a column's pooled range cannot be cut into
            ``bins`` equal-width bins: its span overflows, or it is too
            narrow for ``bins`` distinct edges.
    """
    x_treated = np.asarray(x_treated, dtype=np.float64)
    x_control = np.asarray(x_control, dtype=np.float64)
    if x_treated.ndim != 2 or x_control.ndim != 2:
        raise EmptyInput("compute_balance expects two feature matrices")
    # feature-major: each column is one contiguous row; the transpose of a
    # C-contiguous feature-major array is taken as it is, not copied
    xt, xc = np.ascontiguousarray(x_treated.T), np.ascontiguousarray(x_control.T)
    wc = None
    rows = []
    for j, name in enumerate(feature_names):
        t, c = _check(xt[j], xc[j])
        if wc is None:
            wc = _weights(c, control_weights)
            w_cdf = None if control_weights is None else wc  # None takes the plain sort
        ts = np.sort(t)
        cs, ccum = _control_cdf(c, w_cdf)
        # a range that cannot be binned is refused before its moments overflow
        overlap = _overlap(name, ts, cs, bins, None if w_cdf is None else (c, wc))
        with np.errstate(over="ignore", invalid="ignore"):  # redone below
            mt, mc, vt, vc = _moments(t, c, wc)
        smd, vr = _smd(mt, mc, vt, vc), _vr(vt, vc)
        if not math.isfinite(vt + vc) and np.isfinite(t).all() and np.isfinite(c).all():
            smd, vr = _scaled_smd_vr(t, c, wc, vr)
        rows.append(
            FeatureBalance(
                name=name,
                mean_treated=mt,
                mean_control=mc,
                smd=smd,
                variance_ratio=vr,
                ks=_ks_sorted(ts, cs, ccum),
                overlap=overlap,
            )
        )
    return BalanceReport(
        scope=scope,
        bins=bins,
        features=tuple(rows),
        n_treated=x_treated.shape[0],
        n_control=x_control.shape[0],
    )


def pre_match_report(d: Dataset, bins: int = DEFAULT_BINS) -> BalanceReport:
    """Balance of all treated units against the full control pool.

    Each group's feature-major columns are made in one copy, whose
    transpose :func:`compute_balance` takes without a second."""
    tmask = d.t == 1
    return compute_balance(_feature_major(d.x, tmask).T, _feature_major(d.x, ~tmask).T,
                           d.feature_names, scope="pre", bins=bins)


def _feature_major(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``x[mask].T`` as a C-contiguous array, gathered one feature at a
    time, so that no row-major copy of the rows is made."""
    out = np.empty((x.shape[1], int(np.count_nonzero(mask))))
    for j, col in enumerate(x.T):
        out[j] = col[mask]
    return out


def matched_pool(
    d: Dataset, matches: list[tuple[int, tuple[int, ...]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pool matched groups for post-match diagnostics.

    ``matches`` pairs each treated row id with its selected control row ids.
    Each treated unit enters with weight 1; each of its selected controls
    with weight ``1/|selected|``, so every treated unit contributes equally.
    Controls picked by several treated units accumulate weight. Returns
    ``(x_treated, x_control, control_weights)``.
    """
    if not matches:
        raise EmptyInput("no matched groups to pool")
    sels = [sel for _, sel in matches]
    if not all(sels):
        raise EmptyInput("a matched group has no selected controls")
    pos = _row_positions(d.rows(), [t for t, _ in matches] + [r for sel in sels for r in sel])
    # each control's shares add up in match order, as a running sum would
    shares = np.repeat([1.0 / len(sel) for sel in sels], [len(sel) for sel in sels])
    weight = np.zeros(d.n)
    np.add.at(weight, pos[len(matches):], shares)
    crows = np.flatnonzero(weight)
    return d.x[pos[:len(matches)]], d.x[crows], weight[crows]


def post_match_report(
    d: Dataset, matches: list[tuple[int, tuple[int, ...]]], bins: int = DEFAULT_BINS
) -> BalanceReport:
    """Balance of matched treated units against their pooled weighted controls."""
    xt, xc, wc = matched_pool(d, matches)
    return compute_balance(xt, xc, d.feature_names, control_weights=wc, scope="post", bins=bins)


def report_to_dict(report: BalanceReport) -> dict:
    return {
        "scope": report.scope,
        "bins": report.bins,
        "n_treated": report.n_treated,
        "n_control": report.n_control,
        "mean_abs_smd": _json_safe(report.mean_abs_smd),
        "worst_smd": _json_safe(report.worst_smd),
        "features": [
            {
                "name": f.name,
                "mean_treated": f.mean_treated,
                "mean_control": f.mean_control,
                "smd": _json_safe(f.smd),
                "smd_good": f.smd_good,
                "variance_ratio": _json_safe(f.variance_ratio),
                "vr_in_range": f.vr_in_range,
                "ks": f.ks,
                "overlap": f.overlap,
            }
            for f in report.features
        ],
    }


def _json_safe(v: float) -> float | str | None:
    if math.isnan(v):
        return None
    if math.isinf(v):
        return "inf"
    return v


def report_to_text(report: BalanceReport) -> str:
    """Aligned table, one feature per line, with threshold flags."""
    header = f"balance [{report.scope}]  treated={report.n_treated}  control={report.n_control}"
    cols = f"{'feature':<16} {'SMD':>9} {'flag':>5} {'VR':>9} {'flag':>5} {'KS':>7} {'OVL':>7}"
    lines = [header, cols, "-" * len(cols)]
    for f in report.features:
        smd = "inf" if math.isinf(f.smd) else f"{f.smd:9.4f}"
        sflag = "ok" if f.smd_good else "HIGH"
        if f.vr_in_range is None:
            vr, vflag = "n/a", "-"
        else:
            vr = f"{f.variance_ratio:9.4f}"
            vflag = "ok" if f.vr_in_range else "OUT"
        lines.append(
            f"{f.name:<16} {smd:>9} {sflag:>5} {vr:>9} {vflag:>5} {f.ks:7.4f} {f.overlap:7.4f}"
        )
    lines.append("-" * len(cols))
    lines.append(f"mean |SMD| = {_fmt(report.mean_abs_smd)}   worst = {_fmt(report.worst_smd)}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    """``v`` to four decimals, ``inf`` if infinite, ``n/a`` if undefined (NaN)."""
    return "n/a" if math.isnan(v) else f"{v:.4f}"
