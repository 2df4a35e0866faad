"""Least-squares fitting and the small statistics the tree builder needs."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import EmptyInput, InsufficientDegreesOfFreedom

logger = logging.getLogger(__name__)

_RIDGE = 1e-10


@dataclass(frozen=True)
class LinearFit:
    """An intercept-plus-slopes linear model with its training diagnostics.

    ``r2_adj`` is ``None`` when it is undefined, i.e. when ``n_obs <= p + 1``
    leaves no residual degrees of freedom.
    """

    intercept: float
    coefficients: np.ndarray
    r2: float
    r2_adj: float | None
    n_obs: int
    rank_deficient: bool

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # a prediction past the float range is inf or nan; callers refuse it
        with np.errstate(over="ignore", invalid="ignore"):
            return self.intercept + x @ self.coefficients


def _mean(v) -> float:
    """``float(np.mean(v))``, unless that overflows on finite values: then
    the mean of ``v / s`` times ``s``, a power of two above ``len(v)``, so
    no partial sum can pass the float range. Every finite mean keeps its
    bits."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # redone below
        m = float(np.mean(v))
    if math.isfinite(m) or not np.isfinite(v).all():
        return m
    s = math.ldexp(1.0, len(v).bit_length())
    return float(np.mean(v / s)) * s


def _std(v) -> float:
    """``float(np.std(v))``, unless that overflows on finite values (|v|
    beyond ~1e154): then the deviation of ``v`` scaled by one power of two,
    exact, so that it peaks in [0.5, 1), scaled back. Every finite deviation
    keeps its bits."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # redone below
        sd = float(np.std(v))
    if math.isfinite(sd) or not np.isfinite(v).all():
        return sd
    e = math.frexp(float(np.max(np.abs(v))))[1]
    return math.ldexp(float(np.std(np.ldexp(v, -e))), e)


def ols_fit(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """Fit ordinary least squares of ``y`` on ``x`` with an intercept.

    Uses a stable orthogonal factorization. Rank-deficient designs get the
    minimum-norm solution and are flagged; if the factorization itself fails,
    a tiny ridge on the normal equations is used as a fallback.

    R-squared is computed about the mean of ``y``; a zero-variance outcome is
    reported as a perfect fit by convention.

    Raises:
        EmptyInput: if ``x`` or ``y`` has no rows.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    n = x.shape[0]
    if n == 0 or y.shape[0] == 0:
        raise EmptyInput("ols_fit needs at least one observation")
    if y.shape[0] != n:
        raise EmptyInput("feature and outcome row counts disagree")
    p = x.shape[1]

    design = np.column_stack([np.ones(n), x])
    beta, rank_deficient = _solve(design, y)
    mean = _mean(y)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is redone below
        resid = y - design @ beta
        centered = y - mean
        ssr = float(resid @ resid)
        sst = float(centered @ centered)
    if not (math.isfinite(ssr) and math.isfinite(sst)):
        # a fitted value, a deviation or a sum of squares passed the float
        # range (|y| beyond ~1e154): form both vectors from y, the fitted
        # values and the mean, each scaled by one power of two, exact, so
        # that y peaks in [0.5, 1). Coefficients beyond the float range are
        # refitted at that scale.
        e = -math.frexp(float(np.max(np.abs(y))))[1]
        ys = np.ldexp(y, e)
        bs = np.ldexp(beta, e) if np.isfinite(beta).all() else _solve(design, ys)[0]
        resid = ys - design @ bs
        centered = ys - math.ldexp(mean, e)
        ssr, sst = float(resid @ resid), float(centered @ centered)
    r2 = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    r2a = adjusted_r2(r2, n, p) if n > p + 1 else None
    coef = np.asarray(beta[1:], dtype=np.float64)
    coef.setflags(write=False)
    return LinearFit(
        intercept=float(beta[0]),
        coefficients=coef,
        r2=float(r2),
        r2_adj=r2a,
        n_obs=n,
        rank_deficient=bool(rank_deficient),
    )


def _solve(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, bool]:
    """Least-squares coefficients of ``y`` on ``design`` and whether the
    design is rank deficient."""
    try:
        beta, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
        return beta, bool(rank < design.shape[1])
    except np.linalg.LinAlgError:
        logger.warning("lstsq failed to converge; falling back to ridge-regularized normal equations")
        gram = design.T @ design + _RIDGE * np.eye(design.shape[1])
        return np.linalg.solve(gram, design.T @ y), True


def adjusted_r2(r2: float, n: int, p: int) -> float:
    """Adjusted R-squared: ``1 - (1 - r2) * (n - 1) / (n - p - 1)``.

    Raises:
        InsufficientDegreesOfFreedom: when ``n <= p + 1``.
    """
    if n <= p + 1:
        raise InsufficientDegreesOfFreedom(f"adjusted r2 needs n > p + 1 (got n={n}, p={p})")
    return 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)


def feature_weights(d: Dataset) -> np.ndarray:
    """Feature importance for matching distances and deviation caps.

    Regresses the outcome on the normalized features of all units, treated
    and control together, and returns the absolute values of the slope
    coefficients (intercept excluded). A constant outcome explains nothing,
    so its weights are exact zeros, not the least-squares rounding noise.
    Degenerate all-zero weights are the caller's concern; see the matcher's
    unit-weight fallback.
    """
    if d.n and np.all(d.y == d.y[0]):
        w = np.zeros(d.p)
    else:
        w = np.abs(ols_fit(d.x, d.y).coefficients)
    w.setflags(write=False)
    return w
