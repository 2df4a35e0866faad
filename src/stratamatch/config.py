"""Pipeline configuration shared by the estimators and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .tree import DEFAULT_LAMBDA, DEFAULT_MAX_DEPTH, default_theta

DEFAULT_M2 = 1e6
DEFAULT_PSI = 20


@dataclass
class PipelineConfig:
    """Every setting that changes a fitted pipeline or its matches, with its
    default.

    ``theta=None`` means the size guard follows the feature count as
    ``max(30, 2p)``. Every per-unit match search runs to the end, so every
    match is a certified optimum; ``psi``, the candidates per treated unit,
    is what bounds a search, to at most ``2**psi`` subsets.
    """

    lambda_: float = DEFAULT_LAMBDA
    theta: int | None = None
    psi: int = DEFAULT_PSI
    m2: float = DEFAULT_M2
    max_depth: int = DEFAULT_MAX_DEPTH

    def theta_for(self, p: int) -> int:
        return default_theta(p) if self.theta is None else self.theta

    def validate(self) -> None:
        if not 0 <= self.lambda_ < math.inf:
            raise ConfigError("lambda must be finite and non-negative")
        if self.theta is not None and self.theta < 0:
            raise ConfigError("theta must be non-negative")
        if self.psi < 1:
            raise ConfigError("psi must be at least 1")
        if not 0 < self.m2 < math.inf:
            raise ConfigError("m2 must be finite and positive")
        if self.max_depth < 0:
            raise ConfigError("max depth must be non-negative")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
