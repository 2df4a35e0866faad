"""Pipeline configuration shared by the estimators and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .matching import DEFAULT_M2, DEFAULT_NODE_BUDGET, DEFAULT_PSI
from .tree import DEFAULT_LAMBDA, DEFAULT_MAX_DEPTH, default_theta


@dataclass
class PipelineConfig:
    """Every knob of the estimation pipeline, with its default.

    ``theta=None`` means the size guard follows the feature count as
    ``max(30, 2p)``. ``solver_node_budget`` caps the per-unit match search;
    ``None`` lifts the cap (fully exact solves).
    """

    lambda_: float = DEFAULT_LAMBDA
    theta: int | None = None
    psi: int = DEFAULT_PSI
    m2: float = DEFAULT_M2
    solver_node_budget: int | None = DEFAULT_NODE_BUDGET
    max_depth: int = DEFAULT_MAX_DEPTH
    bins: int = 20
    seed: int = 0

    def theta_for(self, p: int) -> int:
        return default_theta(p) if self.theta is None else self.theta

    def validate(self) -> None:
        if self.lambda_ < 0:
            raise ConfigError("lambda must be non-negative")
        if self.theta is not None and self.theta < 0:
            raise ConfigError("theta must be non-negative")
        if self.psi < 1:
            raise ConfigError("psi must be at least 1")
        if self.m2 <= 0:
            raise ConfigError("m2 must be positive")
        if self.solver_node_budget is not None and self.solver_node_budget < 1:
            raise ConfigError("solver node budget must be at least 1 (or unset)")
        if self.max_depth < 0:
            raise ConfigError("max depth must be non-negative")
        if self.bins < 1:
            raise ConfigError("bins must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
