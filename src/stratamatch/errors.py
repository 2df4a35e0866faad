"""Exception and warning types shared across the package."""

from __future__ import annotations


class StrataMatchError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(StrataMatchError):
    """A configuration value or combination of values is invalid."""


class NamedColumnAbsent(StrataMatchError):
    """A column requested by name is not present in the input table."""

    def __init__(self, column: str, available: tuple[str, ...] = ()):
        self.column = column
        self.available = tuple(available)
        msg = f"column {column!r} not found in input"
        if available:
            msg += f" (available: {', '.join(available)})"
        super().__init__(msg)


class MalformedInput(StrataMatchError):
    """The input file cannot be read as a table: it is unreadable, not UTF-8,
    refused by the csv reader, or its header repeats a column name."""


class ParseFailure(StrataMatchError):
    """A cell could not be parsed as a finite number, or holds a value its
    column does not allow.

    Carries the 1-based file line and the column name of the offending cell;
    ``row`` is ``None`` for in-memory input, which has no file line.
    ``reason`` replaces the default "cannot parse" text of the message.
    """

    def __init__(self, row: int | None, col: str, value: str = "", reason: str = ""):
        self.row = row
        self.col = col
        self.value = value
        reason = reason or f"cannot parse {value!r} as a finite number"
        where = f"column {col!r}" if row is None else f"line {row}, column {col!r}"
        super().__init__(f"{where}: {reason}")


class PositivityViolation(StrataMatchError):
    """The dataset lacks at least one treated or one control unit."""


class EmptyInput(StrataMatchError):
    """An operation received an empty vector or matrix."""


class NoCandidates(StrataMatchError):
    """No control candidates are available for a treated unit."""


class StrategyRequiresBinary(StrataMatchError):
    """The 1:1 strategy estimator is defined for binary outcomes only."""


class EstimationImpossible(StrataMatchError):
    """Every treated unit was skipped, so no estimate can be formed."""


class NonFiniteResult(StrataMatchError):
    """An estimate, or a number bound for an artifact, is infinite or NaN
    because the data's magnitudes overflow the float range; or a feature's
    range is too wide or too narrow to cut into the balance overlap's
    equal-width bins in floating point."""


class InvalidSample(StrataMatchError):
    """A requested subsample size exceeds the available units."""


class AuditNotFound(StrataMatchError):
    """The per-unit audit log for a completed run could not be read, holds a
    malformed record or no match, names a row the input lacks, or names a
    control unit as treated or a treated unit as matched."""


class HierarchyBoundWarning(UserWarning):
    """The configured big-M multiplier is below the bound that guarantees
    deviation-sum minimization takes strict priority over the per-unit cap.

    Nothing in the package issues it any more (see
    :func:`~stratamatch.matching.hierarchy_m2_bound` for the bound); the name
    stays importable for code that filters or counts it."""
