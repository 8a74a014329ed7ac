"""Exception taxonomy.

The CLI maps these onto exit codes: configuration problems exit 1, solver
failures exit 2, malformed input data exit 3, estimation failures exit 4.
Library code raises them directly; nothing here is CLI-specific.
"""
from __future__ import annotations


class RdspillError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RdspillError):
    """Evaluation requested outside the model domain [-1, 1]."""


class ConfigError(RdspillError):
    """A spec, config document, or parameter combination is invalid."""


class SolverError(RdspillError):
    """A fixed-point solve (population or lambda table) could not meet its tolerance."""


class DataError(RdspillError):
    """An input data file is malformed (bad header, non-numeric cell, out-of-range value)."""


class EstimationError(RdspillError):
    """Base class for estimator failures."""


class InsufficientSupportError(EstimationError):
    """Too few usable observations on one side of the cutoff."""

    def __init__(self, side: str, message: str):
        self.side = side
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.side, str(self))


class CollinearityError(EstimationError):
    """Regressors are structurally collinear (e.g. spillover columns with r >= h)."""


class IllPosedError(EstimationError):
    """Design matrix numerically rank-deficient beyond the conditioning guard."""

    def __init__(self, message: str, condition_number: float):
        self.condition_number = condition_number
        super().__init__(message)

    def __reduce__(self):
        return type(self), (str(self), self.condition_number)


class NumericError(EstimationError):
    """A numerical computation failed (singular system, degenerate kernel moments)."""


class CrossValidationError(EstimationError):
    """Radius cross-validation could not produce a selection."""
