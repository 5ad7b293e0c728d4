"""Exception types shared across the package."""
from __future__ import annotations


class ConsistencyError(RuntimeError):
    """An internal algebraic identity failed beyond tolerance.

    Raised when two independent evaluation routes of the same quantity
    disagree (for example the gamma coefficients against their combined
    closed forms, or analytic channel eigenvalues against direct
    diagonalization).  Signals a formula transcription bug, not bad input.
    """


class QuadratureError(RuntimeError):
    """An oracle rule missed its error target, or the geometry is past the
    oracle's reach (field.ORACLE_REACH) and no rule ran.

    Carries the rule's error estimate: inf where no rule ran.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class ConfigError(ValueError):
    """A sweep configuration file or CLI parameter set failed validation."""
