"""Typed errors shared across the solver stack.

The hierarchy maps onto CLI exit codes: configuration problems (2),
violated mathematical preconditions (3), iteration failures (4), and
genuine nonexistence of a jet for the requested geometry (5).
"""

from __future__ import annotations


class JetstreamError(Exception):
    """Base class for all library errors."""


class ConfigError(JetstreamError):
    """Malformed or inconsistent run configuration."""


class ConstraintError(JetstreamError):
    """A documented precondition does not hold (bad range, infeasible flux, ...)."""


class NonconvergenceError(JetstreamError):
    """An iteration hit its cap or stalled before reaching tolerance.

    ``estimate`` optionally carries the best value computed so far.
    """

    def __init__(self, message: str, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class SingularSystemError(JetstreamError):
    """Banded factorization met a zero pivot or failed the residual check."""


class FoldOverError(JetstreamError):
    """Physical-plane reconstruction produced a non-positive cell Jacobian."""

    def __init__(self, message: str, i: int | None = None, j: int | None = None):
        super().__init__(message)
        self.i = i
        self.j = j


class NozzleMatchError(JetstreamError):
    """No detachment position reproduces the requested jet radius.

    Carries the admissible radius window ``[r_hat, r_star]`` so callers can
    report how far out of range the request was; ``verdict`` is classify's.
    """

    def __init__(self, message: str, r_hat: float, r_star: float):
        super().__init__(message)
        self.r_hat = r_hat
        self.r_star = r_star


class LongNozzleError(NozzleMatchError):
    """Requested radius below the symmetric-flow radius: wall would be too long."""

    verdict = "NO_SOLUTION_LONG"


class ShortNozzleError(NozzleMatchError):
    """Requested radius above the attainable maximum: wall would be too short."""

    verdict = "NO_SOLUTION_SHORT"
