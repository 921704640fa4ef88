"""Exception types shared across the package, and the finiteness check that raises one."""

import math


class InvalidParameterError(ValueError):
    """A configuration or argument value is outside its documented domain."""


class DegenerateConditionError(ArithmeticError):
    """A conditional quantity was requested but the conditioning event has zero mass."""


class NumericFailureError(ArithmeticError):
    """A numerical routine failed to reach its tolerance.

    Carries the best available estimate and the achieved error bound so
    callers can decide whether to accept the degraded result.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def require_finite(obj, *names: str):
    """Raise ``InvalidParameterError`` naming each attribute of ``obj`` that is NaN or infinite."""
    bad = [name for name in names if not math.isfinite(getattr(obj, name))]
    if bad:
        raise InvalidParameterError(f"{', '.join(bad)} must be finite")
