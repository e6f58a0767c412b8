"""Exception types shared across the package, and the checks that a parameter is a number."""

import math
import numbers


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class DegenerateInputError(ValueError):
    """An input is invalid for the requested operation (zero vector, bad norm, ...)."""


class NoOrthogonalDirectionError(RuntimeError):
    """No unit vector orthogonal to the given constraints could be found."""


class OracleFailure(RuntimeError):
    """An oracle raised during a game; carries the offending query."""

    def __init__(self, message, query=None):
        super().__init__(message)
        self.query = query


class BudgetExhaustedError(RuntimeError):
    """An oracle with a hard query budget was asked one query too many."""


class AdversaryConstructionError(RuntimeError):
    """An adversary build step could not establish its guarantee."""


class ClampRegionError(ValueError):
    """A certificate was requested in a region where the bound does not hold."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


def number(name: str, value):
    """``value`` if it is a finite real number, else a DegenerateInputError naming
    ``name``: JSON readers take NaN and the infinities, no parameter does."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DegenerateInputError(f"{name} must be a number, not {value!r}")
    if not math.isfinite(value):
        raise DegenerateInputError(f"{name} must be finite, not {value!r}")
    return value


def count(name: str, value) -> int:
    """``value`` if it is an ``int``, else a DegenerateInputError: a float counts nothing."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DegenerateInputError(f"{name} must be an integer, not {value!r}")
    return value
