"""Exception types shared across the package."""


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
