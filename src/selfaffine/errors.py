"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """Raised when a word enumeration would exceed the configured budget."""

    def __init__(self, n_symbols: int, length: int, budget: int):
        self.n_symbols = n_symbols
        self.length = length
        self.budget = budget
        super().__init__(
            f"enumeration budget exceeded: {n_symbols}^{length} words "
            f"> budget {budget}"
        )


class NumericallySingularError(ValueError):
    """Matrix is numerically singular (smallest singular value ~ 0)."""


class LevelOverflowError(ValueError):
    """The word log-values of a level overflow double precision."""


class SelfCheckError(ValueError):
    """Computed results break, beyond rounding, an inequality the theory guarantees."""


class IFSFormatError(ValueError):
    """Malformed IFS document; message is anchored to the offending part."""


class IFSValidationError(ValueError):
    """IFS violates a hard precondition (singular or expanding map)."""


class DegenerateCloudError(ValueError):
    """Point cloud has no spatial extent (all points equal)."""


class CLIUsageError(ValueError):
    """Bad command-line usage; maps to exit code 1."""
