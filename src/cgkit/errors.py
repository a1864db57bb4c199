"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "CgKitError",
    "DimensionError",
    "SymmetryError",
    "NotPositiveDefiniteError",
    "ProblemSpecError",
    "BreakdownError",
    "IncompleteTraceError",
    "MatrixMarketError",
]


class CgKitError(Exception):
    """Base class for all cgkit errors."""


class DimensionError(CgKitError, ValueError):
    """Operand shapes or lengths do not agree."""


class SymmetryError(CgKitError, ValueError):
    """Matrix is not symmetric within the construction tolerance."""


class NotPositiveDefiniteError(CgKitError, ValueError):
    """Cholesky or L D Lᵀ factorization found a non-positive diagonal entry
    or pivot, or a file declares too few entries to hold an SPD matrix's
    diagonal."""


class ProblemSpecError(CgKitError, ValueError):
    """Invalid spectrum, builtin-problem specification or solver option."""


class BreakdownError(CgKitError, ArithmeticError):
    """A stepsize or direction-coupling denominator is numerically zero.

    Carries the rule that broke down and, when known, the iteration index.
    """

    def __init__(self, message: str, *, rule: str | None = None,
                 iteration: int | None = None):
        super().__init__(message)
        self.rule = rule
        self.iteration = iteration

    def at_iteration(self, k: int) -> "BreakdownError":
        """Return a copy annotated with iteration ``k`` (keeps the rule)."""
        return BreakdownError(f"{self.args[0]} (iteration {k})",
                              rule=self.rule, iteration=k)


class IncompleteTraceError(CgKitError, ValueError):
    """Trace lacks the records or cached products a check requires."""


class MatrixMarketError(CgKitError, ValueError):
    """Malformed or unsupported MatrixMarket content.

    ``line`` is the 1-based line number of the offending input line when it
    is known.
    """

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
