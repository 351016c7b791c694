"""Exception types shared across the package."""
from __future__ import annotations

__all__ = [
    "AmbiguousGroupingError",
    "CertificateMismatchError",
    "CompletionError",
    "SearchBudgetExceeded",
]


class AmbiguousGroupingError(ValueError):
    """Two cluster representatives are closer than the guard tolerance but
    farther than the merge tolerance, so grouping would be arbitrary."""


class CertificateMismatchError(RuntimeError):
    """A claimed combinatorial certificate failed its runtime check."""


class CompletionError(RuntimeError):
    """A construction step that should always succeed did not; indicates a
    violated precondition or an internal inconsistency."""


class SearchBudgetExceeded(RuntimeError):
    """Backtracking search hit its node budget before reaching an answer."""
