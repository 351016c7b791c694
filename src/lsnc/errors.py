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
    """Backtracking search hit its node budget before reaching an answer.

    `nodes` is the nodes spent, `colored` the free vertices colored on the
    path the search was on when it stopped, and `free` the free vertices it
    started with."""

    def __init__(self, message: str, *, nodes: int, colored: int, free: int) -> None:
        super().__init__(message)
        self.nodes = nodes
        self.colored = colored
        self.free = free
