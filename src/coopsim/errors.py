"""Exception hierarchy shared by all coopsim modules.

Every error raised on purpose by the library derives from ``CoopSimError``
so callers (and the CLI) can separate modelling errors from genuine bugs.
"""

from __future__ import annotations


class CoopSimError(Exception):
    """Base class for all coopsim errors."""


class DomainError(CoopSimError):
    """A parameter lies outside the domain where a quantity is defined."""


class SimplexEscape(CoopSimError):
    """An integrated trajectory left the density simplex by more than tolerance."""


class BoundaryError(CoopSimError):
    """A quantity was requested on the simplex boundary where it is undefined."""


class FlavorMismatch(CoopSimError):
    """Event-log flavor and parameters disagree (e.g. equal-rate identity broken)."""


class CouplingOrder(CoopSimError):
    """The two parameter sets of a coupled run are not ordered as required."""


class InclusionViolation(CoopSimError):
    """A coupled pair of configurations left the allowed per-site pair set.

    This is an assertion-style failure: it indicates a bug in the coupling
    construction, not bad user input.
    """


class InsufficientHistory(CoopSimError):
    """An event log does not extend far enough back to classify a mark."""


class OutOfBounds(CoopSimError):
    """A requested site or level lies outside a percolation field."""


class BudgetExhausted(CoopSimError):
    """A search ran out of its evaluation budget.

    Carries whatever partial result was established so far in ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
