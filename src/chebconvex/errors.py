"""Exception types shared across the library.

Every error raised by chebconvex derives from :class:`ChebConvexError`,
so callers can catch one base class at the CLI boundary.
"""

from __future__ import annotations


class ChebConvexError(Exception):
    """Base class for all chebconvex errors."""


class DomainError(ChebConvexError):
    """A point lies outside the interval (or function domain) it was used on."""


class ArgumentError(ChebConvexError):
    """Structurally invalid arguments: size mismatches, bad ranges, bad flags."""


class DegenerateInputError(ChebConvexError):
    """Coincident or nearly coincident points make the computation meaningless."""


class NearSingularError(ChebConvexError):
    """A collocation determinant fell below its scale-relative zero tolerance."""


class SourceEvalError(ChebConvexError):
    """A target-function source failed to produce a finite value."""


class TableFormatError(ChebConvexError):
    """Malformed tabulated input; carries the offending line numbers."""

    def __init__(self, message: str, lines: tuple[int, ...] = ()):
        super().__init__(message)
        self.lines = lines


class ResolutionError(ChebConvexError):
    """A tabulated source is too coarse (or queried off-table) for the operation."""


class GeometryError(ChebConvexError):
    """Interval geometry leaves no room for the requested construction."""


class LimitDivergedError(ChebConvexError):
    """The last two extrapolants of a one-sided limit disagreed; carries the
    samples."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class PreconditionError(ChebConvexError):
    """A documented precondition failed an opportunistic check."""
