"""Exception types shared across the package."""


class LogshiftError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LogshiftError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(LogshiftError):
    """An adaptive numerical scheme exhausted its budget before reaching tolerance."""


class TruncationError(LogshiftError):
    """A grid or integration domain is truncated too aggressively for the requested accuracy."""


class UnsupportedParentError(LogshiftError):
    """No closed-form characteristic function is registered for this parent distribution."""


class InsufficientDataError(LogshiftError, ValueError):
    """Too few observations for the requested procedure."""
