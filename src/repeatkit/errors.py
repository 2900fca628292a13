"""Exception types shared across the package."""


class RepeatkitError(Exception):
    """Base class for every error this package raises on purpose."""


class DomainError(RepeatkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleError(RepeatkitError, ValueError):
    """The requested target cannot be met by any admissible input."""


class DataValidationError(RepeatkitError, ValueError):
    """Measurement data violate the layout required for estimation."""
