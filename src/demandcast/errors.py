"""Exception hierarchy shared across the toolkit.

The CLI maps each class to a distinct exit code, so library code should
raise the most specific type that applies.
"""


class DemandcastError(Exception):
    """Base class for all toolkit errors."""


class SpecError(DemandcastError, ValueError):
    """Invalid specification or argument (bad orders, malformed flags)."""


class DataError(DemandcastError):
    """Malformed or unusable input data (parse failures, duplicate dates)."""


class InsufficientDataError(DemandcastError):
    """Input is well-formed but too short or too sparse for the operation."""


class NumericalError(DemandcastError):
    """Numerical failure: singular systems, indefinite covariances, non-convergence."""
