"""Exception types shared across the package."""


class VibronicError(Exception):
    """Base class for all package errors."""


class DomainError(VibronicError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedVariantError(VibronicError, TypeError):
    """The requested operation is not defined for this model variant."""


class InstabilityError(VibronicError):
    """A coupling lies beyond its critical value; the quadratic model is unbounded."""


class CriticalBoundaryError(InstabilityError):
    """A coupling sits exactly at its critical value (boundary of existence)."""


class ResourceBudgetError(VibronicError):
    """A matrix build would allocate more than the configured memory budget."""

    def __init__(self, message, estimated_bytes=None):
        super().__init__(message)
        self.estimated_bytes = estimated_bytes


class EigensolverError(VibronicError):
    """Iterative eigensolver failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class ConfigError(VibronicError):
    """A run configuration violates the schema; ``path`` locates the offending key."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
