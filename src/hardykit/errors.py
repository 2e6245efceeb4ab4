"""Exception types shared across the toolkit."""


class HardykitError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(HardykitError):
    """Raised when observable and state subsystem dimensions disagree."""


class UnknownLabel(HardykitError):
    """Raised when an outcome label is not part of an observable's spectrum."""


class MalformedMeasure(HardykitError):
    """Raised when finite-measure weights are negative, non-finite or not normalized."""


class InvalidQVector(HardykitError, ValueError):
    """Raised when a probability vector component lies outside [0, 1]; also a ``ValueError``."""


class NotEntangled(HardykitError):
    """Raised when a Hardy construction's q4 cannot exceed tol at a Schmidt angle below theta*."""


class MaximallyEntangled(HardykitError):
    """Raised when a Hardy construction's q4 cannot exceed tol at a Schmidt angle >= theta*."""


class NoSolution(HardykitError):
    """Raised when a constructed setting fails its verification on the state's q-vector."""


class NoCrossing(HardykitError):
    """Raised when the expression does not cross its bound at any visibility in [0, 1]."""
