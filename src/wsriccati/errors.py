"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 1,
numerical/solver failures with 2, and I/O errors (plain ``OSError``) with 3.
"""

from __future__ import annotations

__all__ = [
    "WsriccatiError",
    "ConfigurationError",
    "NumericalError",
    "DomainViolationError",
    "UnstableGainError",
    "ConvergenceError",
    "WeightOverflowError",
    "SingularJacobianError",
    "EigenSolverError",
    "NonFiniteError",
]


class WsriccatiError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(WsriccatiError):
    """Invalid configuration input (file contents, shapes, parameter ranges)."""


class NumericalError(WsriccatiError):
    """Base class for numerical and solver failures."""


class DomainViolationError(NumericalError):
    """The weighted input-cost matrix lost positive definiteness."""

    def __init__(self, message: str, smallest_eigenvalue: float | None = None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class UnstableGainError(NumericalError):
    """A converged gain does not stabilize its design bank in mean square."""


class ConvergenceError(NumericalError):
    """An iterative solver exhausted its budget or stalled."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history


class WeightOverflowError(NumericalError):
    """An exponential weight exceeded the representable range."""


class SingularJacobianError(NumericalError):
    """The residual Jacobian could not be inverted."""

    def __init__(self, message: str, condition_estimate: float | None = None):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class EigenSolverError(NumericalError):
    """The dense eigenvalue routine failed to converge."""


class NonFiniteError(NumericalError):
    """A sampled or computed quantity was NaN or infinite."""
