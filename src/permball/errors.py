"""Exception hierarchy shared by all permball modules."""

from __future__ import annotations


class PermballError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PermballError):
    """Argument outside the mathematical domain of an operation."""


class ValidationError(PermballError):
    """Invalid user-supplied specification (bad n, r, rho, config, backend
    name, or a Q stored on another band's spec)."""


class CapacityError(PermballError):
    """Request exceeds a documented capacity limit of a backend."""


class ConvergenceError(PermballError):
    """An iteration exhausted its budget; carries the achieved residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class VerificationError(PermballError):
    """A self-check failed: backend disagreement or a poisoned cache entry."""
