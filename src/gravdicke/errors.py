"""Exception types shared across the package."""


class GravDickeError(Exception):
    """Base class for all package errors."""


class ConfigError(GravDickeError):
    """Invalid, inconsistent or unknown configuration input."""


class PhysicsDomainError(GravDickeError, ValueError):
    """Input outside the physical domain of an operation."""


class LinearizationError(PhysicsDomainError):
    """Weak-field linearization |a * dz| < 1 violated."""


class QuadratureError(GravDickeError, RuntimeError):
    """Adaptive quadrature failed to converge to the requested tolerance."""


class OracleMismatchError(GravDickeError, RuntimeError):
    """Independent numerical cross-check disagreed beyond tolerance.

    ``summary`` carries the run's summary when the gate failed after building
    it, so that the record of what failed is still written.
    """

    def __init__(self, message: str, summary: dict | None = None) -> None:
        super().__init__(message)
        self.summary = summary
