"""Exception types shared across the package, and the positivity check."""

import math


class ElectronLabError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ElectronLabError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class UnsupportedConfigurationError(ElectronLabError, ValueError):
    """The requested parameter choice has no closed form in this model."""


class ConfigError(ElectronLabError, ValueError):
    """A run configuration is malformed, unknown, or of the wrong type."""


def positive(value: float, name: str) -> None:
    """Raise DomainError unless `value` is positive and finite.

    Written as one negated chained comparison so that NaN, which fails
    every comparison, is rejected along with zero, negatives and infinities.
    """
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
