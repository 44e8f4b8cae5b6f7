"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "ProbcertError",
    "DomainError",
    "InvalidSpecError",
    "SampleValueError",
    "SourceExhaustedError",
    "ConfigError",
]


class ProbcertError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ProbcertError, ValueError):
    """A numeric argument lies outside the function's valid domain."""


class InvalidSpecError(ProbcertError, ValueError):
    """An ErrorSpec violates one or more of its constraints.

    ``violations`` lists every failed condition, one message each.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SampleValueError(ProbcertError, ValueError):
    """A sample value fell outside [0, 1].  ``index`` locates the offender."""

    def __init__(self, value: float, index: int):
        self.value = value
        self.index = index
        super().__init__(f"sample value {value!r} at index {index} is outside [0, 1]")


class SourceExhaustedError(ProbcertError, RuntimeError):
    """A finite sample source ran out before the requested number of draws."""


class ConfigError(ProbcertError, ValueError):
    """A run configuration is malformed.  ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
