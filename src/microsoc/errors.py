"""Exception types raised across the simulator.

Everything derives from MicrosocError so callers can catch the package's own
failures without swallowing genuine bugs. Most are also ValueError subclasses
because they signal bad inputs.
"""

from __future__ import annotations


class MicrosocError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParamsError(MicrosocError, ValueError):
    """A model parameter is outside its legal range."""


class SeriesTooShortError(MicrosocError, ValueError):
    """A series operation needs more points than were given."""


class InsufficientDataError(MicrosocError, ValueError):
    """Aggregation needs at least two values."""


class InvalidReplicatesError(MicrosocError, ValueError):
    """The requested replicate count is not a positive integer."""


class UnsupportedKindError(MicrosocError, ValueError):
    """No built-in pairing schedule of this kind exists for this population size."""


class UnsupportedSizeError(MicrosocError, ValueError):
    """Built-in pairing schedules only exist for certain population sizes."""


class UnknownAgentError(MicrosocError, ValueError):
    """An agent id is outside the population."""


class ScheduleParseError(MicrosocError, ValueError):
    """A schedule file is syntactically malformed."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ScheduleValidationError(MicrosocError, ValueError):
    """A schedule file parsed but violates the pairing rules."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid schedule: {lines}")


class SchemaError(MicrosocError, ValueError):
    """A CSV file does not match the expected column schema."""


class ConfigError(MicrosocError, ValueError):
    """A sweep configuration file is invalid."""
