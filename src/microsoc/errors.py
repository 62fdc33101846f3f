"""Exception types raised across the simulator.

Everything derives from MicrosocError so callers can catch the package's own
failures without swallowing genuine bugs; the CLI maps it to exit 2. A bad
argument raises InvalidParamsError, a bad configuration, checkpoint or input
file ConfigError, a schedule file that does not parse ScheduleParseError,
and a schedule, from a file or not, that breaks the rules
ScheduleValidationError; the two carry where and what failed. All are also
ValueError subclasses because they signal bad inputs.
"""

from __future__ import annotations


class MicrosocError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParamsError(MicrosocError, ValueError):
    """An argument is out of range or of the wrong type."""


class ScheduleParseError(MicrosocError, ValueError):
    """A schedule file is syntactically malformed."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ScheduleValidationError(MicrosocError, ValueError):
    """A schedule parsed but breaks the rules; violations are the messages
    that validate_schedule gives."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"invalid schedule: {'; '.join(self.violations)}")


class ConfigError(MicrosocError, ValueError):
    """A configuration, checkpoint or input file, or a combination of flags,
    is invalid."""
