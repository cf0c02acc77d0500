"""Exception taxonomy shared across the package.

The CLI maps these onto process exit codes by its table cli.ERRORS.
"""


class QcycleError(Exception):
    """Base class for package-specific failures."""


class ConfigError(QcycleError):
    """Malformed or inconsistent run configuration."""


class ConvergenceError(QcycleError):
    """A numerical kernel failed to meet its tolerance within its cap."""


class DomainError(QcycleError):
    """Physically unreachable request, e.g. a target force at or below
    the vacuum force where no positive temperature exists."""
