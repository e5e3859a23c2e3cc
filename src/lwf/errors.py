"""Exception types shared across the package."""


class LwfError(Exception):
    """Base class for all package errors."""


class ConfigError(LwfError):
    """Raised for malformed configuration input (unknown keys, bad values)."""


class ScheduleError(LwfError):
    """Raised when scaling parameters are infeasible (e.g. event probability > 1)."""


class RateExplosionError(LwfError):
    """Raised when a simulated chain exceeds the hard state guard."""
