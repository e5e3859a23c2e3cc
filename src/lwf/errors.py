"""Exception types shared across the package, and the error checks of the config kind blocks."""


class LwfError(Exception):
    """Base class for all package errors."""


class ConfigError(LwfError):
    """Raised for malformed configuration input (unknown keys, bad values)."""


class ScheduleError(LwfError):
    """Raised when scaling parameters are infeasible (e.g. event probability > 1)."""


class RateExplosionError(LwfError):
    """Raised when a simulated chain exceeds the hard state guard."""


def reject_unknown(block: dict, allowed, where: str) -> None:
    """Raise a :class:`ConfigError` naming the keys of a kind block outside ``allowed``."""
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where} block: {sorted(unknown)}")


def bad_block(where: str, exc: Exception) -> ConfigError:
    """The :class:`ConfigError` of a kind block whose value failed to convert; a ``KeyError`` is a missing key."""
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ConfigError(f"bad {where} block: {detail}")
