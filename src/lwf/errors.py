"""Exception types shared across the package, and the one parser of the config kind blocks."""

from .core import is_number


class LwfError(Exception):
    """Base class for all package errors."""


class ConfigError(LwfError):
    """Raised for malformed configuration input (unknown keys, bad values)."""


class ScheduleError(LwfError):
    """Raised when scaling parameters are infeasible (e.g. event probability > 1)."""


class RateExplosionError(LwfError):
    """Raised when a simulated chain exceeds the hard state guard."""


def leaves(value, path: str):
    """Each ``(path, leaf)`` under the JSON lists and objects of ``value``, the paths written as ``model.x0[1]``."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def build_kind(kinds: dict, block, where: str, K: int | None = None):
    """Build the object a ``rule``, ``drift`` or ``lambda`` block names by its ``kind``.

    ``kinds`` maps each kind to ``(allowed keys, builder)``; the builder takes
    the block's other keys and ``K``.  Every value under those keys is a
    number (:func:`~lwf.core.is_number`).  With a ``K``, the built object
    must be for ``K`` types.
    """
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError(f"{where} block must be a mapping with a 'kind' key")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {where} kind {kind!r} (expected one of {sorted(kinds)})")
    allowed, builder = kinds[kind]
    params = {k: v for k, v in block.items() if k != "kind"}
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where} block: {sorted(unknown)}")
    try:
        for key, value in params.items():
            for path, leaf in leaves(value, key):
                if not is_number(leaf):
                    if isinstance(leaf, str):
                        float(leaf)  # a string that reads as no number keeps float()'s message
                    raise ValueError(f"{path} must be a number, got {leaf!r}")
        built = builder(params, K)
    except (KeyError, ValueError, TypeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"bad {where} block: {detail}") from exc
    if K is not None and built.K != K:
        raise ConfigError(f"{kind} {where} is for K={built.K} but model has K={K}")
    return built
