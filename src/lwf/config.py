"""Config-file schema: one JSON document with fixed top-level blocks.

Allowed top-level blocks are ``model``, ``rule``, ``drift``, ``lambda``,
``schedule`` and ``experiment``.  Which blocks (and which keys inside them)
a given subcommand consumes is validated strictly: unknown keys are errors,
so a typo never silently falls back to a default, and a number must be finite.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

from .core import integer_law
from .errors import ConfigError, leaves

TOP_LEVEL_BLOCKS = ("model", "rule", "drift", "lambda", "schedule", "experiment")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(cfg) - set(TOP_LEVEL_BLOCKS)
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)} (allowed: {list(TOP_LEVEL_BLOCKS)})")
    for block, value in cfg.items():
        for path, leaf in leaves(value, block):  # NaN, Infinity and overflowing literals
            if isinstance(leaf, float) and not math.isfinite(leaf):
                raise ConfigError(f"config value {path} must be a finite number, got {leaf}")
    return cfg


def take_block(cfg: dict, name: str, allowed: tuple, required: tuple = (), *, optional: bool = False) -> dict:
    """Fetch one block, rejecting unknown keys and missing required ones."""
    block = cfg.get(name)
    if block is None:
        if optional:
            return {}
        raise ConfigError(f"missing required block {name!r}")
    if not isinstance(block, dict):
        raise ConfigError(f"block {name!r} must be a JSON object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r} block: {sorted(unknown)} (allowed: {sorted(allowed)})")
    missing = [k for k in required if k not in block]
    if missing:
        raise ConfigError(f"block {name!r} is missing required keys: {missing}")
    return block


def parse_tail(tail) -> dict[int, float]:
    """``schedule.tail`` under :func:`~lwf.core.integer_law`: its weights as written, keyed by sample size."""
    with building("'schedule' block"):
        integer_law(tail, 2, "schedule.tail")
    return {int(k): float(w) for k, w in tail.items()}


@contextmanager
def building(what: str):
    """Report a ValueError raised while building ``what`` from config values as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc
