"""Config-file schema: one JSON document with fixed top-level blocks.

Allowed top-level blocks are ``model``, ``rule``, ``drift``, ``lambda``,
``schedule`` and ``experiment``.  Which blocks (and which keys inside them)
a given subcommand consumes is validated strictly: unknown keys are errors,
so a typo never silently falls back to a default.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .errors import ConfigError
from .measures import ZeroMeasure, measure_from_config
from .rules import rule_from_config
from .selection import drift_from_config

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


def forbid_blocks(cfg: dict, names: tuple, subcommand: str) -> None:
    present = [n for n in names if n in cfg]
    if present:
        raise ConfigError(f"blocks {present} are not used by {subcommand!r}")


def parse_measure(cfg: dict):
    block = cfg.get("lambda")
    if block is None:
        return ZeroMeasure()
    return measure_from_config(block)


def parse_rule(cfg: dict, K: int):
    if "rule" not in cfg:
        raise ConfigError("missing required block 'rule'")
    return rule_from_config(cfg["rule"], K)


def parse_drift(cfg: dict, K: int):
    if "drift" not in cfg:
        raise ConfigError("missing required block 'drift'")
    return drift_from_config(cfg["drift"], K)


def parse_tail(tail) -> dict[int, float]:
    """``schedule.tail``: sample sizes of at least 2, each with a nonnegative weight."""
    if not isinstance(tail, dict) or not tail:
        raise ConfigError("schedule block needs a nonempty 'tail' mapping of sample sizes to weights")
    out = {}
    for key, value in tail.items():
        try:
            k, w = int(key), float(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad tail mapping: {exc}") from exc
        if k < 2:
            raise ConfigError(f"invalid 'schedule' block: schedule.tail key {key!r} must be a sample size >= 2")
        if w < 0:
            raise ConfigError(f"invalid 'schedule' block: schedule.tail key {key!r} has a negative weight, {w}")
        out[k] = w
    return out


@contextmanager
def building(what: str):
    """Report a ValueError raised while building ``what`` from config values as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc
