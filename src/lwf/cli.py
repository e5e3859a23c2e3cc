"""Command-line interface.

``lwf <subcommand> --config <path> [--seed S] [--replicates R] [--out DIR]
[--threads T]``.  Simulation subcommands write ``trajectories.csv`` (or
``paths.csv`` for the lineage-count chain); experiment subcommands write
``report.json`` plus a ``meta.json`` sidecar carrying wall-clock timing
(kept out of the report so identical seeds reproduce it byte-for-byte).

``COMMANDS`` is the single schema of the config file: one row per
subcommand, naming the function it calls and the required and optional keys
of each block it reads.  A key is converted by ``CONVERT`` and passed as the
keyword of the same name (``K`` only checks ``x0``, and ``tail`` becomes
``increments`` for a function that takes the dual chain's branching law); a
key is optional exactly when that function has a default.  A parameter in
``KIND_BLOCKS`` takes a whole kind block; any other block is refused.

Simulation subcommands hand the seed's stream and ``--threads`` to the
engines, which draw their replicates in fixed-width batches, one random
stream per batch, so their output does not depend on ``--threads``.

Exit codes: 0 all assertions pass, 1 an experiment assertion failed (or an
unexpected error, re-raised), 2 configuration error.  ``meta.json`` is
written on every exit, with the error class and message on failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import experiments as xp
from .ancestral import AncestralModel, simulate_ancestral, stationary_law
from .config import TOP_LEVEL_BLOCKS, ConfigError, building, load_config, parse_tail, take_block
from .core import as_frequencies, is_number
from .discrete import DiscreteModel, simulate_discrete
from .errors import LwfError
from .measures import ZeroMeasure, measure_from_config
from .rng import SEED_LIMIT, RngStream
from .rules import rule_from_config
from .sde import SdeConfig, simulate_sde
from .selection import drift_from_config
from .trajectory import write_ancestral_csv, write_trajectories_csv

# A converter raises ValueError("must be ...") for a bad value; _kwargs names the block and the key.
# A number is a JSON number (core.is_number): a boolean or a quoted number is refused.


def _number(value) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is not None and not np.isfinite(number):  # a quoted "nan" is named as such
        raise ValueError("must be a finite number")
    if number is None or not is_number(value):
        raise ValueError("must be a number")
    return number


def _integer(value, minimum: int | None = None) -> int:
    if not is_number(value) or not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError("must be an integer")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"must be >= {minimum}")
    return value


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("must be true or false")
    return value


def _list_of(item: Callable, what: str) -> Callable:
    def convert(value) -> list:
        try:
            if isinstance(value, list) and value:
                return [item(v) for v in value]
        except ValueError:
            pass
        raise ValueError(f"must be a nonempty list of {what}")

    return convert


CONVERT = {
    **dict.fromkeys(
        ("alpha", "b", "kappa", "sigma", "dt", "horizon", "T", "eps_jump", "tol_ext", "max_time", "delta",
         "final_ks_threshold", "min_fraction", "min_coord"),
        _number,
    ),
    **dict.fromkeys(("K", "N", "n0", "seed", "replicates"), _integer),  # simulate_ancestral checks n0
    **dict.fromkeys(("record_every", "points", "samples"), partial(_integer, minimum=1)),
    "generations": partial(_integer, minimum=0),
    "grid_points": partial(_integer, minimum=2),
    **dict.fromkeys(("x0", "xs", "ts"), _list_of(_number, "numbers")),
    **dict.fromkeys(("N_grid", "n0s"), _list_of(_integer, "integers")),
    "tail": parse_tail,
    "stationary": _boolean,
}


def _simulate_discrete(
    *, out, threads, x0, rule, measure, N, tail, generations, record_every=1, replicates=1, seed=0, **knobs
):
    """``knobs`` are the schedule's ``alpha``, ``kappa``, ``sigma`` and ``b``."""
    with building("'schedule' block"):
        model = DiscreteModel.from_schedule(rule, N, measure=measure, tail=tail, **knobs)
    records = range(0, generations + 1, record_every)
    states = simulate_discrete(model, x0, replicates, records, RngStream(seed), threads)
    write_trajectories_csv(out / "trajectories.csv", records, states)


def _simulate_sde(*, out, threads, x0, drift, measure, record_every=1, replicates=1, seed=0, **sde):
    """``sde`` holds the remaining :class:`SdeConfig` fields."""
    with building("'model' block"):
        cfg = SdeConfig(K=x0.size, drift=drift, measure=measure, **sde)
    times = np.arange(0, int(round(cfg.horizon / cfg.dt)) + 1, record_every) * cfg.dt
    states = simulate_sde(cfg, x0, replicates, times, RngStream(seed), threads)[0]
    write_trajectories_csv(out / "trajectories.csv", times, states)


def _ancestral(*, out, n0, horizon, increments, measure, stationary=False, replicates=1, seed=0, **chain):
    """``chain`` holds ``kappa`` and ``sigma``; ``stationary`` also writes the solved law."""
    with building("'model' or 'schedule' block"):
        model = AncestralModel(increments=increments, measure=measure, **chain)
        law = stationary_law(model) if stationary else None
    with building("'model' block"):  # a horizon outside [0, inf)
        paths = simulate_ancestral(model, n0, horizon, replicates, RngStream(seed))
    write_ancestral_csv(out / "paths.csv", paths)
    if law is not None:
        payload = {
            "states": list(range(1, law.n_max + 1)),
            "occupation": law.occupation.tolist(),
            "n_max": law.n_max,
            "truncation_error": float(law.change.max()),
            "resolved": law.resolved,
        }
        (out / "stationary.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class Command:
    """A subcommand's function and the (required, optional) keys of each key block it reads."""

    run: Callable
    blocks: dict[str, tuple[str, str]]


# a parameter that takes a whole kind block: the block, its reader of (block, K), its value when absent (None: required)
KIND_BLOCKS = {
    "rule": ("rule", rule_from_config, None),
    "drift": ("drift", drift_from_config, None),
    "measure": ("lambda", lambda block, K: measure_from_config(block), ZeroMeasure()),
}


COMMANDS = {
    "simulate-discrete": Command(_simulate_discrete, {
        "model": ("x0 N generations", "K record_every"),
        "schedule": ("alpha kappa sigma tail", "b"),
    }),
    "simulate-sde": Command(_simulate_sde, {
        "model": ("x0 dt horizon sigma", "K eps_jump tol_ext record_every"),
    }),
    "ancestral": Command(_ancestral, {
        "model": ("n0 horizon kappa sigma", "stationary"),
        "schedule": ("tail", ""),
    }),
    "convergence": Command(xp.run_convergence, {
        "model": ("x0 T dt sigma kappa", "K eps_jump"),
        "schedule": ("alpha tail", ""),
        "experiment": ("N_grid", "final_ks_threshold"),
    }),
    "fixation": Command(xp.run_fixation, {
        "model": ("x0 kappa sigma dt", "eps_jump tol_ext max_time"),
        "schedule": ("tail", ""),
    }),
    "duality": Command(xp.run_duality, {
        "model": ("kappa sigma dt", "eps_jump"),
        "schedule": ("tail", ""),
        "experiment": ("", "xs ts n0s"),
    }),
    "rps-lyapunov": Command(xp.run_rps_lyapunov, {
        "model": ("kappa sigma dt", "eps_jump"),
        "experiment": ("delta", "T grid_points"),
    }),
    "successive-extinction": Command(xp.run_successive_extinction, {
        "model": ("x0 sigma dt", "tol_ext max_time"),
        "experiment": ("", "min_fraction"),
    }),
    "drift-oracle": Command(xp.run_drift_oracle, {
        "experiment": ("", "points samples min_coord"),
    }),
}


def _kwargs(name: str, cfg: dict, args, out: Path) -> dict:
    """Validate ``cfg`` against the row of subcommand ``name``; return the keywords of its function."""
    command = COMMANDS[name]
    params = inspect.signature(command.run).parameters
    overridable = ("seed", "replicates") if "replicates" in params else ("seed",)
    kinds = {param: kind for param, kind in KIND_BLOCKS.items() if param in params}
    read = {*command.blocks, "experiment", *(block for block, _, _ in kinds.values())}
    unused = [block for block in TOP_LEVEL_BLOCKS if block in cfg and block not in read]
    if unused:
        raise ConfigError(f"blocks {unused} are not used by {name!r}")
    blocks = {**command.blocks}
    blocks.setdefault("experiment", ("", ""))
    taken = {}
    for block, (required, optional) in blocks.items():
        allowed = required.split() + optional.split() + (["name", *overridable] if block == "experiment" else [])
        optional_block = block == "experiment" and not required
        taken[block] = take_block(cfg, block, tuple(allowed), tuple(required.split()), optional=optional_block)
    given = taken["experiment"].get("name")
    if given is not None and given != name:
        raise ConfigError(f"experiment.name is {given!r} but the subcommand is {name!r}")

    kwargs = {}
    for block, values in taken.items():
        for key, value in values.items():
            if key == "name":
                continue
            try:
                kwargs[key] = CONVERT[key](value)
            except ValueError as exc:
                raise ConfigError(f"invalid {block!r} block: {key} {exc}, got {value!r}") from None
    for key in ("seed", "replicates"):
        if getattr(args, key) is not None:
            if key not in overridable:
                raise ConfigError(f"--{key} is not used by {name!r}")
            kwargs[key] = getattr(args, key)
    if kwargs.get("replicates", 1) < 1:
        raise ConfigError(f"replicates must be >= 1, got {kwargs['replicates']}")
    if not 0 <= kwargs.get("seed", 0) < SEED_LIMIT:
        raise ConfigError(f"experiment.seed must lie in [0, 2**63), got {kwargs['seed']}")

    K = kwargs.pop("K", None)
    if "x0" in kwargs:
        if K is not None and len(kwargs["x0"]) != K:
            raise ConfigError(f"x0 has {len(kwargs['x0'])} coordinates but K = {K}")
        with building("'model' block"):
            kwargs["x0"] = as_frequencies(kwargs["x0"])
        K = kwargs["x0"].size
    if "tail" in kwargs and "increments" in params:
        kwargs["increments"] = {k - 1: p for k, p in kwargs.pop("tail").items()}
    for param, (block, read_kind, absent) in kinds.items():
        if cfg.get(block) is None and absent is None:
            raise ConfigError(f"missing required block {block!r}")
        kwargs[param] = absent if cfg.get(block) is None else read_kind(cfg[block], K)
    # the run's context, passed to a function that takes it
    kwargs.update((key, value) for key, value in (("out", out), ("threads", args.threads)) if key in params)
    return kwargs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lwf", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="overrides experiment.seed")
        p.add_argument("--replicates", type=int, default=None, help="overrides experiment.replicates")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--threads", type=int, default=1)
    return parser


def _run(args, out: Path) -> int:
    report = COMMANDS[args.subcommand].run(**_kwargs(args.subcommand, load_config(args.config), args, out))
    if report is None:  # a simulation subcommand, which wrote its own files
        return 0
    (out / "report.json").write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    started = time.monotonic()
    out.mkdir(parents=True, exist_ok=True)

    def write_meta(code: int, error: Exception | None = None) -> None:
        meta = {
            "subcommand": args.subcommand,
            "threads": args.threads,
            "wall_clock_seconds": time.monotonic() - started,
            "exit_code": code,
            "error": None if error is None else {"class": type(error).__name__, "message": str(error)},
        }
        (out / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")

    try:
        code = _run(args, out)
    except LwfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        write_meta(2, exc)
        return 2
    except Exception as exc:
        write_meta(1, exc)
        raise
    write_meta(code)
    return code


if __name__ == "__main__":
    sys.exit(main())
