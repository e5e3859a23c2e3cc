"""Command-line interface.

``lwf <subcommand> --config <path> [--seed S] [--replicates R] [--out DIR]
[--threads T]``.  Simulation subcommands write ``trajectories.csv`` (or
``paths.csv`` for the lineage-count chain); experiment subcommands write
``report.json`` plus a ``meta.json`` sidecar carrying wall-clock timing
(kept out of the report so identical seeds reproduce it byte-for-byte).

Simulation subcommands draw their replicates in fixed-width batches, one
random stream per batch, so their output does not depend on ``--threads``.

Exit codes: 0 all assertions pass, 1 an experiment assertion failed (or an
unexpected error, re-raised), 2 configuration error.  ``meta.json`` is
written on every exit, with the error class and message on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import experiments as xp
from .ancestral import AncestralModel, simulate_ancestral, stationary_law
from .batches import LANE_DISCRETE, LANE_SDE, map_batches
from .config import (
    ConfigError,
    forbid_blocks,
    load_config,
    parse_drift,
    parse_measure,
    parse_rule,
    parse_tail,
    parse_x0,
    take_block,
)
from .core import freqs_of, make_schedule
from .discrete import DiscreteModel, simulate_discrete
from .errors import LwfError
from .rng import RngStream
from .sde import SdeConfig, simulate_sde
from .trajectory import write_ancestral_csv, write_trajectories_csv

EXPERIMENTS = (
    "convergence",
    "fixation",
    "duality",
    "rps-lyapunov",
    "successive-extinction",
    "drift-oracle",
)
SUBCOMMANDS = ("simulate-discrete", "simulate-sde", "ancestral") + EXPERIMENTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lwf", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="overrides experiment.seed")
        p.add_argument("--replicates", type=int, default=None, help="overrides experiment.replicates")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--threads", type=int, default=1)
    return parser


def _experiment_block(cfg, extra_allowed=(), extra_required=()):
    allowed = ("name", "seed", "replicates") + tuple(extra_allowed)
    return take_block(cfg, "experiment", allowed, extra_required, optional=True)


def _seed_replicates(args, block, default_replicates=1):
    seed = args.seed if args.seed is not None else int(block.get("seed", 0))
    replicates = args.replicates if args.replicates is not None else int(block.get("replicates", default_replicates))
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    return seed, replicates


def _model_count(block, key: str, minimum: int, default: int | None = None) -> int:
    value = int(block.get(key, default))
    if value < minimum:
        raise ConfigError(f"invalid 'model' block: {key} must be >= {minimum}, got {value}")
    return value


@contextmanager
def _building(blocks: str):
    """Report a ValueError raised while building from config ``blocks`` as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"invalid {blocks}: {exc}") from exc


def _check_name(block, expected):
    name = block.get("name")
    if name is not None and name != expected:
        raise ConfigError(f"experiment.name is {name!r} but the subcommand is {expected!r}")


def _run_simulate_discrete(args, cfg, out: Path) -> int:
    forbid_blocks(cfg, ("drift",), "simulate-discrete")
    model_block = take_block(
        cfg, "model", ("K", "x0", "N", "generations", "record_every"), ("K", "x0", "N", "generations")
    )
    sched_block = take_block(cfg, "schedule", ("alpha", "kappa", "sigma", "b", "tail"), ("alpha", "kappa", "sigma", "tail"))
    exp_block = _experiment_block(cfg)
    _check_name(exp_block, "simulate-discrete")
    seed, replicates = _seed_replicates(args, exp_block)

    K = int(model_block["K"])
    with _building("'model' block"):
        x0 = freqs_of(parse_x0(model_block, K))
    rule = parse_rule(cfg, K)
    measure = parse_measure(cfg)
    with _building("'schedule' block"):
        schedule = make_schedule(
            int(model_block["N"]),
            float(sched_block["alpha"]),
            float(sched_block["kappa"]),
            float(sched_block["sigma"]),
            measure,
            parse_tail(sched_block),
            b=float(sched_block["b"]) if "b" in sched_block else None,
        )
        model = DiscreteModel.from_schedule(schedule, rule)
    generations = _model_count(model_block, "generations", 0)
    record_every = _model_count(model_block, "record_every", 1, default=1)
    batches = map_batches(
        lambda width, rng: simulate_discrete(model, x0, width, generations, record_every, rng),
        replicates,
        RngStream(seed),
        LANE_DISCRETE,
        args.threads,
    )
    write_trajectories_csv(out / "trajectories.csv", [t for batch in batches for t in batch])
    return 0


def _run_simulate_sde(args, cfg, out: Path) -> int:
    forbid_blocks(cfg, ("rule", "schedule"), "simulate-sde")
    model_block = take_block(
        cfg,
        "model",
        ("K", "x0", "dt", "horizon", "sigma", "eps_jump", "tol_ext", "record_every"),
        ("K", "x0", "dt", "horizon", "sigma"),
    )
    exp_block = _experiment_block(cfg)
    _check_name(exp_block, "simulate-sde")
    seed, replicates = _seed_replicates(args, exp_block)

    K = int(model_block["K"])
    drift = parse_drift(cfg, K)
    measure = parse_measure(cfg)
    with _building("'model' block"):
        x0 = freqs_of(parse_x0(model_block, K))
        sde = SdeConfig(
            K=K,
            drift=drift,
            sigma=float(model_block["sigma"]),
            measure=measure,
            dt=float(model_block["dt"]),
            horizon=float(model_block["horizon"]),
            eps_jump=float(model_block.get("eps_jump", 1e-3)),
            tol_ext=float(model_block.get("tol_ext", 0.0)),
        )
    record_every = _model_count(model_block, "record_every", 1, default=1)
    batches = map_batches(
        lambda width, rng: simulate_sde(sde, x0, width, record_every, rng)[0],
        replicates,
        RngStream(seed),
        LANE_SDE,
        args.threads,
    )
    write_trajectories_csv(out / "trajectories.csv", [t for batch in batches for t in batch])
    return 0


def _run_ancestral(args, cfg, out: Path) -> int:
    forbid_blocks(cfg, ("rule", "drift",), "ancestral")
    model_block = take_block(
        cfg,
        "model",
        ("n0", "horizon", "kappa", "sigma", "n_cap", "stationary_time", "burn_in"),
        ("n0", "horizon", "kappa", "sigma"),
    )
    sched_block = take_block(cfg, "schedule", ("tail",), ("tail",))
    exp_block = _experiment_block(cfg)
    _check_name(exp_block, "ancestral")
    seed, replicates = _seed_replicates(args, exp_block)

    measure = parse_measure(cfg)
    tail = parse_tail(sched_block)
    increments = {k - 1: p for k, p in tail.items()}
    with _building("'model' or 'schedule' block"):
        model = AncestralModel(
            float(model_block["kappa"]),
            float(model_block["sigma"]),
            increments,
            measure,
            n_cap=int(model_block.get("n_cap", AncestralModel.n_cap)),
        )
        # stationary_time asks for the solved law; its value and burn_in sized the simulation that once estimated it
        law = stationary_law(model) if "stationary_time" in model_block else None
    stream = RngStream(seed)
    horizon = float(model_block["horizon"])
    paths = [
        simulate_ancestral(model, int(model_block["n0"]), horizon, stream.derive(r).generator())
        for r in range(replicates)
    ]
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
    return 0


def _run_experiment(args, cfg, out: Path, name: str) -> int:
    if name == "convergence":
        model_block = take_block(
            cfg, "model", ("K", "x0", "T", "dt", "sigma", "kappa", "eps_jump"), ("K", "x0", "T", "dt", "sigma", "kappa")
        )
        sched_block = take_block(cfg, "schedule", ("alpha", "tail"), ("alpha", "tail"))
        exp_block = _experiment_block(cfg, ("N_grid", "final_ks_threshold"), ("N_grid",))
        _check_name(exp_block, name)
        seed, replicates = _seed_replicates(args, exp_block, 2000)
        K = int(model_block["K"])
        report = xp.run_convergence(
            rule=parse_rule(cfg, K),
            drift=parse_drift(cfg, K),
            measure=parse_measure(cfg),
            tail=parse_tail(sched_block),
            alpha=float(sched_block["alpha"]),
            kappa=float(model_block["kappa"]),
            sigma=float(model_block["sigma"]),
            x0=parse_x0(model_block, K),
            T=float(model_block["T"]),
            N_grid=[int(n) for n in exp_block["N_grid"]],
            dt=float(model_block["dt"]),
            eps_jump=float(model_block.get("eps_jump", 1e-3)),
            final_ks_threshold=float(exp_block.get("final_ks_threshold", 0.06)),
            replicates=replicates,
            seed=seed,
            threads=args.threads,
        )
    elif name == "fixation":
        forbid_blocks(cfg, ("rule", "drift"), name)
        model_block = take_block(
            cfg,
            "model",
            ("x0", "kappa", "sigma", "dt", "eps_jump", "tol_ext", "max_time", "stationary_time"),  # last one ignored
            ("x0", "kappa", "sigma", "dt"),
        )
        sched_block = take_block(cfg, "schedule", ("tail",), ("tail",))
        exp_block = _experiment_block(cfg)
        _check_name(exp_block, name)
        seed, replicates = _seed_replicates(args, exp_block, 2000)
        tail = parse_tail(sched_block)
        report = xp.run_fixation(
            kappa=float(model_block["kappa"]),
            increments={k - 1: p for k, p in tail.items()},
            sigma=float(model_block["sigma"]),
            measure=parse_measure(cfg),
            x0=parse_x0(model_block),
            dt=float(model_block["dt"]),
            eps_jump=float(model_block.get("eps_jump", 1e-3)),
            tol_ext=float(model_block.get("tol_ext", 1e-8)),
            max_time=float(model_block.get("max_time", 500.0)),
            replicates=replicates,
            seed=seed,
            threads=args.threads,
        )
    elif name == "duality":
        forbid_blocks(cfg, ("rule", "drift"), name)
        model_block = take_block(cfg, "model", ("kappa", "sigma", "dt", "eps_jump"), ("kappa", "sigma", "dt"))
        sched_block = take_block(cfg, "schedule", ("tail",), ("tail",))
        exp_block = _experiment_block(cfg, ("xs", "ts", "n0s", "dual_replicates"))
        _check_name(exp_block, name)
        seed, replicates = _seed_replicates(args, exp_block, 20000)
        tail = parse_tail(sched_block)
        report = xp.run_duality(
            kappa=float(model_block["kappa"]),
            increments={k - 1: p for k, p in tail.items()},
            sigma=float(model_block["sigma"]),
            measure=parse_measure(cfg),
            xs=tuple(exp_block.get("xs", (0.3, 0.7))),
            ts=tuple(exp_block.get("ts", (0.5, 1.0))),
            n0s=tuple(int(n) for n in exp_block.get("n0s", (1, 2, 3))),
            dt=float(model_block["dt"]),
            eps_jump=float(model_block.get("eps_jump", 1e-3)),
            replicates=replicates,
            dual_replicates=int(exp_block.get("dual_replicates", replicates)),
            seed=seed,
            threads=args.threads,
        )
    elif name == "rps-lyapunov":
        forbid_blocks(cfg, ("rule", "drift", "schedule"), name)
        model_block = take_block(cfg, "model", ("kappa", "sigma", "dt", "eps_jump"), ("kappa", "sigma", "dt"))
        exp_block = _experiment_block(cfg, ("delta", "T", "grid_points"), ("delta",))
        _check_name(exp_block, name)
        seed, replicates = _seed_replicates(args, exp_block, 2000)
        report = xp.run_rps_lyapunov(
            kappa=float(model_block["kappa"]),
            sigma=float(model_block["sigma"]),
            measure=parse_measure(cfg),
            delta=float(exp_block["delta"]),
            T=float(exp_block.get("T", 2.0)),
            grid_points=int(exp_block.get("grid_points", 8)),
            dt=float(model_block["dt"]),
            eps_jump=float(model_block.get("eps_jump", 1e-3)),
            replicates=replicates,
            seed=seed,
            threads=args.threads,
        )
    elif name == "successive-extinction":
        forbid_blocks(cfg, ("rule", "schedule", "lambda"), name)
        model_block = take_block(
            cfg, "model", ("x0", "sigma", "dt", "tol_ext", "max_time"), ("x0", "sigma", "dt")
        )
        exp_block = _experiment_block(cfg, ("min_fraction",))
        _check_name(exp_block, name)
        seed, replicates = _seed_replicates(args, exp_block, 1000)
        x0 = parse_x0(model_block)
        report = xp.run_successive_extinction(
            drift=parse_drift(cfg, len(x0)),
            sigma=float(model_block["sigma"]),
            x0=x0,
            dt=float(model_block["dt"]),
            tol_ext=float(model_block.get("tol_ext", 1e-6)),
            max_time=float(model_block.get("max_time", 200.0)),
            min_fraction=float(exp_block.get("min_fraction", 0.99)),
            replicates=replicates,
            seed=seed,
            threads=args.threads,
        )
    elif name == "drift-oracle":
        forbid_blocks(cfg, ("rule", "drift", "schedule", "lambda", "model"), name)
        exp_block = _experiment_block(cfg, ("points", "samples", "min_coord"))
        _check_name(exp_block, name)
        seed, _ = _seed_replicates(args, exp_block)
        report = xp.run_drift_oracle(
            points=int(exp_block.get("points", 25)),
            samples=int(exp_block.get("samples", 10**6)),
            min_coord=float(exp_block.get("min_coord", 0.05)),
            seed=seed,
            threads=args.threads,
        )
    else:  # pragma: no cover - parser restricts choices
        raise ConfigError(f"unknown experiment {name!r}")

    (out / "report.json").write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return 0 if report.passed else 1


def _run(args, out: Path) -> int:
    cfg = load_config(args.config)
    if args.subcommand == "simulate-discrete":
        return _run_simulate_discrete(args, cfg, out)
    if args.subcommand == "simulate-sde":
        return _run_simulate_sde(args, cfg, out)
    if args.subcommand == "ancestral":
        return _run_ancestral(args, cfg, out)
    return _run_experiment(args, cfg, out, args.subcommand)


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
