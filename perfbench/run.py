"""Benchmark of lwf: four workloads through its public entry points.

Run from the root of a checkout:

    python3 perfbench/run.py --workload extinction --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` times the workload's calls for about ``--seconds`` and prints
the end-to-end metrics.  ``--trace 1`` times a fixed number of inputs twice,
untraced and then with every public lwf call wrapped, and prints the
per-layer metrics; its spans go to ``perfbench/out``.  Either way every
call passes the output gate in workloads.py, and the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``--workload all`` runs each workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from pace import Pace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 3  # set-up probes per untraced run

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
RAW_SAMPLES = {"setup_s": "setup_wall_s", "run_s": "wall_s", "cpu_s": "cpu_s"}


def layer_unit(name: str) -> str:
    if name.endswith("events_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith(("sde.ns_per", "discrete.ns_per")):
        return "ns"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith("cpu_per_wall"):
        return "ratio"
    return "count"


@dataclass
class Attempt:
    wall_s: float  # wall and CPU time of the call, the yardstick's own share taken out
    cpu_s: float
    speed: float  # host speed during the call by the yardstick of pace.py; 1 is the reference
    output: bytes | None  # None when the operation failed


def attempt(workload, params, seed: int, tracer=None) -> Attempt:
    """One timed call on one input, then the output gate (untimed, untraced)."""
    from workloads import GateFailure

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        if tracer is not None:
            tracer.install()
        try:
            with Pace(workload.yardstick) as pace:
                wall, cpu = time.perf_counter(), time.process_time()
                try:
                    result = workload.call(params, seed, scratch)
                    ok = True
                except Exception:  # any exception is a failed operation; keep measuring
                    traceback.print_exc()
                    ok = False
                wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        finally:
            if tracer is not None:
                tracer.uninstall()
        output = None
        if ok:
            try:
                output = workload.check(params, result, scratch)
            except GateFailure as exc:
                print(f"gate: {workload.name} input {seed}: {exc}", file=sys.stderr)
    return Attempt(wall - pace.wall_s, cpu - pace.cpu_s, pace.speed, output)


def setup_times(name: str, count: int) -> list[tuple[float, float]]:
    """(wall time from process start to ready, host speed), in fresh interpreters."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), name], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True
        )
        elapsed = time.perf_counter() - started
        speed, pace_wall_s = map(float, probe.stdout.split()[-2:])
        times.append((elapsed - pace_wall_s, speed))
    return times


def measure(workload, seed: int, seconds: float, *, tiny: bool = False, setups: int = SETUPS) -> dict:
    """Untraced run: new inputs until ``seconds`` is spent, then the first input again."""
    from workloads import input_seeds

    params = workload.prepare(tiny)
    seeds = input_seeds(workload, seed)
    first = next(seeds)
    started = time.perf_counter()
    attempts = [attempt(workload, params, first)]
    # Leave room for one more input and for the repeat of the first.
    while time.perf_counter() - started + 2 * statistics.median(a.wall_s for a in attempts) <= seconds:
        attempts.append(attempt(workload, params, next(seeds)))
    repeat = attempt(workload, params, first)
    if None not in (repeat.output, attempts[0].output) and repeat.output != attempts[0].output:
        print(f"gate: {workload.name} input {first}: a repeat gave different output", file=sys.stderr)
        repeat.output = None
    attempts.append(repeat)

    setup = setup_times(workload.name, setups)
    return {
        "params": params,
        "attempted": len(attempts),
        "failed": sum(a.output is None for a in attempts),
        "samples": {
            "wall_s": [a.wall_s for a in attempts],
            "cpu_s": [a.cpu_s for a in attempts],
            "speed": [a.speed for a in attempts],
            "setup_wall_s": [wall for wall, _ in setup],
            "setup_speed": [speed for _, speed in setup],
        },
        "metrics": {
            "setup_s": statistics.median(wall * speed for wall, speed in setup),
            "run_s": statistics.median(a.wall_s * a.speed for a in attempts),
            "cpu_s": statistics.median(a.cpu_s * a.speed for a in attempts),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def trace(workload, seed: int, *, tiny: bool = False, inputs: int | None = None, spans_path=None) -> dict:
    """Traced run: each of a fixed number of inputs untraced, then traced."""
    from tracer import Tracer, layer_metrics
    from workloads import input_seeds

    params = workload.prepare(tiny)
    seeds = input_seeds(workload, seed)
    tracer = Tracer()
    plain, traced = [], []
    for run_id in range(inputs or workload.trace_inputs):
        s = next(seeds)
        plain.append(attempt(workload, params, s))
        tracer.run_id = run_id
        traced.append(attempt(workload, params, s, tracer))
        if traced[-1].output != plain[-1].output:
            print(f"gate: {workload.name} input {s}: traced output differs", file=sys.stderr)
            traced[-1].output = None
    if spans_path is not None:
        tracer.write(spans_path)
    metrics = layer_metrics(tracer.by_name())
    metrics["trace.overhead_s"] = statistics.median(a.wall_s * a.speed for a in traced) - statistics.median(
        a.wall_s * a.speed for a in plain
    )
    attempts = plain + traced
    return {
        "params": params,
        "attempted": len(attempts),
        "failed": sum(a.output is None for a in attempts),
        "samples": {
            "plain_wall_s": [a.wall_s for a in plain],
            "plain_speed": [a.speed for a in plain],
            "traced_wall_s": [a.wall_s for a in traced],
            "traced_speed": [a.speed for a in traced],
        },
        "metrics": metrics,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(params: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": params.get("threads", 1),
    }


def report(name: str, seed: int, trace_on: bool, result: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    units = {m: layer_unit(m) for m in result["metrics"]} if trace_on else END_TO_END_UNITS
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {seed}  trace {int(trace_on)}  threads {result['params'].get('threads', 1)}")
    for metric, value in result["metrics"].items():
        note = ""
        if not trace_on and metric in RAW_SAMPLES:
            raw = result["samples"][RAW_SAMPLES[metric]]
            what = "set-ups" if metric == "setup_s" else "calls"
            note = f"  (median of {len(raw)} {what} at reference pace; measured {statistics.median(raw):.6g} s)"
        print(f"  {metric:<42} {value:.6g} {units[metric]}{note}")
    print(f"  {'fail_share':<42} {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()},
    }


def run_one(name: str, seed: int | None, seconds: float, trace_on: bool) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{name}-seed{seed}-trace{int(trace_on)}"
    if trace_on:
        result = trace(workload, seed, spans_path=stem.with_name(stem.name + ".spans.csv.gz"))
    else:
        result = measure(workload, seed, seconds)
    final = report(name, seed, trace_on, result)
    facts = machine(result["params"])
    print("machine " + json.dumps(facts, sort_keys=True))
    record = {"workload": name, "seed": seed, "seconds": seconds, "machine": facts, **final,
              "samples": result["samples"]}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return final


def run_all(seconds: float, trace_on: bool) -> dict:
    """Every workload at its default seed, each in a process of its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seconds", str(seconds), "--trace", str(int(trace_on))]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lwf" / "__init__.py").is_file():
        print(f"error: no lwf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    if args.workload == "all":
        final = run_all(args.seconds, bool(args.trace))
    else:
        final = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
