"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer counts that must read zero on the workloads that never reach the layer.
CONTROLS = {
    "extinction": ("ancestral.", "discrete.", "rules.", "measures.", "cli.", "config.", "trajectory."),
    "fixation": ("sde.zeta.", "discrete.", "rules.", "cli.", "config.", "trajectory."),
    "drift-oracle": ("sde.", "ancestral.", "measures.", "cli.", "config.", "trajectory."),
    "cli-simulate": ("ancestral.", "experiments."),
}
# ... and metrics that must not, because the workload runs that layer.
REACHED = {
    "extinction": ("sde.step.calls", "sde.zeta.calls", "selection.drift.calls", "experiments.run.self_s"),
    "fixation": ("sde.step.calls", "measures.size_law.draws", "ancestral.rates.calls", "experiments.run.self_s"),
    "drift-oracle": ("discrete.empirical_drift.calls", "rules.distribution_batch.rows", "experiments.run.self_s"),
    "cli-simulate": ("sde.simulate_sde.total_s", "discrete.step_generation_batch.rows", "cli.main.self_s",
                     "config.load_config.total_s", "trajectory.bytes_written"),
}


@pytest.fixture(autouse=True)
def _out_dir():
    run.OUT.mkdir(exist_ok=True)


@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "setup_times", lambda name, count: [(0.5, 1.0)])


def _spec_units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_have_their_units(name, capsys):
    result = run.measure(workloads.WORKLOADS[name], 1, 0.0, tiny=True, setups=1)
    final = run.report(name, 1, False, result)
    assert {m: v["unit"] for m, v in final["metrics"].items()} == _spec_units("end_to_end")
    assert final["failed"] == 0 and final["correct"]
    assert all(v["value"] > 0 for v in final["metrics"].values())
    printed = capsys.readouterr().out
    for metric, unit in [*_spec_units("end_to_end").items(), ("fail_share", "")]:
        assert f"  {metric} " in printed and (not unit or f" {unit}" in printed)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_controls_read_zero(name):
    w = workloads.WORKLOADS[name]
    first, second = (run.trace(w, 3, tiny=True, inputs=1) for _ in range(2))
    final = run.report(name, 3, True, first)
    assert {m: v["unit"] for m, v in final["metrics"].items()} == _spec_units("per_layer")
    assert first["failed"] == 0
    counts = [m for m, unit in _spec_units("per_layer").items() if unit in ("count", "B")]
    assert {m: first["metrics"][m] for m in counts} == {m: second["metrics"][m] for m in counts}
    for metric, value in first["metrics"].items():
        if metric.startswith(CONTROLS[name]):
            assert value == 0, metric
    for metric in REACHED[name]:
        assert first["metrics"][metric] > 0, metric


def _fake_cli(breakage):
    """The cli-simulate gate on files written by a fake call, broken on the first call."""
    params = workloads._cli_params(True)
    calls = []

    def call(params, seed, scratch):
        calls.append(seed)
        broken = len(calls) == 1
        if broken and breakage == "raise":
            raise RuntimeError("injected")
        for subcommand, _, rows in params["runs"]:
            out = scratch / subcommand
            out.mkdir()
            if not (broken and breakage == "meta"):
                (out / "meta.json").write_text("{}")
            lines = ["t,x_1,x_2,x_3,replicate"] + [f"{i}.0,0.2,0.3,0.5,0" for i in range(rows)]
            if broken and breakage == "rows":
                lines.pop()
            if broken and breakage == "simplex":
                lines[-1] = "9.0,-0.1,0.6,0.5,0"
            if len(calls) == 2 and breakage == "repeat":
                lines[-1] = "9.0,0.5,0.3,0.2,0"
            (out / "trajectories.csv").write_text("\n".join(lines) + "\n")
        return [1 if broken and breakage == "exit" else 0 for _ in params["runs"]]

    base = workloads.WORKLOADS["cli-simulate"]
    return dataclasses.replace(base, prepare=lambda tiny: params, call=call)


@pytest.mark.parametrize("breakage", ["raise", "exit", "meta", "rows", "simplex", "repeat"])
def test_fail_share_counts_an_injected_failure(breakage, one_setup, capsys):
    result = run.measure(_fake_cli(breakage), 5, 0.0)
    final = run.report("cli-simulate", 5, False, result)
    assert (final["attempted"], final["failed"], final["correct"]) == (2, 1, False)
    assert "fail_share" in capsys.readouterr().out


def test_a_failing_report_counts_as_failed(one_setup):
    class Report:
        experiment = "fake"
        passed = False
        metrics = []

    base = workloads.WORKLOADS["fixation"]
    fake = dataclasses.replace(base, prepare=lambda tiny: {}, call=lambda params, seed, scratch: Report())
    assert run.measure(fake, 5, 0.0)["failed"] == 2


def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS.values():
        a, b, c = (workloads.input_seeds(w, s) for s in (4, 4, 5))
        first = [next(a) for _ in range(8)]
        assert first == [next(b) for _ in range(8)] != [next(c) for _ in range(8)]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli-simulate", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
