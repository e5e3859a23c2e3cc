import ast
import copy
import csv
import inspect
import json
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lwf
from lwf import cli
from lwf.ancestral import AncestralModel
from lwf.batches import BATCH
from lwf.cli import main
from lwf.config import load_config
from lwf.discrete import DiscreteModel
from lwf.errors import ConfigError
from lwf.measures import (
    _MEASURE_KINDS,
    AtomicMeasure,
    BetaLaw,
    FiniteAtoms,
    PointMass,
    UniformLaw,
    ZeroMeasure,
    collision_pairs,
    measure_from_config,
)
from lwf.rng import RngStream
from lwf.rules import _RULE_KINDS, bernstein_rule, rule_from_config
from lwf.selection import _DRIFT_KINDS, DriftFunction, cyclic_contest_map, drift_from_config, transitive_pair_map
from lwf.sde import SdeConfig


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------


def test_measure_config_round_trip():
    measures = (ZeroMeasure(), PointMass(0.5, 2.0), UniformLaw(1.5), BetaLaw(2.0, 3.0, 0.5),
                FiniteAtoms([(0.2, 0.3), (0.9, 0.7)]))
    assert {measure.kind for measure in measures} == set(_MEASURE_KINDS)
    ys = RngStream(3).generator().uniform(1e-3, 1.0, size=40)
    for measure in measures:
        clone = measure_from_config(measure.to_config())
        assert clone == measure
        assert clone.to_config() == measure.to_config()
        for value in ("total_mass", "log_penalty"):
            assert getattr(clone, value)() == getattr(measure, value)(), (measure.kind, value)
        assert clone.resampling_mass_above(1e-3) == measure.resampling_mass_above(1e-3), measure.kind
        block = collision_pairs(np.array([6]))
        assert np.array_equal(clone.collision_rates(*block), measure.collision_rates(*block)), measure.kind
        if not isinstance(measure, AtomicMeasure):
            assert np.array_equal(clone.density(ys), measure.density(ys)), measure.kind


def test_rule_config_round_trip():
    rng = RngStream(1).generator()
    from lwf.rules import (
        LogisticRule,
        NegFreqDepRule,
        NeutralRule,
        PartialOrderRule,
        PosFreqDepRule,
        TransitiveRule,
        TransitiveWithMutationRule,
    )

    rules = [
        NeutralRule(3),
        TransitiveRule(3),
        TransitiveWithMutationRule(2, 0.1, [[0.0, 1.0], [1.0, 0.0]]),
        LogisticRule([[0.5, 0.7], [0.3, 0.5]]),
        PartialOrderRule.rps(),
        NegFreqDepRule(3),
        PosFreqDepRule(3),
        bernstein_rule(cyclic_contest_map()),
    ]
    assert {rule.kind for rule in rules} == set(_RULE_KINDS)
    for rule in rules:
        clone = rule_from_config(rule.to_config(), rule.K)
        assert clone.to_config() == rule.to_config()
        counts = rng.multinomial(2 if rule.kind in ("logistic", "bernstein") else 3, np.full(rule.K, 1 / rule.K), size=20)
        assert np.array_equal(clone.distribution_batch(counts), rule.distribution_batch(counts))


def test_drift_config_round_trip():
    drifts = [
        DriftFunction.neutral(3),
        DriftFunction.transitive(1.5, {1: 0.5, 2: 0.5}, 3),
        DriftFunction.logistic(1.0, [[0.5, 0.7], [0.3, 0.5]]),
        DriftFunction.rps(2.0),
        DriftFunction.food_web(1.0, [(1, 0), (2, 1)], 3),
        DriftFunction.negfreq(1.0, 3),
        DriftFunction.posfreq(1.0, 3),
        DriftFunction.from_polynomial(0.7, transitive_pair_map(3)),
    ]
    assert {drift.kind for drift in drifts} == set(_DRIFT_KINDS)
    rng = RngStream(2).generator()
    for drift in drifts:
        pts = rng.dirichlet(np.ones(drift.K), size=40)
        clone = drift_from_config(drift.to_config(), drift.K)
        assert clone.to_config() == drift.to_config()
        assert np.array_equal(clone(pts), drift(pts)), drift.kind


# ---------------------------------------------------------------------------
# Strict schemas
# ---------------------------------------------------------------------------


def test_unknown_top_level_key_rejected(tmp_path):
    path = write_config(tmp_path / "c.json", {"model": {}, "bogus": 1})
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_rule_kind_rejected():
    with pytest.raises(ConfigError):
        rule_from_config({"kind": "mystery"}, 2)
    with pytest.raises(ConfigError):
        rule_from_config({"kind": "neutral", "extra": 3}, 2)


def test_unknown_measure_key_rejected():
    with pytest.raises(ConfigError):
        measure_from_config({"kind": "point_mass", "z": 0.5, "mss": 1.0})


def test_cli_unknown_model_key_exits_2(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "model": {"K": 2, "x0": [0.5, 0.5], "dt": 0.01, "horizon": 0.1, "sigma": 1.0, "typo": 1},
            "drift": {"kind": "neutral"},
        },
    )
    assert main(["simulate-sde", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "typo" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------


def test_cli_simulate_sde_writes_trajectories(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "model": {"K": 2, "x0": [0.5, 0.5], "dt": 0.01, "horizon": 0.1, "sigma": 1.0, "record_every": 2},
            "drift": {"kind": "neutral"},
            "experiment": {"seed": 4, "replicates": 3},
        },
    )
    out = tmp_path / "run"
    assert main(["simulate-sde", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "trajectories.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_1", "x_2", "replicate"]
    assert len(rows) == 1 + 3 * 6  # header + 3 replicates x (t=0 and 5 records)
    assert {row[-1] for row in rows[1:]} == {"0", "1", "2"}


def test_cli_simulate_discrete_writes_trajectories(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "model": {"K": 2, "x0": [0.5, 0.5], "N": 100, "generations": 10, "record_every": 5},
            "rule": {"kind": "transitive"},
            "schedule": {"alpha": 0.25, "kappa": 1.0, "sigma": 1.0, "tail": {"2": 1.0}},
            "lambda": {"kind": "point_mass", "z": 0.5, "mass": 1.0},
            "experiment": {"seed": 4, "replicates": 2},
        },
    )
    out = tmp_path / "run"
    assert main(["simulate-discrete", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "trajectories.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x_1", "x_2", "replicate"]
    assert len(rows) == 1 + 2 * 3
    for row in rows[1:]:
        value = float(row[1]) * 100
        assert abs(value - round(value)) < 1e-9


SIMULATE_PAYLOADS = {
    "simulate-sde": {
        "model": {"K": 3, "x0": [0.2, 0.3, 0.5], "dt": 0.01, "horizon": 0.04, "sigma": 1.0, "record_every": 2,
                  "tol_ext": 0.05},
        "drift": {"kind": "rps", "kappa": 1.0},
        "lambda": {"kind": "point_mass", "z": 0.5, "mass": 1.0},
    },
    "simulate-discrete": {
        "model": {"K": 3, "x0": [0.2, 0.3, 0.5], "N": 20, "generations": 4, "record_every": 2},
        "rule": {"kind": "transitive"},
        "lambda": {"kind": "point_mass", "z": 0.5, "mass": 1.0},
        "schedule": {"alpha": 0.25, "kappa": 1.0, "sigma": 1.0, "tail": {"2": 1.0}},
    },
}


@pytest.mark.parametrize("subcommand", list(SIMULATE_PAYLOADS))
def test_cli_simulate_bytes_reproduce_across_runs_and_threads(tmp_path, subcommand):
    cfg = write_config(tmp_path / "c.json", SIMULATE_PAYLOADS[subcommand])
    replicates = 2 * BATCH + 7  # three batches, the last one partial
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        argv = [subcommand, "--config", cfg, "--out", str(out), "--seed", "5", "--replicates", str(replicates)]
        assert main(argv + ["--threads", threads]) == 0
        assert json.loads((out / "meta.json").read_text())["threads"] == int(threads)
        outs.append((out / "trajectories.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]

    rows = list(csv.reader(outs[0].decode().splitlines()))
    assert rows[0] == ["t", "x_1", "x_2", "x_3", "replicate"]
    ids = [int(row[-1]) for row in rows[1:]]
    assert ids == sorted(ids) and set(ids) == set(range(replicates))
    assert len(ids) == 3 * replicates  # t = 0 and two records each
    states = np.array([row[1:-1] for row in rows[1:]], dtype=float)
    assert states.min() >= 0.0 and np.allclose(states.sum(axis=1), 1.0, atol=1e-12)
    # equal-width batches draw from streams of their own, not the same one again
    assert not np.array_equal(states[3 * BATCH : 6 * BATCH], states[: 3 * BATCH])


@pytest.mark.parametrize(
    "subcommand,block,change",
    [
        ("simulate-sde", "model", {"dt": 0.0}),
        ("simulate-sde", "model", {"x0": [0.5, 0.6, 0.1]}),
        ("simulate-discrete", "schedule", {"tail": {"2": -1.0}}),
        ("simulate-discrete", "model", {"record_every": 0}),
        ("ancestral", "model", {"kappa": -1.0}),
        ("ancestral", "model", {"n_cap": 10_000}),  # an unknown key: the solves' ceiling is the constant N_CAP
        # a negative weight next to a valid law was dropped, and the run exited 0
        ("simulate-discrete", "schedule", {"tail": {"2": 1.0, "3": -0.5}}),
        ("ancestral", "schedule", {"tail": {"2": 1.0, "3": -0.5}}),
    ],
    ids=["sde-dt", "sde-x0", "discrete-tail", "discrete-record-every", "ancestral-kappa", "ancestral-n_cap",
         "discrete-negative-weight", "ancestral-negative-weight"],
)
def test_cli_bad_model_values_are_config_errors_naming_the_block(tmp_path, capsys, subcommand, block, change):
    if subcommand == "ancestral":
        payload = {"model": {"n0": 5, "horizon": 1.0, "kappa": 0.2, "sigma": 1.0}, "schedule": {"tail": {"2": 1.0}}}
    else:
        payload = json.loads(json.dumps(SIMULATE_PAYLOADS[subcommand]))
    payload[block].update(change)
    cfg = write_config(tmp_path / "c.json", payload)
    out = tmp_path / "run"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"'{block}'" in err and "Traceback" not in err
    meta = json.loads((out / "meta.json").read_text())
    assert meta["exit_code"] == 2 and meta["error"]["class"] == "ConfigError"
    assert f"'{block}'" in meta["error"]["message"]
    assert not (out / "trajectories.csv").exists()


def test_cli_unexpected_error_is_reraised_after_writing_meta(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("integrator broke")

    monkeypatch.setattr(cli, "simulate_sde", fail)
    cfg = write_config(tmp_path / "c.json", SIMULATE_PAYLOADS["simulate-sde"])
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="integrator broke"):
        main(["simulate-sde", "--config", cfg, "--out", str(out)])
    meta = json.loads((out / "meta.json").read_text())
    assert meta["exit_code"] == 1
    assert meta["error"] == {"class": "RuntimeError", "message": "integrator broke"}


def test_importing_the_cli_loads_no_scipy_stats_or_integrate():
    code = (
        "import sys, lwf, lwf.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))"
    )
    env = {"PYTHONPATH": str(Path(lwf.__file__).resolve().parents[1]), "PATH": ""}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_small_fixation_run_loads_no_scipy_stats():
    code = (
        "import sys; from lwf.experiments import run_fixation; from lwf.measures import PointMass; "
        "r = run_fixation(kappa=1.0, increments={1: 1.0}, sigma=0.0, measure=PointMass(0.5, 1.0), "
        "x0=[0.3, 0.7], dt=5e-3, replicates=4, seed=1); "
        "print(r.metrics[-1].details['regime'], 'scipy.stats' in sys.modules)"
    )
    env = {"PYTHONPATH": str(Path(lwf.__file__).resolve().parents[1]), "PATH": ""}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["recurrent", "False"]


def _fresh_process_stdout(code: str) -> str:
    env = {"PYTHONPATH": str(Path(lwf.__file__).resolve().parents[1]), "PATH": ""}
    done = subprocess.run([sys.executable, "-W", "ignore", "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_importing_lwf_and_the_cli_loads_no_scipy_module():
    assert _fresh_process_stdout(f"import sys, lwf, lwf.cli; print({_SCIPY_LOADED})").strip() == "[]"


def test_extinction_and_drift_oracle_runs_load_no_scipy_module():
    code = (
        "import sys; from lwf.experiments import run_drift_oracle, run_successive_extinction; "
        "from lwf.selection import DriftFunction; "
        "a = run_successive_extinction(drift=DriftFunction.rps(1.0), sigma=1.0, x0=[0.2, 0.3, 0.5], dt=1e-3, "
        "replicates=20, seed=1); "
        "b = run_drift_oracle(points=2, samples=1000, seed=1); "
        f"print(a.experiment, b.experiment, {_SCIPY_LOADED})"
    )
    assert _fresh_process_stdout(code).split() == ["successive-extinction", "drift-oracle", "[]"]


def test_point_mass_fixation_and_stationary_runs_load_no_scipy_module(tmp_path):
    # the dual chain's atom and uniform rates need no special function: only Beta laws load scipy.special
    point_mass = {"lambda": {"kind": "point_mass", "z": 0.5, "mass": 1.0}, "schedule": {"tail": {"2": 1.0}}}
    fixation = write_config(tmp_path / "fixation.json", {
        "model": {"x0": [0.3, 0.7], "kappa": 1.0, "sigma": 0.0, "dt": 5e-3},
        "experiment": {"seed": 1, "replicates": 4}, **point_mass,
    })
    ancestral = write_config(tmp_path / "ancestral.json", {
        "model": {"n0": 10, "horizon": 5.0, "kappa": 1.0, "sigma": 0.0, "stationary": True}, **point_mass,
    })
    code = (
        "import sys; from lwf.cli import main; from lwf.experiments import run_fixation; "
        "from lwf.measures import PointMass; "
        "r = run_fixation(kappa=1.0, increments={1: 1.0}, sigma=0.0, measure=PointMass(0.5, 1.0), "
        "x0=[0.3, 0.7], dt=5e-3, replicates=4, seed=1); "
        f"codes = [main(['fixation', '--config', {fixation!r}, '--out', {str(tmp_path / 'f')!r}]), "
        f"main(['ancestral', '--config', {ancestral!r}, '--out', {str(tmp_path / 'a')!r}])]; "
        f"print(r.metrics[-1].details['regime'], *codes, {_SCIPY_LOADED})"
    )
    assert _fresh_process_stdout(code).split() == ["recurrent", "0", "0", "[]"]
    assert json.loads((tmp_path / "a" / "stationary.json").read_text())["resolved"] is True


def test_a_beta_fixation_report_has_the_same_bytes_at_one_and_two_threads():
    # two 500-wide batches, so two threads really split the work; each run starts with scipy unloaded
    code = (
        "import json, sys; from lwf.experiments import run_fixation; from lwf.measures import BetaLaw; "
        "assert 'scipy' not in sys.modules; "
        "r = run_fixation(kappa=1.0, increments={1: 1.0}, sigma=0.0, measure=BetaLaw(2.5, 3.0, 1.0), "
        "x0=[0.3, 0.7], dt=1e-2, replicates=600, seed=3, threads=%d); "
        "print(json.dumps(r.to_dict(), indent=2, sort_keys=True))"
    )
    one, two = (_fresh_process_stdout(code % threads) for threads in (1, 2))
    assert '"passed": true' in one
    assert one == two


def test_special_functions_first_loaded_on_worker_threads_give_the_serial_values():
    code = (
        "import sys; import numpy as np; from lwf.batches import pmap; "
        "from lwf.measures import BetaLaw, PointMass, UniformLaw, collision_pairs; "
        "measures = [BetaLaw(2.5, 3.0, 1.0), UniformLaw(1.5), PointMass(0.3, 1.0), BetaLaw(0.5, 0.5, 2.0)] * 2; "
        "block = collision_pairs(np.array([40])); "
        "rates = lambda m: m.collision_rates(*block).tolist() + [m.resampling_mass_above(0.1)]; "
        "assert 'scipy' not in sys.modules; "
        "threaded = pmap(rates, measures, 2); "
        "print(threaded == [rates(m) for m in measures], 'scipy.special' in sys.modules)"
    )
    assert _fresh_process_stdout(code).split() == ["True", "True"]


def test_building_the_beta_sde_config_of_the_benchmark_loads_no_quadrature():
    # Beta(2, 3) has a <= 2, whose event rate above eps_jump is a Gauss-Legendre sum and a positive series
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "simulate-sde.json"
    code = (
        "import json, sys; from lwf.measures import measure_from_config; from lwf.sde import SdeConfig; "
        "from lwf.selection import drift_from_config; "
        f"cfg = json.load(open({str(config)!r})); m = cfg['model']; "
        "c = SdeConfig(K=m['K'], drift=drift_from_config(cfg['drift'], m['K']), "
        "measure=measure_from_config(cfg['lambda']), dt=m['dt'], horizon=m['horizon'], sigma=m['sigma']); "
        "print(c.measure.to_config()['kind'], c.measure.a, c.size_law.total_rate > 0, 'scipy.integrate' in sys.modules)"
    )
    assert _fresh_process_stdout(code).split() == ["beta", "2.0", "True", "False"]


def test_simulate_sde_on_the_benchmark_beta_config_loads_no_scipy_module(tmp_path):
    config = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "simulate-sde.json"
    code = (
        "import sys; from lwf.cli import main; "
        f"code = main(['simulate-sde', '--config', {str(config)!r}, '--replicates', '2', '--out', {str(tmp_path)!r}]); "
        f"print(code, {_SCIPY_LOADED})"
    )
    assert _fresh_process_stdout(code).split() == ["0", "[]"]


def test_csv_rows_are_the_repr_of_every_value(tmp_path):
    from lwf.trajectory import write_trajectories_csv

    states = np.array([[0.1 + 0.2, 5e-324, 0.7 - 5e-324], [1e-300, 1.0, 0.0], [1.0 / 3.0, 2.0 / 3.0, 0.0]])
    times = [0, 1e-7, 3]
    path = tmp_path / "t.csv"
    write_trajectories_csv(path, times, np.stack([states, states[::-1], states], axis=1))  # three replicates
    lines = ["t,x_1,x_2,x_3,replicate"]  # the per-value formatting the writer must reproduce
    for rep, path_states in enumerate([states, states[::-1], states]):
        for t, state in zip(times, path_states):
            lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in state] + [str(rep)]))
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()
    assert lines[1] == "0.0,0.30000000000000004,5e-324,0.7,0"


def test_trajectories_csv_bytes_equal_the_csv_module(tmp_path):
    import csv

    from lwf.trajectory import write_trajectories_csv

    rng = RngStream(5).generator()
    states = rng.dirichlet(np.ones(3), size=(4, 5))  # 4 records of 5 replicates
    states[0, 0], states[1, 2], states[3, 4] = [0.0, 1.0, 0.0], [5e-324, 1e-17, 1.0], [1.0, 0.0, 0.0]
    times = [0, 0.001, 0.1 + 0.2, 3]
    write_trajectories_csv(tmp_path / "fast.csv", times, states)
    with open(tmp_path / "csv.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x_1", "x_2", "x_3", "replicate"])
        for rep in range(states.shape[1]):
            writer.writerows([float(t), *map(float, state), rep] for t, state in zip(times, states[:, rep]))
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "csv.csv").read_bytes()
    assert b",5e-324,1e-17," in (tmp_path / "fast.csv").read_bytes()


ANCESTRAL_PAYLOAD = {
    "model": {"n0": 5, "horizon": 3.0, "kappa": 0.2, "sigma": 1.0, "stationary": True},
    "schedule": {"tail": {"2": 1.0}},
    "experiment": {"seed": 4, "replicates": 4},
}


def test_cli_ancestral_writes_paths_and_stationary(tmp_path):
    cfg = write_config(tmp_path / "c.json", ANCESTRAL_PAYLOAD)
    out = tmp_path / "run"
    assert main(["ancestral", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "paths.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "n", "replicate"]
    stationary = json.loads((out / "stationary.json").read_text())
    assert sorted(stationary) == ["n_max", "occupation", "resolved", "states", "truncation_error"]
    assert stationary["states"] == list(range(1, stationary["n_max"] + 1))
    assert abs(sum(stationary["occupation"]) - 1.0) < 1e-12
    assert stationary["resolved"] is True and stationary["truncation_error"] <= 1e-6
    # without the flag the same paths are written and no law is solved
    payload = json.loads(json.dumps(ANCESTRAL_PAYLOAD))
    del payload["model"]["stationary"]
    bare = tmp_path / "bare"
    assert main(["ancestral", "--config", write_config(tmp_path / "b.json", payload), "--out", str(bare)]) == 0
    assert (bare / "paths.csv").read_bytes() == (out / "paths.csv").read_bytes()
    assert not (bare / "stationary.json").exists()


def test_cli_ancestral_law_of_a_transient_chain_is_a_config_error(tmp_path, capsys):
    payload = json.loads(json.dumps(ANCESTRAL_PAYLOAD))
    payload["model"].update({"kappa": 10.0, "sigma": 0.0})
    payload["lambda"] = {"kind": "point_mass", "z": 0.5, "mass": 1.0}
    out = tmp_path / "run"
    assert main(["ancestral", "--config", write_config(tmp_path / "c.json", payload), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "kappa = 10 >= kappa* = 2.77" in err
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["class"] == "ConfigError" and not (out / "stationary.json").exists()


def test_cli_ancestral_law_of_a_chain_that_never_moves_is_a_config_error(tmp_path, capsys):
    payload = json.loads(json.dumps(ANCESTRAL_PAYLOAD))
    payload["model"].update({"kappa": 0.0, "sigma": 0.0})
    out = tmp_path / "run"
    assert main(["ancestral", "--config", write_config(tmp_path / "c.json", payload), "--out", str(out)]) == 2
    assert "the lineage count never moves (kappa = 0, sigma = 0, Lambda = 0)" in capsys.readouterr().err
    meta = json.loads((out / "meta.json").read_text())
    assert meta["error"]["class"] == "ConfigError" and "not unique" in meta["error"]["message"]
    assert not (out / "stationary.json").exists()


@pytest.mark.parametrize("kappa", [2.5, 2.7])
def test_cli_fixation_near_the_threshold_exits_1_with_an_unresolved_law(tmp_path, kappa):
    payload = {
        "model": {"x0": [0.2, 0.3, 0.5], "kappa": kappa, "sigma": 0.0, "dt": 0.002, "tol_ext": 1e-8},
        "lambda": {"kind": "point_mass", "z": 0.5, "mass": 1.0},
        "schedule": {"tail": {"2": 1.0}},
        "experiment": {"name": "fixation", "seed": 7, "replicates": 10},
    }
    out = tmp_path / "run"
    assert main(["fixation", "--config", write_config(tmp_path / "c.json", payload), "--out", str(out)]) == 1
    meta = json.loads((out / "meta.json").read_text())
    assert (meta["exit_code"], meta["error"]) == (1, None)
    report = json.loads((out / "report.json").read_text())
    law = next(m for m in report["metrics"] if m["name"] == "stationary_law_resolved")
    assert law["passed"] is False and law["details"]["regime"] == "unresolved"


@pytest.mark.parametrize("subcommand", ["fixation", "duality"])
@pytest.mark.parametrize("kappa", [0.0, 0.5])
def test_cli_a_one_parent_tail_is_a_config_error_at_every_kappa(tmp_path, subcommand, kappa):
    # a tail of one potential parent is no branching law; at kappa > 0 it exited 1 with a traceback
    payload = {
        "model": {"kappa": kappa, "sigma": 1.0, "dt": 0.01},
        "schedule": {"tail": {"1": 1.0}},
        "experiment": {"replicates": 4},
    }
    if subcommand == "fixation":
        payload["model"]["x0"] = [0.5, 0.5]
    out = tmp_path / "run"
    assert main([subcommand, "--config", write_config(tmp_path / "c.json", payload), "--out", str(out)]) == 2
    error = json.loads((out / "meta.json").read_text())["error"]
    assert error["class"] == "ConfigError"
    # the block, the key as written and the rule it breaks, not the dual chain's increment 0
    assert error["message"] == "invalid 'schedule' block: schedule.tail key '1' must be a sample size >= 2"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "tail, message",
    [({"0": 1.0}, "schedule.tail key '0' must be a sample size >= 2"),
     ({"2": 1.0, "3": -0.5}, "schedule.tail key '3' has a negative weight, -0.5"),
     ({"2.5": 1.0}, "schedule.tail key '2.5' must be a sample size >= 2"),
     ({"2": 0.5, "02": 0.5}, "schedule.tail key '02' repeats the key 2"),
     ({"2": "abc"}, "schedule.tail key '2' has a weight that is not a number, 'abc'"),
     ({"2": float("nan")}, "schedule.tail key '2' has a weight that is not a number, nan"),
     ({"2": 0.5, "3": 0.3}, "schedule.tail weights must sum to 1, got 0.8"),
     ([2, 3], "schedule.tail must map sample sizes to weights, got [2, 3]")],
)
def test_parse_tail_names_the_offending_key(tail, message):
    from lwf.config import parse_tail

    with pytest.raises(ConfigError) as info:
        parse_tail(tail)
    assert str(info.value) == f"invalid 'schedule' block: {message}"


# Each law as a tail of sample sizes; the Python entry points take it shifted by one, as the dual chain's
# increments.  Every entry point must refuse a bad law for one cause (the pattern), and give an accepted law the
# same normalised weights.
ONE_RULE_LAWS = {
    "list": ([2, 3], r"must map (sample sizes|extra-parent counts) to weights, got \[[12], [23]\]$"),
    "key-below-floor": ({1: 0.5, 2: 0.5}, r"key '?[01]'? must be (a sample size >= 2|an extra-parent count >= 1)$"),
    "negative-weight": ({2: 1.5, 3: -0.5}, r"key '?[23]'? has a negative weight, -0.5$"),
    "zero-weight-bad-key": ({1: 0.0, 2: 1.0}, r"key '?[01]'? must be (a sample size >= 2|an extra-parent count >= 1)$"),
    "weights-sum-to-half": ({2: 0.25, 3: 0.25}, r"weights must sum to 1, got 0.5$"),
    "weights-sum-to-1+5e-10": ({2: 0.5, 3: 0.5 + 5e-10}, None),
}


def _shifted(tail):
    return [k - 1 for k in tail] if isinstance(tail, list) else {k - 1: w for k, w in tail.items()}


def _one_rule_entry_points(tmp_path, law, seen):
    """Each entry point, as a function of nothing that returns the normalised tail it built (or raises)."""
    from lwf.ancestral import AncestralModel
    from lwf.core import OffspringLaw
    from lwf.experiments import run_duality, run_fixation

    increments = _shifted(law)
    tail_json = law if isinstance(law, list) else {str(k): w for k, w in law.items()}
    runs = {
        "fixation": (run_fixation, {"x0": [0.5, 0.5]}, {}),
        "duality": (run_duality, {}, {"xs": (0.3,), "ts": (0.1,), "n0s": (2,)}),
    }

    def experiment(name):
        run, model, cells = runs[name]
        run(kappa=1.0, increments=increments, sigma=1.0, measure=ZeroMeasure(), dt=0.01, replicates=4, **model, **cells)
        return seen.pop()

    def command(name):
        _, model, cells = runs[name]
        payload = {"model": {"kappa": 1.0, "sigma": 1.0, "dt": 0.01, **model}, "schedule": {"tail": tail_json},
                   "experiment": {"replicates": 4, **{k: list(v) for k, v in cells.items()}}}
        out = tmp_path / f"cli-{name}"
        code = main([name, "--config", write_config(tmp_path / f"{name}.json", payload), "--out", str(out)])
        error = json.loads((out / "meta.json").read_text())["error"]
        if code == 2:
            assert error["class"] == "ConfigError"
            raise ConfigError(error["message"])
        assert code in (0, 1) and error is None  # 4 replicates may fail a band; the law was accepted
        return seen.pop()

    return {
        "OffspringLaw": lambda: OffspringLaw(0.5, law).tail,
        "AncestralModel": lambda: tuple(
            (j + 1, w) for j, w in AncestralModel(1.0, 0.0, increments, ZeroMeasure()).increments
        ),
        "DriftFunction.transitive": lambda: tuple(
            (int(j) + 1, w) for j, w in DriftFunction.transitive(1.0, increments, 2).params["increments"].items()
        ),
        "run_fixation": lambda: experiment("fixation"),
        "run_duality": lambda: experiment("duality"),
        "cli fixation": lambda: command("fixation"),
        "cli duality": lambda: command("duality"),
    }


@pytest.mark.parametrize("name", list(ONE_RULE_LAWS))
def test_one_sample_size_law_rule_at_every_entry_point(tmp_path, monkeypatch, name):
    from lwf import experiments

    law, cause = ONE_RULE_LAWS[name]
    seen = []  # the normalised tails of the drift and of the dual chain that each experiment ran

    def recording(*args, **kwargs):
        cfg, dual = pair(*args, **kwargs)
        drift_tail = tuple((int(j) + 1, w) for j, w in cfg.drift.params["increments"].items())
        assert drift_tail == tuple((j + 1, w) for j, w in dual.increments)
        seen.append(drift_tail)
        return cfg, dual

    pair = experiments._dual_pair
    monkeypatch.setattr(experiments, "_dual_pair", recording)
    entry_points = _one_rule_entry_points(tmp_path, law, seen)
    if cause is None:
        total = sum(law.values())
        want = tuple((k, w / total) for k, w in sorted(law.items()))
        assert {entry: build() for entry, build in entry_points.items()} == dict.fromkeys(entry_points, want)
        return
    messages = {}
    for entry, build in entry_points.items():
        error = ConfigError if entry.startswith(("run_", "cli ")) else ValueError
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and re.search(cause, str(info.value)), (entry, str(info.value))
        messages[entry] = str(info.value)
    # one cause, in the same words from both experiments
    assert messages["run_fixation"] == messages["run_duality"]
    assert messages["cli fixation"] == messages["cli duality"]
    assert not seen


EXTINCTION_PAYLOAD = {
    "model": {"x0": [0.3, 0.3, 0.4], "sigma": 1.0, "dt": 0.002},
    "drift": {"kind": "neutral"},
    "experiment": {"name": "successive-extinction", "seed": 6, "replicates": 60},
}


def test_cli_experiment_report_and_exit_codes(tmp_path):
    payload = EXTINCTION_PAYLOAD
    cfg = write_config(tmp_path / "ok.json", payload)
    out = tmp_path / "ok"
    assert main(["successive-extinction", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert (out / "meta.json").exists()
    assert "wall_clock_seconds" not in report

    # impossible threshold: assertions fail -> exit 1
    bad = dict(payload)
    bad["experiment"] = {"name": "successive-extinction", "seed": 6, "replicates": 60, "min_fraction": 1.01}
    cfg = write_config(tmp_path / "bad.json", bad)
    assert main(["successive-extinction", "--config", cfg, "--out", str(tmp_path / "bad")]) == 1
    meta = json.loads((tmp_path / "bad" / "meta.json").read_text())
    assert (meta["exit_code"], meta["error"]) == (1, None)

    # wrong experiment name for the subcommand -> config error
    wrong = dict(payload)
    wrong["experiment"] = {"name": "duality"}
    cfg = write_config(tmp_path / "wrong.json", wrong)
    assert main(["successive-extinction", "--config", cfg, "--out", str(tmp_path / "wrong")]) == 2
    meta = json.loads((tmp_path / "wrong" / "meta.json").read_text())
    assert meta["exit_code"] == 2 and meta["error"]["class"] == "ConfigError"
    assert "duality" in meta["error"]["message"]

    # a model value the integrator rejects -> config error naming the parameter
    zero_dt = json.loads(json.dumps(payload))
    zero_dt["model"]["dt"] = 0.0
    cfg = write_config(tmp_path / "zero_dt.json", zero_dt)
    assert main(["successive-extinction", "--config", cfg, "--out", str(tmp_path / "zero_dt")]) == 2
    meta = json.loads((tmp_path / "zero_dt" / "meta.json").read_text())
    assert meta["exit_code"] == 2 and meta["error"]["class"] == "ConfigError"
    assert "dt must be > 0" in meta["error"]["message"]
    assert not (tmp_path / "zero_dt" / "report.json").exists()


EXPERIMENT_PAYLOADS = {
    "convergence": {
        "model": {"K": 2, "x0": [0.5, 0.5], "T": 0.1, "dt": 0.005, "sigma": 1.0, "kappa": 1.0},
        "rule": {"kind": "neutral"},
        "drift": {"kind": "neutral"},
        "schedule": {"alpha": 0.25, "tail": {"2": 1.0}},
        "experiment": {
            "name": "convergence", "seed": 3, "replicates": 150, "N_grid": [50, 100], "final_ks_threshold": 0.25,
        },
    },
    "fixation": {
        "model": {"x0": [0.3, 0.7], "kappa": 0.0, "sigma": 1.0, "dt": 0.002},
        "schedule": {"tail": {"2": 1.0}},
        "experiment": {"name": "fixation", "seed": 3, "replicates": 120},
    },
    "duality": {
        "model": {"kappa": 0.5, "sigma": 1.0, "dt": 0.002},
        "schedule": {"tail": {"2": 1.0}},
        "experiment": {
            "name": "duality", "seed": 3, "replicates": 500, "xs": [0.3], "ts": [0.3], "n0s": [2],
        },
    },
    "rps-lyapunov": {
        "model": {"kappa": 1.0, "sigma": 0.4, "dt": 0.002},
        "experiment": {"name": "rps-lyapunov", "seed": 3, "replicates": 500, "delta": 0.05, "T": 1.0},
    },
}


@pytest.mark.parametrize("subcommand", list(EXPERIMENT_PAYLOADS))
def test_cli_experiment_subcommands_end_to_end(tmp_path, subcommand):
    cfg = write_config(tmp_path / "c.json", EXPERIMENT_PAYLOADS[subcommand])
    out = tmp_path / "run"
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["experiment"] == subcommand
    assert report["passed"] is True
    assert report["metrics"]


ORACLE_PAYLOAD = {"experiment": {"name": "drift-oracle", "seed": 11, "points": 2, "samples": 4000}}


def test_cli_report_bytes_reproduce_across_runs_and_threads(tmp_path):
    cfg = write_config(tmp_path / "c.json", ORACLE_PAYLOAD)
    # integral floats are integers: the same run as the one above
    floats = write_config(tmp_path / "f.json", {"experiment": {"seed": 11.0, "points": 2.0, "samples": 4e3}})
    outs = []
    for name, threads, config in (("a", "1", cfg), ("b", "1", cfg), ("c", "4", cfg), ("d", "1", floats)):
        out = tmp_path / name
        assert main(["drift-oracle", "--config", config, "--out", str(out), "--threads", threads]) == 0
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1] == outs[2] == outs[3]


# ---------------------------------------------------------------------------
# The subcommand table
# ---------------------------------------------------------------------------

PAYLOADS = {
    **SIMULATE_PAYLOADS, "ancestral": ANCESTRAL_PAYLOAD, **EXPERIMENT_PAYLOADS,
    "successive-extinction": EXTINCTION_PAYLOAD, "drift-oracle": ORACLE_PAYLOAD,
}


def _edited(subcommand, edit):
    payload = copy.deepcopy(PAYLOADS[subcommand])
    edit(payload)
    return payload


def _unknown(block):
    return lambda p: p.setdefault(block, {}).update(typo=1)


def _missing(block, key):
    return lambda p: p[block].pop(key)


def _added(block, value):
    return lambda p: p.update({block: value})


def _named(name):
    return lambda p: p.setdefault("experiment", {}).update(name=name)


def _two_type_polynomial(lam, x0, monomials):
    """Make the simulate-sde payload a K = 2 run from ``x0`` with a polynomial drift."""
    def edit(p):
        p["model"].update(K=2, x0=x0)
        p["drift"] = {"kind": "polynomial", "lambda": lam, "monomials": monomials}
    return edit


NEUTRAL = {"kind": "neutral"}
# one schema error of each kind per subcommand, with the message the CLI has always printed for it
SCHEMA_ERRORS = [
    ("simulate-sde", _unknown("model"), "unknown keys in 'model' block: ['typo'] (allowed: ['K', 'dt', 'eps_jump', "
     "'horizon', 'record_every', 'sigma', 'tol_ext', 'x0'])"),
    ("simulate-sde", _missing("model", "dt"), "block 'model' is missing required keys: ['dt']"),
    ("simulate-sde", _added("rule", NEUTRAL), "blocks ['rule'] are not used by 'simulate-sde'"),
    ("simulate-sde", _named("duality"), "experiment.name is 'duality' but the subcommand is 'simulate-sde'"),
    ("simulate-discrete", _unknown("model"),
     "unknown keys in 'model' block: ['typo'] (allowed: ['K', 'N', 'generations', 'record_every', 'x0'])"),
    ("simulate-discrete", _missing("schedule", "alpha"), "block 'schedule' is missing required keys: ['alpha']"),
    ("simulate-discrete", _added("drift", NEUTRAL), "blocks ['drift'] are not used by 'simulate-discrete'"),
    ("simulate-discrete", _named("duality"), "experiment.name is 'duality' but the subcommand is 'simulate-discrete'"),
    ("ancestral", _unknown("model"), "unknown keys in 'model' block: ['typo'] (allowed: ['horizon', 'kappa', 'n0', "
     "'sigma', 'stationary'])"),
    ("ancestral", _missing("model", "kappa"), "block 'model' is missing required keys: ['kappa']"),
    ("ancestral", _added("drift", NEUTRAL), "blocks ['drift'] are not used by 'ancestral'"),
    ("ancestral", _named("duality"), "experiment.name is 'duality' but the subcommand is 'ancestral'"),
    ("convergence", _unknown("model"),
     "unknown keys in 'model' block: ['typo'] (allowed: ['K', 'T', 'dt', 'eps_jump', 'kappa', 'sigma', 'x0'])"),
    ("convergence", _missing("experiment", "N_grid"), "block 'experiment' is missing required keys: ['N_grid']"),
    ("convergence", _named("duality"), "experiment.name is 'duality' but the subcommand is 'convergence'"),
    ("fixation", _unknown("model"), "unknown keys in 'model' block: ['typo'] (allowed: ['dt', 'eps_jump', 'kappa', "
     "'max_time', 'sigma', 'tol_ext', 'x0'])"),
    ("fixation", _missing("model", "dt"), "block 'model' is missing required keys: ['dt']"),
    ("fixation", _added("rule", NEUTRAL), "blocks ['rule'] are not used by 'fixation'"),
    ("fixation", _named("duality"), "experiment.name is 'duality' but the subcommand is 'fixation'"),
    ("duality", _unknown("model"),
     "unknown keys in 'model' block: ['typo'] (allowed: ['dt', 'eps_jump', 'kappa', 'sigma'])"),
    ("duality", _missing("model", "sigma"), "block 'model' is missing required keys: ['sigma']"),
    ("duality", _added("drift", NEUTRAL), "blocks ['drift'] are not used by 'duality'"),
    ("duality", _named("fixation"), "experiment.name is 'fixation' but the subcommand is 'duality'"),
    ("rps-lyapunov", _unknown("model"),
     "unknown keys in 'model' block: ['typo'] (allowed: ['dt', 'eps_jump', 'kappa', 'sigma'])"),
    ("rps-lyapunov", _missing("experiment", "delta"), "block 'experiment' is missing required keys: ['delta']"),
    ("rps-lyapunov", _added("schedule", {"tail": {"2": 1.0}}), "blocks ['schedule'] are not used by 'rps-lyapunov'"),
    ("rps-lyapunov", _named("duality"), "experiment.name is 'duality' but the subcommand is 'rps-lyapunov'"),
    ("successive-extinction", _unknown("model"),
     "unknown keys in 'model' block: ['typo'] (allowed: ['dt', 'max_time', 'sigma', 'tol_ext', 'x0'])"),
    ("successive-extinction", _missing("model", "x0"), "block 'model' is missing required keys: ['x0']"),
    ("successive-extinction", _added("lambda", {"kind": "zero"}),
     "blocks ['lambda'] are not used by 'successive-extinction'"),
    ("successive-extinction", _named("duality"),
     "experiment.name is 'duality' but the subcommand is 'successive-extinction'"),
    # drift-oracle takes no replicates, so they left its allowed keys
    ("drift-oracle", _unknown("experiment"),
     "unknown keys in 'experiment' block: ['typo'] (allowed: ['min_coord', 'name', 'points', 'samples', 'seed'])"),
    ("drift-oracle", _added("model", {}), "blocks ['model'] are not used by 'drift-oracle'"),
    ("drift-oracle", _named("duality"), "experiment.name is 'duality' but the subcommand is 'drift-oracle'"),
    ("fixation", lambda p: p.pop("model"), "missing required block 'model'"),
    ("fixation", _added("experiment", 3), "block 'experiment' must be a JSON object"),
    ("fixation", lambda p: p["experiment"].update(replicates=0), "replicates must be >= 1, got 0"),
    # the kind blocks: unknown kind, unknown key, missing required key and non-numeric value
    ("simulate-discrete", _added("rule", {"kind": "mystery"}), "unknown rule kind 'mystery' (expected one of "
     "['bernstein', 'logistic', 'neg_freq', 'neutral', 'partial_order', 'pos_freq', 'transitive', "
     "'transitive_mutation'])"),
    ("simulate-discrete", _added("rule", {"kind": "transitive", "typo": 1}), "unknown keys in rule block: ['typo']"),
    ("simulate-discrete", _added("rule", {"kind": "transitive_mutation", "kernel": np.eye(3).tolist()}),
     "bad rule block: missing key 'mutation_prob'"),
    ("simulate-discrete", _added("rule", {"kind": "transitive_mutation", "mutation_prob": "abc",
                                          "kernel": np.eye(3).tolist()}),
     "bad rule block: could not convert string to float: 'abc'"),
    ("simulate-sde", _added("drift", {"kind": "mystery"}), "unknown drift kind 'mystery' (expected one of "
     "['food_web', 'logistic', 'neg_freq', 'neutral', 'polynomial', 'pos_freq', 'rps', 'transitive'])"),
    ("simulate-sde", _added("drift", {"kind": "rps", "kappa": 1.0, "typo": 1}),
     "unknown keys in drift block: ['typo']"),
    ("simulate-sde", _added("drift", {"kind": "rps"}), "bad drift block: missing key 'kappa'"),
    ("simulate-sde", _added("drift", {"kind": "rps", "kappa": "abc"}),
     "bad drift block: could not convert string to float: 'abc'"),
    ("simulate-sde", _added("lambda", {"kind": "mystery"}),
     "unknown lambda kind 'mystery' (expected one of ['beta', 'finite_atoms', 'point_mass', 'uniform', 'zero'])"),
    ("simulate-sde", _added("lambda", {"kind": "point_mass", "z": 0.5, "typo": 1}),
     "unknown keys in lambda block: ['typo']"),
    ("simulate-sde", _added("lambda", {"kind": "beta", "b": 2.0}), "bad lambda block: missing key 'a'"),
    ("simulate-sde", _added("lambda", {"kind": "point_mass", "z": "abc"}),
     "bad lambda block: could not convert string to float: 'abc'"),
    # the three drift rows exited 1 with a traceback or ran a wrong drift; the rule block refuses the same beats pair
    ("simulate-sde", _added("drift", {"kind": "transitive", "kappa": 1, "increments": [1, 2]}),
     "bad drift block: increments must map extra-parent counts to weights, got [1, 2]"),
    ("simulate-sde", _added("drift", {"kind": "food_web", "kappa": 1, "beats": [[0, 1]]}),
     "bad drift block: bad beats pair (0, 1): need two distinct type labels from 1 to 3"),
    ("simulate-discrete", _added("rule", {"kind": "partial_order", "beats": [[0, 1]]}),
     "bad rule block: bad beats pair (0, 1): need two distinct type labels from 1 to 3"),
    ("simulate-sde", _added("drift", {"kind": "food_web", "kappa": 1, "beats": [[2, 1], [1, 2]]}),
     "bad drift block: beats relation must be antisymmetric"),
    # one check compares the K a rule or drift was built for with the model's
    ("simulate-discrete", _added("rule", {"kind": "logistic", "matrix": [[0.5, 0.7], [0.3, 0.5]]}),
     "logistic rule is for K=2 but model has K=3"),
    ("simulate-sde", lambda p: p["model"].update(K=4, x0=[0.25] * 4), "rps drift is for K=3 but model has K=4"),
    ("simulate-sde", _added("drift", {"kind": "polynomial", "lambda": 1.0,
                                      "monomials": [[[[1, 0], 1.0]], [[[0, 1], 1.0]]]}),
     "polynomial drift is for K=2 but model has K=3"),
    # a logistic drift ran with any matrix; it now checks it as the logistic rule does
    ("simulate-sde", _added("drift", {"kind": "logistic", "kappa": 1,
                                      "matrix": [[0.5, 0.9, 0.5], [0.9, 0.5, 0.5], [0.5, 0.5, 0.5]]}),
     "bad drift block: need p[i, j] + p[j, i] = 1"),
    # keys that sized the Gillespie estimates of the chain's laws, which are solved now
    ("ancestral", lambda p: p["model"].update(burn_in=50.0, stationary_time=500.0),
     "unknown keys in 'model' block: ['burn_in', 'stationary_time'] (allowed: ['horizon', 'kappa', 'n0', 'sigma', "
     "'stationary'])"),
    ("duality", lambda p: p["experiment"].update(dual_replicates=500),
     "unknown keys in 'experiment' block: ['dual_replicates'] (allowed: ['n0s', 'name', 'replicates', 'seed', 'ts', "
     "'xs'])"),
    # the polynomial drift's degree was accepted and ignored: the monomials give it
    ("simulate-sde", _added("drift", {"kind": "polynomial", "lambda": 1.0, "degree": 2,
                                      "monomials": [[[[1, 0, 0], 1.0]], [[[0, 1, 0], 1.0]], [[[0, 0, 1], 1.0]]]}),
     "unknown keys in drift block: ['degree']"),
    # refusals no other row reaches: K against x0, the two kind blocks a simulation needs, a kind block's kind
    ("simulate-sde", lambda p: p["model"].update(x0=[0.4, 0.6]), "x0 has 2 coordinates but K = 3"),
    ("simulate-discrete", lambda p: p.pop("rule"), "missing required block 'rule'"),
    ("simulate-sde", lambda p: p.pop("drift"), "missing required block 'drift'"),
    ("simulate-discrete", _added("rule", {"degree": 2}), "rule block must be a mapping with a 'kind' key"),
    # a Bernstein table names every multi-index of its degree once, with the prefix of every other rule error
    ("simulate-discrete", _added("rule", {"kind": "bernstein", "degree": 2, "table": [[[1, 0, 0], [1, 0, 0]]]}),
     "bad rule block: multi-index (1, 0, 0) is not a degree-2 index over 3 types"),
    ("simulate-discrete", _added("rule", {"kind": "bernstein", "degree": 2,
                                          "table": [[[2, 0, 0], [1, 0, 0]], [[2, 0, 0], [1, 0, 0]]]}),
     "bad rule block: duplicate multi-index (2, 0, 0) in Bernstein table"),
    ("simulate-discrete", _added("rule", {"kind": "bernstein", "degree": 2, "table": [[[2, 0, 0], [1, 0, 0]]]}),
     "bad rule block: Bernstein table must cover all 6 multi-indices, got 1"),
    ("simulate-discrete", _added("rule", {"kind": "transitive_mutation", "mutation_prob": 1.5,
                                          "kernel": np.eye(3).tolist()}),
     "bad rule block: mutation probability must lie in [0, 1], got 1.5"),
    ("simulate-discrete", _added("rule", {"kind": "transitive_mutation", "mutation_prob": 0.1,
                                          "kernel": np.eye(2).tolist()}),
     "bad rule block: kernel must be 3x3"),
    ("simulate-discrete", _added("rule", {"kind": "transitive_mutation", "mutation_prob": 0.1,
                                          "kernel": np.full((3, 3), 0.5).tolist()}),
     "bad rule block: kernel rows must be probability vectors"),
    # the length of the simulation that estimated the stationary law, which is solved now, was accepted and ignored
    ("fixation", lambda p: p["model"].update(stationary_time=2e5),
     "unknown keys in 'model' block: ['stationary_time'] (allowed: ['dt', 'eps_jump', 'kappa', 'max_time', 'sigma', "
     "'tol_ext', 'x0'])"),
]


def _exit_and_stderr(tmp_path, capsys, subcommand, payload, *flags):
    code = main([subcommand, "--config", write_config(tmp_path / "c.json", payload), "--out", str(tmp_path / "run"),
                 *flags])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand,edit,message", SCHEMA_ERRORS,
    ids=[f"{case[0]}-{i}" for i, case in enumerate(SCHEMA_ERRORS)],
)
def test_cli_schema_errors_keep_their_messages(tmp_path, capsys, subcommand, edit, message):
    code, err = _exit_and_stderr(tmp_path, capsys, subcommand, _edited(subcommand, edit))
    assert (code, err) == (2, f"error: {message}\n")
    assert json.loads((tmp_path / "run" / "meta.json").read_text())["error"]["class"] == "ConfigError"


MALFORMED = [
    ("successive-extinction", lambda p: p["model"].update(sigma="abc"),
     "invalid 'model' block: sigma must be a number, got 'abc'"),
    ("fixation", lambda p: p["experiment"].update(replicates="many"),
     "invalid 'experiment' block: replicates must be an integer, got 'many'"),
    ("fixation", lambda p: p["experiment"].update(seed=1.5),
     "invalid 'experiment' block: seed must be an integer, got 1.5"),
    ("simulate-discrete", lambda p: p["model"].update(N=20.5), "invalid 'model' block: N must be an integer, got 20.5"),
    ("simulate-sde", lambda p: p["model"].update(x0="abc"),
     "invalid 'model' block: x0 must be a nonempty list of numbers, got 'abc'"),
    ("convergence", lambda p: p["experiment"].update(N_grid=200),
     "invalid 'experiment' block: N_grid must be a nonempty list of integers, got 200"),
    ("duality", lambda p: p["experiment"].update(xs=0.3),
     "invalid 'experiment' block: xs must be a nonempty list of numbers, got 0.3"),
    ("duality", lambda p: p["experiment"].update(n0s=[1, 2.5]),
     "invalid 'experiment' block: n0s must be a nonempty list of integers, got [1, 2.5]"),
    ("rps-lyapunov", lambda p: p["experiment"].update(grid_points=None),
     "invalid 'experiment' block: grid_points must be an integer, got None"),
    ("drift-oracle", lambda p: p["experiment"].update(points=[2]),
     "invalid 'experiment' block: points must be an integer, got [2]"),
    ("ancestral", lambda p: p["model"].update(n0=0),
     "invalid 'model' block: n0 must lie in [1, STATE_GUARD = 10000000], got 0"),
    ("fixation", lambda p: p["model"].update(x0=[0.5, 0.6]),
     "invalid 'model' block: coordinates must sum to 1 (got 1.1)"),
    # an empty grid crashed the convergence check and gave duality a report with no metrics that passed
    ("convergence", lambda p: p["experiment"].update(N_grid=[]),
     "invalid 'experiment' block: N_grid must be a nonempty list of integers, got []"),
    ("duality", lambda p: p["experiment"].update(ts=[]),
     "invalid 'experiment' block: ts must be a nonempty list of numbers, got []"),
    ("convergence", lambda p: p.pop("experiment"), "missing required block 'experiment'"),
    # a lineage count the chain cannot start from exited 1 with a traceback
    ("duality", lambda p: p["experiment"].update(n0s=[0]),
     "invalid duality cell n0=0,t=0.3,x=0.3: initial state must lie in [1, n_cap = 2048], got 0"),
    ("ancestral", lambda p: p["model"].update(stationary=1),
     "invalid 'model' block: stationary must be true or false, got 1"),
    # out-of-domain experiment values exited 1: a ValueError traceback, a start outside the simplex, a NaN slope
    ("drift-oracle", lambda p: p["experiment"].update(points=0),
     "invalid 'experiment' block: points must be >= 1, got 0"),
    ("drift-oracle", lambda p: p["experiment"].update(points=-1),
     "invalid 'experiment' block: points must be >= 1, got -1"),
    ("drift-oracle", lambda p: p["experiment"].update(samples=0),
     "invalid 'experiment' block: samples must be >= 1, got 0"),
    ("rps-lyapunov", lambda p: p["experiment"].update(delta=0.5),
     "rps-lyapunov runs need |delta| < 1/3 for an interior start, got delta = 0.5"),
    ("rps-lyapunov", lambda p: p["experiment"].update(grid_points=0),
     "invalid 'experiment' block: grid_points must be >= 2, got 0"),
    ("rps-lyapunov", lambda p: p["experiment"].update(grid_points=1),
     "invalid 'experiment' block: grid_points must be >= 2, got 1"),
    # a boolean ran as 1, and a non-finite number ran (NaN noise integrated as none) or never stopped
    ("simulate-sde", lambda p: p["model"].update(sigma=True),
     "invalid 'model' block: sigma must be a number, got True"),
    ("fixation", lambda p: p["experiment"].update(replicates=True),
     "invalid 'experiment' block: replicates must be an integer, got True"),
    ("simulate-sde", lambda p: p["model"].update(sigma=float("nan")),
     "config value model.sigma must be a finite number, got nan"),
    ("ancestral", lambda p: p["model"].update(horizon=float("inf")),
     "config value model.horizon must be a finite number, got inf"),
    ("simulate-discrete", lambda p: p["model"].update(x0=[0.2, -float("inf"), 0.5]),
     "config value model.x0[1] must be a finite number, got -inf"),
    ("simulate-sde", lambda p: p["drift"].update(kappa=float("nan")),
     "config value drift.kappa must be a finite number, got nan"),
    ("duality", lambda p: p["model"].update(dt="nan"), "invalid 'model' block: dt must be a finite number, got 'nan'"),
    # a boolean or a quoted number ran as a number: a config number is a JSON number, in a key block, a kind block
    # (nested ones too) and a tail
    ("simulate-sde", lambda p: p["model"].update(dt="0.01"), "invalid 'model' block: dt must be a number, got '0.01'"),
    ("simulate-discrete", lambda p: p["model"].update(N="20"), "invalid 'model' block: N must be an integer, got '20'"),
    ("simulate-sde", _added("lambda", {"kind": "point_mass", "z": 0.5, "mass": True}),
     "bad lambda block: mass must be a number, got True"),
    ("simulate-sde", _added("lambda", {"kind": "beta", "a": "2", "b": 3}),
     "bad lambda block: a must be a number, got '2'"),
    ("simulate-sde", _added("lambda", {"kind": "finite_atoms", "atoms": [[0.5, True]]}),
     "bad lambda block: atoms[0][1] must be a number, got True"),
    ("simulate-sde", _added("drift", {"kind": "rps", "kappa": True}),
     "bad drift block: kappa must be a number, got True"),
    ("simulate-sde", _added("drift", {"kind": "transitive", "kappa": 1, "increments": {"1": None}}),
     "bad drift block: increments.1 must be a number, got None"),
    ("simulate-discrete", _added("rule", {"kind": "transitive_mutation", "mutation_prob": True,
                                          "kernel": np.eye(3).tolist()}),
     "bad rule block: mutation_prob must be a number, got True"),
    ("simulate-discrete", _added("rule", {"kind": "logistic", "matrix": [[0.5, "0.7"], [0.3, 0.5]]}),
     "bad rule block: matrix[0][1] must be a number, got '0.7'"),
    ("simulate-discrete", lambda p: p["schedule"].update(tail={"2": True}),
     "invalid 'schedule' block: schedule.tail key '2' has a weight that is not a number, True"),
    # a negative time failed inside the integrator, and an x outside [0, 1] after the cells before it had run
    ("duality", lambda p: p["experiment"].update(ts=[-0.5, 0.3]),
     "duality runs need every t finite and >= 0, got t = -0.5"),
    ("duality", lambda p: p["experiment"].update(xs=[0.3, 1.5]), "duality runs need every x in [0, 1], got x = 1.5"),
    # a negative horizon ran as a path that never moves
    ("ancestral", lambda p: p["model"].update(horizon=-1.0),
     "invalid 'model' block: horizon must be finite and >= 0, got -1.0"),
    # a clamp at or above 1/K zeroed every coordinate and wrote NaN from t = 0; T = 0 fitted a NaN slope
    ("simulate-sde", lambda p: p["model"].update(tol_ext=1e12),
     "invalid 'model' block: tol_ext must lie in [0, 1/K) = [0, 0.333333), got 1000000000000.0"),
    ("fixation", lambda p: p["model"].update(tol_ext=0.5),
     "invalid model value: tol_ext must lie in [0, 1/K) = [0, 0.5), got 0.5"),
    ("rps-lyapunov", lambda p: p["experiment"].update(T=0),
     "rps-lyapunov runs need T > 0 to fit a slope over time, got T = 0.0"),
    ("rps-lyapunov", lambda p: p["experiment"].update(T=-1.0),
     "rps-lyapunov runs need T > 0 to fit a slope over time, got T = -1.0"),
    # the schedule's two infeasible couplings
    ("simulate-discrete", lambda p: p["schedule"].update(b=0.75), "exponent b only applies when sigma = 0"),
    ("simulate-discrete", lambda p: p["schedule"].update(kappa=30.0),
     "kappa/(sigma*N) = 1.5 > 1: N too small for this kappa/sigma"),
    # a polynomial drift that leaves the simplex ran renormalised every step; a mutation drift froze at a vertex
    ("simulate-sde", _two_type_polynomial(1.0, [0.3, 0.7], [[[[1, 0], 2.0]], [[[0, 1], 1.0]]]),
     "bad drift block: Bernstein coefficient for output 1 at multi-index (1, 0) is 2.0, outside [0, 1]: the map does "
     "not preserve the simplex"),
    ("simulate-sde", _two_type_polynomial(5.0, [0.0, 1.0], [[[[1, 0], 0.95], [[0, 1], 0.05]],
                                                             [[[1, 0], 0.05], [[0, 1], 0.95]]]),
     "bad drift block: Bernstein coefficient for output 1 at multi-index (0, 1) is 0.05, not 0: the map revives an "
     "absent type (a mutation), which the integrator does not follow"),
    # a lineage count of 1e12 exited 1 on an uncaught MemoryError; the ceiling of the solves is no key
    ("ancestral", lambda p: p["model"].update(n0=1e12),
     "invalid 'model' block: n0 must lie in [1, STATE_GUARD = 10000000], got 1000000000000"),
    ("ancestral", lambda p: p["model"].update(n_cap=2048),
     "unknown keys in 'model' block: ['n_cap'] (allowed: ['horizon', 'kappa', 'n0', 'sigma', 'stationary'])"),
    # an unordered grid passed ks_nonincreasing
    ("convergence", lambda p: p["experiment"].update(N_grid=[100, 50, 100]),
     "convergence runs need a strictly increasing N_grid, got N_grid = [100, 50, 100]"),
    # a margin at or above 1/K of some pair never ended, and a negative one ran without a word
    ("drift-oracle", lambda p: p["experiment"].update(min_coord=0.3),
     "experiment.min_coord must lie in [0, 1/K) = [0, 0.25) for the pairs' largest K = 4, got 0.3"),
    ("drift-oracle", lambda p: p["experiment"].update(min_coord=0.25),
     "experiment.min_coord must lie in [0, 1/K) = [0, 0.25) for the pairs' largest K = 4, got 0.25"),
    ("drift-oracle", lambda p: p["experiment"].update(min_coord=-0.5),
     "experiment.min_coord must lie in [0, 1/K) = [0, 0.25) for the pairs' largest K = 4, got -0.5"),
    # a step longer than the run wrote the start state alone, and an experiment with it failed its report; a KS
    # threshold at or below 0 could never pass
    ("simulate-sde", lambda p: p["model"].update(dt=1e12),
     "invalid 'model' block: dt must be at most the horizon, got dt = 1000000000000.0 and horizon = 0.04"),
    ("rps-lyapunov", lambda p: p["model"].update(dt=1e12),
     "invalid SdeConfig value: dt must be at most the horizon, got dt = 1000000000000.0 and horizon = 1.0"),
    ("convergence", lambda p: p["experiment"].update(final_ks_threshold=0),
     "experiment.final_ks_threshold must be > 0, got 0.0"),
    ("convergence", lambda p: p["experiment"].update(final_ks_threshold=-1),
     "experiment.final_ks_threshold must be > 0, got -1.0"),
]


@pytest.mark.parametrize(
    "subcommand,edit,message", MALFORMED, ids=[f"{case[0]}-{i}" for i, case in enumerate(MALFORMED)]
)
def test_cli_malformed_values_are_config_errors_naming_block_and_key(tmp_path, capsys, subcommand, edit, message):
    code, err = _exit_and_stderr(tmp_path, capsys, subcommand, _edited(subcommand, edit))
    assert (code, err) == (2, f"error: {message}\n")
    assert not (tmp_path / "run" / "report.json").exists()


def test_drift_oracle_rejects_replicates_from_the_config_and_the_flag(tmp_path, capsys):
    payload = _edited("drift-oracle", lambda p: p["experiment"].update(replicates=3))
    code, err = _exit_and_stderr(tmp_path, capsys, "drift-oracle", payload)
    assert code == 2 and err.startswith("error: unknown keys in 'experiment' block: ['replicates']")
    code, err = _exit_and_stderr(tmp_path, capsys, "drift-oracle", PAYLOADS["drift-oracle"], "--replicates", "3")
    assert (code, err) == (2, "error: --replicates is not used by 'drift-oracle'\n")


def test_an_overflowing_number_literal_is_refused_naming_its_path(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(PAYLOADS["simulate-sde"]).replace('"sigma": 1.0', '"sigma": 1e999'))
    code = main(["simulate-sde", "--config", str(path), "--out", str(tmp_path / "run")])
    assert (code, capsys.readouterr().err) == (2, "error: config value model.sigma must be a finite number, got inf\n")


@pytest.mark.parametrize("seed", [-1, 2**63])
@pytest.mark.parametrize("subcommand", list(PAYLOADS))
def test_a_seed_outside_the_key_range_is_refused_with_no_cast_warning(tmp_path, capsys, subcommand, seed):
    message = f"error: experiment.seed must lie in [0, 2**63), got {seed}\n"
    in_config = _edited(subcommand, lambda p: p.setdefault("experiment", {}).update(seed=seed))
    for payload, flags in ((in_config, ()), (PAYLOADS[subcommand], ("--seed", str(seed)))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = _exit_and_stderr(tmp_path, capsys, subcommand, payload, *flags)
        assert (code, err, caught) == (2, message, [])
        assert json.loads((tmp_path / "run" / "meta.json").read_text())["error"]["class"] == "ConfigError"


@pytest.mark.parametrize(
    "content,message",
    [
        (None, "cannot read config file: [Errno 2] No such file or directory: "),
        ("{not json", "config file is not valid JSON: "),
        ("[1, 2]", "config root must be a JSON object"),
    ],
    ids=["unreadable", "invalid-json", "list-root"],
)
def test_a_config_file_that_is_no_json_object_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "c.json"
    if content is not None:
        path.write_text(content)
    code = main(["simulate-sde", "--config", str(path), "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {message}")
    assert json.loads((tmp_path / "run" / "meta.json").read_text())["error"]["class"] == "ConfigError"


# the top-level blocks each subcommand does not read, in the order of TOP_LEVEL_BLOCKS
UNREAD = {
    "simulate-discrete": ["drift"],
    "simulate-sde": ["rule", "schedule"],
    "ancestral": ["rule", "drift"],
    "convergence": [],
    "fixation": ["rule", "drift"],
    "duality": ["rule", "drift"],
    "rps-lyapunov": ["rule", "drift", "schedule"],
    "successive-extinction": ["rule", "lambda", "schedule"],
    "drift-oracle": ["model", "rule", "drift", "lambda", "schedule"],
}


@pytest.mark.parametrize(
    "subcommand,block", [(subcommand, block) for subcommand, blocks in UNREAD.items() for block in blocks]
)
def test_a_block_the_subcommand_does_not_read_exits_2(tmp_path, capsys, subcommand, block):
    code, err = _exit_and_stderr(tmp_path, capsys, subcommand, _edited(subcommand, _added(block, {})))
    assert (code, err) == (2, f"error: blocks [{block!r}] are not used by {subcommand!r}\n")


def test_one_message_names_every_unread_block_in_order(tmp_path, capsys):
    assert set(UNREAD) == set(cli.COMMANDS)
    for subcommand, blocks in UNREAD.items():
        if blocks:
            payload = _edited(subcommand, lambda p: p.update(dict.fromkeys(blocks, {})))
            code, err = _exit_and_stderr(tmp_path, capsys, subcommand, payload)
            assert (code, err) == (2, f"error: blocks {blocks} are not used by {subcommand!r}\n")


EXPERIMENT_ROWS = [name for name, command in cli.COMMANDS.items() if command.run.__module__ == "lwf.experiments"]


@pytest.mark.parametrize("subcommand", EXPERIMENT_ROWS)
def test_the_table_and_the_run_signatures_agree(subcommand):
    command = cli.COMMANDS[subcommand]
    params = set(inspect.signature(command.run).parameters)
    keys = {key for required, optional in command.blocks.values() for key in f"{required} {optional}".split()}
    assert keys <= set(cli.CONVERT)
    # K only checks x0; the rule, drift and lambda blocks are parsed whole
    reached = {"increments" if key == "tail" and "increments" in params else key for key in keys - {"K"}}
    reached |= {"seed", "replicates"} & params
    reached |= set(cli.KIND_BLOCKS) & params
    assert reached <= params
    # no config names stationary_time: the run ignores it, and only the Python API still passes it
    assert params - {"seed", "threads", "pairs", "stationary_time"} <= reached
    _assert_required_exactly_without_a_default(subcommand, inspect.signature(command.run).parameters)


def _assert_required_exactly_without_a_default(subcommand, params):
    """Every key of the row but K, read as the parameter it reaches, is required iff that parameter has no default."""
    for required, optional in cli.COMMANDS[subcommand].blocks.values():
        for key in f"{required} {optional}".split():
            if key != "K":
                param = params["increments" if key == "tail" and "increments" in params else key]
                assert (key in required.split()) == (param.default is inspect.Parameter.empty), (subcommand, key)


# the constructor that takes the keys a simulate subcommand's signature does not name
CONSTRUCTORS = {
    "simulate-discrete": DiscreteModel.from_schedule, "simulate-sde": SdeConfig, "ancestral": AncestralModel,
}


@pytest.mark.parametrize("subcommand", list(CONSTRUCTORS))
def test_a_simulate_row_requires_exactly_the_keys_without_a_default(subcommand):
    assert set(CONSTRUCTORS) == set(cli.COMMANDS) - set(EXPERIMENT_ROWS)
    params = {**inspect.signature(CONSTRUCTORS[subcommand]).parameters,
              **inspect.signature(cli.COMMANDS[subcommand].run).parameters}
    _assert_required_exactly_without_a_default(subcommand, params)


@pytest.mark.parametrize("subcommand", ["simulate-sde", "simulate-discrete", "convergence"])
def test_a_model_block_without_K_writes_the_same_bytes(tmp_path, subcommand):
    # x0 fixes K, which a config had to restate
    written = "report.json" if subcommand == "convergence" else "trajectories.csv"
    outs = []
    for name, edit in (("with", lambda p: None), ("without", _missing("model", "K"))):
        cfg = write_config(tmp_path / f"{name}.json", _edited(subcommand, edit))
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / name)]) == 0
        outs.append((tmp_path / name / written).read_bytes())
    assert outs[0] == outs[1]


def _literals(source: str) -> list:
    """(type, value) of every number, tuple and list literal in ``source``; lists read as tuples."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Constant, ast.Tuple, ast.List)):
            try:
                value = ast.literal_eval(node)
            except ValueError:
                continue
            value = tuple(value) if isinstance(value, list) else value
            found.append((type(value), value))
    return found


def test_cli_restates_no_default_of_a_run_signature():
    defaults = [
        (type(param.default), param.default)
        for subcommand in EXPERIMENT_ROWS
        for param in inspect.signature(cli.COMMANDS[subcommand].run).parameters.values()
        if type(param.default) in (int, float, tuple) and param.default not in (0, 1)
    ]
    literals = _literals(Path(cli.__file__).read_text())
    assert len(defaults) > 20 and not [d for d in defaults if d in literals]
