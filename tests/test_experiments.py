import inspect
import json
import re
import warnings

import numpy as np
import pytest

from lwf import cli, experiments
from lwf.ancestral import N_CAP
from lwf.batches import LANE_DRIFT, LANE_POINTS, pmap
from lwf.core import random_interior_points
from lwf.discrete import empirical_drift
from lwf.errors import ConfigError
from lwf.experiments import (
    run_convergence,
    run_drift_oracle,
    run_duality,
    run_fixation,
    run_rps_lyapunov,
    run_successive_extinction,
)
from lwf.measures import PointMass, ZeroMeasure
from lwf.rng import RngStream
from lwf.rules import NeutralRule
from lwf.sde import BatchSde
from lwf.selection import DriftFunction


def report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True, indent=2).encode()


SMALL_RUNS = [
    (
        "drift-oracle",
        lambda threads: run_drift_oracle(points=2, samples=5000, seed=5, threads=threads),
    ),
    (
        "convergence",
        lambda threads: run_convergence(
            rule=NeutralRule(2), drift=DriftFunction.neutral(2), measure=ZeroMeasure(), tail={2: 1.0},
            alpha=0.25, kappa=1.0, sigma=1.0, x0=[0.5, 0.5], T=0.1, N_grid=(50, 100), dt=5e-3, replicates=200, seed=5,
            threads=threads,
        ),
    ),
    (
        "fixation",
        lambda threads: run_fixation(
            kappa=0.0, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), x0=[0.3, 0.7],
            dt=2e-3, replicates=150, seed=5, threads=threads,
        ),
    ),
    (
        "duality",
        lambda threads: run_duality(
            kappa=0.5, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), xs=(0.3,), ts=(0.3,),
            n0s=(1, 2), dt=2e-3, replicates=600, seed=5, threads=threads,
        ),
    ),
    (
        "rps-lyapunov",
        lambda threads: run_rps_lyapunov(
            kappa=1.0, sigma=0.4, measure=ZeroMeasure(), delta=0.05, T=1.0, dt=2e-3, replicates=600,
            seed=5, threads=threads,
        ),
    ),
    (
        "successive-extinction",
        lambda threads: run_successive_extinction(
            drift=DriftFunction.neutral(3), sigma=1.0, x0=[0.3, 0.3, 0.4], dt=1e-3,
            replicates=120, seed=5, threads=threads,
        ),
    ),
]


@pytest.mark.parametrize("name,factory", SMALL_RUNS, ids=[n for n, _ in SMALL_RUNS])
def test_reports_are_deterministic_across_reruns_and_threads(name, factory):
    first = report_bytes(factory(1))
    again = report_bytes(factory(1))
    threaded = report_bytes(factory(3))
    assert first == again
    assert first == threaded


@pytest.mark.parametrize("name,factory", SMALL_RUNS, ids=[n for n, _ in SMALL_RUNS])
def test_parameters_record_every_argument_of_the_run(name, factory):
    # every knob of the signature is in the record, defaults included; a new one cannot be left out
    report = factory(1)
    names = set(inspect.signature(cli.COMMANDS[name].run).parameters)
    expected = {"lambda" if n == "measure" else n for n in names - {"seed", "replicates", "threads", "stationary_time"}}
    assert set(report.parameters) == expected
    assert report.experiment == name and report.seed == 5


def test_the_start_is_made_frequencies_once_and_recorded_as_the_run_used_it(monkeypatch):
    # the run and its record each made their own copy of x0
    made = []
    as_frequencies = experiments.as_frequencies
    monkeypatch.setattr(experiments, "as_frequencies", lambda x: made.append(x) or as_frequencies(x))
    x0 = (-5e-13, 0.3, 0.7 + 5e-13)  # a coordinate within SIMPLEX_TOL below 0 is clipped to 0
    report = run_successive_extinction(drift=DriftFunction.neutral(3), sigma=1.0, x0=x0, dt=1e-3, replicates=8, seed=5)
    assert made == [x0]
    assert report.to_dict()["parameters"]["x0"] == [0.0, 0.3, 0.7 + 5e-13]


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_duality(
            kappa=0.5, increments={1: 0.5, "2": 0.5}, sigma=1.0, measure=ZeroMeasure(), xs=(0.3,), ts=(0.3,),
            n0s=(2,), dt=5e-3, replicates=100, seed=5,
        ),
        lambda: run_fixation(
            kappa=0.5, increments={1: 0.5, "2": 0.5}, sigma=1.0, measure=ZeroMeasure(), x0=[0.3, 0.7],
            dt=5e-3, replicates=100, seed=5,
        ),
    ],
    ids=["duality", "fixation"],
)
def test_a_law_with_mixed_key_types_is_recorded_after_the_run(run):
    # the record sorted the law's keys and raised TypeError once the whole simulation had run
    report = run()
    assert report.passed, [(m.name, m.value) for m in report.metrics]
    assert report.to_dict()["parameters"]["increments"] == {"1": 0.5, "2": 0.5}


def test_lyapunov_groups_with_no_survivor_are_dropped_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_rps_lyapunov(
            kappa=1.0, sigma=1.0, measure=ZeroMeasure(), delta=0.05, T=0.5, dt=5e-3, replicates=50, seed=3
        )
    details = report.metrics[0].details
    assert details["dropped_batches"] == 6 and report.passed
    assert all(np.isfinite(details["mean_curve"]))


@pytest.mark.parametrize("seed", [2, 4, 5])
def test_lyapunov_claims_no_confidence_from_one_batch_slope(seed):
    # one replicate is one batch: its negative slope passed with a standard error of 0
    report = run_rps_lyapunov(kappa=1.0, sigma=1e-3, measure=ZeroMeasure(), delta=0.1, dt=1e-2, replicates=1, seed=seed)
    metric = report.metrics[0]
    assert metric.value < 0.0 and metric.stderr is None
    assert not report.passed


def test_lyapunov_refuses_a_start_outside_the_simplex():
    with pytest.raises(ConfigError, match=r"^rps-lyapunov runs need \|delta\| < 1/3 .*, got delta = -0\.4$"):
        run_rps_lyapunov(kappa=1.0, sigma=1.0, measure=ZeroMeasure(), delta=-0.4, dt=1e-3, replicates=2)


@pytest.mark.parametrize(
    "run,message",
    [
        (lambda: run_drift_oracle(points=0), r"points and samples >= 1, got points = 0, samples = 1000000$"),
        (lambda: run_drift_oracle(points=2, samples=0), r"points and samples >= 1, got points = 2, samples = 0$"),
        (lambda: run_rps_lyapunov(kappa=1.0, sigma=1.0, measure=ZeroMeasure(), delta=0.05, grid_points=1, dt=1e-3,
                                  replicates=2),
         r"grid_points >= 2 to fit a slope, got grid_points = 1$"),
        # with nothing to check, a run passed on no metric or failed on an error that named no key
        (lambda: run_drift_oracle(pairs=[], points=2, samples=100, seed=1), r"at least one pair, got pairs = \[\]$"),
        *[(lambda key=key: run_duality(kappa=0.5, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), dt=2e-3,
                                       replicates=10, **{key: ()}),
           rf"duality runs need a nonempty experiment.{key}, got {key} = \[\]$") for key in ("xs", "ts", "n0s")],
        # a repeated x wrote two metrics of one name with different values, a repeated t or n0 the same one twice
        *[(lambda key=key, values=values: run_duality(kappa=0.5, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(),
                                                      dt=2e-3, replicates=10, **{key: values}),
           rf"duality runs need distinct values in experiment.{key}, got {key} = {re.escape(str(list(values)))}$")
          for key, values in (("xs", (0.3, 0.3)), ("ts", (0.5, 0.3, 0.5)), ("n0s", (2, 2)))],
        (lambda: run_convergence(rule=NeutralRule(2), drift=DriftFunction.neutral(2), measure=ZeroMeasure(),
                                 tail={2: 1.0}, alpha=0.25, kappa=1.0, sigma=1.0, x0=[0.5, 0.5], T=0.1, N_grid=(),
                                 dt=5e-3, replicates=10),
         r"convergence runs need a nonempty experiment.N_grid, got N_grid = \[\]$"),
        (lambda: run_convergence(rule=NeutralRule(2), drift=DriftFunction.neutral(2), measure=ZeroMeasure(),
                                 tail={2: 1.0}, alpha=0.25, kappa=1.0, sigma=1.0, x0=[0.5, 0.5], T=0.25, N_grid=(50,),
                                 dt=0.1, replicates=10),
         r"model.T must be a whole number of steps dt = 0.1, got T = 0.25$"),
    ],
    ids=["oracle-points", "oracle-samples", "lyapunov-grid", "oracle-pairs", "duality-xs", "duality-ts", "duality-n0s",
         "duality-repeated-xs", "duality-repeated-ts", "duality-repeated-n0s", "convergence-N_grid", "convergence-T"],
)
def test_runs_refuse_the_values_the_cli_refuses(monkeypatch, run, message):
    def fail(self):
        raise AssertionError("a stream was drawn from")

    monkeypatch.setattr(RngStream, "generator", fail)
    with pytest.raises(ConfigError, match=message):
        run()


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_fixation(kappa=0.0, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), x0=[0.3, 0.7],
                             dt=2e-3, replicates=0),
        lambda: run_successive_extinction(drift=DriftFunction.neutral(3), sigma=1.0, x0=[0.3, 0.3, 0.4], dt=1e-3,
                                          replicates=0),
        lambda: run_rps_lyapunov(kappa=1.0, sigma=0.4, measure=ZeroMeasure(), delta=0.05, T=1.0, dt=2e-3,
                                 replicates=0),
        lambda: run_duality(kappa=0.5, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), xs=(0.3,), ts=(0.3,),
                            n0s=(1, 2), dt=2e-3, replicates=0),
    ],
    ids=["fixation", "successive-extinction", "rps-lyapunov", "duality"],
)
def test_runs_refuse_zero_replicates_before_any_step(monkeypatch, run):
    # with no replicate, fixation reported a NaN vector, extinction divided by zero and the other two NaN metrics
    def fail(self):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(BatchSde, "step", fail)
    with pytest.raises(ValueError, match=r"^replicates must be >= 1, got 0$"):
        run()


def test_convergence_refuses_a_grid_that_is_not_strictly_increasing():
    # an unordered grid passed ks_nonincreasing, though a distance falling as N grows cannot be read off it
    with pytest.raises(ConfigError, match=r"^convergence runs need a strictly increasing N_grid, got N_grid = "
                                          r"\[100, 50, 100\]$"):
        run_convergence(rule=NeutralRule(2), drift=DriftFunction.neutral(2), measure=ZeroMeasure(), tail={2: 1.0},
                        alpha=0.25, kappa=1.0, sigma=1.0, x0=[0.5, 0.5], T=0.1, N_grid=(100, 50, 100), dt=5e-3,
                        replicates=10)


def test_drift_oracle_builds_the_default_catalogue_once_per_call(monkeypatch):
    built = []
    catalogue = experiments.standard_drift_catalog
    monkeypatch.setattr(experiments, "standard_drift_catalog", lambda: built.append(1) or catalogue())
    report = run_drift_oracle(points=1, samples=200, seed=1)
    assert len(built) == 1
    assert report.parameters["pairs"] == [pair["name"] for pair in catalogue()]


def _per_cell_drift_oracle(*, pairs=None, points=25, samples=10**6, min_coord=0.05, seed=0, threads=1):
    """The drift oracle as it ran before a pair's points shared one call: one task and one state per cell."""
    stream = RngStream(seed)
    xs = [random_interior_points(stream.derive(LANE_POINTS, p_idx).generator(), pair["rule"].K, points, min_coord)
          for p_idx, pair in enumerate(pairs)]

    def check(cell):
        p_idx, j = cell
        pair, x = pairs[p_idx], xs[p_idx][j]
        scale = pair["drift"].kappa or 1.0
        est = empirical_drift(pair["rule"], pair["tail"], [x], samples,
                              [stream.derive(LANE_DRIFT, p_idx, j).generator()])
        dev = np.abs(pair["drift"](x) - scale * est.values[0])
        return (dev / (experiments.FOUR_SE * scale * est.stderr[0] + 1e-9)).max(), est.compositions[0]

    results = pmap(check, [(p_idx, j) for p_idx in range(len(pairs)) for j in range(points)], threads)
    metrics = []
    for p_idx, pair in enumerate(pairs):
        ratios, compositions = zip(*results[p_idx * points : (p_idx + 1) * points])
        worst = float(max(ratios))
        metrics.append(
            experiments.Metric(
                name=f"drift_match:{pair['name']}",
                value=worst,
                tolerance=f"max |closed-form - simulated| / (4 SE + 1e-9) <= 1 over {points} interior points",
                passed=worst <= 1.0,
                details={"points": int(points), "samples_per_point": int(samples),
                         "compositions": max(compositions),
                         "size_trend": "not applicable: rule has no population-size dependence"},
            )
        )
    return {"one_generation_samples": int(samples) * int(points) * len(pairs)}, metrics


_per_cell_drift_oracle.__name__ = "run_drift_oracle"  # the experiment's name, which its report carries
_per_cell_drift_oracle = experiments._experiment(_per_cell_drift_oracle)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_drift_oracle_on_one_task_per_pair_matches_the_per_cell_oracle(threads):
    # 8 pairs split 3/3/2 over three threads; the closed form is evaluated once on a pair's block of points
    new = run_drift_oracle(points=3, samples=20_000, seed=7, threads=threads)
    reference = _per_cell_drift_oracle(points=3, samples=20_000, seed=7, threads=threads)
    assert report_bytes(new) == report_bytes(reference)


@pytest.mark.parametrize("min_coord", [0.25, 0.3, -0.5])
def test_drift_oracle_refuses_a_margin_outside_its_domain_before_any_draw(monkeypatch, min_coord):
    # 0.25 = 1/K for the four-type food web: no point was ever kept and the run never ended
    def fail(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(experiments, "random_interior_points", fail)
    with pytest.raises(ConfigError, match=r"^experiment\.min_coord must lie in \[0, 1/K\) = \[0, 0\.25\) for the "
                                          rf"pairs' largest K = 4, got {min_coord}$"):
        run_drift_oracle(points=2, samples=10, min_coord=min_coord)
    # a catalogue of three-type pairs admits a margin up to 1/3
    three = [pair for pair in experiments.standard_drift_catalog() if pair["rule"].K == 3][:1]
    monkeypatch.undo()
    assert run_drift_oracle(pairs=three, points=1, samples=10, min_coord=0.3).metrics[0].details["points"] == 1


def test_report_structure_carries_tolerance_provenance():
    report = run_drift_oracle(points=1, samples=2000, seed=1)
    payload = report.to_dict()
    assert payload["experiment"] == "drift-oracle"
    assert payload["seed"] == 1
    for metric in payload["metrics"]:
        assert metric["tolerance"]
        assert metric["tolerance_provenance"] in ("harness", "theory")
        assert isinstance(metric["passed"], bool)
    assert "sample_sizes" in payload


@pytest.mark.parametrize("seed", [1, 19])
def test_drift_oracle_standard_error_does_not_vanish_with_an_undrawn_composition(seed):
    # at 4000 samples type 1 of the transitive rule wins only when all three parents are type 1, which
    # was never drawn: the sample SE read 0 and the oracle failed by a ratio of 1e5
    report = run_drift_oracle(points=2, samples=4000, seed=seed)
    assert report.passed, [(m.name, m.value) for m in report.metrics]


def test_duality_solves_the_chain_side_and_records_its_truncation():
    report = run_duality(
        kappa=0.5, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), xs=(0.3,), ts=(0.3,),
        n0s=(2, 3), dt=2e-3, replicates=500, seed=5,
    )
    assert report.passed and report.sample_sizes == {"sde_replicates": 500}
    for metric in report.metrics:
        assert metric.details["n_max"] == 64 and 0.0 <= metric.details["truncation_bound"] <= 1e-12
        assert "4 SE + d" in metric.tolerance


def test_duality_cell_with_an_unresolved_truncation_bound_fails(monkeypatch):
    # a transient chain far out leaves d = 0.70 at n_cap, a band that would pass almost any integrator mean
    import lwf.experiments as xp

    monkeypatch.setattr(xp, "dual_moment", lambda model, x, n0, t: (0.2, 0.7, N_CAP))
    report = run_duality(
        kappa=0.5, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), xs=(0.3,), ts=(0.3,),
        n0s=(2,), dt=2e-3, replicates=50, seed=5,
    )
    (cell,) = report.metrics
    assert cell.name == "dual_moment_resolved:n0=2,t=0.3,x=0.3"
    assert not cell.passed and not report.passed
    assert cell.value == 0.7 and cell.details["n_max"] == 2048 and cell.details["chain_lower"] == 0.2
    assert "n_cap = 2048" in cell.tolerance


@pytest.mark.parametrize("n0s", [(0,), (2, 0), (1, 2049)])
def test_duality_refuses_a_bad_start_before_any_replicate_is_simulated(monkeypatch, n0s):
    # the check ran inside the first cell's chain solve, after every replicate of the first x had been integrated
    def fail(*args, **kwargs):
        raise AssertionError("simulate_sde was called")

    monkeypatch.setattr(experiments, "simulate_sde", fail)
    bad = next(n0 for n0 in n0s if not 1 <= n0 <= 2048)
    with pytest.raises(ConfigError) as error:
        run_duality(
            kappa=0.5, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), xs=(0.3, 0.7), ts=(0.5, 0.25),
            n0s=n0s, dt=1e-3, replicates=20_000, seed=5,
        )
    assert str(error.value) == (
        f"invalid duality cell n0={bad},t=0.5,x=0.3: initial state must lie in [1, n_cap = 2048], got {bad}"
    )


def test_duality_cells_read_the_state_at_their_own_time_in_any_order():
    # each cell reads the integrator at its own time, also when ts is not in increasing order
    def cells(ts):
        report = run_duality(
            kappa=0.0, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), xs=(0.3,), ts=ts,
            n0s=(2,), dt=5e-3, replicates=2000, seed=5,
        )
        assert report.passed
        return {m.name: m.value for m in report.metrics}

    assert cells((1.0, 0.5)) == cells((0.5, 1.0))


def test_convergence_with_selection_and_jumps():
    # full-model check: ordered contests + extreme events against the
    # drift + jump integrator, through the time rescaling and the
    # event-probability coupling
    from lwf.rules import TransitiveRule

    report = run_convergence(
        rule=TransitiveRule(2),
        drift=DriftFunction.transitive(1.0, {1: 1.0}, 2),
        measure=PointMass(0.5, 1.0),
        tail={2: 1.0},
        alpha=0.25,
        kappa=1.0,
        sigma=1.0,
        x0=[0.5, 0.5],
        T=0.5,
        N_grid=(800, 3200),
        dt=1e-3,
        final_ks_threshold=0.06,
        replicates=2000,
        seed=77,
    )
    assert report.passed, report.metrics[0].value


def test_convergence_at_time_zero_has_zero_distance():
    # exactly representable start on every lattice in the grid
    report = run_convergence(
        rule=NeutralRule(2), drift=DriftFunction.neutral(2), measure=ZeroMeasure(), tail={2: 1.0},
        alpha=0.25, kappa=1.0, sigma=1.0, x0=[0.5, 0.5], T=0.0, N_grid=(50, 100), dt=1e-3, replicates=100, seed=2,
    )
    ks = np.array(report.metrics[0].value)
    assert np.all(ks == 0.0)
    assert report.passed


def test_successive_extinction_two_types_single_event():
    # with two types the (K-1)-extinction requirement is a single event
    report = run_successive_extinction(
        drift=DriftFunction.neutral(2), sigma=1.0, x0=[0.4, 0.6], dt=1e-3, replicates=100, seed=4
    )
    assert report.passed
    frac = next(m for m in report.metrics if m.name == "distinct_extinction_times")
    assert frac.value == 1.0


def test_successive_extinction_rejects_pure_drift():
    with pytest.raises(ConfigError):
        run_successive_extinction(
            drift=DriftFunction.neutral(3), sigma=0.0, x0=[0.3, 0.3, 0.4], dt=1e-3, replicates=10, seed=1
        )


def test_fixation_transient_branch_reports_top_label():
    report = run_fixation(
        kappa=6.0, increments={1: 1.0}, sigma=0.0, measure=PointMass(0.5, 1.0),
        x0=[0.5, 0.5, 0.0], dt=2e-3, tol_ext=1e-8, replicates=100, seed=9,
    )
    names = [m.name for m in report.metrics]
    assert "top_label_fixes" in names
    assert report.passed


def test_fixation_reports_failure_when_horizon_too_short():
    report = run_fixation(
        kappa=0.0, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), x0=[0.3, 0.7],
        dt=1e-3, max_time=0.05, replicates=100, seed=8,
    )
    fixed = next(m for m in report.metrics if m.name == "all_replicates_fixed")
    assert not fixed.passed
    assert not report.passed


def test_fixation_at_the_recurrent_side_gates_on_the_solved_prediction():
    report = run_fixation(
        kappa=1.0, increments={1: 1.0}, sigma=0.0, measure=PointMass(0.5, 1.0), x0=[0.2, 0.3, 0.5],
        dt=2e-3, tol_ext=1e-8, replicates=150, stationary_time=123.0, seed=4,
    )
    vec = next(m for m in report.metrics if m.name == "fixation_vector")
    assert vec.tolerance == "within 4 combined standard errors of the pgf-increment prediction"
    assert np.allclose(vec.details["prediction"], [0.080519, 0.180329, 0.739152], atol=2e-6)
    assert max(vec.details["prediction_stderr"]) <= 1e-6
    assert vec.details["prediction_n_max"] >= 128 and vec.details["regime"] == "recurrent"
    assert "stationary_time" not in report.parameters


def test_fixation_gate_holds_when_a_small_share_type_wins_no_replicate():
    # predicted 0.0035 for the 1% type: 100 replicates miss it about 70% of the time, so its empirical SE is 0
    report = run_fixation(
        kappa=1.0, increments={1: 1.0}, sigma=0.0, measure=PointMass(0.5, 1.0), x0=[0.01, 0.29, 0.7],
        dt=2e-3, tol_ext=1e-8, replicates=100, seed=1,
    )
    vec = next(m for m in report.metrics if m.name == "fixation_vector")
    assert vec.value[0] == 0.0 and vec.stderr[0] == 0.0
    assert vec.details["prediction"][0] == pytest.approx(0.0035, abs=1e-4)
    assert vec.passed and report.passed


def test_fixation_near_the_threshold_reports_an_unresolved_law():
    report = run_fixation(
        kappa=2.5, increments={1: 1.0}, sigma=0.0, measure=PointMass(0.5, 1.0), x0=[0.2, 0.3, 0.5],
        dt=2e-3, tol_ext=1e-8, replicates=20, seed=4,
    )
    law = next(m for m in report.metrics if m.name == "stationary_law_resolved")
    assert not law.passed and not report.passed
    assert law.value > 1e-6
    assert law.details["regime"] == "unresolved" and law.details["prediction_n_max"] == 2048
    assert max(law.details["prediction_stderr"]) == law.value
    assert "fixation_vector" not in [m.name for m in report.metrics]


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_successive_extinction(drift=DriftFunction.neutral(3), sigma=1.0, x0=[0.3, 0.3, 0.4], dt=0.0),
        lambda: run_fixation(kappa=1.0, increments={1: 1.0}, sigma=-1.0, measure=ZeroMeasure(), x0=[0.5, 0.5],
                             dt=1e-3),
        lambda: run_convergence(
            rule=NeutralRule(2), drift=DriftFunction.neutral(2), measure=ZeroMeasure(), tail={2: 2.0},
            alpha=0.25, kappa=1.0, sigma=1.0, x0=[0.5, 0.5], T=0.1, N_grid=(50,), dt=5e-3, replicates=10,
        ),
    ],
    ids=["sde-dt", "dual-sigma", "schedule-tail"],
)
def test_rejected_model_values_are_config_errors(run):
    with pytest.raises(ConfigError, match=r"invalid .* value( \(horizon = \S+\))?: .*(dt|sigma|tail)"):
        run()


def test_lyapunov_flat_case_is_exactly_flat():
    report = run_rps_lyapunov(kappa=1.0, sigma=0.0, measure=ZeroMeasure(), delta=0.0, T=1.0, dt=2e-3, replicates=8,
                              seed=3)
    metric = report.metrics[0]
    assert metric.value == 0.0
    assert report.passed
