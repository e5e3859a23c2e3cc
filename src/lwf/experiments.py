"""Statistical experiment harness.

Every experiment is a pure function of its parameters and a seed: reports
reproduce byte-for-byte, including across thread counts, because each hands
its stream and thread count to the engines, whose fixed-width batches draw
from streams derived from the batch index alone and write their own rows
(:mod:`lwf.batches`).  Wall-clock time is therefore kept out of reports (the
CLI writes it to a sidecar file).

Statistical thresholds (4-standard-error bands, 99% confidence levels, KS
noise bands) are harness choices and are labelled as such in every metric;
the underlying limit statements are qualitative.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .ancestral import N_CAP, STATIONARY_TOL, AncestralModel, dual_moment, fixation_probabilities
from .batches import LANE_DRIFT, LANE_POINTS, pmap
from .config import building
from .core import as_frequencies, random_interior_points
from .discrete import DiscreteModel, empirical_drift, simulate_discrete
from .errors import ConfigError
from .measures import LambdaMeasure, ZeroMeasure
from .rng import RngStream
from .rules import (
    ColouringRule, bernstein_rule, LogisticRule, NegFreqDepRule, PartialOrderRule, PosFreqDepRule, TransitiveRule
)
from .sde import SdeConfig, simulate_sde
from .selection import DriftFunction, cyclic_contest_map, transitive_pair_map

Z_99_TWO_SIDED = 2.5758293035489004
Z_99_ONE_SIDED = 2.3263478740408408
FOUR_SE = 4.0
KS_NOISE = 1.36  # one-sample Kolmogorov-Smirnov noise scale / sqrt(R)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class Metric:
    """One checked quantity with the tolerance it was judged against."""

    name: str
    value: object
    stderr: object = None
    tolerance: str
    tolerance_provenance: str = "harness"  # "harness" for chosen thresholds, "theory" for derived values
    passed: bool
    details: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    experiment: str
    seed: int
    parameters: dict
    sample_sizes: dict
    metrics: list[Metric]
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_dict(self) -> dict:
        return {**_jsonable(self), "passed": self.passed}


def _jsonable(value):
    """``value`` with dataclasses as dicts, string keys, lists for sequences and arrays, Python scalars for numpy's."""
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


# the seed has its own field, the replicates are a sample size, the threads move no byte; stationary_time is ignored
_UNRECORDED = frozenset(("seed", "replicates", "threads", "stationary_time"))


def _config_word(key: str, value):
    """One argument of a run as the config file writes it."""
    if key == "pairs":
        return [pair["name"] for pair in value]
    if hasattr(value, "to_config"):
        return value.to_config()
    if isinstance(value, Mapping):
        return {str(k): v for k, v in value.items()}
    return value


def _experiment(run):
    """Make ``run_<name>``, which returns ``(sample_sizes, metrics)``, the experiment ``<name>``.

    The call, bound to ``run``'s signature with every default filled in and
    ``x0`` made frequencies once, runs ``run`` and gives the report's ``seed``
    and its ``parameters`` (``measure`` under ``lambda``), less ``_UNRECORDED``.
    """
    name = run.__name__.removeprefix("run_").replace("_", "-")
    signature = inspect.signature(run)

    @functools.wraps(run)
    def experiment(*args, **kwargs) -> ExperimentReport:
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        if call.arguments.get("pairs", ()) is None:  # the drift oracle's default, built once for the run and record
            call.arguments["pairs"] = standard_drift_catalog()
        if "x0" in call.arguments:
            call.arguments["x0"] = as_frequencies(call.arguments["x0"])
        sample_sizes, metrics = run(**call.arguments)
        recorded = {k: v for k, v in call.arguments.items() if k not in _UNRECORDED}
        parameters = {"lambda" if k == "measure" else k: _config_word(k, v) for k, v in recorded.items()}
        return ExperimentReport(name, call.arguments["seed"], parameters, sample_sizes, metrics)

    return experiment


def _band(name: str, estimate, target, width, **metric) -> Metric:
    """Passes when every |estimate - target| <= width; valued ``estimate`` unless ``metric`` says otherwise."""
    passed = bool(np.all(np.abs(np.subtract(estimate, target)) <= np.add(width, 1e-12)))
    return Metric(name=name, value=metric.pop("value", estimate), passed=passed, **metric)


def _unresolved(name: str, bound: float, what: str, details: dict) -> Metric:
    """A failing metric: the dual chain's truncation error ``bound`` was still above tolerance at ``N_CAP``."""
    return Metric(
        name=name, value=bound, tolerance=f"{what} before n_max reaches n_cap = {N_CAP}", passed=False, details=details
    )


def _all_fixed(winners: np.ndarray, max_time: float) -> Metric:
    """Every replicate fixed before ``max_time``; ``winners`` is -1 for one that did not."""
    fixed = int(np.count_nonzero(winners >= 0))
    return Metric(
        name="all_replicates_fixed",
        value=fixed,
        tolerance=f"all {winners.size} replicates fix before t = {max_time}",
        tolerance_provenance="theory",
        passed=fixed == winners.size,
    )


# ---------------------------------------------------------------------------
# Drift oracle
# ---------------------------------------------------------------------------


def standard_drift_catalog() -> list[dict]:
    """The built-in (rule, offspring tail, closed-form drift) pairings.

    Every closed-form drift in the package appears with the colouring rule
    and sample-size law it is derived from, at unit selection strength.
    """
    logistic_matrix = [[0.5, 0.7, 0.2], [0.3, 0.5, 0.6], [0.8, 0.4, 0.5]]
    web_beats = [(1, 0), (2, 0), (3, 1)]  # 0-based: 2 eats 1, 3 eats 1, 4 eats 2
    pair_map = transitive_pair_map(2)
    cycle_map = cyclic_contest_map()
    return [
        {"name": "transitive", "rule": TransitiveRule(3), "tail": {3: 1.0},
         "drift": DriftFunction.transitive(1.0, {2: 1.0}, 3)},
        {"name": "logistic", "rule": LogisticRule(logistic_matrix), "tail": {2: 1.0},
         "drift": DriftFunction.logistic(1.0, logistic_matrix)},
        {"name": "rps", "rule": PartialOrderRule.rps(), "tail": {2: 1.0},
         "drift": DriftFunction.rps(1.0)},
        {"name": "food_web", "rule": PartialOrderRule(4, web_beats), "tail": {2: 1.0},
         "drift": DriftFunction.food_web(1.0, web_beats, 4)},
        {"name": "neg_freq", "rule": NegFreqDepRule(3), "tail": {3: 1.0},
         "drift": DriftFunction.negfreq(1.0, 3)},
        {"name": "pos_freq", "rule": PosFreqDepRule(3), "tail": {3: 1.0},
         "drift": DriftFunction.posfreq(1.0, 3)},
        {"name": "bernstein_pair", "rule": bernstein_rule(pair_map), "tail": {2: 1.0},
         "drift": DriftFunction.from_polynomial(1.0, pair_map)},
        {"name": "bernstein_cycle", "rule": bernstein_rule(cycle_map), "tail": {2: 1.0},
         "drift": DriftFunction.from_polynomial(1.0, cycle_map)},
    ]


@_experiment
def run_drift_oracle(
    *,
    pairs: list[dict] | None = None,
    points: int = 25,
    samples: int = 10**6,
    min_coord: float = 0.05,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Check each closed-form drift against one-generation simulation.

    At interior states, the Monte Carlo estimate of the rescaled drift of
    the matched colouring rule must agree with the closed form within four
    standard errors, coordinate by coordinate.  Built-in rules have no
    population-size dependence beyond the selection knob, so there is no
    vanishing finite-size gap to track and the size-trend check does not
    apply (noted per pair).  ``pairs`` defaults to :func:`standard_drift_catalog`.
    """
    if points < 1 or samples < 1:
        raise ConfigError(f"drift-oracle runs need points and samples >= 1, got points = {points}, samples = {samples}")
    k_max = max((pair["rule"].K for pair in pairs), default=2)
    if not 0 <= min_coord < 1 / k_max:  # from 1/K up no drawn point is ever kept, and the draw never ends
        raise ConfigError(f"experiment.min_coord must lie in [0, 1/K) = [0, {1 / k_max:g}) for the pairs' largest "
                          f"K = {k_max}, got {min_coord}")
    stream = RngStream(seed)
    xs = [random_interior_points(stream.derive(LANE_POINTS, p_idx).generator(), pair["rule"].K, points, min_coord)
          for p_idx, pair in enumerate(pairs)]

    def check(p_idx):
        pair, x = pairs[p_idx], xs[p_idx]
        scale = pair["drift"].kappa or 1.0
        rngs = [stream.derive(LANE_DRIFT, p_idx, j).generator() for j in range(points)]
        est = empirical_drift(pair["rule"], pair["tail"], x, samples, rngs)
        dev = np.abs(pair["drift"](x) - scale * est.values)
        return float((dev / (FOUR_SE * scale * est.stderr + 1e-9)).max()), int(est.compositions.max())

    results = pmap(check, range(len(pairs)), threads)  # one task per pair, all its points in one batch
    metrics = []
    for pair, (worst, compositions) in zip(pairs, results):
        metrics.append(
            Metric(
                name=f"drift_match:{pair['name']}",
                value=worst,
                tolerance=f"max |closed-form - simulated| / (4 SE + 1e-9) <= 1 over {points} interior points",
                passed=worst <= 1.0,
                details={"points": int(points), "samples_per_point": int(samples),
                         "compositions": compositions,
                         "size_trend": "not applicable: rule has no population-size dependence"},
            )
        )
    return {"one_generation_samples": int(samples) * int(points) * len(pairs)}, metrics


# ---------------------------------------------------------------------------
# Convergence of the rescaled chain to the limit process
# ---------------------------------------------------------------------------


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    grid = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


@_experiment
def run_convergence(
    *,
    rule: ColouringRule,
    drift: DriftFunction,
    measure: LambdaMeasure,
    tail: dict,
    alpha: float,
    kappa: float,
    sigma: float,
    x0,
    T: float,
    N_grid,
    dt: float,
    eps_jump: float = 1e-3,
    final_ks_threshold: float = 0.06,
    replicates: int = 2000,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Compare marginals of the rescaled chain with the limit process.

    For each population size N the chain runs ``floor(kappa * T / rho)``
    generations and its terminal marginal is compared, coordinate by
    coordinate, to the integrator's marginal at time T via the two-sample
    Kolmogorov-Smirnov distance.  The distances must be nonincreasing in N
    within twice the KS sampling noise, and the largest-N distance must fall
    below the configured threshold.
    """
    if np.any(np.diff(N_grid) <= 0):  # a distance falling as N grows is read off an increasing grid only
        raise ConfigError(f"convergence runs need a strictly increasing N_grid, got N_grid = {list(N_grid)}")
    if not final_ks_threshold > 0:  # a KS distance of 0 needs two equal samples
        raise ConfigError(f"experiment.final_ks_threshold must be > 0, got {final_ks_threshold}")
    stream = RngStream(seed)
    with building("model value (horizon = T)"):
        cfg = SdeConfig(K=x0.size, drift=drift, sigma=sigma, measure=measure, dt=dt, horizon=T, eps_jump=eps_jump)
    sde_final = simulate_sde(cfg, x0, replicates, [T], stream.derive(0), threads)[0][0]

    ks_by_N = []
    generations_by_N = []
    for idx, N in enumerate(N_grid):
        with building("DiscreteModel.from_schedule value"):
            model = DiscreteModel.from_schedule(rule, N, alpha, kappa, sigma, measure, tail)
        generations = int(math.floor(kappa * T / model.offspring.rho))
        finals = simulate_discrete(model, x0, replicates, [generations], stream.derive(1 + idx), threads)[0]
        ks_by_N.append([_ks_distance(finals[:, i], sde_final[:, i]) for i in range(x0.size)])
        generations_by_N.append(generations)

    ks = np.array(ks_by_N)
    noise_band = 2.0 * KS_NOISE / math.sqrt(replicates)
    metrics = [
        Metric(
            name="ks_nonincreasing",
            value=ks.tolist(),
            tolerance=f"KS(N_next) - KS(N) <= 2 * 1.36/sqrt(R) = {noise_band:.4f}",
            passed=bool(np.all(np.diff(ks, axis=0) <= noise_band)),
            details={"N_grid": [int(n) for n in N_grid], "generations": generations_by_N},
        ),
        Metric(
            name="final_ks",
            value=ks[-1].tolist(),
            tolerance=f"KS at largest N < {final_ks_threshold}",
            passed=bool(np.all(ks[-1] <= final_ks_threshold)),
        ),
    ]
    return {"replicates_per_side": replicates}, metrics


# ---------------------------------------------------------------------------
# Fixation
# ---------------------------------------------------------------------------


def _dual_pair(kappa, increments, sigma, measure, key, horizon, *, K, **sde) -> tuple[SdeConfig, AncestralModel]:
    """The ordered-contest SdeConfig on K types and its dual chain, built in one order: one error per bad value."""
    with building("model value"):
        drift = DriftFunction.neutral(K) if kappa == 0.0 else DriftFunction.transitive(kappa, increments, K)
        with building(f"model value (horizon = {key})"):  # key: the experiment key that set the horizon
            cfg = SdeConfig(K=K, drift=drift, sigma=sigma, measure=measure, horizon=horizon, **sde)
        return cfg, AncestralModel(kappa, sigma, increments, measure)


@_experiment
def run_fixation(
    *,
    kappa: float,
    increments: dict,
    sigma: float,
    measure: LambdaMeasure,
    x0,
    dt: float,
    eps_jump: float = 1e-3,
    tol_ext: float = 1e-8,
    max_time: float = 500.0,
    replicates: int = 2000,
    stationary_time: float | None = None,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Fixation probabilities of the ordered-contest process vs the dual chain.

    Runs replicates of the limit process to fixation and compares the
    empirical fixation vector with the dual-chain prediction: the pgf
    increments of the solved stationary lineage-count law in the recurrent
    regime, within 4 combined standard errors (the binomial one at the
    predicted probability and the solve's truncation error); the
    top-present-label indicator in the transient one (where the check is
    that the top label wins every replicate).  ``kappa = 0`` is the neutral case with the initial
    frequencies as exact prediction and a 99% binomial band.  A stationary
    law the solve cannot resolve below ``N_CAP`` (near ``kappa_star``) is a
    failing ``stationary_law_resolved`` metric, not a number.

    ``stationary_time`` is ignored and no config takes it; it stays for perfbench's fixation workload until ROADMAP
    item 1 deletes it (it sized the simulation that estimated the stationary law before the law was solved).
    """
    stream = RngStream(seed)
    cfg, dual = _dual_pair(
        kappa, increments, sigma, measure, "max_time", max_time, K=x0.size, dt=dt, eps_jump=eps_jump, tol_ext=tol_ext
    )
    winners = simulate_sde(cfg, x0, replicates, (), stream, threads)[1].winner
    counts = np.bincount(winners[winners >= 0], minlength=x0.size)
    empirical = counts / replicates
    emp_se = np.sqrt(empirical * (1.0 - empirical) / replicates)
    prediction = fixation_probabilities(dual, x0)
    # the gates use the binomial SE at the predicted probability, which is not 0 when a type wins 0 or all replicates
    null_se = np.sqrt(prediction.probs * (1.0 - prediction.probs) / replicates)
    details = {  # prediction_stderr is the truncation error of the stationary solve
        "prediction": prediction.probs.tolist(),
        "prediction_stderr": prediction.stderr.tolist(),
        "prediction_n_max": prediction.n_max,
        "kappa_star": prediction.kappa_star,
        "regime": prediction.regime,
    }

    metrics = [_all_fixed(winners, max_time)]
    if prediction.regime == "transient":
        top = int(np.flatnonzero(x0 > 0).max())
        wins = int(counts[top])
        metrics.append(
            Metric(
                name="top_label_fixes",
                value=wins,
                tolerance=f"type {top + 1} fixes in {replicates}/{replicates} replicates",
                tolerance_provenance="theory",
                passed=wins == replicates,
                details={"kappa_star": prediction.kappa_star, "regime": "transient"},
            )
        )
    elif prediction.regime == "unresolved":
        what = f"pgf increments move by <= {STATIONARY_TOL:g} when the truncation n_max doubles,"
        details["empirical"] = empirical.tolist()
        bound = float(np.max(prediction.stderr))
        metrics.append(_unresolved("stationary_law_resolved", bound, what, details))
    else:
        if kappa == 0.0:
            width, tolerance = Z_99_TWO_SIDED * null_se, "within the 99% binomial CI of the exact prediction"
            details = {"prediction": prediction.probs.tolist(), "regime": prediction.regime}
        else:
            width = FOUR_SE * np.sqrt(null_se**2 + prediction.stderr**2)
            tolerance = "within 4 combined standard errors of the pgf-increment prediction"
        metrics.append(
            _band(
                "fixation_vector", empirical.tolist(), prediction.probs, width,
                stderr=emp_se.tolist(), tolerance=tolerance, details=details,
            )
        )
    return {"replicates": replicates}, metrics


# ---------------------------------------------------------------------------
# Moment duality
# ---------------------------------------------------------------------------


@_experiment
def run_duality(
    *,
    kappa: float,
    increments: dict,
    sigma: float,
    measure: LambdaMeasure,
    xs=(0.3, 0.7),
    ts=(0.5, 1.0),
    n0s=(1, 2, 3),
    dt: float,
    eps_jump: float = 1e-3,
    replicates: int = 20000,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Moment duality between the two-type process and the lineage-count chain.

    For each cell (n0, t, x) the integrator's estimate of ``E[X_1(t)**n0]``
    from ``X_1(0) = x`` must lie within four standard errors plus d of v,
    where the chain's ``E[x**D_t]`` from ``D_0 = n0`` lies in ``[v, v + d]``
    (:func:`~lwf.ancestral.dual_moment`).  Two cells tighten to closed
    forms when available: at ``kappa = 0`` and ``n0 = 1`` the martingale
    value is x exactly; at ``kappa = 0``, ``n0 = 2`` with no jumps the
    second moment solves ``dm/dt = sigma (x - m)``, checked at 5% relative
    error.  A cell whose bound d exceeds ``STATIONARY_TOL`` once the
    truncation reaches ``N_CAP`` (a transient chain far out) is a failing
    ``dual_moment_resolved`` metric, not a band that passes almost any
    value.
    """
    for x in xs:
        if not 0.0 <= x <= 1.0:
            raise ConfigError(f"duality runs need every x in [0, 1], got x = {x}")
    for t in ts:
        if not 0.0 <= t < math.inf:
            raise ConfigError(f"duality runs need every t finite and >= 0, got t = {t}")
    stream = RngStream(seed)
    cfg, dual = _dual_pair(kappa, increments, sigma, measure, "max(ts)", max(ts), K=2, dt=dt, eps_jump=eps_jump)
    for n0 in n0s if xs else ():  # named by the first cell that would solve for it, before any simulation
        if not 1 <= n0 <= N_CAP:
            raise ConfigError(
                f"invalid duality cell n0={n0},t={ts[0]},x={xs[0]}: "
                f"initial state must lie in [1, n_cap = {N_CAP}], got {n0}"
            )
    grid = sorted(set(ts))  # the integrator records forward in time, whatever order the cells come in
    metrics = []
    for x_idx, x in enumerate(xs):
        snaps = simulate_sde(cfg, [x, 1.0 - x], replicates, grid, stream.derive(10 + x_idx), threads)[0]
        for t in ts:
            weak = snaps[grid.index(t)][:, 0]
            for n0 in n0s:
                vals = weak**n0
                sde_mean = float(vals.mean())
                sde_se = float(vals.std() / math.sqrt(replicates))
                cell = f"n0={n0},t={t},x={x}"
                if kappa == 0.0 and n0 == 1:
                    metrics.append(
                        _band(
                            f"martingale:{cell}", sde_mean, x, FOUR_SE * sde_se,
                            stderr=sde_se, tolerance="|E[X(t)] - x| <= 4 SE (chain side is exactly x)",
                            details={"dual_value": x},
                        )
                    )
                    continue
                dual_mean, bound, n_max = dual_moment(dual, x, n0, t)
                if bound > STATIONARY_TOL:
                    what = f"killed-truncation bound d <= {STATIONARY_TOL:g}"
                    details = {"integrator": sde_mean, "chain_lower": dual_mean, "n_max": n_max}
                    metrics.append(_unresolved(f"dual_moment_resolved:{cell}", bound, what, details))
                    continue
                metrics.append(
                    _band(
                        f"duality:{cell}", sde_mean, dual_mean, FOUR_SE * sde_se + bound,
                        value=[sde_mean, dual_mean], stderr=sde_se,
                        tolerance="|integrator - chain| <= 4 SE + d, d the chain's killed-truncation bound",
                        details={"truncation_bound": bound, "n_max": n_max},
                    )
                )
                if kappa == 0.0 and n0 == 2 and measure.is_zero:
                    ode = x + (x * x - x) * math.exp(-sigma * t)
                    rel = abs(sde_mean - ode) / abs(ode)
                    metrics.append(
                        Metric(
                            name=f"moment_ode:{cell}",
                            value=sde_mean,
                            stderr=sde_se,
                            tolerance="relative error vs the exact second-moment ODE <= 5%",
                            tolerance_provenance="theory",
                            passed=rel <= 0.05,
                            details={"ode_value": ode, "relative_error": rel},
                        )
                    )
    return {"sde_replicates": replicates}, metrics


# ---------------------------------------------------------------------------
# Cyclic-contest Lyapunov trend
# ---------------------------------------------------------------------------


@_experiment
def run_rps_lyapunov(
    *,
    kappa: float,
    sigma: float,
    measure: LambdaMeasure,
    delta: float,
    T: float = 2.0,
    grid_points: int = 8,
    dt: float,
    eps_jump: float = 1e-3,
    replicates: int = 2000,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Trend of ``E[log(X_1 X_2 X_3)]`` under the three-type cyclic contest.

    With any noise present (``sigma > 0`` or a nonzero event measure) the
    log-product must trend downward: the fitted slope of the batch-mean
    curves must be negative at one-sided 99% confidence.  With no noise the
    dynamics are deterministic and the curve must be flat from the
    symmetric start.  Replicates that touch the boundary stop contributing
    (log 0 is the asserted limit, not a numerical error) and are counted.
    """
    if not abs(delta) < 1.0 / 3.0:
        raise ConfigError(f"rps-lyapunov runs need |delta| < 1/3 for an interior start, got delta = {delta}")
    if grid_points < 2:
        raise ConfigError(f"rps-lyapunov runs need grid_points >= 2 to fit a slope, got grid_points = {grid_points}")
    if not T > 0.0:
        raise ConfigError(f"rps-lyapunov runs need T > 0 to fit a slope over time, got T = {T}")
    x0 = np.array([1.0 / 3.0 + delta, 1.0 / 3.0, 1.0 / 3.0 - delta])
    stream = RngStream(seed)
    with building("model value (horizon = T)"):
        cfg = SdeConfig(
            K=3, drift=DriftFunction.rps(kappa), sigma=sigma, measure=measure, dt=dt, horizon=T, eps_jump=eps_jump
        )
    times = [T * (j + 1) / grid_points for j in range(grid_points)]
    noisy = sigma > 0.0 or not measure.is_zero

    # a zero coordinate stays zero under the mutation-free drift, so a replicate out at one time is out after it
    values = np.full((replicates, len(times)), np.nan)
    for j, snapshot in enumerate(simulate_sde(cfg, x0, replicates, times, stream, threads)[0]):
        inside = (snapshot > 0.0).all(axis=1)
        values[inside, j] = np.log(snapshot[inside]).sum(axis=1)
    excluded = np.isnan(values).sum(axis=0)

    # Batch-means slope: group replicates into fixed index groups, fit a
    # least-squares slope to each group's survivor-mean curve (none if a time has no survivor).
    groups = min(20, replicates)
    edges = np.linspace(0, replicates, groups + 1).astype(int)
    t_centered = np.array(times) - np.mean(times)
    slopes = []
    for g in range(groups):
        block = values[edges[g] : edges[g + 1]]
        if np.isnan(block).all(axis=0).any():
            continue
        curve = np.nanmean(block, axis=0)
        slopes.append(float((curve - curve.mean()) @ t_centered / (t_centered**2).sum()))
    slopes = np.array(slopes)
    dropped_batches = groups - slopes.size
    slope = float(slopes.mean()) if slopes.size else math.nan
    slope_se = float(slopes.std(ddof=1) / math.sqrt(slopes.size)) if slopes.size > 1 else 0.0

    with np.errstate(invalid="ignore"):  # np.nanmean's sum and count, NaN where no replicate survives, with no warning
        mean_curve = (np.nansum(values, axis=0) / (replicates - excluded)).tolist()
    if noisy:
        passed = slope + Z_99_ONE_SIDED * slope_se < 0.0
        tolerance = "slope of E[log prod X] negative at one-sided 99% confidence"
    else:
        passed = abs(slope) <= 1e-9 and slope_se <= 1e-12
        tolerance = "deterministic symmetric dynamics: |slope| <= 1e-9"
    metrics = [
        Metric(
            name="log_product_trend",
            value=slope,
            stderr=slope_se,
            tolerance=tolerance,
            passed=bool(passed),
            details={
                "times": times,
                "mean_curve": mean_curve,
                "excluded_boundary_replicates": excluded.tolist(),
                "dropped_batches": dropped_batches,
                "expected_direction": "decreasing" if noisy else "flat",
            },
        )
    ]
    return {"replicates": replicates}, metrics


# ---------------------------------------------------------------------------
# Successive extinctions
# ---------------------------------------------------------------------------


@_experiment
def run_successive_extinction(
    *,
    drift: DriftFunction,
    sigma: float,
    x0,
    dt: float,
    tol_ext: float = 1e-6,
    max_time: float = 200.0,
    min_fraction: float = 0.99,
    replicates: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Losing types die one at a time on the way to fixation.

    Pure-diffusion configurations only (no event measure).  Every replicate
    must fix, and in at least ``min_fraction`` of them the K-1 extinction
    times must be distinct and separated by more than one time step (two
    types dying within one step cannot be ordered by the discretization).
    """
    if sigma <= 0:
        raise ConfigError("successive-extinction runs need sigma > 0")
    stream = RngStream(seed)
    with building("model value (horizon = max_time)"):
        cfg = SdeConfig(
            K=x0.size, drift=drift, sigma=sigma, measure=ZeroMeasure(), dt=dt, horizon=max_time, tol_ext=tol_ext
        )
    events = simulate_sde(cfg, x0, replicates, (), stream, threads)[1]
    winners, ext_times = events.winner, events.extinction_time

    losses = np.sort(ext_times, axis=1)[:, : x0.size - 1]  # winner's slot is NaN, sorted last
    complete = ~np.isnan(losses).any(axis=1) & (winners >= 0)
    separated = complete & np.all(np.diff(losses, axis=1) > dt + 1e-15, axis=1)  # no gap to check when K = 2
    frac = float(separated.sum()) / replicates

    metrics = [
        _all_fixed(winners, max_time),
        Metric(
            name="distinct_extinction_times",
            value=frac,
            tolerance=f">= {min_fraction:.0%} of replicates show {x0.size - 1} distinct "
            f"extinction times separated by more than dt",
            passed=frac >= min_fraction,
            details={"dt": dt, "note": "separation below one step is a discretization artifact"},
        ),
    ]
    return {"replicates": replicates}, metrics
