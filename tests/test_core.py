import math

import numpy as np
import pytest

from lwf.ancestral import AncestralModel, dual_moment, simulate_ancestral
from lwf.core import (
    OffspringLaw,
    _categorical,
    as_frequencies,
    random_interior_points,
    round_to_counts,
)
from lwf.discrete import DiscreteModel
from lwf.errors import ScheduleError
from lwf.measures import BetaLaw, FiniteAtoms, PointMass, TruncatedSizeLaw, UniformLaw, ZeroMeasure
from lwf.rng import RngStream
from lwf.rules import NeutralRule
from lwf.sde import SdeConfig
from lwf.selection import DriftFunction, cyclic_contest_map


def test_simplex_point_invariants():
    assert as_frequencies([0.2, 0.3, 0.5]).size == 3
    with pytest.raises(ValueError):
        as_frequencies([0.2, 0.3, 0.4])  # sums to 0.9
    with pytest.raises(ValueError):
        as_frequencies([-0.1, 0.6, 0.5])
    with pytest.raises(ValueError):
        as_frequencies([1.0])  # K >= 2
    with pytest.raises(ValueError):
        as_frequencies([0.5, np.nan])


def test_round_to_counts_largest_remainder():
    counts = round_to_counts([0.2, 0.3, 0.5], 10)
    assert counts.tolist() == [2, 3, 5]
    # remainders: 0.33, 0.33, 0.34 over N=3 -> the extra slot goes to x_3
    counts = round_to_counts([1 / 3, 1 / 3, 1 / 3], 4)
    assert counts.sum() == 4 and counts.max() == 2
    counts = round_to_counts([0.105, 0.895], 10)
    assert counts.tolist() == [1, 9]


def test_random_interior_points_stay_interior():
    pts = random_interior_points(RngStream(1).generator(), 4, 200, 0.05)
    assert pts.shape == (200, 4)
    assert pts.min() >= 0.05
    assert np.allclose(pts.sum(axis=1), 1.0)


@pytest.mark.parametrize("min_coord", [0.25, 0.3, -0.5])
def test_random_interior_points_refuse_a_margin_outside_its_domain(min_coord):
    # at 1/K or above no draw is ever kept, and the rejection loop never ended
    with pytest.raises(ValueError, match=rf"^min_coord must lie in \[0, 1/K\) = \[0, 0.25\), got {min_coord}$"):
        random_interior_points(RngStream(1).generator(), 4, 3, min_coord)


def test_offspring_law_basic():
    q = OffspringLaw(0.1, {4: 0.5, 2: 0.5})
    assert q.tail == ((2, 0.5), (4, 0.5))
    # the discrete engine mixes the sample sizes' type laws at P(1) = 1 - rho and P(k) = rho * tail[k]
    ks, ps = zip(*DiscreteModel(N=2, rule=NeutralRule(2), offspring=q)._draw[0])
    assert ks == (1, 2, 4)
    assert ps == pytest.approx([0.9, 0.05, 0.05])
    # the dual chain branches by k - 1 extra parents, with mean beta
    increments = {k - 1: p for k, p in q.tail}
    assert AncestralModel(1.0, 0.0, increments, ZeroMeasure()).increments == ((1, 0.5), (3, 0.5))
    assert AncestralModel(1.0, 0.0, increments, ZeroMeasure()).beta == pytest.approx(0.5 * 1 + 0.5 * 3)
    with pytest.raises(ValueError):
        OffspringLaw(1.5, {2: 1.0})
    with pytest.raises(ValueError):
        OffspringLaw(0.5, {1: 1.0})
    with pytest.raises(ValueError):
        OffspringLaw(0.5, {2: 0.7})


def test_offspring_law_rejects_a_negative_weight_before_dropping_zeros():
    with pytest.raises(ValueError, match="^tail key 3 has a negative weight, -0.5$"):
        OffspringLaw(0.5, {2: 1.0, 3: -0.5})
    assert OffspringLaw(0.5, {2: 1.0, 3: 0.0}).tail == ((2, 1.0),)


def test_from_schedule_no_events():
    model = DiscreteModel.from_schedule(NeutralRule(2), 10**4, 0.25, 1.0, 1.0, ZeroMeasure(), {2: 1.0})
    assert model.offspring.rho == pytest.approx(1e-4)
    assert model.gamma == 0.0
    assert model.size_law.total_rate == 0.0


def test_from_schedule_point_mass_example():
    model = DiscreteModel.from_schedule(NeutralRule(2), 10**4, 0.25, 1.0, 1.0, PointMass(0.5, 1.0), {2: 1.0})
    assert model.offspring.rho == pytest.approx(1e-4)
    assert model.size_law.eps == pytest.approx(0.1)
    assert model.size_law.total_rate == pytest.approx(4.0)  # 1 / 0.5**2, atom above the cutoff
    assert model.gamma == pytest.approx(4e-4)


def _rho(N, **kw):
    return DiscreteModel.from_schedule(NeutralRule(2), N, 0.25, 1.0, 0.0, ZeroMeasure(), {2: 1.0}, **kw).offspring.rho


def test_from_schedule_pure_jump_exponent_rule():
    assert _rho(100, b=0.75) == pytest.approx(100 ** -0.75)
    # admissibility along a growing grid: N*rho -> infinity, rho*N^(2 alpha) -> 0
    grid = [10**2, 10**3, 10**4, 10**5]
    n_rho = [N * _rho(N, b=0.75) for N in grid]
    shrink = [_rho(N, b=0.75) * N**0.5 for N in grid]
    assert all(a < b for a, b in zip(n_rho, n_rho[1:]))
    assert all(a > b for a, b in zip(shrink, shrink[1:]))
    # default exponent sits in the middle of the admissible band
    assert _rho(100) == 100 ** -0.75


def test_from_schedule_rejects_infeasible():
    rule = NeutralRule(2)
    with pytest.raises(ScheduleError):
        DiscreteModel.from_schedule(rule, 1, 0.25, 1.0, 1.0, ZeroMeasure(), {2: 1.0})
    with pytest.raises(ScheduleError):
        DiscreteModel.from_schedule(rule, 100, 0.7, 1.0, 1.0, ZeroMeasure(), {2: 1.0})
    with pytest.raises(ScheduleError):
        DiscreteModel.from_schedule(rule, 100, 0.25, 1.0, 0.0, ZeroMeasure(), {2: 1.0}, b=0.4)
    # sigma > 0 pins rho, so an oversized event mass cannot be repaired
    with pytest.raises(ScheduleError):
        DiscreteModel.from_schedule(rule, 10, 0.49, 0.001, 1.0, PointMass(0.9, 100.0), {2: 1.0})


def test_from_schedule_clamps_when_smaller_rho_exists():
    # sigma = 0 with an aggressive exponent: a larger admissible b would fix
    # the overshoot, so the constructor clamps and warns instead of failing.
    with pytest.warns(UserWarning):
        model = DiscreteModel.from_schedule(NeutralRule(2), 1000, 0.05, 0.1, 0.0, PointMass(0.9, 2.0), {2: 1.0}, b=0.2)
    assert model.gamma == 1.0


@pytest.mark.parametrize(
    "sigma,rho", [(2.0, 0.5 / (2.0 * 1000)), (0.0, 1000 ** -0.75)], ids=["diffusion", "pure-jump-default-b"]
)
def test_from_schedule_equals_the_hand_built_model(sigma, rho):
    rule, measure = NeutralRule(3), PointMass(0.5, 1.0)
    model = DiscreteModel.from_schedule(rule, 1000, 0.25, 0.5, sigma, measure, {2: 0.5, 3: 0.5})
    size_law = TruncatedSizeLaw(measure, 1000 ** -0.25)
    hand = DiscreteModel(1000, rule, OffspringLaw(rho, {2: 0.5, 3: 0.5}), size_law.total_rate * rho / 0.5, size_law)
    assert type(model.N) is int and model.N == hand.N
    assert model.rule is hand.rule
    assert model.offspring == hand.offspring
    assert model.gamma == hand.gamma
    assert (model.size_law.measure, model.size_law.eps, model.size_law.total_rate) == (
        hand.size_law.measure, hand.size_law.eps, hand.size_law.total_rate
    )


def test_from_schedule_takes_an_integer_population_size():
    with pytest.raises(TypeError):
        DiscreteModel.from_schedule(NeutralRule(2), 100.5, 0.25, 1.0, 1.0, ZeroMeasure(), {2: 1.0})
    assert DiscreteModel.from_schedule(NeutralRule(2), np.int64(100), 0.25, 1.0, 1.0, ZeroMeasure(), {2: 1.0}).N == 100


def _schedule(alpha=0.25, kappa=1.0, sigma=1.0, **b):
    return DiscreteModel.from_schedule(NeutralRule(2), 1000, alpha, kappa, sigma, ZeroMeasure(), {2: 1.0}, **b)


_CHAIN = AncestralModel(kappa=1.0, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure())


def _sde(sigma=1.0, dt=0.01, horizon=1.0, eps_jump=1e-3, tol_ext=0.0):
    return SdeConfig(K=2, drift=DriftFunction.neutral(2), sigma=sigma, measure=ZeroMeasure(), dt=dt, horizon=horizon,
                     eps_jump=eps_jump, tol_ext=tol_ext)


# each constructor or entry point and parameter, called with the parameter set to a value
DOMAINS = {
    "from_schedule-alpha": lambda v: _schedule(alpha=v),
    "from_schedule-kappa": lambda v: _schedule(kappa=v),
    "from_schedule-sigma": lambda v: _schedule(sigma=v),
    "from_schedule-b": lambda v: _schedule(alpha=0.1, sigma=0.0, b=v),
    "SdeConfig-sigma": lambda v: _sde(sigma=v),
    "SdeConfig-dt": lambda v: _sde(dt=v),
    "SdeConfig-horizon": lambda v: _sde(horizon=v),
    "SdeConfig-dt-equal-to-horizon": lambda v: _sde(dt=v, horizon=v),
    "SdeConfig-eps_jump": lambda v: _sde(eps_jump=v),
    "SdeConfig-tol_ext": lambda v: _sde(tol_ext=v),
    "AncestralModel-kappa": lambda v: AncestralModel(kappa=v, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure()),
    "AncestralModel-sigma": lambda v: AncestralModel(kappa=1.0, sigma=v, increments={1: 1.0}, measure=ZeroMeasure()),
    "PointMass-z": lambda v: PointMass(v, 1.0),
    "PointMass-mass": lambda v: PointMass(0.5, v),
    "FiniteAtoms-z": lambda v: FiniteAtoms([(0.5, 1.0), (v, 1.0)]),
    "FiniteAtoms-weight": lambda v: FiniteAtoms([(0.5, 1.0), (0.25, v)]),
    "UniformLaw-mass": lambda v: UniformLaw(v),
    "BetaLaw-a": lambda v: BetaLaw(v, 2.0),
    "BetaLaw-b": lambda v: BetaLaw(2.0, v),
    "BetaLaw-mass": lambda v: BetaLaw(2.0, 2.0, v),
    "simulate_ancestral-horizon": lambda v: simulate_ancestral(_CHAIN, 3, v, 1, RngStream(0)),
    "dual_moment-t": lambda v: dual_moment(_CHAIN, 0.5, 2, v),
    "DriftFunction.transitive-kappa": lambda v: DriftFunction.transitive(v, {1: 1.0}, 3),
    "DriftFunction.logistic-kappa": lambda v: DriftFunction.logistic(v, [[0.5, 0.7], [0.3, 0.5]]),
    "DriftFunction.rps-kappa": lambda v: DriftFunction.rps(v),
    "DriftFunction.food_web-kappa": lambda v: DriftFunction.food_web(v, [(1, 0), (2, 1)], 3),
    "DriftFunction.negfreq-kappa": lambda v: DriftFunction.negfreq(v, 3),
    "DriftFunction.posfreq-kappa": lambda v: DriftFunction.posfreq(v, 3),
    "DriftFunction.from_polynomial-lambda": lambda v: DriftFunction.from_polynomial(v, cyclic_contest_map()),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build", DOMAINS.values(), ids=DOMAINS)
def test_model_constructors_refuse_non_finite_values(build, value):
    build(0.4)  # the same call with a value inside every domain builds
    with pytest.raises((ValueError, ScheduleError)):
        build(value)


def test_sde_config_refuses_a_step_longer_than_a_positive_horizon():
    # such a run ended before its first step and wrote its start state alone
    with pytest.raises(ValueError, match=r"^dt must be at most the horizon, got dt = 2\.0 and horizon = 1\.0$"):
        _sde(dt=2.0)
    assert _sde(dt=1e12, horizon=0.0).horizon == 0.0  # a horizon of 0 takes no step
    assert _sde(dt=0.5, horizon=0.5).dt == 0.5


def test_categorical_top_uniform_draws_the_last_type_with_weight_and_never_k():
    # u * total rounds to at most total, so the draw never runs past the last row; a subnormal total rounds to itself
    rng = RngStream(15).generator()
    K, m = 6, 400
    weights = rng.uniform(0.1, 1.0, size=(m, K)) * rng.choice([1e-320, 1e-300, 1e-8, 1.0, 1e300], size=(m, 1))
    last = rng.integers(0, K, size=m)  # types after it get zero weight: trailing zero columns
    weights[np.arange(K) > last[:, None]] = 0.0
    draws = _categorical(weights.T, np.full(m, np.nextafter(1.0, 0.0)))  # the largest double below 1
    assert draws.dtype == np.intp and draws.max() < K
    assert np.array_equal(draws, last)
