import numpy as np
import pytest

from lwf.ancestral import AncestralModel
from lwf.core import (
    OffspringLaw,
    _categorical,
    as_frequencies,
    make_schedule,
    random_interior_points,
    round_to_counts,
)
from lwf.discrete import DiscreteModel
from lwf.errors import ScheduleError
from lwf.measures import PointMass, ZeroMeasure
from lwf.rng import RngStream
from lwf.rules import NeutralRule


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


def test_offspring_law_basic():
    q = OffspringLaw(0.1, {4: 0.5, 2: 0.5})
    assert q.tail == ((2, 0.5), (4, 0.5))
    # the discrete engine mixes the sample sizes' type laws at P(1) = 1 - rho and P(k) = rho * tail[k]
    ks, ps = zip(*DiscreteModel(N=2, rule=NeutralRule(2), offspring=q)._draw[0])
    assert ks == (1, 2, 4)
    assert ps == pytest.approx([0.9, 0.05, 0.05])
    # the dual chain branches by k - 1 extra parents, with mean beta
    increments = {k - 1: p for k, p in q.tail}
    assert AncestralModel(1.0, 0.0, increments).increments == ((1, 0.5), (3, 0.5))
    assert AncestralModel(1.0, 0.0, increments).beta == pytest.approx(0.5 * 1 + 0.5 * 3)
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


def test_make_schedule_no_events():
    s = make_schedule(10**4, 0.25, 1.0, 1.0, ZeroMeasure(), {2: 1.0})
    assert s.rho == pytest.approx(1e-4)
    assert s.gamma == 0.0
    assert s.size_law.total_rate == 0.0


def test_make_schedule_point_mass_example():
    s = make_schedule(10**4, 0.25, 1.0, 1.0, PointMass(0.5, 1.0), {2: 1.0})
    assert s.rho == pytest.approx(1e-4)
    assert s.size_law.eps == pytest.approx(0.1)
    assert s.size_law.total_rate == pytest.approx(4.0)  # 1 / 0.5**2, atom above the cutoff
    assert s.gamma == pytest.approx(4e-4)
    assert not s.clamped


def test_make_schedule_pure_jump_exponent_rule():
    s = make_schedule(100, 0.25, 1.0, 0.0, ZeroMeasure(), {2: 1.0}, b=0.75)
    assert s.rho == pytest.approx(100 ** -0.75)
    # admissibility along a growing grid: N*rho -> infinity, rho*N^(2 alpha) -> 0
    grid = [10**2, 10**3, 10**4, 10**5]
    n_rho = [N * make_schedule(N, 0.25, 1.0, 0.0, ZeroMeasure(), {2: 1.0}, b=0.75).rho for N in grid]
    shrink = [make_schedule(N, 0.25, 1.0, 0.0, ZeroMeasure(), {2: 1.0}, b=0.75).rho * N**0.5 for N in grid]
    assert all(a < b for a, b in zip(n_rho, n_rho[1:]))
    assert all(a > b for a, b in zip(shrink, shrink[1:]))
    # default exponent sits in the middle of the admissible band
    assert make_schedule(100, 0.25, 1.0, 0.0, ZeroMeasure(), {2: 1.0}).b == pytest.approx(0.75)


def test_make_schedule_rejects_infeasible():
    with pytest.raises(ScheduleError):
        make_schedule(1, 0.25, 1.0, 1.0, ZeroMeasure(), {2: 1.0})
    with pytest.raises(ScheduleError):
        make_schedule(100, 0.7, 1.0, 1.0, ZeroMeasure(), {2: 1.0})
    with pytest.raises(ScheduleError):
        make_schedule(100, 0.25, 1.0, 0.0, ZeroMeasure(), {2: 1.0}, b=0.4)
    # sigma > 0 pins rho, so an oversized event mass cannot be repaired
    with pytest.raises(ScheduleError):
        make_schedule(10, 0.49, 0.001, 1.0, PointMass(0.9, 100.0), {2: 1.0})


def test_make_schedule_clamps_when_smaller_rho_exists():
    # sigma = 0 with an aggressive exponent: a larger admissible b would fix
    # the overshoot, so the schedule clamps and flags instead of failing.
    with pytest.warns(UserWarning):
        s = make_schedule(1000, 0.05, 0.1, 0.0, PointMass(0.9, 2.0), {2: 1.0}, b=0.2)
    assert s.clamped and s.gamma == 1.0


class _TopUniform:
    """A generator stub whose uniforms are all the largest double below 1."""

    def random(self, size):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_categorical_top_uniform_draws_the_last_type_with_weight_and_never_k():
    # u * total rounds to at most total, so the draw never runs past the last row; a subnormal total rounds to itself
    rng = RngStream(15).generator()
    K, m = 6, 400
    weights = rng.uniform(0.1, 1.0, size=(m, K)) * rng.choice([1e-320, 1e-300, 1e-8, 1.0, 1e300], size=(m, 1))
    last = rng.integers(0, K, size=m)  # types after it get zero weight: trailing zero columns
    weights[np.arange(K) > last[:, None]] = 0.0
    draws = _categorical(weights.T, _TopUniform())
    assert draws.dtype == np.intp and draws.max() < K
    assert np.array_equal(draws, last)
