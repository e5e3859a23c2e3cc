import math
import tracemalloc

import numpy as np
import pytest

import lwf.ancestral
from lwf.ancestral import (
    N_CAP,
    N_START,
    STATIONARY_TOL,
    AncestralModel,
    _generator,
    _solve_stationary,
    dual_moment,
    fixation_probabilities,
    simulate_ancestral,
    stationary_law,
)
from lwf.errors import RateExplosionError
from lwf.measures import (
    BetaLaw,
    FiniteAtoms,
    PointMass,
    UniformLaw,
    ZeroMeasure,
    collision_pairs,
    lambda_nk_quadrature,
)
from lwf.rng import RngStream


def moves(model, n):
    """Total rate out of state n into each target state."""
    _, targets, rates = model.rates(n)
    return {int(t): float(rates[targets == t].sum()) for t in np.unique(targets)}


def test_rates_branching_only_from_single_lineage():
    model = AncestralModel(kappa=0.7, sigma=1.0, increments={2: 1.0}, measure=PointMass(0.5, 1.0))
    # from n = 1 there is nothing to merge: only branching by the increment
    assert moves(model, 1) == {3: pytest.approx(0.7)}


def test_rates_single_kingman_pair():
    model = AncestralModel(kappa=0.0, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure())
    assert moves(model, 2) == {1: pytest.approx(1.0)}


def test_rates_total_merger_atom_at_one():
    model = AncestralModel(kappa=0.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(1.0, 1.0))
    assert moves(model, 3) == {1: pytest.approx(1.0)}


def test_rates_match_collision_integrals():
    measure = PointMass(0.5, 1.0)
    model = AncestralModel(kappa=0.5, sigma=2.0, increments={1: 0.25, 3: 0.75}, measure=measure)
    n = 6
    rates = moves(model, n)
    assert rates[n + 1] == pytest.approx(n * 0.5 * 0.25)
    assert rates[n + 3] == pytest.approx(n * 0.5 * 0.75)
    for k in range(2, n + 1):
        expected = math.comb(n, k) * lambda_nk_quadrature(measure, n, k)
        if k == 2:
            expected += 2.0 * n * (n - 1) / 2.0
        assert rates[n - k + 1] == pytest.approx(expected)


def test_branching_rate_scales_with_lineage_count():
    model = AncestralModel(kappa=1.0, sigma=0.0, increments={1: 1.0}, measure=ZeroMeasure())
    assert moves(model, 5)[6] == pytest.approx(5.0)


def test_pure_death_paths_are_nonincreasing():
    model = AncestralModel(kappa=0.0, sigma=1.0, increments={1: 1.0}, measure=PointMass(0.4, 1.0))
    for _, states in simulate_ancestral(model, 12, 1e9, 50, RngStream(1)):
        assert np.all(np.diff(states) < 0)
        assert states[-1] == 1


def test_kingman_absorption_time():
    # sum of Exp(C(j,2)) waits: mean 2 (1 - 1/n0)
    model = AncestralModel(kappa=0.0, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure())
    n0, R = 10, 10_000
    totals = np.empty(R)
    for r, (times, states) in enumerate(simulate_ancestral(model, n0, 1e9, R, RngStream(2))):
        assert states[-1] == 1
        totals[r] = times[-1]
    expected = 2.0 * (1.0 - 1.0 / n0)
    se = totals.std() / math.sqrt(R)
    assert abs(totals.mean() - expected) <= 4.0 * se


def test_rate_explosion_guard(monkeypatch):
    monkeypatch.setattr(lwf.ancestral, "STATE_GUARD", 500)
    model = AncestralModel(kappa=50.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))
    with pytest.raises(RateExplosionError):
        simulate_ancestral(model, 1, 1e9, 1, RngStream(3))


def test_rates_equal_the_per_move_construction_exactly():
    # the moves listed one at a time, in the order the Gillespie sampler relies on
    def per_move(model, n):
        targets, rates = [], []
        for j, w in model.increments:
            if model.kappa * w * n > 0:
                targets.append(n + j)
                rates.append(model.kappa * w * n)
        if n >= 2:
            if model.sigma > 0:
                targets.append(n - 1)
                rates.append(model.sigma * n * (n - 1) / 2.0)
            for k_off, rate in enumerate(model.measure.collision_rates(*collision_pairs(np.array([n])))):
                if rate > 0.0:
                    targets.append(n - (k_off + 2) + 1)
                    rates.append(float(rate))
        return targets, rates

    models = [
        AncestralModel(kappa=0.7, sigma=1.3, increments={1: 0.25, 3: 0.75}, measure=PointMass(0.5, 1.0)),
        AncestralModel(kappa=0.7, sigma=0.0, increments={2: 1.0}, measure=FiniteAtoms([(1.0, 0.5), (0.3, 2.0)])),
        AncestralModel(kappa=1.1, sigma=0.4, increments={1: 1.0}, measure=UniformLaw()),
        AncestralModel(kappa=0.0, sigma=2.0, increments={}, measure=ZeroMeasure()),
    ]
    for model in models:
        for n in (1, 2, 3, 7, 40, 300):
            sources, targets, rates = model.rates(n)
            want_targets, want_rates = per_move(model, n)
            assert sources.dtype == np.int64 and sources.tolist() == [n] * len(want_targets)
            assert targets.dtype == np.int64 and targets.tolist() == want_targets
            assert rates.tolist() == want_rates


MEASURES = [PointMass(0.5, 1.0), PointMass(1.0, 2.0), FiniteAtoms([(0.3, 0.5), (0.8, 1.0)]), UniformLaw(1.5),
            BetaLaw(2.0, 3.0, 1.0), BetaLaw(0.5, 0.5, 2.0), ZeroMeasure()]


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_rates_of_a_block_are_the_moves_of_each_state_bit_for_bit(measure):
    # every branching move of the block, then every pair coalescence, then each state's collisions
    model = AncestralModel(kappa=0.9, sigma=0.5, increments={1: 0.25, 3: 0.75}, measure=measure)
    states = np.arange(1, 301)
    parts = {"branching": [], "pair": [], "collision": []}
    for n in states:
        moves = model.rates(n)
        branching = int(np.count_nonzero(moves[1] > n))
        pair = branching + int(n >= 2)
        for part, cut in zip(parts, (slice(0, branching), slice(branching, pair), slice(pair, None))):
            parts[part].append([array[cut] for array in moves])
    want = [np.concatenate([moves[i] for part in parts.values() for moves in part]) for i in range(3)]
    for got, expected in zip(model.rates(states), want):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("measure", MEASURES, ids=lambda m: m.kind)
def test_generator_blocks_do_not_move_a_bit(monkeypatch, measure):
    # small blocks, so that each level's rows come from many calls of rates
    model = AncestralModel(kappa=1.0, sigma=0.5, increments={1: 0.5, 2: 0.5}, measure=measure)
    whole = [_generator(model, n_max) for n_max in (64, 300)]
    monkeypatch.setattr(lwf.ancestral, "TABLE_BLOCK", 1000)
    for n_max, (Q, above) in zip((64, 300), whole):
        small_Q, small_above = _generator(model, n_max)
        assert small_Q.tobytes() == Q.tobytes() and small_above.tobytes() == above.tobytes(), n_max


def test_a_path_from_a_large_n0_keeps_the_call_local_move_cache_under_its_cap(monkeypatch):
    # a path from 4,000 walks down through almost every state, about 8 million moves: uncapped, the cache held 95 MB
    model, n0 = AncestralModel(kappa=0.2, sigma=1.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0)), 4000
    tracemalloc.start()
    try:
        [(times, states)] = simulate_ancestral(model, n0, 1.0, 1, RngStream(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.size > 3000 and peak < 32 * 2**20
    # with no cache at all the path has the same bits
    monkeypatch.setattr(lwf.ancestral, "JUMP_CACHE_MOVES", 0)
    [again] = simulate_ancestral(model, n0, 1.0, 1, RngStream(3))
    assert again[0].tobytes() == times.tobytes() and again[1].tobytes() == states.tobytes()


def test_transience_detector_aborts_stationary_run():
    # kappa far above the threshold 4 log 2: the count grows without bound
    model = AncestralModel(kappa=50.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))
    with pytest.raises(ValueError, match=r"kappa = 50 >= kappa\* = 2\.77"):
        stationary_law(model)


def test_stationary_pure_death_concentrates_at_one():
    model = AncestralModel(kappa=0.0, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure())
    law = stationary_law(model)
    assert law.resolved and law.n_max == 2 * N_START
    assert law.occupation[0] == pytest.approx(1.0, abs=1e-12)
    assert law.occupation.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(law.change <= 1e-12)


def _dense_reference(model, n):
    """LU solve of ``nu Q = 0`` on the same truncated generator, the last balance row replaced by ones."""
    A = _generator(model, n)[0].T.copy()
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)


@pytest.mark.parametrize(
    "model, n",
    [
        (AncestralModel(kappa=1.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0)), 512),
        (AncestralModel(kappa=2.5, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0)), 2048),
        (AncestralModel(kappa=0.8, sigma=0.0, increments={1: 0.5, 3: 0.5}, measure=PointMass(0.5, 1.0)), 512),
        (AncestralModel(kappa=1.5, sigma=0.7, increments={1: 1.0}, measure=BetaLaw(2.0, 3.0, 1.0)), 256),
        (AncestralModel(kappa=0.7, sigma=0.0, increments={2: 1.0}, measure=FiniteAtoms([(1.0, 0.5), (0.3, 2.0)])),
         256),
    ],
    ids=["point-mass", "kappa-2.5-n-2048", "increments-up-to-3", "sigma-and-beta", "finite-atoms"],
)
def test_state_reduction_matches_the_dense_solve_and_balances_every_state(model, n):
    nu = _solve_stationary(model, n)
    assert np.all(nu >= 0.0) and nu.sum() == pytest.approx(1.0, abs=1e-14)
    # the LU is accurate to rounding in norm only: relative in the bulk, absolute (even negative) in the far tail
    reference = _dense_reference(model, n)
    bulk = reference > 1e-3
    assert np.all(np.abs(nu - reference)[bulk] <= 1e-12 * reference[bulk])
    assert np.all(np.abs(nu - reference) <= 1e-15)
    # every state's inflow equals its outflow to relative rounding, down to the smallest represented mass
    Q = _generator(model, n)[0]
    outflow = -np.diag(Q) * nu
    np.fill_diagonal(Q, 0.0)
    inflow = nu @ Q
    held = nu > 1e-290
    assert held.sum() >= n // 2
    assert np.all(np.abs(inflow - outflow)[held] <= 1e-12 * outflow[held])


def test_the_stationary_law_calls_no_lapack_solve(monkeypatch):
    import scipy.linalg

    model = AncestralModel(kappa=1.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))
    law = stationary_law(model)
    prediction = fixation_probabilities(model, [0.2, 0.3, 0.5])

    def refuse(*args, **kwargs):
        raise AssertionError("the stationary law reached a dense LAPACK solve")

    for module, name in [(np.linalg, "solve"), (scipy.linalg, "solve"), (scipy.linalg, "lu_factor")]:
        monkeypatch.setattr(module, name, refuse)
    fresh = AncestralModel(kappa=1.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))
    again = stationary_law(fresh)
    assert np.array_equal(again.occupation, law.occupation) and np.array_equal(again.change, law.change)
    repeat = fixation_probabilities(fresh, [0.2, 0.3, 0.5])
    assert np.array_equal(repeat.probs, prediction.probs) and np.array_equal(repeat.stderr, prediction.stderr)


def test_a_chain_that_never_moves_has_no_unique_stationary_law():
    model = AncestralModel(kappa=0.0, sigma=0.0, increments={1: 1.0}, measure=ZeroMeasure())
    with pytest.raises(ValueError, match=r"never moves \(kappa = 0, sigma = 0, Lambda = 0\).*not unique"):
        stationary_law(model)
    # one source of motion is enough: the count falls to 1 and stays there
    for moving in (AncestralModel(kappa=0.0, sigma=0.5, increments={1: 1.0}, measure=ZeroMeasure()),
                   AncestralModel(kappa=0.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))):
        assert stationary_law(moving).occupation[0] == pytest.approx(1.0, abs=1e-12)


def _occupation_fractions(model, paths, burn_in, horizon, n_max):
    """Time each path spends in states 1..n_max after burn_in, as fractions: (paths, n_max)."""
    out = np.zeros((len(paths), n_max))
    for row, (times, states) in zip(out, paths):
        start = np.maximum(times, burn_in)
        end = np.append(times[1:], horizon)
        held = np.clip(end - start, 0.0, None)
        assert states.max() <= n_max
        np.add.at(row, states - 1, held)
    return out / (horizon - burn_in)


def test_stationary_matches_the_occupation_times_of_gillespie_paths():
    # occupation times of simulated paths against the law solved on the truncated state space
    model = AncestralModel(kappa=0.8, sigma=0.0, increments={1: 0.5, 2: 0.5}, measure=PointMass(0.5, 1.0))
    law = stationary_law(model)
    assert law.resolved
    horizon, burn_in, R = 400.0, 20.0, 40
    paths = simulate_ancestral(model, 1, horizon, R, RngStream(6))
    occ = _occupation_fractions(model, paths, burn_in, horizon, law.n_max)
    mean, se = occ.mean(axis=0), occ.std(axis=0, ddof=1) / math.sqrt(R)
    checked = mean > 1e-3
    assert checked.sum() >= 5
    assert np.all(np.abs(mean - law.occupation)[checked] <= 4.0 * se[checked] + 1e-3)
    # and the pgf at a few points
    for s in (0.3, 0.6, 0.9):
        per_path = occ @ s ** np.arange(1, law.n_max + 1)
        exact = law.occupation @ s ** np.arange(1, law.n_max + 1)
        assert abs(per_path.mean() - exact) <= 4.0 * per_path.std(ddof=1) / math.sqrt(R)


def test_stationary_law_is_the_large_time_limit_of_the_dual_moment():
    model = AncestralModel(kappa=0.6, sigma=0.5, increments={1: 1.0}, measure=PointMass(0.4, 1.0))
    law = stationary_law(model)
    states = np.arange(1, law.n_max + 1)
    for x in (0.2, 0.7):
        phi = law.occupation @ x**states
        for n0 in (1, 5):
            value, bound, _ = dual_moment(model, x, n0, 200.0)
            assert bound <= 1e-9 and value == pytest.approx(phi, abs=1e-9)


def test_sigma_keeps_a_supercritical_chain_recurrent_and_resolved():
    model = AncestralModel(kappa=10.0, sigma=1.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))
    assert model.kappa > model.kappa_star and model.is_positive_recurrent()
    pred = fixation_probabilities(model, [0.2, 0.3, 0.5])
    assert pred.regime == "recurrent" and pred.n_max >= 2 * N_START
    assert np.all(pred.stderr <= STATIONARY_TOL)
    assert pred.probs.sum() == pytest.approx(1.0, abs=1e-12) and np.all(pred.probs >= 0.0)
    assert pred.probs[0] < 0.2 and pred.probs[2] > 0.5


@pytest.mark.parametrize("kappa", [2.5, 2.7])
def test_near_threshold_the_solve_is_unresolved_not_transient(monkeypatch, kappa):
    model = AncestralModel(kappa=kappa, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))
    assert kappa < model.kappa_star == pytest.approx(4.0 * math.log(2.0))
    assert model.is_positive_recurrent()
    pred = fixation_probabilities(model, [0.2, 0.3, 0.5])
    assert pred.regime == "unresolved"
    assert pred.n_max == N_CAP
    assert pred.stderr.max() > STATIONARY_TOL
    # a lower ceiling stops there
    monkeypatch.setattr(lwf.ancestral, "N_CAP", 200)
    law = stationary_law(model, [0.2, 0.5, 1.0])
    assert (law.n_max, law.resolved) == (200, False)


def test_dual_moment_matches_matrix_exponential():
    # Gillespie paths against the killed-truncation matrix exponential: two independent routes
    cases = [
        (AncestralModel(kappa=0.5, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure()), 0.3, 2, 1.0, 7),
        (AncestralModel(kappa=0.5, sigma=0.5, increments={1: 1.0}, measure=PointMass(0.5, 1.0)), 0.7, 3, 0.8, 8),
    ]
    for model, x, n0, t, seed in cases:
        value, bound, _ = dual_moment(model, x, n0, t)
        vals = np.array([x ** states[-1] for _, states in simulate_ancestral(model, n0, t, 40_000, RngStream(seed))])
        se = vals.std() / math.sqrt(vals.size)
        assert abs(vals.mean() - value) <= 4.0 * se + bound


def test_dual_moment_brackets_the_exact_value_at_a_small_truncation(monkeypatch):
    # the chain killed above n_max = 16 loses 2e-3 of its mass by t = 1; the moment stays in [v, v + d]
    model = AncestralModel(kappa=1.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))
    reference, ref_bound, ref_n_max = dual_moment(model, 0.7, 3, 1.0)
    assert ref_bound <= 1e-10 and ref_n_max == N_START
    monkeypatch.setattr(lwf.ancestral, "N_START", 8)
    monkeypatch.setattr(lwf.ancestral, "N_CAP", 16)
    value, bound, n_max = dual_moment(model, 0.7, 3, 1.0)
    assert n_max == 16 and 1e-3 < bound < 3e-3
    assert value < reference <= value + bound
    # the mass that left is the bound at x = 1, where every surviving state weighs 1
    at_one, bound_one, _ = dual_moment(model, 1.0, 3, 1.0)
    assert bound_one == bound and at_one + bound == pytest.approx(1.0, abs=1e-12)


def test_dual_moment_rejects_a_start_beyond_the_ceiling(monkeypatch):
    monkeypatch.setattr(lwf.ancestral, "N_CAP", 128)
    model = AncestralModel(kappa=1.0, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure())
    with pytest.raises(ValueError, match=r"initial state must lie in \[1, n_cap = 128\], got 129"):
        dual_moment(model, 0.5, 129, 1.0)
    assert dual_moment(model, 0.5, 100, 0.0) == (0.5**100, 0.0, 100)  # the solve starts at n0 above N_START


def test_the_dual_chain_runs_forward_in_time_only():
    # a negative time returned a NaN moment after climbing to n_cap; a NaN horizon never stopped the path
    model = AncestralModel(kappa=1.0, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure())
    with pytest.raises(ValueError, match=r"t must be finite and >= 0, got -1\.0"):
        dual_moment(model, 0.5, 2, -1.0)
    with pytest.raises(ValueError, match=r"horizon must be finite and >= 0, got -1\.0"):
        simulate_ancestral(model, 3, -1.0, 1, RngStream(5))
    with pytest.raises(ValueError, match=r"n0 must lie in \[1, STATE_GUARD = 10000000\], got 0"):
        simulate_ancestral(model, 0, 1.0, 1, RngStream(5))
    with pytest.raises(ValueError, match=r"^replicates must be >= 1, got 0$"):  # as the other two engines
        simulate_ancestral(model, 3, 1.0, 0, RngStream(5))


def test_fixation_probabilities_neutral_is_initial_state():
    model = AncestralModel(kappa=0.0, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure())
    pred = fixation_probabilities(model, [0.2, 0.3, 0.5])
    assert pred.regime == "recurrent"
    assert np.allclose(pred.probs, [0.2, 0.3, 0.5])
    assert np.all(pred.stderr == 0.0)


def test_fixation_probabilities_transient_picks_top_present_label():
    model = AncestralModel(kappa=10.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))
    assert model.kappa_star == pytest.approx(4.0 * math.log(2.0))
    assert not model.is_positive_recurrent()
    pred = fixation_probabilities(model, [0.9, 0.1, 0.0])
    assert pred.regime == "transient"
    assert np.array_equal(pred.probs, [0.0, 1.0, 0.0])


def test_fixation_probabilities_recurrent_sums_to_one():
    model = AncestralModel(kappa=1.0, sigma=0.0, increments={1: 1.0}, measure=PointMass(0.5, 1.0))
    assert model.is_positive_recurrent()
    pred = fixation_probabilities(model, [0.2, 0.3, 0.5])
    assert pred.regime == "recurrent"
    assert np.all(pred.stderr <= STATIONARY_TOL)
    assert pred.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(pred.probs >= 0.0)
    # ordered contests penalize low labels
    assert pred.probs[0] < 0.2 and pred.probs[2] > 0.5


def test_sigma_keeps_the_chain_recurrent_even_with_zero_threshold():
    # no collisions at all: kappa_star = 0, but pair coalescence dominates
    model = AncestralModel(kappa=1.0, sigma=1.0, increments={1: 1.0}, measure=ZeroMeasure())
    assert model.kappa_star == 0.0
    assert model.is_positive_recurrent()


def test_negative_increment_weights_are_rejected_not_dropped():
    with pytest.raises(ValueError, match="^increments key 2 has a negative weight, -0.5$"):
        AncestralModel(kappa=1.0, sigma=0.0, increments={1: 1.0, 2: -0.5}, measure=ZeroMeasure())
    # a zero weight is still dropped
    model = AncestralModel(kappa=1.0, sigma=0.0, increments={1: 1.0, 2: 0.0}, measure=ZeroMeasure())
    assert model.increments == ((1, 1.0),)


def test_model_validation():
    with pytest.raises(ValueError):
        AncestralModel(kappa=1.0, sigma=0.0, increments={0: 1.0}, measure=ZeroMeasure())
    with pytest.raises(ValueError):
        AncestralModel(kappa=1.0, sigma=0.0, increments={1: 0.5}, measure=ZeroMeasure())
    with pytest.raises(ValueError):
        AncestralModel(kappa=-1.0, sigma=0.0, increments={1: 1.0}, measure=ZeroMeasure())
