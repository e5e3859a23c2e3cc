import itertools
import json
import math
import sys

import numpy as np
import pytest

from lwf.combinat import composition_index, composition_pmf, compositions
from lwf.core import OffspringLaw, round_to_counts
from lwf.batches import BATCH, LANE_DISCRETE
from lwf.discrete import (
    DiscreteModel,
    empirical_drift,
    simulate_discrete,
    step_generation_batch,
    step_unabsorbed,
)
from lwf.measures import FiniteAtoms, PointMass, TruncatedSizeLaw, ZeroMeasure
from lwf.rng import RngStream
from lwf.rules import ColouringRule, NegFreqDepRule, NeutralRule, PartialOrderRule, TransitiveRule
from lwf.selection import DriftFunction


def neutral_model(N, K=2, rho=0.1):
    return DiscreteModel(N=N, rule=NeutralRule(K), offspring=OffspringLaw(rho, {2: 1.0}))


def test_step_returns_lattice_frequencies():
    model = DiscreteModel(N=64, rule=TransitiveRule(3), offspring=OffspringLaw(0.3, {2: 0.6, 3: 0.4}))
    rng = RngStream(1).generator()
    X = np.tile([0.25, 0.25, 0.5], (4, 1))
    for _ in range(50):
        X = step_generation_batch(model, X, rng)
        counts = X * model.N
        assert np.allclose(counts, np.round(counts), atol=1e-9)
        assert np.all(np.round(counts).sum(axis=1) == model.N)


def test_monomorphic_is_absorbing():
    model = DiscreteModel(
        N=100,
        rule=TransitiveRule(2),
        offspring=OffspringLaw(0.5, {2: 1.0}),
        gamma=0.3,
        size_law=TruncatedSizeLaw(PointMass(0.5, 1.0), 0.01),
    )
    rng = RngStream(2).generator()
    X = np.tile([1.0, 0.0], (50, 1))
    for _ in range(20):
        X = step_generation_batch(model, X, rng)
        assert np.all(X == [1.0, 0.0])


def test_support_conservation_mutation_free():
    model = DiscreteModel(N=50, rule=PartialOrderRule.rps(), offspring=OffspringLaw(0.4, {2: 1.0}))
    rng = RngStream(3).generator()
    X = np.tile([0.5, 0.5, 0.0], (8, 1))
    for _ in range(100):
        X = step_generation_batch(model, X, rng)
        assert np.all(X[:, 2] == 0.0)


def test_neutral_mean_preserved():
    # one-step mean of the neutral chain is the current state
    model = neutral_model(N=30, K=3)
    rng = RngStream(4).generator()
    x = np.array([0.2, 0.3, 0.5])
    finals = step_generation_batch(model, np.tile(x, (20_000, 1)), rng)
    se = np.sqrt(x * (1 - x) / model.N / 20_000)
    assert np.all(np.abs(finals.mean(axis=0) - x) <= 4.5 * se)


def test_forced_extreme_event_with_unit_size():
    # event size 1: the whole generation copies one uniformly chosen parent
    model = DiscreteModel(
        N=200,
        rule=NeutralRule(3),
        offspring=OffspringLaw(0.0, {2: 1.0}),
        gamma=1.0,
        size_law=TruncatedSizeLaw(PointMass(1.0, 1.0), 0.5),
    )
    rng = RngStream(5).generator()
    x = np.array([0.2, 0.3, 0.5])
    Y = step_generation_batch(model, np.tile(x, (300, 1)), rng)
    assert set(np.unique(Y)) <= {0.0, 1.0}
    # winner frequencies follow the parent law x
    p_hat = Y.mean(axis=0)
    assert np.all(np.abs(p_hat - x) <= 4.5 * np.sqrt(x * (1 - x) / 300))


def test_extreme_event_block_statistics():
    # with size z, the block is Binomial(N, z) plus multinomial remainder
    z = 0.5
    model = DiscreteModel(
        N=1000,
        rule=NeutralRule(2),
        offspring=OffspringLaw(0.0, {2: 1.0}),
        gamma=1.0,
        size_law=TruncatedSizeLaw(PointMass(z, 1.0), 0.1),
    )
    rng = RngStream(6).generator()
    x = np.array([0.5, 0.5])
    finals = step_generation_batch(model, np.tile(x, (4000, 1)), rng)
    # E[X'] = x; Var(X'_1) = z^2 x(1-x) + (1-z^2)/N x(1-x) (block + remainder)
    var_expected = x[0] * (1 - x[0]) * (z**2 + (1.0 - z**2) / model.N)
    assert abs(finals[:, 0].mean() - 0.5) < 4.5 * math.sqrt(var_expected / 4000)
    assert finals[:, 0].var() == pytest.approx(var_expected, rel=0.15)


def _categorical_rows(P, rng):
    cdf = np.cumsum(P, axis=1)
    return (cdf < (rng.random(P.shape[0]) * cdf[:, -1])[:, None]).sum(axis=1).clip(max=P.shape[1] - 1)


def _reference_step(model, X, rng, kinds):
    """The gather-and-broadcast generation step: the oracle of the engine's whole-block paths.

    Ordinary rows draw the split between the pooled sizes with an exact law and
    each other size, then one draw at the pooled law, then each other size one
    offspring at a time.
    """
    R, K = X.shape
    N = model.N
    counts = np.zeros((R, K), dtype=np.int64)
    extreme = rng.random(R) < model.gamma if model.gamma > 0.0 else np.zeros(R, dtype=bool)
    kinds.add("none" if not extreme.any() else "all" if extreme.all() else "some")
    ordinary = ~extreme
    if ordinary.any():
        rows = np.flatnonzero(ordinary)
        Xo = X[rows]
        rho = model.offspring.rho
        sizes = [(1, 1.0 - rho)] + [(k, rho * p) for k, p in model.offspring.tail]
        exact = [(k, p) for k, p in sizes if model.rule.has_exact_law(k)]
        other = [(k, p) for k, p in sizes if not model.rule.has_exact_law(k)]
        mass = sum(p for _, p in exact)
        if other:
            split_ps = np.array([mass] + [p for _, p in other])
            n = rng.multinomial(N, np.broadcast_to(split_ps, (rows.size, split_ps.size)))
        else:
            n = np.full((rows.size, 1), N)
        law = np.minimum(sum(p / mass * (Xo if k == 1 else model.rule.type_law_batch(k, Xo)) for k, p in exact), 1.0)
        sub = np.flatnonzero(n[:, 0] > 0)
        counts[rows[sub]] += rng.multinomial(n[sub, 0], law[sub])
        for c, (k, _) in enumerate(other, start=1):
            for r in np.flatnonzero(n[:, c] > 0):
                kinds.add("per_individual")
                samples = rng.multinomial(k, Xo[r], size=int(n[r, c]))
                types = _categorical_rows(model.rule.distribution_batch(samples), rng)
                counts[rows[r]] += np.bincount(types, minlength=K)
    if extreme.any():
        rows = np.flatnonzero(extreme)
        Xe = X[rows]
        star_type = _categorical_rows(Xe, rng)
        block = rng.binomial(N, model.size_law.sample(rng, rows.size))
        rest = rng.multinomial(N - block, Xe)
        rest[np.arange(rows.size), star_type] += block
        counts[rows] = rest
    return counts / float(N)


def _stream_state(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


@pytest.mark.parametrize("rho", [0.05, 0.6])
@pytest.mark.parametrize("gamma, expected", [(0.0, {"none"}), (0.02, {"none", "some"}), (0.3, {"some"}), (1.0, {"all"})])
def test_generation_step_matches_the_gather_and_broadcast_formulation(rho, gamma, expected):
    # rps has no closed form and size 20 is beyond DEFAULT_K_MAX, so it is drawn per individual;
    # at rho = 0.05 it is busy in some rows only
    model = DiscreteModel(
        N=30,
        rule=PartialOrderRule.rps(),
        offspring=OffspringLaw(rho, {2: 0.5, 20: 0.5}),
        gamma=gamma,
        size_law=TruncatedSizeLaw(FiniteAtoms([(0.2, 1.0), (0.6, 0.5)]), 0.1),
    )
    start = RngStream(30).generator().dirichlet(np.ones(3), size=6)
    start[2] = [0.0, 1.0, 0.0]  # absorbed: step_unabsorbed leaves it and steps the others
    rng, ref = RngStream(31).generator(), RngStream(31).generator()
    kinds = set()
    X = start.copy()
    for _ in range(25):
        Y = step_generation_batch(model, X, rng)
        assert Y.tobytes() == _reference_step(model, X, ref, kinds).tobytes()
        assert _stream_state(rng) == _stream_state(ref)
        X = Y
    assert expected <= kinds and (gamma == 1.0 or "per_individual" in kinds)

    X, X_ref = start.copy(), start.copy()
    for _ in range(25):
        moving = step_unabsorbed(model, X, rng)
        active = ~np.any(X_ref == 1.0, axis=1)
        if active.any():
            X_ref[active] = _reference_step(model, X_ref[active], ref, kinds)
        assert moving == active.any() and X.tobytes() == X_ref.tobytes()
        assert _stream_state(rng) == _stream_state(ref)


def test_one_generation_distribution_matches_enumeration():
    # N = 6, K = 2, always two potential parents, ordered contest:
    # brute-force the 2N parent draws to get the exact count law.
    N, K = 6, 2
    x = np.array([0.5, 0.5])
    p_win2 = x[1] ** 2 + 2 * x[0] * x[1]  # type 2 wins unless both draws are type 1
    exact = np.array(
        [math.comb(N, c) * (1 - p_win2) ** c * p_win2 ** (N - c) for c in range(N + 1)]
    )
    # cross-check the contest win probability by full enumeration of one offspring
    wins = sum(
        0.25 for a, b in itertools.product([1, 2], repeat=2) if max(a, b) == 2
    )
    assert p_win2 == pytest.approx(wins)

    model = DiscreteModel(N=N, rule=TransitiveRule(K), offspring=OffspringLaw(1.0, {2: 1.0}))
    rng = RngStream(7).generator()
    finals = step_generation_batch(model, np.tile(x, (1_000_000, 1)), rng)
    counts = np.round(finals[:, 0] * N).astype(int)
    empirical = np.bincount(counts, minlength=N + 1) / counts.size
    tv = 0.5 * np.abs(empirical - exact).sum()
    assert tv < 0.01


def test_one_generation_count_law_mixes_the_sample_sizes():
    # N = 4, K = 2, sizes 1, 2, 3 w.p. 1/2, 1/4, 1/4, ordered contest: brute-force every offspring's
    # sample size and parents jointly (14**4 outcomes) to get the exact law of the type-1 count.
    N, x = 4, np.array([0.75, 0.25])
    offspring = [(1, 0.5), (2, 0.25), (3, 0.25)]
    outcomes = [  # (probability, type) of one offspring: its sample size and parent types, the highest wins
        (q * np.prod(x[list(parents)]), max(parents))
        for k, q in offspring
        for parents in itertools.product(range(2), repeat=k)
    ]
    exact = np.zeros(N + 1)
    for joint in itertools.product(outcomes, repeat=N):
        exact[sum(t == 0 for _, t in joint)] += np.prod([q for q, _ in joint])
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)

    model = DiscreteModel(N=N, rule=TransitiveRule(2), offspring=OffspringLaw(0.5, {2: 0.5, 3: 0.5}))
    finals = step_generation_batch(model, np.tile(x, (1_000_000, 1)), RngStream(22).generator())
    counts = np.round(finals[:, 0] * N).astype(int)
    empirical = np.bincount(counts, minlength=N + 1) / counts.size
    assert 0.5 * np.abs(empirical - exact).sum() < 0.01


def test_mutation_rule_escapes_vertices():
    from lwf.rules import TransitiveWithMutationRule

    rule = TransitiveWithMutationRule(2, 0.2, [[0.0, 1.0], [1.0, 0.0]])
    model = DiscreteModel(N=100, rule=rule, offspring=OffspringLaw(0.5, {2: 1.0}))
    states = simulate_discrete(model, [1.0, 0.0], 1, range(31), RngStream(20))
    # no absorption short-circuit: mutation keeps reintroducing type 2
    assert states[1:, 0, 1].max() > 0.0


def test_a_mutation_generation_above_the_enumeration_limit_draws_no_individual(monkeypatch):
    import lwf.discrete as discrete_mod
    from lwf.rules import TransitiveWithMutationRule

    def per_individual(*args):
        raise AssertionError("per-individual draw")

    monkeypatch.setattr(discrete_mod, "_per_individual", per_individual)
    rule = TransitiveWithMutationRule(3, 0.2, np.full((3, 3), 1.0 / 3.0))
    model = DiscreteModel(N=1000, rule=rule, offspring=OffspringLaw(0.2, {20: 1.0}))
    assert model._draw[1] == ()  # nothing split off the pooled draw
    X = step_generation_batch(model, np.tile([0.2, 0.3, 0.5], (5, 1)), RngStream(23).generator())
    assert np.allclose(X.sum(axis=1), 1.0)


def test_per_individual_fallback_matches_exact_law(monkeypatch):
    # without enumeration rps has no exact law at size 2: check that the per-individual path runs, and its one-step mean
    import lwf.discrete as discrete_mod
    import lwf.rules as rules_mod

    x = np.array([0.5, 0.25, 0.25])
    p = x + DriftFunction.rps(1.0)(x)  # the law of one offspring of two potential parents
    monkeypatch.setattr(rules_mod, "_ENUM_LIMIT", 1)
    calls = []
    per_individual = discrete_mod._per_individual
    monkeypatch.setattr(discrete_mod, "_per_individual", lambda *args: calls.append(args[1]) or per_individual(*args))
    model = DiscreteModel(N=100, rule=PartialOrderRule.rps(), offspring=OffspringLaw(1.0, {2: 1.0}))
    assert not model.rule.has_exact_law(2)
    rng = RngStream(21).generator()
    finals = step_generation_batch(model, np.tile(x, (3000, 1)), rng)
    assert calls == [2]
    se = np.sqrt(p * (1 - p) / model.N / 3000)
    assert np.all(np.abs(finals.mean(axis=0) - p) <= 4.5 * se)


def test_simulate_discrete_trivia():
    model = neutral_model(N=20)
    stream = RngStream(8)
    states = simulate_discrete(model, [0.5, 0.5], 1, [0], stream)
    assert states.shape == (1, 1, 2) and np.allclose(states[0, 0], [0.5, 0.5])

    states = simulate_discrete(model, [1.0, 0.0], 3, range(0, 56, 10), stream)
    assert states.shape == (6, 3, 2) and np.all(states[:, :, 0] == 1.0)

    for bad in ((0, [0, 5]), (1, [-1, 5]), (1, [0, 5, 3])):
        with pytest.raises(ValueError):
            simulate_discrete(model, [0.5, 0.5], *bad, stream)


def _records_of_stepping_through(model, x0, R, generations, record_every, rng):
    """Step a batch by hand on ``rng``, absorbed rows of mutation-free rules held fixed."""
    X = np.tile(round_to_counts(x0, model.N) / model.N, (R, 1))
    records = [X.copy()]
    for g in range(1, generations + 1):
        moving = ~np.any(X == 1.0, axis=1) if model.rule.mutation_free else np.ones(R, dtype=bool)
        if moving.any():
            X[moving] = step_generation_batch(model, X[moving], rng)
        if g % record_every == 0:
            records.append(X.copy())
    return np.array(records)


def test_simulate_discrete_records_the_batch_stepped_by_hand():
    from lwf.rules import TransitiveWithMutationRule

    offspring = OffspringLaw(0.5, {2: 1.0})
    absorbing = DiscreteModel(N=12, rule=TransitiveRule(2), offspring=offspring)
    mutating = DiscreteModel(
        N=12, rule=TransitiveWithMutationRule(2, 0.2, [[0.0, 1.0], [1.0, 0.0]]), offspring=offspring
    )
    R, generations, record_every = 8, 100, 3  # 3 does not divide 100
    for model, x0 in ((absorbing, [0.5, 0.5]), (mutating, [1.0, 0.0])):
        records = range(0, generations + 1, record_every)
        states = simulate_discrete(model, x0, R, records, RngStream(13))
        rng = RngStream(13).derive(LANE_DISCRETE, 0).generator()
        expected = _records_of_stepping_through(model, x0, R, generations, record_every, rng)
        assert np.array_equal(states, expected)
        fixed = (expected == 1.0).any(axis=2)
        if model is absorbing:
            first = fixed.argmax(axis=0)
            assert fixed[-1].all() and np.unique(first).size >= 3  # rows absorb at different records
        else:
            assert not fixed[1:].all()  # the mutation rule leaves the vertex it started at


def test_simulate_discrete_stops_at_the_last_record(monkeypatch):
    # one record at generation 7, as the convergence experiment asks for its final states
    model = neutral_model(N=50, K=3)
    handed, generator = [], RngStream.generator  # the generator the engine steps its one batch on
    monkeypatch.setattr(RngStream, "generator", lambda self: handed.append(generator(self)) or handed[-1])
    (final,) = simulate_discrete(model, [0.2, 0.3, 0.5], 9, [7], RngStream(14))
    (rng,) = handed
    ref = generator(RngStream(14).derive(LANE_DISCRETE, 0))
    X = np.tile([0.2, 0.3, 0.5], (9, 1))
    for _ in range(7):
        step_unabsorbed(model, X, ref)
    assert np.array_equal(final, X)
    assert _stream_state(rng) == _stream_state(ref)


@pytest.mark.parametrize("threads", [1, 3])
def test_simulate_discrete_is_its_batches_stepped_by_hand_side_by_side(threads):
    # 2 * BATCH + 7 replicates: two full batches and a partial one, each on its own stream
    model = DiscreteModel(N=40, rule=TransitiveRule(3), offspring=OffspringLaw(0.5, {2: 1.0}))
    x0, R, records = [0.2, 0.3, 0.5], 2 * BATCH + 7, range(0, 31, 4)
    stream = RngStream(24)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that the batches interleave their writes
    try:
        states = simulate_discrete(model, x0, R, records, stream, threads)
    finally:
        sys.setswitchinterval(interval)
    blocks = [
        _records_of_stepping_through(model, x0, width, 30, 4, stream.derive(LANE_DISCRETE, b).generator())
        for b, width in enumerate((BATCH, BATCH, 7))
    ]
    assert states.tobytes() == np.concatenate(blocks, axis=1).tobytes()


def test_simulate_discrete_rounds_initial_state():
    model = neutral_model(N=10, K=3)
    states = simulate_discrete(model, [0.21, 0.33, 0.46], 1, [0], RngStream(9))
    assert np.allclose(states[0, 0], [0.2, 0.3, 0.5])


def test_neutral_martingale_over_generations():
    model = neutral_model(N=100, K=2, rho=0.05)
    rng = RngStream(10).generator()
    X = np.tile([0.3, 0.7], (4000, 1))
    for _ in range(30):
        X = step_generation_batch(model, X, rng)
    se = X[:, 0].std() / math.sqrt(X.shape[0])
    assert abs(X[:, 0].mean() - 0.3) <= 4.5 * se


def test_empirical_drift_matches_closed_forms():
    rng = RngStream(11).generator()
    est = empirical_drift(TransitiveRule(2), {2: 1.0}, [[0.5, 0.5]], 200_000, [rng])
    assert abs(est.values[0, 0] - (-0.25)) <= 4.5 * est.stderr[0, 0] + 1e-9

    x = np.array([0.5, 0.25, 0.25])
    est = empirical_drift(PartialOrderRule.rps(), {2: 1.0}, [x], 200_000, [rng])
    assert np.all(np.abs(est.values[0] - DriftFunction.rps(1.0)(x)) <= 4.5 * est.stderr[0] + 1e-9)


def test_composition_count_sums_equal_the_per_sample_sums():
    # the reduction is exact once the counts are drawn: summing the rule's
    # outputs over samples equals weighting its outputs at the compositions
    rule, k = NegFreqDepRule(3), 3
    samples = RngStream(14).generator().multinomial(k, [0.2, 0.3, 0.5], size=50_000)
    rows = rule.distribution_batch(samples)
    index = composition_index(3, k)
    m = np.bincount([index[tuple(int(v) for v in s)] for s in samples], minlength=len(index))
    table = rule.distribution_batch(np.asarray(compositions(3, k)))
    assert np.allclose(m @ table, rows.sum(axis=0), rtol=1e-12, atol=0.0)
    assert np.allclose(m @ table**2, (rows**2).sum(axis=0), rtol=1e-12, atol=0.0)


def test_empirical_drift_draws_one_count_vector_over_the_compositions():
    rule = NegFreqDepRule(3)
    x, n = np.array([0.2, 0.3, 0.5]), 10**6
    est = empirical_drift(rule, {3: 1.0}, [x], n, [RngStream(15).generator()])
    assert est.compositions[0] == len(compositions(3, 3)) == 10

    pmf = composition_pmf(3, 3, x)
    m = RngStream(15).generator().multinomial(n, pmf / pmf.sum())
    table = rule.distribution_batch(np.asarray(compositions(3, 3)))
    mean = m @ table / n
    assert np.allclose(est.values[0], mean - x, rtol=0.0, atol=1e-15)
    # the standard error is exact: the per-sample variance under the composition law, over n
    p = pmf / pmf.sum()
    assert np.allclose(est.stderr[0], np.sqrt((p @ table**2 - (p @ table) ** 2) / n), rtol=1e-12, atol=0.0)


def test_empirical_drift_standard_error_mixes_the_sample_sizes_exactly():
    rule, tail = TransitiveRule(3), {2: 0.25, 3: 0.75}
    x, n = np.array([0.1, 0.3, 0.6]), 5000
    est = empirical_drift(rule, tail, [x], n, [RngStream(19).generator()])
    first, second = np.zeros(3), np.zeros(3)
    for k, w in ((2, 0.25), (3, 0.75)):
        pmf = composition_pmf(3, k, x)
        table = rule.distribution_batch(np.asarray(compositions(3, k)))
        first += w * (pmf / pmf.sum()) @ table
        second += w * (pmf / pmf.sum()) @ table**2
    assert np.allclose(est.stderr[0], np.sqrt((second - first**2) / n), rtol=1e-12, atol=0.0)
    # the exact mean is the type law
    law = sum(w * ColouringRule.type_law_batch(rule, k, x[None, :])[0] for k, w in tail.items())
    assert np.allclose(first, law, rtol=0.0, atol=1e-15)


def test_empirical_drift_on_the_boundary_leaves_the_absent_type_alone():
    # x_3 = 0: 0**0 = 1 keeps the pmf on the compositions without type 3
    x = np.array([0.6, 0.4, 0.0])
    est = empirical_drift(PartialOrderRule.rps(), {2: 1.0}, [x], 200_000, [RngStream(16).generator()])
    assert np.all(np.isfinite(est.values)) and np.all(np.isfinite(est.stderr))
    assert est.values[0, 2] == 0.0 and est.stderr[0, 2] == 0.0
    assert np.all(np.abs(est.values[0] - DriftFunction.rps(1.0)(x)) <= 4.0 * est.stderr[0] + 1e-9)


def test_empirical_drift_beyond_enumeration_takes_the_per_sample_path():
    # C(202, 2) = 20301 multi-indices: over the enumeration limit
    rule = TransitiveRule(3)
    assert not rule.supports_enumeration(200)
    x = np.array([0.001, 0.994, 0.005])  # type 3 is absent from a sample of 200 w.p. 0.37
    est = empirical_drift(rule, {200: 1.0}, [x], 20_000, [RngStream(17).generator()])
    assert est.compositions[0] == 0
    assert np.all(est.stderr[0, 1:] > 0.0)
    mu = DriftFunction.transitive(1.0, {199: 1.0}, 3)(x)
    assert np.all(np.abs(est.values[0] - mu) <= 4.0 * est.stderr[0] + 1e-9)


def _one_state_drift(rule, tail, x, replicates, rng):
    """``empirical_drift`` as it was before it took a block of states: values, stderr and compositions at one."""
    tail_ks, tail_ps = map(np.array, zip(*sorted(tail.items())))
    per_k = rng.multinomial(replicates, tail_ps)
    exact_se = all(rule.enumerable(k) for k in tail_ks)
    total, first, second = np.zeros((3, x.size))
    drawn_over = 0
    for k, p, n_k in zip(tail_ks, tail_ps, per_k):
        if n_k == 0 and not exact_se:
            continue
        if rule.enumerable(k):
            pmf = composition_pmf(x.size, k, x)
            pmf = pmf / pmf.sum()
            m = rng.multinomial(n_k, pmf)
            table = rule.distribution_batch(compositions(x.size, k))
            drawn_over += len(table)
        else:
            m = np.ones(int(n_k))
            table = rule.distribution_batch(rng.multinomial(int(k), x, size=int(n_k)))
        total += m @ table
        weights = p * pmf if exact_se else m / replicates
        first += weights @ table
        second += weights @ table**2
    return total / replicates - x, np.sqrt(np.maximum(second - first**2, 0.0) / replicates), drawn_over


@pytest.mark.parametrize(
    "rule,tail,replicates",
    [
        (TransitiveRule(3), {2: 0.25, 3: 0.75}, 5000),  # every size enumerated: the exact standard error
        (PartialOrderRule.rps(), {2: 0.5, 20: 0.5}, 7),  # 20 is beyond enumeration: the sample's; few replicates
        (TransitiveRule(3), {200: 1.0}, 300),  # the per-sample path alone
        (NegFreqDepRule(3), {12: 1.0}, 10**5),  # K = 3, k = 12: 91 compositions
    ],
    ids=["exact-se", "mixed", "per-sample", "k12"],
)
def test_empirical_drift_on_a_block_equals_one_call_per_state(rule, tail, replicates):
    # each state draws from its own generator alone, so a block of states reproduces each one-state call bit for
    # bit, and each one-state call the estimator as it was before it took a block
    xs = np.vstack([RngStream(20).generator().dirichlet(np.ones(3), size=5), [0.6, 0.4, 0.0]])  # and a face
    est = empirical_drift(rule, tail, xs, replicates, [RngStream(21).derive(j).generator() for j in range(len(xs))])
    assert est.values.shape == est.stderr.shape == xs.shape and est.compositions.shape == (len(xs),)
    for j, x in enumerate(xs):
        one = empirical_drift(rule, tail, [x], replicates, [RngStream(21).derive(j).generator()])
        values, stderr, drawn_over = _one_state_drift(rule, tail, x, replicates, RngStream(21).derive(j).generator())
        for block, row in ((est, j), (one, 0)):
            assert np.array_equal(block.values[row], values) and np.array_equal(block.stderr[row], stderr)
            assert block.compositions[row] == drawn_over
    if 12 in tail:
        assert est.compositions.tolist() == [91] * len(xs)


def test_empirical_drift_refuses_a_generator_count_other_than_the_states():
    with pytest.raises(ValueError, match=r"one generator per state, got shape \(2, 3\) and 1 generators$"):
        empirical_drift(TransitiveRule(3), {2: 1.0}, [[0.2, 0.3, 0.5]] * 2, 10, [RngStream(1).generator()])
    with pytest.raises(ValueError, match=r"got shape \(3,\) and 3 generators$"):
        empirical_drift(TransitiveRule(3), {2: 1.0}, [0.2, 0.3, 0.5], 10, [RngStream(1).generator()] * 3)


def test_exact_drift_refuses_a_sample_size_whose_coefficients_overflow():
    # 2001 multi-indices are few enough, but C(2000, 1000) ~ 1e600 is no float
    rule = TransitiveRule(2)
    assert rule.supports_enumeration(500) and not rule.supports_enumeration(2000)
    with pytest.raises(ValueError, match="size 2000"):
        ColouringRule.type_law_batch(rule, 2000, np.array([[0.5, 0.5]]))
    est = empirical_drift(rule, {2000: 1.0}, [[0.5, 0.5]], 200, [RngStream(18).generator()])
    assert est.compositions[0] == 0 and np.allclose(est.values[0], [-0.5, 0.5], atol=1e-12)


def test_empirical_drift_exact_path():
    # the enumeration of every multiset, which no rule's closed form reaches, against the closed-form drifts
    def enumerated_drift(model, x):
        x = np.asarray(x, dtype=float)
        return sum(p * ColouringRule.type_law_batch(model.rule, k, x[None, :])[0] for k, p in model.offspring.tail) - x

    model = DiscreteModel(N=2, rule=NeutralRule(3), offspring=OffspringLaw(1.0, {2: 0.5, 3: 0.5}))
    assert np.allclose(enumerated_drift(model, [0.2, 0.3, 0.5]), 0.0, atol=1e-12)

    model = DiscreteModel(N=2, rule=TransitiveRule(3), offspring=OffspringLaw(1.0, {3: 1.0}))
    x = [0.2, 0.3, 0.5]
    assert np.allclose(enumerated_drift(model, x), DriftFunction.transitive(1.0, {2: 1.0}, 3)(x), atol=1e-12)


def test_neutral_fixation_probability_matches_initial_frequency():
    # sigma-coupled schedule, neutral rule: fixation probability = x0
    model = DiscreteModel.from_schedule(NeutralRule(2), 50, 0.25, 1.0, 1.0, ZeroMeasure(), {2: 1.0})
    rng = RngStream(12).generator()
    R = 1000
    X = np.tile([0.3, 0.7], (R, 1))
    active = np.ones(R, dtype=bool)
    for _ in range(50 * model.N):
        active = ~np.any(X == 1.0, axis=1)
        if not active.any():
            break
        X[active] = step_generation_batch(model, X[active], rng)
    assert not active.any(), "all replicates should fix within 50 N generations"
    p_hat = float((X[:, 0] == 1.0).mean())
    # 99% binomial band around 0.3
    assert abs(p_hat - 0.3) <= 2.576 * math.sqrt(0.3 * 0.7 / R)
