import numpy as np
import pytest

from lwf.bernstein import PolynomialMap, bernstein_table
from lwf.combinat import composition_pmf, compositions
from lwf.core import OffspringLaw
from lwf.discrete import DiscreteModel, _per_individual, empirical_drift
from lwf.rng import RngStream
from lwf.rules import (
    DEFAULT_K_MAX,
    BernsteinRule,
    ColouringRule,
    LogisticRule,
    NegFreqDepRule,
    NeutralRule,
    PartialOrderRule,
    PosFreqDepRule,
    TransitiveRule,
    TransitiveWithMutationRule,
    bernstein_rule,
)
from lwf.selection import cyclic_contest_map, transitive_pair_map


def counts_of(sample, K):
    return np.bincount(np.asarray(sample) - 1, minlength=K)


def law(rule, counts):
    """The rule's offspring-type law for one sampled count vector."""
    return rule.distribution_batch(np.asarray(counts)[None])[0]


ALL_RULES = [
    NeutralRule(3),
    TransitiveRule(3),
    LogisticRule([[0.5, 0.7, 0.2], [0.3, 0.5, 0.6], [0.8, 0.4, 0.5]]),
    PartialOrderRule.rps(),
    NegFreqDepRule(3),
    PosFreqDepRule(3),
    bernstein_rule(cyclic_contest_map()),
]


def test_transitive_picks_highest_type():
    assert np.array_equal(law(TransitiveRule(3), counts_of([1, 3, 2], 3)), [0, 0, 1])


def test_singleton_is_the_parent_for_mutation_free_rules():
    for rule in ALL_RULES:
        for i in range(rule.K):
            single = np.zeros(rule.K, dtype=int)
            single[i] = 1
            expected = np.zeros(rule.K)
            expected[i] = 1.0
            assert np.allclose(law(rule, single), expected), rule.kind


def test_neg_freq_dep_examples():
    rule = NegFreqDepRule(3)
    assert np.array_equal(law(rule, counts_of([1, 1, 2], 3)), [0, 1, 0])
    assert np.allclose(law(rule, counts_of([1, 2, 3], 3)), [1 / 3, 1 / 3, 1 / 3])


def test_pos_freq_dep_example():
    assert np.array_equal(law(PosFreqDepRule(3), counts_of([1, 1, 2], 3)), [1, 0, 0])


def test_logistic_pair_example():
    rule = LogisticRule([[0.5, 0.7], [0.3, 0.5]])
    assert np.allclose(law(rule, counts_of([1, 2], 2)), [0.7, 0.3])
    assert np.array_equal(law(rule, counts_of([2, 2], 2)), [0, 1])
    with pytest.raises(ValueError):
        law(rule, counts_of([1, 1, 2], 2))


def test_logistic_validation():
    with pytest.raises(ValueError):
        LogisticRule([[0.5, 0.6], [0.5, 0.5]])  # rows don't pair to 1
    with pytest.raises(ValueError):
        LogisticRule([[0.4, 0.7], [0.3, 0.5]])  # bad diagonal


def test_rps_cycle():
    rule = PartialOrderRule.rps()
    # 3 < 1 cyclically: a {1, 3} sample goes to type 1
    assert np.array_equal(law(rule, counts_of([1, 3], 3)), [1, 0, 0])
    assert np.array_equal(law(rule, counts_of([1, 2], 3)), [0, 1, 0])
    assert np.array_equal(law(rule, counts_of([2, 3], 3)), [0, 0, 1])
    # full cycle present: no undominated type, fall back to uniform on parents
    assert np.allclose(law(rule, counts_of([1, 2, 3], 3)), [1 / 3, 1 / 3, 1 / 3])


def test_partial_order_incomparable_pair_splits_evenly():
    rule = PartialOrderRule(4, [(1, 0), (2, 0), (3, 1)])
    assert np.allclose(law(rule, counts_of([3, 4], 4)), [0, 0, 0.5, 0.5])
    # multiplicity weights the uniform choice among undominated parents
    assert np.allclose(law(rule, counts_of([3, 3, 4], 4)), [0, 0, 2 / 3, 1 / 3])


def test_partial_order_rejects_symmetric_relation():
    with pytest.raises(ValueError):
        PartialOrderRule(3, [(0, 1), (1, 0)])


def test_mutation_rule():
    kernel = np.array([[0.0, 1.0], [1.0, 0.0]])
    rule = TransitiveWithMutationRule(2, 0.1, kernel)
    assert not rule.mutation_free
    # winner is type 2; mutates to type 1 with probability 0.1
    assert np.allclose(law(rule, counts_of([1, 2], 2)), [0.1, 0.9])
    # a one-parent offspring copies its parent
    assert np.allclose(law(rule, counts_of([1], 2)), [1.0, 0.0])


def test_mutation_rule_leaves_a_one_parent_offspring_unmutated():
    kernel = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
    rule = TransitiveWithMutationRule(3, 0.5, kernel)
    x = np.array([0.2, 0.3, 0.5])
    assert np.array_equal(rule.type_law_batch(1, x[None, :])[0], x)
    assert np.array_equal(rule.distribution_batch(np.eye(3, dtype=np.int64)), np.eye(3))
    # samples of two or more parents: highest label wins, then mutates with probability 0.5
    for k in (2, 3, 5):
        Z = compositions(3, k)
        winner = np.array([np.flatnonzero(z).max() for z in Z])
        want = 0.5 * np.eye(3)[winner] + 0.5 * kernel[winner]
        assert np.array_equal(rule.distribution_batch(Z), want)


def test_exchangeability_under_permutation():
    rng = RngStream(8).generator()
    for rule in ALL_RULES:
        sizes = (1, 2) if rule.kind in ("logistic", "bernstein") else (1, 2, 3, 5)
        for k in sizes:
            if rule.kind == "bernstein" and k == 2 and rule.degree != 2:
                continue
            sample = rng.integers(1, rule.K + 1, size=k)
            base = law(rule, counts_of(sample, rule.K))
            for _ in range(5):
                perm = rng.permutation(sample)
                assert np.allclose(law(rule, counts_of(perm, rule.K)), base)


def test_no_mutation_support_invariant():
    rng = RngStream(9).generator()
    for rule in ALL_RULES:
        assert rule.mutation_free
        k = 2 if rule.kind in ("logistic", "bernstein") else 4
        for _ in range(30):
            sample = rng.integers(1, rule.K + 1, size=k)
            counts = counts_of(sample, rule.K)
            dist = law(rule, counts)
            assert np.all(dist[counts == 0] == 0.0)
            assert dist.min() >= 0 and abs(dist.sum() - 1.0) < 1e-12


def test_distribution_batch_matches_single():
    rng = RngStream(10).generator()
    for rule in ALL_RULES:
        k = 2 if rule.kind in ("logistic", "bernstein") else 3
        batch = rng.multinomial(k, np.full(rule.K, 1.0 / rule.K), size=50)
        rows = rule.distribution_batch(batch)
        for row, counts in zip(rows, batch):
            assert np.allclose(row, law(rule, counts))


def offspring_type_law(rule, offspring, x, samples=1, rng=None):
    """Law of one offspring's type, ``p(x) = x + rho * drift``, with the drift's stderr scaled alike.

    Without an rng the drift is the enumeration of every multiset (zero stderr), never a rule's closed form.
    """
    if rng is None:
        law = sum(p * ColouringRule.type_law_batch(rule, k, x[None, :])[0] for k, p in offspring.tail)
        return x + offspring.rho * (law - x), np.zeros_like(x)
    est = empirical_drift(rule, dict(offspring.tail), [x], samples, [rng])
    return x + offspring.rho * est.values[0], offspring.rho * est.stderr[0]


@pytest.mark.parametrize("K", range(2, 7))
def test_transitive_closed_form_matches_the_enumeration(K):
    rule = TransitiveRule(K)
    rng = RngStream(40 + K).generator()
    pts = np.vstack([rng.dirichlet(np.ones(K), size=30), rng.dirichlet(np.full(K, 0.2), size=30)])
    faces = pts.copy()  # boundary states: the first, the last or every other type absent
    faces[0::3, 0] = faces[1::3, -1] = faces[2::3, 1::2] = 0.0
    X = np.vstack([pts, faces / faces.sum(axis=1, keepdims=True), np.eye(K)])
    for k in range(2, DEFAULT_K_MAX + 1):
        law = rule.type_law_batch(k, X)
        assert np.abs(law - ColouringRule.type_law_batch(rule, k, X)).max() <= 1e-15, k
        assert np.array_equal(law[-K:], np.eye(K))  # a vertex maps to itself
        assert np.all(law[X == 0.0] == 0.0)  # an absent type stays absent, exactly
    assert rule.has_exact_law(2000) and NeutralRule(K).has_exact_law(2000)
    assert not PartialOrderRule.rps().has_exact_law(DEFAULT_K_MAX + 1)


@pytest.mark.parametrize("k", [2, 5, 12, 20])
def test_mutation_closed_form_matches_the_enumeration(k):
    kernel = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3], [0.25, 0.25, 0.5]])
    rule = TransitiveWithMutationRule(3, 0.3, kernel)
    rng = RngStream(46).generator()
    X = np.vstack([rng.dirichlet(np.ones(3), size=30), rng.dirichlet(np.full(3, 0.2), size=30), np.eye(3)])
    law = rule.type_law_batch(k, X)
    assert np.abs(law - ColouringRule.type_law_batch(rule, k, X)).max() <= 1e-12
    assert rule.has_exact_law(2000)


def test_transitive_closed_form_matches_individual_draws_beyond_enumeration():
    # k = 2000 is beyond any enumeration: compare with offspring drawn one at a time
    rule, k = TransitiveRule(3), 2000
    x = np.array([0.9995, 0.0003, 0.0002])  # the highest type among 2000 parents is type 1 w.p. 0.9995**2000 = 0.37
    law = rule.type_law_batch(k, x[None, :])[0]
    assert np.all(law > 0.25)
    rows, n = 20, 1000
    counts = _per_individual(rule, k, np.tile(x, (rows, 1)), np.full(rows, n), RngStream(45).generator())
    se = np.sqrt(law * (1 - law) / (rows * n))
    assert np.all(np.abs(counts.sum(axis=0) / (rows * n) - law) <= 4.5 * se)


def test_offspring_type_law_neutral_is_identity():
    q = OffspringLaw(0.3, {2: 0.5, 3: 0.5})
    x = np.array([0.2, 0.3, 0.5])
    probs, _ = offspring_type_law(NeutralRule(3), q, x)
    assert np.allclose(probs, x, atol=1e-12)


def test_offspring_type_law_transitive_pair():
    # p_1 = (1 - rho) x_1 + rho x_1^2 = 0.5 - 0.25 rho at x = (1/2, 1/2)
    for rho in (0.0, 0.2, 1.0):
        q = OffspringLaw(rho, {2: 1.0})
        probs, _ = offspring_type_law(TransitiveRule(2), q, np.array([0.5, 0.5]))
        assert probs[0] == pytest.approx(0.5 - 0.25 * rho, abs=1e-12)


def test_offspring_type_law_monomorphic():
    q = OffspringLaw(0.4, {3: 1.0})
    for rule in ALL_RULES:
        if rule.kind in ("logistic", "bernstein"):
            continue
        x = np.zeros(rule.K)
        x[1] = 1.0
        assert np.allclose(offspring_type_law(rule, q, x)[0], x, atol=1e-12)


def test_offspring_type_law_monte_carlo_branch():
    q = OffspringLaw(1.0, {40: 1.0})  # beyond the enumeration cutoff
    x = np.array([0.6, 0.4])
    probs, stderr = offspring_type_law(TransitiveRule(2), q, x, 20_000, RngStream(11).generator())
    exact_p1 = 0.6**40
    assert abs(probs[0] - exact_p1) <= 4.5 * max(stderr[0], 1e-6)


# ---------------------------------------------------------------------------
# Bernstein construction
# ---------------------------------------------------------------------------


def test_bernstein_identity_degree_one_behaves_neutrally_on_singletons():
    rule = bernstein_rule(PolynomialMap([{(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, {(0, 0, 1): 1.0}]))
    assert rule.degree == 1
    for i in range(3):
        single = np.zeros(3, dtype=int)
        single[i] = 1
        expected = np.zeros(3)
        expected[i] = 1.0
        assert np.allclose(law(rule, single), expected)


def test_bernstein_transitive_pair_table():
    n, table = bernstein_table(transitive_pair_map(2))
    assert n == 2
    # composition order over K=2, n=2 is (0,2), (1,1), (2,0)
    assert np.allclose(table, [[0, 1], [0, 1], [1, 0]])
    rule = bernstein_rule(transitive_pair_map(2))
    transitive = TransitiveRule(2)
    for counts in ([2, 0], [1, 1], [0, 2]):
        assert np.allclose(law(rule, np.array(counts)), law(transitive, np.array(counts)))


def test_bernstein_rejects_out_of_range_coefficient():
    bad = PolynomialMap([{(1, 0): 1.2, (0, 1): -0.2}, {(0, 1): 1.2, (1, 0): -0.2}])
    with pytest.raises(ValueError) as err:
        bernstein_rule(bad)
    assert "multi-index" in str(err.value)


def test_bernstein_rule_built_directly_rejects_a_row_that_sums_to_one_outside_the_range():
    # (-0.5, 1.5) sums to 1, so only the range check sees it: clipped, it would be the different row (0, 1)
    with pytest.raises(ValueError, match=r"output 1 at multi-index \(1, 1\) is -0.5, outside \[0, 1\]"):
        BernsteinRule(2, np.array([[1.0, 0.0], [-0.5, 1.5], [0.0, 1.0]]))
    rule = BernsteinRule(2, np.array([[1.0, 0.0], [-1e-12, 1.0 + 1e-12], [0.0, 1.0]]))  # rounding noise is clipped
    assert np.array_equal(rule.table[1], [0.0, 1.0])


def test_bernstein_round_trip_evaluation():
    rng = RngStream(12).generator()
    for g in (transitive_pair_map(3), cyclic_contest_map()):
        n, table = bernstein_table(g)
        pts = rng.dirichlet(np.ones(g.K), size=100)
        assert np.allclose(composition_pmf(g.K, n, pts) @ table, g(pts), atol=1e-10)


def test_bernstein_degree_elevation_keeps_values():
    g = PolynomialMap([{(2, 0): 1.0, (1, 1): 1.0}, {(0, 1): 1.0}])  # (x1**2 + x1 x2, x2): x2 is elevated to degree 2
    n, table = bernstein_table(g)
    pts = RngStream(13).generator().dirichlet(np.ones(2), size=50)
    assert np.allclose(composition_pmf(g.K, n, pts) @ table, g(pts), atol=1e-10)


def test_bernstein_rule_type_law_matches_map():
    g = cyclic_contest_map()
    rule = bernstein_rule(g)
    pts = RngStream(14).generator().dirichlet(np.ones(3), size=20)
    for x in pts:
        assert np.allclose(rule.type_law_batch(rule.degree, x[None, :])[0], g(x), atol=1e-12)


def test_bernstein_rule_pairs_with_samples_of_one_or_n_parents():
    # a Bernstein rule of degree n is paired with samples of one parent or of n
    rule = bernstein_rule(cyclic_contest_map())
    ks, ps = zip(*DiscreteModel(N=2, rule=rule, offspring=OffspringLaw(0.25, {rule.degree: 1.0}))._draw[0])
    assert ks == (1, 2)
    assert ps == pytest.approx([0.75, 0.25])


def test_bernstein_row_sum_validation():
    with pytest.raises(ValueError) as err:
        BernsteinRule(1, np.array([[0.7, 0.2], [0.5, 0.5]]))
    assert "sums to" in str(err.value)
