import re

import numpy as np
import pytest

from lwf.bernstein import PolynomialMap
from lwf.core import OffspringLaw, random_interior_points
from lwf.experiments import standard_drift_catalog
from lwf.rng import RngStream
from lwf.rules import ColouringRule, LogisticRule
from lwf.selection import DriftFunction, cyclic_contest_map, transitive_pair_map


def test_transitive_pair_example():
    assert np.allclose(DriftFunction.transitive(1.0, {1: 1.0}, 2)([0.5, 0.5]), [-0.25, 0.25])
    assert np.allclose(DriftFunction.transitive(1.0, {1: 1.0}, 3)([0.0, 0.0, 1.0]), 0.0)


def test_logistic_examples():
    P = np.full((3, 3), 0.5)
    pts = random_interior_points(RngStream(1).generator(), 3, 20)
    assert np.allclose(DriftFunction.logistic(2.0, P)(pts), 0.0, atol=1e-14)
    # K=2 with p_12 = 1: mu_1 = x_1 (1 - x_1)
    drift = DriftFunction.logistic(1.0, [[0.5, 1.0], [0.0, 0.5]])
    assert np.allclose(drift([0.5, 0.5]), [0.25, -0.25])
    assert np.allclose(drift([1.0, 0.0]), 0.0)


def test_rps_examples():
    drift = DriftFunction.rps(1.0)
    assert np.allclose(drift([1 / 3, 1 / 3, 1 / 3]), 0.0)
    assert np.allclose(drift([0.5, 0.25, 0.25]), [0.0, 1 / 16, -1 / 16])
    assert np.allclose(drift([1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        drift([0.5, 0.5])


@pytest.mark.parametrize("order", ["C", "F"])
def test_rps_matches_the_fancy_index_formula_bit_for_bit(order):
    # the column-slice differences are the same subtractions as x[..., pred] - x[..., succ]
    pred, succ = np.array([2, 0, 1]), np.array([1, 2, 0])
    pts = np.array(RngStream(3).generator().dirichlet(np.ones(3), size=200), order=order)
    pts[:3] = np.eye(3)  # vertices, where the gaps hold exact zeros
    for x in (pts, pts[7], pts.reshape(20, 10, 3)):
        assert DriftFunction.rps(1.7)(x).tobytes() == (1.7 * x * (x[..., pred] - x[..., succ])).tobytes()


def test_food_web_reduces_to_rps_on_the_cycle():
    beats = [(1, 0), (2, 1), (0, 2)]
    pts = random_interior_points(RngStream(2).generator(), 3, 50)
    assert np.allclose(DriftFunction.food_web(1.3, beats, 3)(pts), DriftFunction.rps(1.3)(pts), atol=1e-14)


def test_freq_dep_examples():
    for kind in (DriftFunction.negfreq, DriftFunction.posfreq):
        assert np.allclose(kind(1.0, 4)([0.25, 0.25, 0.25, 0.25]), 0.0, atol=1e-15)
    assert DriftFunction.negfreq(1.0, 2)([0.25, 0.75])[0] == pytest.approx(0.1875)
    assert DriftFunction.posfreq(1.0, 2)([0.25, 0.75])[0] == pytest.approx(-0.09375)


def test_polynomial_drift_trivial_cases():
    x = np.array([0.2, 0.3, 0.5])
    identity = PolynomialMap([{(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}, {(0, 0, 1): 1.0}])
    assert np.allclose(DriftFunction.from_polynomial(2.0, identity)(x), 0.0)
    assert np.allclose(DriftFunction.from_polynomial(0.0, cyclic_contest_map())(x), 0.0)


@pytest.mark.parametrize(
    "components,message",
    [
        ([{(1, 0): 2.0}, {(0, 1): 1.0}], "for output 1 at multi-index (1, 0) is 2.0, outside [0, 1]"),
        ([{(1, 0): 0.5}, {(0, 1): 0.5}], "coefficient row for multi-index (0, 1) sums to 0.5, expected 1"),
        ([{(1, 0): 0.95, (0, 1): 0.05}, {(1, 0): 0.05, (0, 1): 0.95}],
         "for output 1 at multi-index (0, 1) is 0.05, not 0: the map revives an absent type (a mutation)"),
        # the three-type cycle with the x_1 x_2 pairs given to type 3, which is absent from them
        ([{(2, 0, 0): 1.0, (1, 0, 1): 2.0}, {(0, 2, 0): 1.0, (0, 1, 1): 2.0}, {(0, 0, 2): 1.0, (1, 1, 0): 2.0}],
         "for output 3 at multi-index (1, 1, 0) is 1.0, not 0"),
    ],
    ids=["leaves-the-simplex", "leaves-the-face", "mutation", "mutation-degree-2"],
)
def test_from_polynomial_refuses_a_map_the_integrator_cannot_follow_naming_the_multi_index(components, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        DriftFunction.from_polynomial(1.0, PolynomialMap(components))


def test_polynomial_route_matches_transitive_closed_form():
    pts = random_interior_points(RngStream(3).generator(), 2, 100)
    direct = DriftFunction.transitive(1.7, {1: 1.0}, 2)(pts)
    poly = DriftFunction.from_polynomial(1.7, transitive_pair_map(2))(pts)
    assert np.allclose(direct, poly, atol=1e-12)


def test_polynomial_route_matches_rps_closed_form():
    pts = random_interior_points(RngStream(4).generator(), 3, 100)
    poly = DriftFunction.from_polynomial(0.8, cyclic_contest_map())(pts)
    assert np.allclose(poly, DriftFunction.rps(0.8)(pts), atol=1e-12)


def test_zero_sum_and_absent_type_invariants():
    rng = RngStream(5).generator()
    drifts = [
        DriftFunction.transitive(1.0, {1: 0.5, 2: 0.5}, 4),
        DriftFunction.logistic(1.0, [[0.5, 0.7, 0.2], [0.3, 0.5, 0.6], [0.8, 0.4, 0.5]]),
        DriftFunction.rps(1.0),
        DriftFunction.food_web(1.0, [(1, 0), (2, 0), (3, 1)], 4),
        DriftFunction.negfreq(1.0, 3),
        DriftFunction.posfreq(1.0, 3),
        DriftFunction.from_polynomial(1.0, cyclic_contest_map()),
    ]
    for drift in drifts:
        pts = rng.dirichlet(np.ones(drift.K), size=1000)
        values = drift(pts)
        assert np.allclose(values.sum(axis=1), 0.0, atol=1e-12), drift.kind
        # kill one coordinate and check the drift vanishes there
        killed = pts.copy()
        killed[:, 0] = 0.0
        killed /= killed.sum(axis=1, keepdims=True)
        assert np.allclose(drift(killed)[:, 0], 0.0, atol=1e-12), drift.kind


@pytest.mark.parametrize("K", [3, 6, 9])
def test_every_drift_gives_a_row_the_same_bits_in_any_block(K):
    # the integrator steps the rows of several batches as one column-major block, whose height depends on the
    # thread count: a row's drift must not depend on the rows around it (a BLAS product, or numpy's pairwise sum of
    # a lone row of 8 or more terms, would make it)
    rng = RngStream(30 + K).generator()
    pts = np.asfortranarray(rng.dirichlet(np.ones(K), size=400))
    P = rng.random((K, K))
    P = np.where(np.eye(K, dtype=bool), 0.5, np.triu(P, 1) + np.tril(1.0 - P.T, -1))
    drifts = [
        DriftFunction.transitive(1.7, {1: 0.5, 3: 0.5}, K),
        DriftFunction.logistic(1.7, P),
        DriftFunction.food_web(1.7, [(i, (i + 1) % K) for i in range(K)] + [(0, K - 2)], K),
        DriftFunction.negfreq(1.7, K),
        DriftFunction.posfreq(1.7, K),
    ]
    for drift in drifts:
        whole = drift(pts)
        for start, stop in ((0, 1), (1, 2), (5, 7), (7, 30), (30, 400)):
            part = drift(np.asfortranarray(pts[start:stop]))
            assert part.tobytes() == np.ascontiguousarray(whole[start:stop]).tobytes(), (drift.kind, start, stop)


def test_drift_closures_equal_the_direct_formulas_exactly():
    # each closure against its docstring formula, evaluated in the order written, bit for bit: at kappa = 1
    # the closures skip the unit factor, the integrator passes them column-major blocks, and a sum over types
    # adds its terms in type order
    rng = RngStream(9).generator()
    pts3 = np.concatenate([rng.dirichlet(np.ones(3), size=200), np.eye(3), [[0.0, 0.4, 0.6]]])
    pts4 = np.concatenate([rng.dirichlet(np.ones(4), size=200), np.eye(4), [[0.0, 0.3, 0.0, 0.7]]])
    P = np.array([[0.5, 0.7, 0.2], [0.3, 0.5, 0.6], [0.8, 0.4, 0.5]])
    web = [(1, 0), (2, 0), (3, 1)]
    matrix = np.zeros((4, 4))
    for w, l in web:
        matrix[w, l] = 1.0
    g = transitive_pair_map(3)

    def in_type_order(x, M):  # x @ M, its terms x_j M[j] added in type order
        return sum((x[..., j, None] * M[j] for j in range(1, len(M))), x[..., 0, None] * M[0])

    def transitive(kappa, increments, x):
        cum = np.cumsum(x, axis=-1)
        terms = [w * (cum ** (j + 1) - (cum - x) ** (j + 1) - x) for j, w in sorted(increments.items())]
        return kappa * sum(terms[1:], terms[0])

    for kappa in (1.0, 1.7):
        for x3, x4 in ((pts3, pts4), (np.asfortranarray(pts3), np.asfortranarray(pts4))):
            sq = (x4**2).sum(axis=-1, keepdims=True) - x4**2
            cases = [
                (DriftFunction.rps(kappa), x3, kappa * x3 * (np.roll(x3, 1, axis=-1) - np.roll(x3, -1, axis=-1))),
                (DriftFunction.transitive(kappa, {1: 1.0}, 3), x3, transitive(kappa, {1: 1.0}, x3)),
                (DriftFunction.transitive(kappa, {3: 0.75, 1: 0.25}, 4), x4, transitive(kappa, {3: 0.75, 1: 0.25}, x4)),
                (
                    DriftFunction.logistic(kappa, P),
                    x3,
                    kappa * x3 * (1.0 - x3 - 2.0 * in_type_order(x3, P - 0.5 * np.eye(3))),
                ),
                (DriftFunction.food_web(kappa, web, 4), x4, kappa * x4 * in_type_order(x4, matrix.T - matrix)),
                (DriftFunction.negfreq(kappa, 4), x4, 2.0 * kappa * x4 * (sq - x4 * (1.0 - x4))),
                (
                    DriftFunction.posfreq(kappa, 4),
                    x4,
                    kappa * x4 * ((2.0 * x4 - 1.0) * (1.0 - x4) + ((1.0 - x4) ** 2 - sq)),
                ),
                (DriftFunction.from_polynomial(kappa, g), x3, kappa * (g(x3) - x3)),
            ]
            for drift, x, want in cases:
                assert drift(x).tobytes() == want.tobytes(), (drift.kind, kappa)


def test_drift_bounds_by_x_times_one_minus_x():
    rng = RngStream(6).generator()
    pts = rng.dirichlet(np.ones(3), size=10_000)
    kappa, increments = 1.3, {1: 0.25, 2: 0.75}
    beta = 0.25 * 1 + 0.75 * 2
    mu = DriftFunction.transitive(kappa, increments, 3)(pts)
    bound = 2.0 * kappa * beta * pts * (1.0 - pts)
    assert np.all(np.abs(mu) <= bound + 1e-12)
    mu = DriftFunction.rps(kappa)(pts)
    assert np.all(np.abs(mu) <= 2.0 * kappa * pts * (1.0 - pts) + 1e-12)


def test_kappa_linearity():
    pts = random_interior_points(RngStream(7).generator(), 3, 10)
    assert np.allclose(DriftFunction.rps(3.0)(pts), 3.0 * DriftFunction.rps(1.0)(pts))
    assert np.allclose(DriftFunction.negfreq(2.0, 3)(pts), 2.0 * DriftFunction.negfreq(1.0, 3)(pts))


@pytest.mark.parametrize("pair", standard_drift_catalog(), ids=lambda pair: pair["name"])
def test_closed_forms_match_exact_enumeration_drift(pair):
    # the enumeration route is exact and independent: the base class sums the rule's outputs over every sampled
    # multiset, where a subclass may use a closed form (the transitive rule's is the very formula of its drift)
    rule, drift = pair["rule"], pair["drift"]
    X = RngStream(14).generator().dirichlet(np.ones(rule.K), size=50)
    law = sum(p * ColouringRule.type_law_batch(rule, k, X) for k, p in OffspringLaw(1.0, pair["tail"]).tail)
    assert np.abs(drift(X) - drift.kappa * (law - X)).max() <= 1e-12, pair["name"]


def test_logistic_drift_and_rule_accept_the_same_matrices():
    bad = {
        "need p[i, j] + p[j, i] = 1": [[0.5, 0.9], [0.9, 0.5]],
        "diagonal win probabilities must equal 1/2": [[0.4, 0.6], [0.4, 0.6]],
        "win probabilities must lie in [0, 1]": [[0.5, 1.2], [-0.2, 0.5]],
        "win-probability matrix must be square": [[0.5, 0.5]],
    }
    for message, matrix in bad.items():
        for build in (LogisticRule, lambda m: DriftFunction.logistic(1.0, m)):
            with pytest.raises(ValueError, match=re.escape(message)):
                build(matrix)
