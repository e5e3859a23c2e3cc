import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from lwf.ancestral import AncestralModel
from lwf.measures import (
    BetaLaw,
    FiniteAtoms,
    PointMass,
    TruncatedSizeLaw,
    UniformLaw,
    ZeroMeasure,
    collision_pairs,
    lambda_nk_quadrature,
)
from lwf.rng import RngStream

ALL_VARIANTS = [
    PointMass(0.5, 2.0),
    PointMass(1.0, 1.0),
    FiniteAtoms([(0.2, 0.3), (0.9, 0.7)]),
    UniformLaw(1.5),
    BetaLaw(2.0, 3.0, 1.0),
    BetaLaw(0.5, 0.5, 2.0),
]


def test_total_mass_examples():
    assert ZeroMeasure().total_mass() == 0.0
    assert PointMass(0.5, 2.0).total_mass() == 2.0
    assert FiniteAtoms([(0.2, 0.3), (0.9, 0.7)]).total_mass() == pytest.approx(1.0)


def row(measure, n):
    """The rates of state n for ``k = 2..n``: the one-row block of ``collision_rates``."""
    return measure.collision_rates(*collision_pairs(np.array([n])))


def lambda_nk(measure, n, k):
    """``∫ y**(k-2) (1-y)**(n-k) L(dy)`` from the closed-form rate vector the dual chain runs."""
    return row(measure, n)[k - 2] / math.comb(n, k)


def test_lambda_nk_examples():
    assert lambda_nk(PointMass(1.0, 1.0), 3, 3) == 1.0
    assert lambda_nk(PointMass(1.0, 1.0), 3, 2) == 0.0
    # uniform: integral of (1-y)^2 dy = 1/3
    assert lambda_nk(UniformLaw(1.0), 4, 2) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_lambda_nk_rejects_bad_indices():
    with pytest.raises(ValueError):
        lambda_nk_quadrature(UniformLaw(), 4, 1)
    with pytest.raises(ValueError):
        lambda_nk_quadrature(UniformLaw(), 4, 5)


@pytest.mark.parametrize("measure", ALL_VARIANTS, ids=lambda m: f"{m.kind}")
def test_lambda_nk_closed_form_matches_quadrature(measure):
    for n in range(2, 13):
        for k in range(2, n + 1):
            closed = lambda_nk(measure, n, k)
            quad = lambda_nk_quadrature(measure, n, k)
            assert closed == pytest.approx(quad, rel=1e-9, abs=1e-13)


@pytest.mark.parametrize("measure", ALL_VARIANTS, ids=lambda m: f"{m.kind}")
def test_lambda_nk_monotone_in_n(measure):
    # extra (1-y) factor can only shrink the integral
    for k in range(2, 10):
        values = [lambda_nk(measure, n, k) for n in range(k, 21)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_one_row_block_matches_direct_combination():
    for measure in ALL_VARIANTS:
        for n in (2, 5, 11):
            rates = row(measure, n)
            direct = [math.comb(n, k) * lambda_nk_quadrature(measure, n, k) for k in range(2, n + 1)]
            assert np.allclose(rates, direct, rtol=1e-10, atol=1e-14)


def test_atom_collision_rates_match_the_binomial_pmf():
    from scipy.stats import binom

    from lwf.measures import _atom_collision_rates

    for z in (0.01, 0.5, 1.0):
        for n in range(2, 2049):
            got = _atom_collision_rates(*collision_pairs(np.array([n])), z, 3.0) / 3.0
            want = binom.pmf(np.arange(2, n + 1), n, z)
            normal = want > 1e-300  # below that the reference itself keeps few digits
            assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal]), (n, z)
            assert np.all(got[~normal] <= 1e-290), (n, z)


def _stirling_error_reference(m: int) -> Decimal:
    """``log(m!) - (m + 1/2) log(m) + m - log(2 pi) / 2`` in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50

        def arctan_inv(x):  # arctan(1/x) by its Taylor series
            total = term = Decimal(1) / x
            k = 1
            while True:
                term /= -x * x
                if total + term / (2 * k + 1) == total:
                    return total
                total += term / (2 * k + 1)
                k += 1

        pi = 16 * arctan_inv(5) - 4 * arctan_inv(239)  # Machin's formula
        d = Decimal(m)
        log_factorial = sum((Decimal(i).ln() for i in range(2, m + 1)), Decimal(0))
        return log_factorial - (d + Decimal("0.5")) * d.ln() + d - (2 * pi).ln() / 2


def test_stirling_error_table_is_exact_and_meets_the_series_at_16():
    from lwf.measures import _stirling_error

    assert _stirling_error(0) == math.inf
    for m in range(1, 16):
        want = _stirling_error_reference(m)
        assert abs(Decimal(float(_stirling_error(m))) - want) <= Decimal(math.ulp(float(want))), m
    # from 16 on the truncated series is within its first omitted term, 691 / (360360 m**11), plus rounding
    for m in range(16, 25):
        want = _stirling_error_reference(m)
        bound = Decimal(691) / (360360 * Decimal(m) ** 11) + 4 * Decimal(math.ulp(float(want)))
        assert abs(Decimal(float(_stirling_error(m))) - want) <= bound, m


def test_uniform_rates_are_the_closed_form_n_over_k_k_minus_1():
    measure = UniformLaw(1.5)
    for n in (20, 60):
        rates = row(measure, n)
        for k in (2, 3, n // 2, n - 1, n):
            assert rates[k - 2] == pytest.approx(math.comb(n, k) * lambda_nk_quadrature(measure, n, k), rel=1e-9)
    for n in (2, 300, 2048):
        rates = row(measure, n)
        for k in range(2, n + 1, 7):
            exact = Fraction(3, 2) * Fraction(n, k * (k - 1))
            assert abs(Fraction(float(rates[k - 2])) - exact) <= 2 * Fraction(math.ulp(float(exact))), (n, k)


def test_collision_pairs_lay_out_each_state_row_after_row():
    n, k = collision_pairs(np.array([1, 2, 3, 5]))
    assert n.tolist() == [2, 3, 3, 5, 5, 5, 5]
    assert k.tolist() == [2, 2, 3, 2, 3, 4, 5]


def kappa_star(measure):
    """The threshold of the dual chain whose every lineage branches into two extra parents, beta = 2."""
    return AncestralModel(kappa=1.0, sigma=0.0, increments={2: 1.0}, measure=measure).kappa_star


def test_kappa_star_examples():
    assert kappa_star(PointMass(0.5, 1.0)) == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
    assert kappa_star(ZeroMeasure()) == 0.0
    assert kappa_star(PointMass(1.0, 1.0)) == math.inf
    assert -kappa_star(PointMass(0.5, 1.0)) == pytest.approx(-2.0 * math.log(2.0), rel=1e-12)


def test_kappa_star_divergent_variants():
    # |log(1-y)| / y**2 ~ 1/y near zero: uniform density diverges there
    assert kappa_star(UniformLaw(1.0)) == math.inf
    assert kappa_star(BetaLaw(0.9, 2.0)) == math.inf
    assert kappa_star(FiniteAtoms([(0.3, 1.0), (1.0, 0.5)])) == math.inf


def _beta_kappa_star_closed_form(measure, beta):
    """``kappa_star`` of a Beta(a, b) law with a > 2, without quadrature.

    ``∫ -log(1-y) y**(a-3) (1-y)**(b-1) dy = B(a-2, b) (ψ(a+b-2) - ψ(b))``: the
    mean of ``-log(1-Y)`` for ``Y ~ Beta(a-2, b)``, times its normaliser.
    """
    from scipy.special import betaln, digamma

    a, b = measure.a, measure.b
    assert a > 2
    ratio = math.exp(betaln(a - 2.0, b) - betaln(a, b))
    return measure.mass * ratio * (digamma(a + b - 2.0) - digamma(b)) / beta


def test_kappa_star_beta_matches_the_closed_form():
    for measure in (BetaLaw(2.5, 2.0, 1.3), BetaLaw(3.0, 1.0, 0.7)):
        assert kappa_star(measure) == pytest.approx(_beta_kappa_star_closed_form(measure, 2.0), rel=1e-8)


def _beta_log_penalty_quadrature(measure):
    """``∫ -log(1-y) y**-2 Beta(a, b)(dy)`` by two weighted quadratures that never evaluate y = 1.

    On (0, 1/2] the weight is ``y**(a-2)`` and ``-log(1-y)/y`` stays smooth; on
    [1/2, 1) the variable is ``u = 1 - y`` with weight ``u**(b-1) log(u)``.
    """
    from scipy.integrate import quad
    from scipy.special import betaln

    a, b = measure.a, measure.b
    head, _ = quad(
        lambda y: (-math.log1p(-y) / y if y > 0.0 else 1.0) * (1.0 - y) ** (b - 1.0),
        0.0, 0.5, weight="alg", wvar=(a - 2.0, 0.0), epsabs=0.0, epsrel=1e-13, limit=200,
    )
    tail, _ = quad(
        lambda u: -((1.0 - u) ** (a - 3.0)), 0.0, 0.5, weight="alg-loga", wvar=(b - 1.0, 0.0),
        epsabs=0.0, epsrel=1e-13, limit=200,
    )
    return measure.mass * (head + tail) / math.exp(betaln(a, b))


@pytest.mark.parametrize(
    "a,b",
    # b < 1 with a <= 3 crashed the old quadrature at y = 1; a + b = 2 and a = 2 are the closed form's edges
    [(1.5, 0.7), (2.0, 0.5), (3.0, 0.5), (1.5, 0.5), (1.05, 2.0), (2.0, 3.0), (2.5, 2.0), (4.0, 3.0)],
)
def test_beta_log_penalty_closed_form_matches_quadrature(a, b):
    measure = BetaLaw(a, b, 1.3)
    assert measure.log_penalty() == pytest.approx(_beta_log_penalty_quadrature(measure), rel=1e-12)
    assert kappa_star(measure) == pytest.approx(measure.log_penalty() / 2.0, rel=1e-15)


def _beta_event_rate_quadrature(measure, lo):
    """``∫_[lo,1] Beta(a, b)(dy) / y**2`` by a quadrature weighted by ``(1-y)**(b-1)``: it never evaluates y = 1."""
    from scipy.integrate import quad
    from scipy.special import betaln

    val, _ = quad(lambda y: y ** (measure.a - 3.0), lo, 1.0, weight="alg", wvar=(0.0, measure.b - 1.0),
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return measure.mass * val / math.exp(betaln(measure.a, measure.b))


@pytest.mark.parametrize(
    "a,b",
    [(a, b) for a in (0.5, 1.0, 1.5, 2.0) for b in (0.5, 1.0, 3.0)]
    # integer a: the hypergeometric closed form is degenerate there, and scipy's hyp2f1 gave -72.4 for
    # Beta(2, 1.3) above 1e-3 (true 19.4), inf for Beta(1, 1.3) and +64% for Beta(2, 7.3)
    + [(a, b) for a in (1.0, 2.0) for b in (1.3, 1.8, 3.4, 7.3, 7.8)],
)
def test_beta_event_rate_for_a_up_to_2_is_the_closed_form_not_a_quadrature(monkeypatch, a, b):
    import scipy.integrate

    measure = BetaLaw(a, b, 1.3)
    cutoffs = (1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9)
    oracle = [_beta_event_rate_quadrature(measure, lo) for lo in cutoffs]

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the Beta event rate ran a quadrature")

    monkeypatch.setattr(scipy.integrate, "quad", no_quadrature)
    assert [measure.resampling_mass_above(lo) for lo in cutoffs] == pytest.approx(oracle, rel=1e-12)


def _beta_event_rate_exact(a: int, b: int, mass: float, lo: float) -> Fraction:
    """``∫_[lo,1] Beta(a, b)(dy) / y**2`` in exact arithmetic, for integers a >= 3 and b >= 1.

    It is ``mass * B(a-2, b) / B(a, b) * I_(1-lo)(b, a-2)``, and the regularised
    incomplete beta at integer shapes p, q is the binomial tail P(Bin(p+q-1, x) >= p).
    """
    p, q = b, a - 2
    x = 1 - Fraction(lo)
    tail = sum(math.comb(p + q - 1, j) * x**j * (1 - x) ** (p + q - 1 - j) for j in range(p, p + q))
    beta = lambda s, t: Fraction(math.factorial(s - 1) * math.factorial(t - 1), math.factorial(s + t - 1))
    return Fraction(mass) * beta(a - 2, b) / beta(a, b) * tail


@pytest.mark.parametrize(
    "a,b,lo",
    # near lo = 1, 1 - I_lo(a-2, b) cancelled: Beta(3, 20) above 0.9 was 0.0 (no jumps at all, true 2.31e-18),
    # Beta(10, 20) above 0.9 was 0.71% off
    [(3, 20, 0.9), (10, 20, 0.9), (3, 3, 0.999999), (5, 1, 0.999), (4, 3, 0.5), (12, 7, 0.01), (3, 2, 1e-3)],
)
def test_beta_event_rate_for_a_above_2_keeps_its_relative_accuracy_near_one(a, b, lo):
    exact = _beta_event_rate_exact(a, b, 1.3, lo)
    assert BetaLaw(float(a), float(b), 1.3).resampling_mass_above(lo) == pytest.approx(float(exact), rel=1e-12, abs=0.0)


def test_event_mass_nondecreasing_in_population_size():
    for measure in ALL_VARIANTS:
        masses = [measure.resampling_mass_above(N ** -0.25) for N in (10, 100, 1000, 10_000)]
        assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))


def test_point_mass_validation():
    with pytest.raises(ValueError):
        PointMass(0.0, 1.0)
    with pytest.raises(ValueError):
        PointMass(0.5, -1.0)
    with pytest.raises(ValueError):
        FiniteAtoms([])


@pytest.mark.parametrize(
    "measure",
    [
        PointMass(0.4, 2.0),
        FiniteAtoms([(0.2, 0.3), (0.9, 0.7)]),
        UniformLaw(1.0),
        BetaLaw(3.5, 2.0),
        BetaLaw(1.5, 1.0),
        BetaLaw(1.0, 0.5),
        BetaLaw(0.5, 0.5),
        BetaLaw(2.0, 3.0),
    ],
    ids=["point_mass-", "finite_atoms-", "uniform-", "beta-3.5", "beta-1.5", "beta-1-0.5", "beta-0.5-0.5", "beta-2-3"],
)
def test_truncated_size_law_samples_match_cdf(measure):
    eps = 0.1
    law = TruncatedSizeLaw(measure, eps)
    rng = RngStream(17).generator()
    draws = law.sample(rng, 40_000)
    assert draws.min() >= eps - 1e-12 and draws.max() <= 1.0 + 1e-12

    # empirical CDF against the normalized resampling integral; evaluate the
    # tail just above q so atoms sitting exactly at q count as "below"
    for q in (0.2, 0.35, 0.6, 0.85):
        expected = (law.total_rate - measure.resampling_mass_above(q + 1e-9)) / law.total_rate
        observed = float((draws <= q).mean())
        assert observed == pytest.approx(expected, abs=4.5 * 0.5 / math.sqrt(draws.size))


def test_beta_size_law_tail_near_one_is_exact():
    # Beta(1, 0.5) piles its mass against z = 1, where an approximate inverse CDF is sparsest
    measure, eps, q = BetaLaw(1.0, 0.5), 1e-3, 0.999
    law = TruncatedSizeLaw(measure, eps)
    draws = law.sample(RngStream(29).generator(), 10**7)
    assert draws.min() >= eps and draws.max() <= 1.0
    p = measure.resampling_mass_above(q) / law.total_rate
    observed = float((draws > q).mean())
    assert abs(observed - p) <= 4.0 * math.sqrt(p * (1.0 - p) / draws.size), (observed, p)


def test_truncated_size_law_total_rate_and_diagnostic():
    law = TruncatedSizeLaw(PointMass(0.5, 1.0), 0.1)
    assert law.total_rate == pytest.approx(4.0)
    assert law.truncated_mass == 0.0
    below = TruncatedSizeLaw(PointMass(0.05, 1.0), 0.1)
    assert below.total_rate == 0.0
    assert below.truncated_mass == pytest.approx(1.0)
    with pytest.raises(ValueError):
        below.sample(RngStream(0).generator(), 3)


@pytest.mark.parametrize("rate", [-72.36, math.inf, math.nan])
def test_truncated_size_law_refuses_a_rate_that_is_not_a_finite_nonnegative_number(rate):
    @dataclass(frozen=True)
    class Faulty(PointMass):
        def resampling_mass_above(self, lo):
            return rate

    # a numerical fault, which the CLI must not report as a configuration error (a ValueError)
    with pytest.raises(FloatingPointError, match=r"Faulty\(z=0\.5, mass=1\.0\) has event rate .* above eps = 0\.001") as err:
        TruncatedSizeLaw(Faulty(0.5), 1e-3)
    assert not isinstance(err.value, ValueError)


def _state(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


@pytest.mark.parametrize("size", [1, 3, 500])
@pytest.mark.parametrize(
    "measure",
    [PointMass(0.4, 2.0), FiniteAtoms([(0.2, 0.3), (0.5, 1.0), (0.9, 0.7)])],
    ids=["point_mass", "three_atoms"],
)
def test_atom_sampler_draws_what_generator_choice_draws(measure, size):
    # the sampler inlines Generator.choice(p=...): same sizes, same state of the stream afterwards
    law = TruncatedSizeLaw(measure, 0.1)
    zs = np.array([z for z, _ in measure.atoms()])
    w = np.array([wt / z**2 for z, wt in measure.atoms()])
    rng, ref = RngStream(23).generator(), RngStream(23).generator()
    for _ in range(3):
        got = law.sample(rng, size)
        want = zs[ref.choice(len(zs), size, p=w / w.sum())]
        assert got.tobytes() == want.tobytes()
        assert _state(rng) == _state(ref)


@pytest.mark.parametrize("z, mass", [(0.4, 2.0), (0.05, 0.3), (1.0, 1.0)])
def test_a_point_mass_is_a_one_atom_measure_bit_for_bit(z, mass):
    point, atoms = PointMass(z, mass), FiniteAtoms([(z, mass)])
    for n in (2, 64, 2048):
        assert row(point, n).tobytes() == row(atoms, n).tobytes()
    assert point.log_penalty() == atoms.log_penalty()
    for eps in (0.01, 0.1, 0.5):
        assert point.resampling_mass_above(eps) == atoms.resampling_mass_above(eps)
        laws = TruncatedSizeLaw(point, eps), TruncatedSizeLaw(atoms, eps)
        assert laws[0].total_rate == laws[1].total_rate
        if laws[0].total_rate > 0:
            rng, ref = RngStream(31).generator(), RngStream(31).generator()
            for size in (1, 7, 300):
                assert laws[0].sample(rng, size).tobytes() == laws[1].sample(ref, size).tobytes()
                assert _state(rng) == _state(ref)


def test_beta_truncated_mass_is_the_lower_tail_without_cancellation():
    # the Beta(3, 2) distribution function is 4 x**3 - 3 x**4; total mass minus the upper tail kept 5 digits here
    eps = 1e-4
    law = TruncatedSizeLaw(BetaLaw(3.0, 2.0, 2.5), eps)
    assert law.truncated_mass == pytest.approx(2.5 * (4.0 * eps**3 - 3.0 * eps**4), rel=1e-12, abs=0.0)


def test_every_zero_measure_quantity_is_the_float_zero():
    zero = ZeroMeasure()
    values = [zero.total_mass(), zero.mass_below(1.0), zero.resampling_mass_above(0.1), zero.log_penalty()]
    assert all(type(v) is float and v == 0.0 for v in values), values
    assert TruncatedSizeLaw(zero, 0.1).total_rate == 0.0 and TruncatedSizeLaw(zero, 0.1).truncated_mass == 0.0
    for n in (2, 64):
        rates = row(zero, n)
        assert rates.dtype == float and rates.shape == (n - 1,) and not rates.any()


def _uniform_sizes(measure, eps, rng, size):
    """The exact inverse CDF of ``1/z**2`` on ``[eps, 1]``."""
    u = rng.random(size)
    inv_eps = 1.0 / eps
    return 1.0 / (inv_eps - u * (inv_eps - 1.0))


def _beta_above_2_sizes(measure, eps, rng, size):
    """Beta(a - 2, b) draws, each batch keeping those at or above ``eps``."""
    out = np.empty(size)
    filled = 0
    while filled < size:
        cand = rng.beta(measure.a - 2.0, measure.b, size=size - filled)
        good = cand >= eps
        n = int(good.sum())
        out[filled : filled + n] = cand[good]
        filled += n
    return out


@pytest.mark.parametrize("size", [1, 3, 500])
@pytest.mark.parametrize(
    "measure,oracle",
    [(UniformLaw(1.5), _uniform_sizes), (BetaLaw(3.5, 2.0), _beta_above_2_sizes),
     (BetaLaw(2.5, 0.5, 0.7), _beta_above_2_sizes)],
    ids=["uniform", "beta-3.5-2", "beta-2.5-0.5"],
)
def test_uniform_and_beta_above_2_sizes_keep_their_formulas(measure, oracle, size):
    # these draws are kept byte for byte: same sizes, same state of the stream afterwards
    law = TruncatedSizeLaw(measure, 0.05)
    rng, ref = RngStream(31).generator(), RngStream(31).generator()
    for _ in range(3):
        assert law.sample(rng, size).tobytes() == oracle(measure, 0.05, ref, size).tobytes()
        assert _state(rng) == _state(ref)
