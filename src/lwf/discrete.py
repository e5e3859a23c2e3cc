"""Exact simulation of the finite-population frequency chain.

One generation of N offspring works at the frequency level without ever
materializing individuals: parents are drawn uniformly with replacement, so
the types of sampled potential parents are iid categorical at the current
frequencies.  Each offspring draws its sample size, parents and type on its
own, so a generation is one multinomial draw at the mixture over sample sizes
of the rule's exact averaged type laws; only a size without an exact law is
drawn one offspring at a time.  This is a reformulation of the
individual-based definition, not an approximation.

Extreme reproductive generations replace the rule: one uniformly chosen
parent hands its type to a Binomial(N, Z) block, the rest of the offspring
pick uniform parents.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .batches import LANE_DISCRETE, map_batches
from .combinat import composition_pmf, compositions
from .core import OffspringLaw, _categorical, as_frequencies, integer_law, round_to_counts
from .errors import ScheduleError
from .measures import LambdaMeasure, TruncatedSizeLaw
from .rng import RngStream
from .rules import ColouringRule


@dataclass(frozen=True)
class DiscreteModel:
    """A finite population with its reproduction mechanism."""

    N: int
    rule: ColouringRule
    offspring: OffspringLaw
    gamma: float = 0.0
    size_law: TruncatedSizeLaw | None = None

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"population size must be >= 2, got {self.N}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"event probability must lie in [0, 1], got {self.gamma}")
        if self.gamma > 0.0 and self.size_law is None:
            raise ValueError("a size law is required when extreme events can occur")
        # an ordinary generation pools the sample sizes with an exact type law and splits off each other size
        sizes = [(1, 1.0 - self.offspring.rho)] + [(k, self.offspring.rho * p) for k, p in self.offspring.tail]
        split = [(k, p) for k, p in sizes if p > 0 and not self.rule.has_exact_law(k)]
        mass = sum(p for k, p in sizes if self.rule.has_exact_law(k))
        pooled = tuple((k, p / mass) for k, p in sizes if p > 0 and self.rule.has_exact_law(k))
        object.__setattr__(self, "_draw", (pooled, tuple(split), mass))

    @classmethod
    def from_schedule(cls, rule: ColouringRule, N: int, alpha: float, kappa: float, sigma: float,
                      measure: LambdaMeasure, tail, *, b: float | None = None) -> "DiscreteModel":
        """The model of ``N`` individuals under ``rule`` with the N-dependent parameters of the scaling limit.

        ``rho`` couples selection to N (``kappa/(sigma*N)`` when a diffusion part is wanted, ``N**-b`` with
        ``2*alpha < b < 1``, by default the midpoint, otherwise), ``gamma`` is the per-generation probability of an
        extreme reproductive event, and ``size_law`` the normalized truncation of ``L(dz)/z**2`` at ``N**-alpha``.
        Raises :class:`ScheduleError` when no admissible ``rho`` keeps ``gamma`` at most 1 ("N too small for this
        measure"); merely clamps ``gamma`` to 1, with a warning, when a larger admissible ``b`` would work.
        """
        N = operator.index(N)
        if N < 2:
            raise ScheduleError(f"population size must be >= 2, got {N}")
        if not 0.0 < alpha < 0.5:
            raise ScheduleError(f"alpha must lie in (0, 1/2), got {alpha}")
        if not 0.0 < kappa < math.inf:
            raise ScheduleError(f"kappa must be positive and finite, got {kappa}")
        if not 0.0 <= sigma < math.inf:
            raise ScheduleError(f"sigma must be nonnegative and finite, got {sigma}")
        if sigma > 0:
            if b is not None:
                raise ScheduleError("exponent b only applies when sigma = 0")
            rho = kappa / (sigma * N)
            if rho > 1.0:
                raise ScheduleError(f"kappa/(sigma*N) = {rho} > 1: N too small for this kappa/sigma")
        else:
            if b is None:
                b = (2.0 * alpha + 1.0) / 2.0
            if not 2.0 * alpha < b < 1.0:
                raise ScheduleError(f"need 2*alpha < b < 1, got b={b} with alpha={alpha}")
            rho = N ** (-b)
        size_law = TruncatedSizeLaw(measure, N ** (-alpha))
        gamma = size_law.total_rate * rho / kappa
        if gamma > 1.0:
            if size_law.total_rate / (N * kappa) > 1.0 or sigma > 0:
                raise ScheduleError(f"event probability {gamma:.3g} > 1 at the smallest admissible rho: "
                                    "N too small for this measure")
            warnings.warn(f"event probability clamped from {gamma:.3g} to 1; results will not follow the scaling "
                          "regime", stacklevel=2)
            gamma = 1.0
        return cls(N, rule, OffspringLaw(rho, tail), float(gamma), size_law)


def step_generation_batch(model: DiscreteModel, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Vectorized generation step for a batch of replicate states ``(R, K)``."""
    R = X.shape[0]
    N = model.N
    extreme = rng.random(R) < model.gamma if model.gamma > 0.0 else np.zeros(R, dtype=bool)
    if not extreme.any():
        return _ordinary_counts(model, X, rng) / float(N)

    counts = np.empty(X.shape, dtype=np.int64)
    ordinary = ~extreme
    if ordinary.any():
        counts[ordinary] = _ordinary_counts(model, X[ordinary], rng)
    rows = np.flatnonzero(extreme)
    Xe = X[rows]
    star_type = _categorical(Xe.T, rng.random(len(Xe)))
    block = rng.binomial(N, model.size_law.sample(rng, rows.size))
    rest = rng.multinomial(N - block, Xe)
    rest[np.arange(rows.size), star_type] += block
    counts[rows] = rest
    return counts / float(N)


def _ordinary_counts(model: DiscreteModel, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Offspring type counts of a generation without an extreme event, for every row of ``X``.

    The offspring of sizes with an exact type law are one multinomial draw at the mixture of those laws.  Where
    a size has none, each row draws one split of its N offspring between the pooled sizes and each such size,
    then the pooled draw, then :func:`_per_individual` for each such size in tail order.
    """
    pooled, split, mass = model._draw
    n = rng.multinomial(model.N, [mass] + [p for _, p in split], size=X.shape[0]).T if split else [model.N]
    law = sum(w * (X if k == 1 else model.rule.type_law_batch(k, X)) for k, w in pooled)
    # the weights' float sum can exceed 1 by an ulp, and so can the law at a vertex: multinomial refuses that
    counts = rng.multinomial(n[0], np.minimum(law, 1.0)) if pooled else np.zeros(X.shape, dtype=np.int64)
    for (k, _), n_k in zip(split, n[1:]):
        counts += _per_individual(model.rule, k, X, n_k, rng)
    return counts


def step_unabsorbed(model: DiscreteModel, X: np.ndarray, rng: np.random.Generator) -> bool:
    """Advance the rows of ``X`` that can still move by one generation, in place.

    Under a mutation-free rule a monomorphic row is absorbed: it keeps its
    state and draws nothing.  Returns False, having drawn nothing, once every
    row is absorbed.
    """
    if model.rule.mutation_free:
        absorbed = np.logical_or.reduce(X == 1.0, axis=1)
        n_absorbed = np.count_nonzero(absorbed)
        if n_absorbed == X.shape[0]:
            return False
        if n_absorbed:
            X[~absorbed] = step_generation_batch(model, X[~absorbed], rng)
            return True
    X[:] = step_generation_batch(model, X, rng)
    return True


def _per_individual(rule: ColouringRule, k: int, X: np.ndarray, n_k: np.ndarray, rng) -> np.ndarray:
    """Type counts of ``n_k[r]`` offspring of size-k samples in each row r, drawn one offspring at a time."""
    out = np.zeros(X.shape, dtype=np.int64)
    for r in np.flatnonzero(n_k):
        samples = rng.multinomial(k, X[r], size=int(n_k[r]))
        types = _categorical(rule.distribution_batch(samples).T, rng.random(len(samples)))
        out[r] = np.bincount(types, minlength=X.shape[1])
    return out


def simulate_discrete(
    model: DiscreteModel, x0, replicates: int, records, stream: RngStream, threads: int = 1
) -> np.ndarray:
    """Run ``replicates`` replicates in batches on ``threads`` threads, recording them at each of ``records``.

    Batch b steps its rows on ``stream.derive(LANE_DISCRETE, b)`` and writes them into the states, shape
    ``(len(records), replicates, K)``, which are returned; a thread steps its run of batches one after another.
    The initial state is apportioned to the 1/N lattice by largest remainders.  Absorbed rows (see
    :func:`step_unabsorbed`) stop drawing and repeat their state in the remaining records.  Generations after
    the last record are not run.
    """
    if replicates < 1 or np.any(np.diff(records, prepend=0) < 0):
        raise ValueError("need replicates >= 1 and nondecreasing records >= 0")
    start = round_to_counts(x0, model.N) / float(model.N)
    states = np.empty((len(records), replicates, start.size))

    def run(groups):
        for rows, rng in groups:
            X = np.tile(start, (rows.stop - rows.start, 1))
            generation, moving = 0, True
            for j, g in enumerate(records):
                while moving and generation < g:
                    moving = step_unabsorbed(model, X, rng)
                    generation += 1
                states[j, rows] = X

    map_batches(run, replicates, stream, LANE_DISCRETE, threads)
    return states


@dataclass(frozen=True)
class DriftEstimate:
    """Estimate of the per-unit-selection drift at one state.

    ``compositions`` counts the multi-indices the Monte Carlo path drew
    composition counts over; it is 0 where every size took the per-sample
    path.
    """

    values: np.ndarray
    stderr: np.ndarray
    compositions: int = 0


def empirical_drift(rule: ColouringRule, tail, x, replicates: int, rng: np.random.Generator) -> DriftEstimate:
    """Estimate the drift of the non-extreme dynamics, rescaled by ``rho``.

    Estimates ``(p(x) - x) / rho`` where ``p`` is the one-offspring type
    law of ``rule`` and ``tail`` the law ``{k: p}`` of the sample sizes
    above 1, under :func:`~lwf.core.integer_law`.  The singleton
    part of the offspring law contributes ``x`` exactly and cancels, so only
    samples of two or more parents are simulated: a sample size is drawn
    from the tail, parent types from multinomial(k, x), and the rule's
    conditional type distribution (not a sampled type) is averaged, which
    is unbiased with strictly smaller variance.

    A sampled multiset is one of the C(K+k-1, k) compositions of k, so for
    an enumerable size (:meth:`~lwf.rules.ColouringRule.enumerable`) the
    ``n_k`` samples reduce to one multinomial draw of composition counts
    ``m`` at the multinomial(k, x) pmf, and the sum over samples to ``m @
    table`` on the rule's outputs at the compositions: the same law at
    O(compositions) cost.  Larger sizes draw and evaluate every sample.
    When every size is enumerable the standard error is exact: the
    per-sample variance ``sum_k p_k pmf_k @ table_k**2 - (sum_k p_k pmf_k @
    table_k)**2``.  Otherwise it is the sample's, which reads 0 where no
    sample drew a type's rare winning compositions.
    """
    x = as_frequencies(x)
    tail_ks, tail_ps = map(np.array, zip(*integer_law(tail, 2, "tail")))
    if replicates < 1:
        raise ValueError("need at least one replicate")

    per_k = rng.multinomial(replicates, tail_ps)  # one size takes every replicate and draws nothing
    exact_se = all(rule.enumerable(k) for k in tail_ks)
    total, first, second = np.zeros((3, x.size))  # the sum, and one sample's first two moments
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
        weights = p * pmf if exact_se else m / replicates  # the composition law, or the sample's
        first += weights @ table
        second += weights @ table**2
    stderr = np.sqrt(np.maximum(second - first**2, 0.0) / replicates)
    return DriftEstimate(total / replicates - x, stderr, drawn_over)
