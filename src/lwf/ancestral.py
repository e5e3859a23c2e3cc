"""The lineage-count chain dual to the ordered-contest frequency process.

State n counts potential ancestors of a sample.  Moves from n:

* branching: ``n -> n + j`` at rate ``n * kappa * w_j``, each lineage
  independently splitting into ``j`` extra potential parents with weight
  ``w_j`` (``j`` is the sample size minus one);
* pairwise coalescence: ``n -> n - 1`` at rate ``sigma * n (n-1) / 2``;
* multiple-merger collisions: ``n -> n - k + 1`` at rate
  ``C(n, k) * lambda_nk`` for ``2 <= k <= n``.

With these rates the chain is the exact moment dual of the limit frequency
process under ordered contests: ``E_x[X_w(t)**n] = E_n[x_w**D_t]`` for the
cumulative frequency ``x_w`` of the weakest group, which is what the
fixation formulas below rest on.  (The per-lineage factor n in the
branching rate is required by that duality; see the chain's log-drift
``kappa * beta - integral |log(1-y)| L(dy)/y**2``, whose sign gives the
recurrence dichotomy at the threshold ``kappa_star``.)

The chain is positive recurrent when ``sigma > 0`` (quadratic death beats
linear birth) or ``kappa < kappa_star``, and the frequency process then
fixes along the pgf of the stationary law; otherwise it is transient and
the highest labelled type present at time zero fixes.

Both laws come from the truncated generator: the stationary law by state
reduction, the transient moment ``E_n[x**D_t]`` from a matrix exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import as_frequencies, integer_law
from .errors import RateExplosionError
from .measures import LambdaMeasure, collision_pairs
from .rng import RngStream

STATE_GUARD = 10**7
N_START = 64  # first truncation level of the stationary and transient solves
N_CAP = 2048  # ceiling of the solves: the dense generator takes 8 * n_max**2 bytes, 32 MB
STATIONARY_TOL = 1e-6
TABLE_BLOCK = 1 << 14  # most moves in one block of states while filling the generator: about 1 MB of temporaries
JUMP_CACHE_MOVES = 1 << 20  # most moves a Gillespie run keeps cached: 16 MB of targets and cumulative rates


@dataclass(frozen=True)
class AncestralModel:
    """Parameters of the lineage-count chain."""

    kappa: float
    sigma: float
    increments: tuple[tuple[int, float], ...]
    measure: LambdaMeasure

    def __init__(self, kappa, sigma, increments, measure):
        if not (0.0 <= kappa < math.inf and 0.0 <= sigma < math.inf):
            raise ValueError(f"kappa and sigma must be nonnegative and finite, got {kappa} and {sigma}")
        items = integer_law(increments, 1, "increments") if increments or kappa > 0 else ()  # kappa = 0 needs no law
        object.__setattr__(self, "kappa", float(kappa))
        object.__setattr__(self, "sigma", float(sigma))
        object.__setattr__(self, "increments", items)
        object.__setattr__(self, "measure", measure)
        # the increments and their rates per lineage, kappa * w_j
        object.__setattr__(self, "_branching", (np.array([j for j, _ in items], dtype=np.int64),
                                                float(kappa) * np.array([w for _, w in items], dtype=float)))

    @property
    def beta(self) -> float:
        """Mean branching increment (mean extra potential parents)."""
        return sum(j * w for j, w in self.increments)

    @property
    def kappa_star(self) -> float:
        """Threshold ``(1/beta) ∫ |log(1-y)| L(dy) / y**2``, nonnegative by the absolute value; ``inf`` (not an error)
        with no increments or a divergent integral: an atom at 1, a density with too much mass near 0."""
        return self.measure.log_penalty() / self.beta if self.increments else math.inf

    def is_positive_recurrent(self) -> bool:
        """Recurrence side of the dichotomy (kappa = 0 counts as recurrent)."""
        return self.kappa == 0.0 or self.sigma > 0.0 or self.kappa < self.kappa_star

    def rates(self, states):
        """``(sources, targets, rates)`` of the moves out of one state or an array of states, zero rates dropped.

        A fixed order: every branching move, then every pair coalescence, then
        each state's collisions k = 2..n landing on n - k + 1.  For one state
        this is the order in which the Gillespie sampler draws its moves.
        """
        n = np.atleast_1d(np.asarray(states, dtype=np.int64))
        if np.any(n < 1):
            raise ValueError(f"state must be >= 1, got {n.min()}")
        js, per_lineage = self._branching
        pairs = n[n >= 2]
        merged, k = collision_pairs(n)
        sources = np.concatenate([np.repeat(n, js.size), pairs, merged])
        targets = np.concatenate([np.add.outer(n, js).ravel(), pairs - 1, merged - k + 1])
        rates = np.concatenate([np.multiply.outer(n, per_lineage).ravel(), self.sigma * pairs * (pairs - 1) / 2.0,
                                self.measure.collision_rates(merged, k)])
        keep = rates > 0.0
        return sources[keep], targets[keep], rates[keep]


def simulate_ancestral(model: AncestralModel, n0: int, horizon: float, replicates: int, stream: RngStream):
    """Gillespie paths up to the horizon, replicate r drawn from ``stream.derive(r)``: ``(jump times, states)`` pairs.

    The initial state, in ``[1, STATE_GUARD]``, is recorded at time 0.  Raises :class:`RateExplosionError` if the
    state passes ``STATE_GUARD`` (the transient regime grows without bound).  The call caches the targets and
    cumulative rates out of the states its paths visit.  The moves out of n number about n, so a path from a large n0
    would cache memory quadratic in n0: the cache is emptied whenever it would pass ``JUMP_CACHE_MOVES`` moves.
    :meth:`AncestralModel.rates` is deterministic, so a move rebuilt after that has the same bits.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if not 0.0 <= horizon < math.inf:
        raise ValueError(f"horizon must be finite and >= 0, got {horizon}")
    if not 1 <= n0 <= STATE_GUARD:  # the moves out of n take memory of order n
        raise ValueError(f"n0 must lie in [1, STATE_GUARD = {STATE_GUARD}], got {n0}")
    cache, cached, paths = {}, 0, []
    for r in range(replicates):
        rng = stream.derive(r).generator()
        times, states = [0.0], [int(n0)]
        t, n = 0.0, int(n0)
        while True:
            moves = cache.get(n)
            if moves is None:
                _, targets, rates = model.rates(n)
                cum = np.cumsum(rates)
                moves = (targets, cum, float(cum[-1]) if rates.size else 0.0)
                if cached + targets.size > JUMP_CACHE_MOVES:
                    cache.clear()
                    cached = 0
                if targets.size <= JUMP_CACHE_MOVES:
                    cache[n] = moves
                    cached += targets.size
            targets, cum, total = moves
            if total <= 0.0:
                break
            t += rng.exponential(1.0 / total)
            if t >= horizon:
                break
            n = int(targets[np.searchsorted(cum, rng.random() * total)])
            if n > STATE_GUARD:
                raise RateExplosionError(f"lineage count passed {STATE_GUARD} at time {t:.4g}")
            times.append(t)
            states.append(n)
        paths.append((np.array(times), np.array(states, dtype=np.int64)))
    return paths


def _generator(model: AncestralModel, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense generator on states 1..n_max, its diagonal from the kept moves alone, and each state's rate above n_max.

    The states go to :meth:`AncestralModel.rates` in blocks of at most
    ``TABLE_BLOCK`` moves, and one ``np.bincount`` scatters a block into its
    rows of ``Q`` widened by one column, which gathers every move above ``n_max``.
    """
    Q, above = np.empty((n_max, n_max)), np.empty(n_max)
    rows = max(TABLE_BLOCK // (n_max + len(model.increments)), 1)  # a state has at most n_max + len(increments) moves
    for first in range(0, n_max, rows):
        last = min(first + rows, n_max)
        sources, targets, rates = model.rates(np.arange(first + 1, last + 1))
        cells = (sources - first - 1) * (n_max + 1) + np.minimum(targets, n_max + 1) - 1
        block = np.bincount(cells, rates, minlength=(last - first) * (n_max + 1)).reshape(-1, n_max + 1)
        Q[first:last], above[first:last] = block[:, :n_max], block[:, n_max]
    Q[np.diag_indices(n_max)] = -Q.sum(axis=1)
    return Q, above


def dual_moment(model: AncestralModel, x: float, n0: int, t: float) -> tuple[float, float, int]:
    """``E[x**D_t]`` from ``D_0 = n0`` by killed truncation: ``(value, bound, n_max)``.

    Every move above ``n_max`` goes to a cemetery, so the whole exit rate
    stays on the diagonal of ``Q``: ``value = (e^(Qt) x**n)(n0)``, and the
    mass that left, ``bound = 1 - (e^(Qt) 1)(n0)``, puts the exact moment in
    ``[value, value + bound]`` since ``0 <= x**n <= 1`` (the finite-state
    projection of Munsky and Khammash 2006).  ``n_max`` doubles from
    ``max(N_START, n0)`` until ``bound <= STATIONARY_TOL`` or ``n_max = N_CAP``.
    """
    from scipy.linalg import expm

    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if not 1 <= n0 <= N_CAP:
        raise ValueError(f"initial state must lie in [1, n_cap = {N_CAP}], got {n0}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    n_max = max(N_START, n0)
    while True:
        Q, above = _generator(model, n_max)
        Q[np.diag_indices(n_max)] -= above
        row = expm(Q * t)[n0 - 1]
        value = float(row @ x ** np.arange(1, n_max + 1))
        bound = max(1.0 - float(row.sum()), 0.0)
        if bound <= STATIONARY_TOL or n_max == N_CAP:
            return value, bound, n_max
        n_max = min(2 * n_max, N_CAP)


# ---------------------------------------------------------------------------
# Stationary law and fixation
# ---------------------------------------------------------------------------


def _pgf_increments(nu: np.ndarray, points) -> np.ndarray:
    """Increments of ``phi(s) = sum_n nu(n) s**n`` across ``points``, for a law on states 1..len(nu)."""
    phi = np.power.outer(np.asarray(points, dtype=float), np.arange(1, nu.size + 1)) @ nu
    return np.diff(phi, prepend=0.0)


def _solve_stationary(model: AncestralModel, n_max: int) -> np.ndarray:
    """Null vector of the truncated generator, ``nu Q = 0`` with ``sum(nu) = 1``, by state reduction.

    The Grassmann-Taksar-Heyman elimination (Oper. Res. 33:1107, 1985)
    censors the chain on states 1..k-1 for k = n_max down to 2: state k
    leaves downward at rate ``S_k``, the sum of its off-diagonal rates to
    lower states, and its rates are folded into every state that enters it.
    Since the chain climbs by at most ``J`` (the largest increment), only
    the rows k-J..k-1 enter k, and folding keeps that band.  Back-substitution
    then gives ``nu(k) = sum_i nu(i) Q[i, k] / S_k``.  Every step adds
    nonnegative numbers, so the law is accurate to relative rounding even
    in its far tail, and no LAPACK call is made.
    """
    Q = _generator(model, n_max)[0]
    J = max((j for j, _ in model.increments), default=0)
    S = np.empty(n_max)
    for k in range(n_max - 1, 0, -1):  # 0-based index of state k + 1
        S[k] = Q[k, :k].sum()
        lo = max(0, k - J)
        Q[lo:k, :k] += (Q[lo:k, k] / S[k])[:, None] * Q[k, :k]
    nu = np.empty(n_max)
    nu[0] = 1.0
    for k in range(1, n_max):
        lo = max(0, k - J)
        nu[k] = nu[lo:k] @ Q[lo:k, k] / S[k]
    return nu / nu.sum()


@dataclass(frozen=True)
class StationaryLaw:
    """Stationary law of the chain solved on states 1..n_max, with its truncation error.

    ``probe`` holds the probed quantities of this law and ``change`` how far
    they moved when ``n_max`` last doubled; an unresolved law is the one at
    the ceiling ``N_CAP``.
    """

    occupation: np.ndarray  # nu(n) for n = 1..n_max
    probe: np.ndarray
    change: np.ndarray
    resolved: bool

    @property
    def n_max(self) -> int:
        return self.occupation.size


def stationary_law(model: AncestralModel, points=None) -> StationaryLaw:
    """Stationary law of a positive recurrent chain by state reduction on truncated generators.

    ``n_max`` doubles from ``N_START`` until the probed quantities move by at
    most ``STATIONARY_TOL`` between ``n_max / 2`` and ``n_max``, or ``n_max`` reaches
    ``N_CAP``.  The probe is the vector of pgf increments across
    ``points`` (cumulative frequencies) when given, else the distribution
    function, whose change bounds that of every pgf increment by a factor 2.
    A chain that never moves (``kappa = sigma = 0`` and no collisions) has
    no unique law and raises ``ValueError``.
    """
    if not model.is_positive_recurrent():
        raise ValueError(
            f"the chain is transient (kappa = {model.kappa:g} >= kappa* = {model.kappa_star:g}, sigma = 0):"
            " it has no stationary law"
        )
    if model.kappa == model.sigma == 0.0 and model.measure.total_mass() == 0.0:
        raise ValueError(
            "the lineage count never moves (kappa = 0, sigma = 0, Lambda = 0):"
            " every state is absorbing, so the stationary law is not unique"
        )
    probe = np.cumsum if points is None else lambda nu: _pgf_increments(nu, points)
    n_max = N_START
    before = probe(_solve_stationary(model, n_max))
    while True:
        n_max = min(2 * n_max, N_CAP)
        nu = _solve_stationary(model, n_max)
        after = probe(nu)
        # A distribution function on 1..n_max/2 is 1 above it, so its first entries carry the whole change.
        change = np.abs(after[: before.size] - before)
        resolved = bool(change.max() <= STATIONARY_TOL)
        if resolved or n_max == N_CAP:
            return StationaryLaw(nu, after, change, resolved)
        before = after


@dataclass
class FixationPrediction:
    """Predicted fixation probabilities with their provenance."""

    probs: np.ndarray
    stderr: np.ndarray  # truncation error of the stationary solve
    regime: str  # "recurrent", "transient" or "unresolved"
    kappa_star: float
    n_max: int = 0  # states in the solved stationary law (0: no solve needed)


def fixation_probabilities(model: AncestralModel, x0) -> FixationPrediction:
    """Fixation probability of each type under ordered contests.

    Positive recurrent regime: the probability that type i fixes is the pgf
    increment ``phi(c_i) - phi(c_(i-1))`` of the stationary law across the
    cumulative initial frequencies, solved by :func:`stationary_law` with
    its truncation error as ``stderr``; regime ``"unresolved"`` when the
    solve reaches ``N_CAP`` first, as it does near ``kappa_star``, where the
    law is heavy-tailed.  Transient regime (``sigma = 0`` and ``kappa >=
    kappa_star``, decided in closed form): the highest labelled type present
    fixes surely.

    Only the ordered-contest (transitive) scheme has this dual description.
    """
    x0 = as_frequencies(x0)
    ks = model.kappa_star
    if model.kappa == 0.0:
        # Pure-death dual: stationary law is concentrated at 1, pgf(s) = s.
        return FixationPrediction(x0.copy(), np.zeros_like(x0), "recurrent", ks)
    if model.is_positive_recurrent():
        law = stationary_law(model, np.cumsum(x0))
        regime = "recurrent" if law.resolved else "unresolved"
        return FixationPrediction(law.probe, law.change, regime, ks, law.n_max)
    probs = np.zeros_like(x0)
    probs[np.flatnonzero(x0 > 0.0).max()] = 1.0
    return FixationPrediction(probs, np.zeros_like(x0), "transient", ks)
