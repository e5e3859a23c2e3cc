"""Euler-Maruyama integration of the limit jump-diffusion on the simplex.

The process combines three parts:

* a drift ``mu(x)`` per unit time,
* a diffusion with the multinomial-resampling covariance
  ``sigma * Sigma(x)``, ``Sigma_ij(x) = x_i (1_{i=j} - x_j)``,
* jumps ``x -> (1-z) x + z e_i`` at rate ``x_i L(dz)/z**2``, one parent of
  type i replacing a fraction z of the population.

Jumps below a size cutoff ``eps_jump`` are dropped: for fixed z the jump
integrand averages to zero over the uniform mark, so truncation discards
mean-zero noise and introduces no drift bias, only the vanishing variance of
sub-cutoff jumps.  The diffusion step is followed by a projection onto the
simplex (clamp negatives, renormalize) whose bias near the boundary is
dominated by the Euler error; jump steps are convex combinations and preserve
the simplex exactly.

An Euler step's law depends on a root of ``Sigma`` only through its product with its transpose, so the noise
comes from ``B(x) = diag(sqrt(x)) - x sqrt(x)^T`` (``B B^T = Sigma`` on the face), which treats every type alike and
costs O(K) per replicate with no division; :func:`zeta`, the paper's triangular factor, is the checked reference.

The jumps follow the limit process's Poisson clock: each replicate keeps the time of its next jump, and a step
``((s-1) dt, s dt]`` applies every jump that falls in it, after the Euler part, each target drawn from the state
before that jump.  The gaps between a replicate's jumps are Exp(1)/rate, so its jump counts per step are i.i.d.
Poisson(rate dt); a step that ends before the block's earliest clock skips the jumps on one comparison.  A step
that jumps runs one path for the whole block, in rounds that every group with rows due shares (see :func:`_jump`),
each group taking its events from its own queue in row order.  The gaps, sizes and target uniforms are drawn ahead,
``JUMP_CHUNK`` events at a time, by each group from its own generator (see :class:`_JumpEvents`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .batches import LANE_SDE, map_batches
from .core import _categorical, _type_sum, as_frequencies
from .measures import LambdaMeasure, TruncatedSizeLaw
from .rng import RngStream

_TINY = 1e-14
LOCKSTEP = 20  # batches stepped as one block at most: 10,000 rows, about where a step costs least per row
JUMP_CHUNK = 256  # jump events a group draws at a time; a constant, so its draws depend on nothing outside the group


def zeta(x) -> np.ndarray:
    """Lower-triangular square root of the resampling covariance.

    For suffix sums ``S_j = x_(j+1) + ... + x_K`` (so ``S_0 = 1`` on the
    face), the nonzero entries are::

        zeta[i, i] = sqrt(x_i * S_(i+1) / S_i)
        zeta[i, j] = -x_i * sqrt(x_j / (S_j * S_(j+1)))      for i > j

    Entries whose denominators vanish are set to zero, which is the limit of the formula on the simplex (the
    numerators vanish at least as fast).  Batch aware: ``x`` may have shape ``(..., K)``.  The integrator does not
    use it (see the module docstring).
    """
    x = np.asarray(x, dtype=float)
    K = x.shape[-1]
    S = np.flip(np.cumsum(np.flip(x, -1), axis=-1), -1)
    S, S_next, head = S[..., :-1], S[..., 1:], x[..., :-1]
    denom = S * S_next
    diag, col = np.zeros(x.shape), np.zeros(x.shape)
    np.divide(head * S_next, S, out=diag[..., :-1], where=S > _TINY)
    np.divide(head, denom, out=col[..., :-1], where=denom > _TINY)
    out = np.where(np.tri(K, K, -1, dtype=bool), -x[..., :, None] * np.sqrt(col)[..., None, :], 0.0)
    idx = np.arange(K)
    out[..., idx, idx] = np.sqrt(diag)
    return out


def _diffusion(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """``B(x) @ xi`` for type-major ``x`` and ``xi``, ``B(x) = diag(sqrt(x)) - x sqrt(x)^T``, as a fresh array.

    ``v = sqrt(x) * xi`` less ``x`` times the sum of ``v`` over types, added in type order, which gives the same
    bytes on either memory layout and in a block of any height.  A zero coordinate and a vertex get exactly zero
    noise.
    """
    v = np.sqrt(x)
    v *= xi
    v -= x * _type_sum(v.T)
    return v


def is_whole_steps(t: float, dt: float) -> bool:
    """Whether ``t`` is a whole number of steps ``dt``, to a relative 1e-9: the times at which a run records exactly."""
    return math.isclose(t / dt, round(t / dt), rel_tol=1e-9)


@dataclass
class SdeConfig:
    """Parameters of one integration run.

    ``drift`` is any callable mapping ``(..., K)`` states to drift vectors
    (a :class:`~lwf.selection.DriftFunction` fits).  ``tol_ext`` is the
    extinction clamp, in ``[0, 1/K)``: coordinates at or below it are set to
    zero with the rest renormalized (0 disables everything except exact zeros
    produced by the projection).
    """

    K: int
    drift: object
    sigma: float
    measure: LambdaMeasure
    dt: float
    horizon: float
    eps_jump: float = 1e-3
    tol_ext: float = 0.0
    size_law: TruncatedSizeLaw = field(init=False, repr=False)

    def __post_init__(self):
        if self.K < 2:
            raise ValueError("need at least two types")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be >= 0 and finite, got {self.sigma}")
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be > 0 and finite, got {self.dt}")
        if not 0.0 <= self.horizon < math.inf:
            raise ValueError(f"horizon must be >= 0 and finite, got {self.horizon}")
        if 0.0 < self.horizon < self.dt:  # a run would end before its first step; a horizon of 0 takes none
            raise ValueError(f"dt must be at most the horizon, got dt = {self.dt} and horizon = {self.horizon}")
        if not 0.0 < self.eps_jump < 1.0:
            raise ValueError("eps_jump must lie in (0, 1)")
        if not 0.0 <= self.tol_ext < 1.0 / self.K:  # below 1/K the largest coordinate always survives the clamp
            raise ValueError(f"tol_ext must lie in [0, 1/K) = [0, {1.0 / self.K:.6g}), got {self.tol_ext}")
        self.size_law = TruncatedSizeLaw(self.measure, self.eps_jump)
        if self.dt * self.size_law.total_rate > 0.1:
            warnings.warn(
                f"dt * jump rate = {self.dt * self.size_law.total_rate:.3g} > 0.1: "
                "multiple jumps will often share a step",
                stacklevel=2,
            )


def _advance(cfg: SdeConfig, X: np.ndarray, groups) -> np.ndarray:
    """One Euler step for a block of active rows, projected onto the simplex; returns them column-major.

    ``groups`` holds, for each generator, its slice of the block's rows and its jump events, in row order.  A
    group draws normals for its own rows alone, in the order it would if they were the whole block.  Every other
    operation treats each row on its own.  The jumps come after, from :func:`_jump`.
    """
    Y = np.multiply(cfg.drift(X), cfg.dt, out=np.empty(X.shape[::-1]).T, dtype=float)  # a shared result stays as it was
    Y += X
    if cfg.sigma > 0.0:
        xi = np.empty(X.shape)
        for rng, rows, _ in groups:
            rng.standard_normal(out=xi[rows])
        noise = _diffusion(X.T, xi.T)
        Y += np.multiply(noise, math.sqrt(cfg.sigma * cfg.dt), out=noise).T
    # project onto the simplex; rows that already sum to 1 divide by 1 exactly
    np.maximum(Y, 0.0, out=Y)
    Y /= _type_sum(Y)[:, None]
    return Y


class _JumpEvents:
    """A group's jump events in the order its rows take them, drawn from its generator ``JUMP_CHUNK`` at a time.

    An event is the gap, in steps, from a row's jump to its next one (Exp(1) / (rate dt)), the jump's size and
    the uniform that draws its target.  A chunk draws its gaps, then its sizes, then its uniforms.
    """

    def __init__(self, rng: np.random.Generator, law: TruncatedSizeLaw, dt: float):
        self.rng, self.law, self.rate_dt = rng, law, law.total_rate * dt
        self._queue = np.empty((3, 0))

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` events, as rows gap, size and uniform of a ``(3, n)`` array."""
        if self._queue.shape[1] < n:
            rng, queue = self.rng, [self._queue]
            for _ in range(self._queue.shape[1], n, JUMP_CHUNK):
                gap = rng.standard_exponential(JUMP_CHUNK) / self.rate_dt
                queue.append((gap, self.law.sample(rng, JUMP_CHUNK), rng.random(JUMP_CHUNK)))
            self._queue = np.concatenate(queue, axis=1)
        events, self._queue = self._queue[:, :n], self._queue[:, n:]
        return events


def _jump(Y: np.ndarray, clock: np.ndarray, s: int, groups) -> float:
    """The jumps of the column-major block ``Y`` that fall in step ``s``, in place; returns its earliest clock.

    ``clock`` holds each row's next jump time in steps, and a step takes the jumps at clocks up to ``s``.  Those
    rows jump in rounds shared by the block's ``groups`` (as :func:`_advance` takes them): in each, a group's rows
    take its next events in row order, then one gather, the target drawn from the state before the jump,
    ``(1 - z) x + z e_target``, one scatter; the clock moves on by the event's gap, and a row whose clock is still
    at most ``s`` jumps again in the next round.
    """
    rows, stops = (clock <= s).nonzero()[0], [group.stop for _, group, _ in groups]
    while rows.size:
        ends = rows.searchsorted(stops).tolist()  # one past each group's last row due
        taken = [events.take(b - a) for (_, _, events), a, b in zip(groups, [0, *ends], ends) if b > a]
        gap, z, u = taken[0] if len(taken) == 1 else np.concatenate(taken, axis=1)
        G = Y.T[:, rows]  # one gather and one scatter of contiguous type-major columns per round
        target = _categorical(G, u)
        G *= 1.0 - z
        G[target, np.arange(rows.size)] += z
        Y.T[:, rows] = G
        due = clock[rows] + gap
        clock[rows] = due
        rows = rows[due <= s]
    return clock.min(initial=np.inf)


class BatchSde:
    """Replicates of one configuration advanced in lockstep, in groups that each draw from their own generator.

    ``replicates`` and ``rng`` are equal-length sequences of the groups' widths and generators; the groups take
    consecutive rows.  A group draws what it would draw alone: its rows' first jump clocks at construction, then
    on each step its normals (see :func:`_advance`) and, when its queue runs short, a chunk of jump events (see
    :func:`_jump`).  Drift, noise, projection, jumps and settling treat each row on its own, so a group's rows get
    the same bits whatever groups share its block, provided the drift computes each row from that row alone.  A
    run takes as many steps as its longest group.

    Tracks, per replicate, the time each coordinate hit zero, the fixation
    time and winning type, and whether the extinction clamp fired.  Fixed
    replicates stop consuming random numbers, so runs are reproducible for a
    given stream regardless of how far others have progressed.

    The replicates still active form one compact block: their states, their row indices, the coordinates already
    seen at zero and their next jump times, in row order, with states and seen zeros stored column-major.  A step
    advances the block, jumps it unless the step ends before the block's earliest clock, and settles the rows where
    a coordinate is at or below the clamp without being a zero seen and still at zero, or the row is at a vertex;
    the block shrinks only on steps where a replicate fixes.  ``X`` writes the block back into the full state array
    when read.

    Vertices are treated as absorbing, which is exact for mutation-free
    drifts (drift, diffusion and jumps all vanish there).
    """

    def __init__(self, cfg: SdeConfig, x0, replicates, rng):
        self.cfg = cfg
        x0 = as_frequencies(x0)
        if x0.size != cfg.K:
            raise ValueError(f"state has {x0.size} coordinates, config says {cfg.K}")
        widths, self.rngs = list(replicates), tuple(rng)
        if len(widths) != len(self.rngs):
            raise ValueError(f"{len(widths)} group widths for {len(self.rngs)} generators")
        self._ends = np.cumsum(widths, dtype=np.int64)  # one past each group's last row
        self.R = int(sum(widths))
        self._X = np.tile(x0, (self.R, 1))
        self.steps = 0
        self.extinction_time = np.tile(np.where(x0 == 0.0, 0.0, np.nan), (self.R, 1))
        self.fixation_time = np.full(self.R, np.nan)
        self.winner = np.full(self.R, -1, dtype=np.int64)
        self.clamp_fired = np.zeros(self.R, dtype=bool)
        self._rows = np.arange(self.R)
        # 0 at a coordinate seen at zero, -1 (no state) elsewhere: ``Y == _seen_zero`` marks the seen zeros still at 0
        self._seen_zero = np.asfortranarray(np.where(self._X == 0.0, 0.0, -1.0))
        if cfg.size_law.total_rate > 0.0:
            self._events = tuple(_JumpEvents(rng, cfg.size_law, cfg.dt) for rng in self.rngs)
            self._clock = np.concatenate([events.take(w)[0] for events, w in zip(self._events, widths)])
        else:
            self._events, self._clock = (None,) * len(widths), np.full(self.R, np.inf)
        self._earliest = self._clock.min(initial=np.inf)  # no step before it has a jump
        self._regroup()
        self._settle(np.array(self._X, order="F"))

    @property
    def X(self) -> np.ndarray:
        """States of all replicates, shape ``(R, K)``, as of the last step.

        A read-only view of the full state array, not a copy: a row that fixes in a later ``step`` is written
        into it then, and the active rows are written when ``X`` is read again.  Copy it to keep the states.
        """
        self._X[self._rows] = self._Y
        snapshot = self._X.view()
        snapshot.flags.writeable = False
        return snapshot

    @property
    def t(self) -> float:
        return self.steps * self.cfg.dt

    def _regroup(self) -> None:
        """Each group with active rows, as its generator, its slice of the block and its jump events."""
        stops = np.searchsorted(self._rows, self._ends).tolist()
        bounds = zip(self.rngs, self._events, [0, *stops], stops)
        self._groups = [(rng, slice(a, b), events) for rng, events, a, b in bounds if b > a]

    def _settle(self, Y: np.ndarray) -> None:
        """Clamp the advanced block, record its boundary events, drop fixed rows.

        Only the rows with a coordinate due are touched: one at or below the clamp that is not a zero already
        seen and still at zero (a drift with mutation may bring a seen zero back into the clamp's range), or one
        at 1, a vertex.
        """
        self._Y, tol = Y, self.cfg.tol_ext
        due = np.less_equal(Y, tol) != (Y == self._seen_zero)  # a seen zero still at zero is at or below tol
        due |= Y == 1.0
        if not np.count_nonzero(due):
            return
        r = np.flatnonzero(np.logical_or.reduce(due, axis=1))
        rows, S = self._rows[r], Y[r]
        small = (S > 0.0) & (S <= tol)
        hit = np.logical_or.reduce(small, axis=1)
        if np.count_nonzero(hit):
            S[small] = 0.0
            S[hit] /= _type_sum(S[hit])[:, None]
            self.clamp_fired[rows[hit]] = True
        i, k = np.nonzero((S == 0.0) > (self._seen_zero[r] == 0.0))  # newly zero
        self.extinction_time[rows[i], k] = self.t
        self._seen_zero[r[i], k] = 0.0
        Y[r] = S
        done = np.logical_or.reduce(S == 1.0, axis=1)
        if np.count_nonzero(done):
            fixed = rows[done]
            self._X[fixed] = S[done]
            self.winner[fixed] = S[done].argmax(axis=1)
            self.fixation_time[fixed] = self.t
            keep = np.ones(len(Y), dtype=bool)
            keep[r[done]] = False
            self._rows, self._clock = self._rows[keep], self._clock[keep]
            self._Y, self._seen_zero = (np.compress(keep, A.T, axis=1).T for A in (Y, self._seen_zero))
            self._regroup()

    def step(self) -> None:
        self.steps += 1
        if self._rows.size:
            Y = _advance(self.cfg, self._Y, self._groups)
            if self._earliest <= self.steps:
                self._earliest = _jump(Y, self._clock, self.steps, self._groups)
            self._settle(Y)

    def run_until(self, t: float) -> int:
        """Step to time ``t``, or until every replicate is fixed; returns the unfixed count."""
        limit = int(round(t / self.cfg.dt))
        while self._rows.size and self.steps < limit:
            self.step()
        return self._rows.size


@dataclass(frozen=True)
class BoundaryEvents:
    """Per-replicate boundary events of a run, as :class:`BatchSde` records them."""

    winner: np.ndarray  # the fixed type, -1 while unfixed
    extinction_time: np.ndarray  # (R, K): when each coordinate hit zero, NaN if it never did
    fixation_time: np.ndarray  # NaN while unfixed
    clamp_fired: np.ndarray


def simulate_sde(
    cfg: SdeConfig, x0, replicates: int, times, stream: RngStream, threads: int = 1
) -> tuple[np.ndarray, BoundaryEvents]:
    """Integrate ``replicates`` replicates in batches on ``threads`` threads, recording them at each of ``times``.

    Batch b draws from ``stream.derive(LANE_SDE, b)``.  A thread steps its run of batches as the groups of one
    :class:`BatchSde`, run on to the horizon or until every replicate is fixed, and writes their rows of the
    states, shape ``(len(times), replicates, K)``, and of the :class:`BoundaryEvents` of that run; returns both.
    A record after a replicate fixed repeats its vertex.  ``times`` must be nondecreasing and lie within the run
    as step indices, ``0 <= round(t / dt) <= round(horizon / dt)``, so a grid's last point may round to it.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    steps = np.rint(np.divide(times, cfg.dt))
    if np.any(np.diff(times) < 0) or np.any((steps < 0) | (steps > round(cfg.horizon / cfg.dt))):
        raise ValueError(f"record times must be nondecreasing and lie within the run, [0, horizon = {cfg.horizon}]")
    states = np.empty((len(times), replicates, cfg.K))
    events = BoundaryEvents(
        np.empty(replicates, np.int64), np.empty((replicates, cfg.K)), np.empty(replicates), np.empty(replicates, bool)
    )

    def run(groups):
        for block in (groups[first:first + LOCKSTEP] for first in range(0, len(groups), LOCKSTEP)):
            rows = slice(block[0][0].start, block[-1][0].stop)
            batch = BatchSde(cfg, x0, [b.stop - b.start for b, _ in block], [rng for _, rng in block])
            for j, t in enumerate(times):
                batch.run_until(t)
                states[j, rows] = batch.X
            batch.run_until(cfg.horizon)
            for name, column in vars(events).items():
                column[rows] = getattr(batch, name)

    map_batches(run, replicates, stream, LANE_SDE, threads)
    return states, events
