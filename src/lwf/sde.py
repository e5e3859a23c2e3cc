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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .batches import LANE_SDE, map_batches
from .core import _categorical, as_frequencies
from .measures import LambdaMeasure, TruncatedSizeLaw, ZeroMeasure
from .rng import RngStream

_TINY = 1e-14


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

    ``v = sqrt(x) * xi`` less ``x`` times the sum of ``v`` over types, taken by row additions in type order,
    which give the same bytes on either memory layout.  A zero coordinate and a vertex get exactly zero noise.
    """
    v = np.sqrt(x)
    v *= xi
    total = v[0] + v[1]
    for row in v[2:]:
        total += row
    v -= x * total
    return v


@dataclass
class SdeConfig:
    """Parameters of one integration run.

    ``drift`` is any callable mapping ``(..., K)`` states to drift vectors
    (a :class:`~lwf.selection.DriftFunction` fits).  ``tol_ext`` is the
    extinction clamp: coordinates at or below it are set to zero with the
    rest renormalized (0 disables everything except exact zeros produced by
    the projection).
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
        if not 0.0 < self.eps_jump < 1.0:
            raise ValueError("eps_jump must lie in (0, 1)")
        if not 0.0 <= self.tol_ext < math.inf:
            raise ValueError(f"tol_ext must be nonnegative and finite, got {self.tol_ext}")
        if self.drift is None:
            self.drift = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        if self.measure is None:
            self.measure = ZeroMeasure()
        self.size_law = TruncatedSizeLaw(self.measure, self.eps_jump)
        if self.dt * self.size_law.total_rate > 0.1:
            warnings.warn(
                f"dt * jump rate = {self.dt * self.size_law.total_rate:.3g} > 0.1: "
                "multiple jumps will often share a step",
                stacklevel=2,
            )


def _advance(cfg: SdeConfig, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Euler step plus the jumps binned into it, for active rows; returns them column-major."""
    Y = np.multiply(cfg.drift(X), cfg.dt, out=np.empty(X.shape[::-1]).T, dtype=float)  # a shared result stays as it was
    Y += X
    if cfg.sigma > 0.0:
        noise = _diffusion(X.T, rng.standard_normal(X.shape).T)
        Y += np.multiply(noise, math.sqrt(cfg.sigma * cfg.dt), out=noise).T
    # project onto the simplex; rows that already sum to 1 divide by 1 exactly
    np.maximum(Y, 0.0, out=Y)
    Y /= np.add.reduce(Y, axis=1, keepdims=True)
    if cfg.size_law.total_rate > 0.0:
        n_jumps = rng.poisson(cfg.size_law.total_rate * cfg.dt, X.shape[0])
        rows, round_ = n_jumps.nonzero()[0], 1
        while rows.size:  # round r jumps the rows with at least r jumps, in row order
            z = cfg.size_law.sample(rng, rows.size)
            G = Y.T[:, rows]  # one gather and one scatter of contiguous type-major columns per round
            target = _categorical(G, rng)
            G *= 1.0 - z
            G[target, np.arange(rows.size)] += z
            Y.T[:, rows] = G
            round_ += 1
            rows = rows[n_jumps[rows] >= round_]
    return Y


class BatchSde:
    """Replicates of one configuration advanced in lockstep.

    Tracks, per replicate, the time each coordinate hit zero, the fixation
    time and winning type, and whether the extinction clamp fired.  Fixed
    replicates stop consuming random numbers, so runs are reproducible for a
    given stream regardless of how far others have progressed.

    The replicates still active form one compact block: their states, their
    row indices and the coordinates already seen at zero, in row order, with
    states and seen flags stored column-major.  A step advances the block and
    settles it only if a coordinate is at or below the clamp without being a
    zero already seen, or a row is at a vertex; the block shrinks only on
    steps where a replicate fixes.  ``X`` writes the block back into the full
    state array when read.

    Vertices are treated as absorbing, which is exact for mutation-free
    drifts (drift, diffusion and jumps all vanish there).
    """

    def __init__(self, cfg: SdeConfig, x0, replicates: int, rng: np.random.Generator):
        self.cfg = cfg
        x0 = as_frequencies(x0)
        if x0.size != cfg.K:
            raise ValueError(f"state has {x0.size} coordinates, config says {cfg.K}")
        self.rng = rng
        self.R = int(replicates)
        self._X = np.tile(x0, (self.R, 1))
        self.steps = 0
        self.extinction_time = np.tile(np.where(x0 == 0.0, 0.0, np.nan), (self.R, 1))
        self.fixation_time = np.full(self.R, np.nan)
        self.winner = np.full(self.R, -1, dtype=np.int64)
        self.clamp_fired = np.zeros(self.R, dtype=bool)
        self._rows = np.arange(self.R)
        self._seen = np.asfortranarray(self._X == 0.0)
        self._settle(np.array(self._X, order="F"))

    @property
    def X(self) -> np.ndarray:
        """States of all replicates, shape ``(R, K)``, as of the last step.

        A read-only snapshot: the next ``step`` does not update it, so read
        ``X`` again after stepping.
        """
        self._X[self._rows] = self._Y
        snapshot = self._X.view()
        snapshot.flags.writeable = False
        return snapshot

    @property
    def t(self) -> float:
        return self.steps * self.cfg.dt

    def _settle(self, Y: np.ndarray) -> None:
        """Clamp the advanced block, record its boundary events, drop fixed rows."""
        self._Y, tol = Y, self.cfg.tol_ext
        # the test also catches a seen zero brought back to (0, tol] by a drift with mutation
        if not (np.count_nonzero((Y <= tol) > (self._seen & (Y == 0.0))) or np.count_nonzero(Y == 1.0)):
            return
        small = (Y > 0.0) & (Y <= tol)
        hit = small.any(axis=1)
        Y[small] = 0.0
        Y[hit] /= Y[hit].sum(axis=1, keepdims=True)
        self.clamp_fired[self._rows[hit]] = True
        newly_zero = (Y == 0.0) & ~self._seen
        r, i = np.nonzero(newly_zero)
        self.extinction_time[self._rows[r], i] = self.t
        self._seen |= newly_zero
        at_vertex = Y == 1.0
        if at_vertex.any():
            done = at_vertex.any(axis=1)
            fixed = self._rows[done]
            self._X[fixed] = Y[done]
            self.winner[fixed] = Y[done].argmax(axis=1)
            self.fixation_time[fixed] = self.t
            self._rows = self._rows[~done]
            self._Y, self._seen = (np.compress(~done, A.T, axis=1).T for A in (Y, self._seen))

    def step(self) -> None:
        self.steps += 1
        if self._rows.size:
            self._settle(_advance(self.cfg, self._Y, self.rng))

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

    Batch b is one :class:`BatchSde` on ``stream.derive(LANE_SDE, b)``, run on to the horizon or until every
    replicate is fixed.  It writes its rows of the states, shape ``(len(times), replicates, K)``, and of the
    :class:`BoundaryEvents` of that run; returns both.  A record after a replicate fixed repeats its vertex.
    ``times`` must be nondecreasing and lie within the run as step indices, ``0 <= round(t / dt) <=
    round(horizon / dt)``, so a grid's last point may round to it.
    """
    steps = np.rint(np.divide(times, cfg.dt))
    if np.any(np.diff(times) < 0) or np.any((steps < 0) | (steps > round(cfg.horizon / cfg.dt))):
        raise ValueError(f"record times must be nondecreasing and lie within the run, [0, horizon = {cfg.horizon}]")
    states = np.empty((len(times), replicates, cfg.K))
    events = BoundaryEvents(
        np.empty(replicates, np.int64), np.empty((replicates, cfg.K)), np.empty(replicates), np.empty(replicates, bool)
    )

    def run(rows, rng):
        batch = BatchSde(cfg, x0, rows.stop - rows.start, rng)
        for j, t in enumerate(times):
            batch.run_until(t)
            states[j, rows] = batch.X
        batch.run_until(cfg.horizon)
        for name, column in vars(events).items():
            column[rows] = getattr(batch, name)

    map_batches(run, replicates, stream, LANE_SDE, threads)
    return states, events
