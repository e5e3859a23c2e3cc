import copy
import dataclasses
import math

import numpy as np
import pytest

from lwf import batches, sde
from lwf.batches import BATCH, LANE_SDE
from lwf.bernstein import PolynomialMap
from lwf.core import random_interior_points
from lwf.measures import BetaLaw, FiniteAtoms, PointMass, ZeroMeasure
from lwf.rng import RngStream
from lwf.sde import BatchSde, BoundaryEvents, SdeConfig, _advance, _diffusion, _jump, simulate_sde, zeta
from lwf.selection import DriftFunction


def _diffusion_reference(x, xi):
    """``B(x) @ xi`` per row, ``B(x) = diag(sqrt(x)) - x sqrt(x)^T``, each product in its own temporary and the
    square root of a clamped state: the oracle for ``_diffusion``."""
    x, xi = x.T, xi.T
    v = np.sqrt(np.maximum(x, 0.0)) * xi
    total = sum(v[1:], v[0])  # in type order
    return (v - x * total).T


def _one_group(cfg, m, rng):
    """The groups and first jump clocks of a block of ``m`` rows that is one group, drawing from ``rng``."""
    if cfg.size_law.total_rate == 0.0:
        return [(rng, slice(0, m), None)], np.full(m, np.inf)
    events = sde._JumpEvents(rng, cfg.size_law, cfg.dt)
    return [(rng, slice(0, m), events)], events.take(m)[0].copy()


def _step(cfg, X, rng):
    """The first step of a block that is one group, drawing from ``rng``: its first clocks, ``_advance``, ``_jump``."""
    groups, clock = _one_group(cfg, len(X), rng)
    Y = _advance(cfg, X, groups)
    _jump(Y, clock, 1, groups)
    return Y


def root_matrix(x):
    """The root ``diag(sqrt(x)) - x sqrt(x)^T`` per row of ``x``, as full ``(K, K)`` matrices."""
    s = np.sqrt(x)
    return s[..., :, None] * np.eye(x.shape[-1]) - x[..., :, None] * s[..., None, :]


def sigma_matrix(x):
    x = np.asarray(x)
    return x[:, None] * (np.eye(x.size) - x[None, :])


def test_zeta_simple_examples():
    z = zeta(np.array([0.5, 0.5]))
    assert np.allclose(z, [[0.5, 0.0], [-0.5, 0.0]])
    assert np.allclose(z @ z.T, sigma_matrix([0.5, 0.5]))

    assert np.allclose(zeta(np.array([1.0, 0.0])), 0.0)
    assert np.allclose(zeta(np.array([0.0, 0.0, 1.0])), 0.0)

    x = np.array([0.2, 0.3, 0.5])
    z = zeta(x)
    assert np.allclose(np.triu(z, 1), 0.0)
    assert np.allclose(z @ z.T, sigma_matrix(x), atol=1e-12)


def test_zeta_factorization_random_and_near_boundary():
    rng = RngStream(1).generator()
    noise_rng = RngStream(2).generator()
    for K in (2, 3, 4, 6):
        pts = rng.dirichlet(np.ones(K), size=2000)
        # push some points very close to the boundary
        squeezed = pts.copy()
        squeezed[: K] = np.eye(K) * (1.0 - 1e-8 * (K - 1)) + 1e-8 * (1 - np.eye(K))
        Z = zeta(squeezed)
        outer = np.einsum("rij,rkj->rik", Z, Z)
        target = squeezed[:, :, None] * (np.eye(K) - squeezed[:, None, :])
        assert np.abs(outer - target).max() < 1e-8

        # the integrator draws its noise through the root diag(sqrt x) - x sqrt(x)^T in O(K); add exact vertices,
        # zero coordinates and coordinates of 1e-15
        zeros, tiny = pts[:200].copy(), pts[200:400].copy()
        hit = np.arange(200) % K
        zeros[np.arange(200), hit] = 0.0
        tiny[np.arange(200), hit] = 1e-15
        edge = np.concatenate([squeezed, np.eye(K), zeros, tiny])
        edge /= edge.sum(axis=1, keepdims=True)
        xi = noise_rng.standard_normal(edge.shape)
        direct = np.einsum("rij,rj->ri", root_matrix(edge), xi)
        assert np.abs(_diffusion(edge.T, xi.T).T - direct).max() < 1e-14

        # the noise has the reference's bytes, on a type-major block of either layout
        fused = _diffusion(edge.T, xi.T)
        assert fused.tobytes() == _diffusion(np.ascontiguousarray(edge.T), np.ascontiguousarray(xi.T)).tobytes()
        assert fused.T.tobytes() == _diffusion_reference(edge, xi).tobytes()
        # with -0.0 coordinates only the sign of some zeros differs, since the reference clamps -0.0 to +0.0 ...
        signed = np.where(edge == 0.0, -0.0, edge)
        fused, reference = _diffusion(signed.T, xi.T).T, _diffusion_reference(signed, xi)
        assert np.array_equal(fused, reference) and fused.tobytes() != reference.tobytes()
        # ... and the projection maps every zero to +0.0, so a step gives the reference's bytes
        cfg = SdeConfig(K=K, drift=DriftFunction.negfreq(1.5, K), sigma=1.0, measure=ZeroMeasure(), dt=5e-3, horizon=1.0)
        for block in (edge, signed):
            step = _step(cfg, np.asfortranarray(block), RngStream(70).generator())
            want, _ = _advance_row_major(cfg, block.copy(), RngStream(70).generator())
            assert np.ascontiguousarray(step).tobytes() == want.tobytes()


def _root_columns(x):
    """``B(x)`` per row of ``x``, read off ``_diffusion`` column by column, shape ``(R, K, K)``."""
    K = x.shape[-1]
    return np.stack([_diffusion(x.T, np.broadcast_to(np.eye(K)[:, [j]], x.T.shape)).T for j in range(K)], axis=-1)


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_the_noise_root_factorizes_the_resampling_covariance(K):
    # criterion 01's points, near-boundary states included: its stream draws them for K = 2, 3, ... in turn
    rng = RngStream(101).generator()
    for k in range(2, K + 1):
        pts = rng.dirichlet(np.ones(k), size=10_000)
    pts[:K] = np.eye(K) * (1.0 - 1e-8 * (K - 1)) + 1e-8 * (1.0 - np.eye(K))
    B = _root_columns(pts)
    outer = np.einsum("rij,rkj->rik", B, B)
    target = pts[:, :, None] * (np.eye(K) - pts[:, None, :])
    assert np.abs(outer - target).max() < 1e-8


@pytest.mark.parametrize("K", [2, 3, 6])
def test_the_noise_is_exactly_zero_at_zero_coordinates_and_vertices(K):
    pts = RngStream(80 + K).generator().dirichlet(np.ones(K), size=300)
    hit = np.arange(200) % K
    pts[np.arange(200), hit] = 0.0
    if K > 2:  # two zeros in a row
        pts[np.arange(100), (hit[:100] + 1) % K] = 0.0
    pts[200:200 + K] = np.eye(K)
    pts /= pts.sum(axis=1, keepdims=True)
    xi = RngStream(90).generator().standard_normal(pts.shape)
    noise = _diffusion(pts.T, xi.T).T
    assert np.all(noise[pts == 0.0] == 0.0)
    assert np.all(noise[200:200 + K] == 0.0)
    assert np.all(noise[250:] != 0.0)  # interior states


@pytest.mark.parametrize("K", [2, 3, 6, 12])
def test_the_noise_sums_to_zero_over_types(K):
    # on the face sum(B(x) xi) = (1 - sum(x)) sum(sqrt(x) xi): zero up to rounding
    pts = RngStream(100 + K).generator().dirichlet(np.full(K, 0.5), size=5000)
    pts[:100, 0] = 1e-15
    pts /= pts.sum(axis=1, keepdims=True)
    xi = RngStream(110).generator().standard_normal(pts.shape)
    noise = _diffusion(pts.T, xi.T).T
    scale = np.abs(np.sqrt(pts) * xi).sum(axis=1)
    assert np.all(np.abs(noise.sum(axis=1)) <= 1e-15 * scale)


@pytest.mark.parametrize("K", [2, 3, 6])
def test_advance_gives_the_same_bytes_on_a_row_major_and_a_column_major_block(K):
    # the integrator keeps its block column-major; any layout must step alike
    pts = RngStream(40 + K).generator().dirichlet(np.ones(K), size=300)
    hit = np.arange(100) % K
    pts[np.arange(100), hit] = 0.0
    pts[np.arange(100, 200), hit] = 1e-15
    pts[200:200 + K] = np.eye(K)
    pts /= pts.sum(axis=1, keepdims=True)
    column_major = np.asfortranarray(pts)
    assert pts.flags.c_contiguous and not column_major.flags.c_contiguous
    drift = DriftFunction.negfreq(1.5, K)
    for sigma, measure in ((1.0, ZeroMeasure()), (0.0, PointMass(0.5, 1.0)), (0.7, FiniteAtoms([(0.2, 0.5), (0.9, 2.0)]))):
        cfg = SdeConfig(K=K, drift=drift, sigma=sigma, measure=measure, dt=5e-3, horizon=1.0)
        rows = _step(cfg, pts, RngStream(50).generator())
        again = _step(cfg, column_major, RngStream(50).generator())
        assert np.ascontiguousarray(rows).tobytes() == np.ascontiguousarray(again).tobytes()


class _EventList:
    """A group's jump events handed out one at a time, each chunk drawn as its gaps, sizes and uniforms in turn: the
    oracle of ``sde._JumpEvents``."""

    def __init__(self, cfg, rng):
        self.cfg, self.rng, self.events = cfg, rng, []

    def pop(self):
        if not self.events:
            n, law = sde.JUMP_CHUNK, self.cfg.size_law
            gaps = self.rng.standard_exponential(n) / (law.total_rate * self.cfg.dt)
            self.events = list(zip(gaps, law.sample(self.rng, n), self.rng.random(n)))[::-1]
        return self.events.pop()


def _advance_row_major(cfg, X, rng, clock=(), s=1, events=None):
    """Step ``s`` of a row-major block, one jump at a time, rows with ``clock[r] <= s`` jumping in rounds and in row
    order, each on the next of ``events``: the oracle of ``_advance`` and ``_jump``.  Returns the rounds run."""
    Y = X + cfg.dt * np.asarray(cfg.drift(X), dtype=float)
    if cfg.sigma > 0.0:
        Y += math.sqrt(cfg.sigma * cfg.dt) * _diffusion_reference(X, rng.standard_normal(X.shape))
    np.maximum(Y, 0.0, out=Y)
    Y /= np.add.reduce(Y, axis=1, keepdims=True)
    ringing, rounds = [r for r in range(len(clock)) if clock[r] <= s], 0
    while ringing:
        rounds += 1
        for r in ringing:
            gap, z, u = events.pop()
            cdf = np.cumsum(Y[r])
            target = min(int((cdf < u * cdf[-1]).sum()), cfg.K - 1)
            Y[r] *= 1.0 - z
            Y[r, target] += z
            clock[r] += gap
        ringing = [r for r in ringing if clock[r] <= s]
    return Y, rounds


@pytest.mark.parametrize("K", [3, 6])
def test_jump_rounds_give_the_same_bytes_as_the_row_major_formulation(K):
    # about 1.6 jumps per row and step: many rows jump twice or more, and 200 rows take two or more chunks of
    # events a step, so refills fall inside rounds and carry over to the next step
    pts = RngStream(60 + K).generator().dirichlet(np.ones(K), size=200)
    pts[:K] = np.eye(K)
    pts[K:2 * K, 0] = 0.0
    pts /= pts.sum(axis=1, keepdims=True)
    for sigma, measure in ((0.0, PointMass(0.5, 1.0)), (0.6, FiniteAtoms([(0.2, 0.06), (0.5, 0.2), (0.9, 0.5)]))):
        with pytest.warns(UserWarning, match="multiple jumps"):
            cfg = SdeConfig(K=K, drift=DriftFunction.negfreq(1.5, K), sigma=sigma, measure=measure, dt=0.4, horizon=1.0)
        rng, ref = RngStream(61).generator(), RngStream(61).generator()
        groups, clock = _one_group(cfg, len(pts), rng)
        events = _EventList(cfg, ref)
        ref_clock = [events.pop()[0] for _ in pts]
        X = np.asfortranarray(pts)
        for s in (1, 2, 3):
            Y = _advance(cfg, X, groups)
            earliest = _jump(Y, clock, s, groups)
            want, rounds = _advance_row_major(cfg, np.ascontiguousarray(X), ref, ref_clock, s, events)
            assert rounds >= 3
            assert np.ascontiguousarray(Y).tobytes() == want.tobytes()
            assert clock.tolist() == ref_clock and earliest == min(ref_clock) > s
            assert rng.random() == ref.random()
            X = Y


def test_jump_clocks_give_poisson_counts_per_row_and_step(monkeypatch):
    # a neutral drift and sigma = 0, so only jumps move a row, at rate dt = 0.5: a fifth of the steps that jump
    # carry two jumps or more, and 1,000 rows take about two chunks of events a step
    lam, R, steps = 0.5, 1000, 200
    with pytest.warns(UserWarning, match="multiple jumps"):
        cfg = SdeConfig(K=3, drift=DriftFunction.neutral(3), sigma=0.0, measure=PointMass(0.2, 0.04), dt=0.5,
                        horizon=steps * 0.5)
    assert cfg.size_law.total_rate * cfg.dt == pytest.approx(lam, rel=1e-12)
    counts = np.zeros((steps, R), dtype=np.int64)
    batch = BatchSde(cfg, [0.2, 0.3, 0.5], [R], [RngStream(23).generator()])
    events = batch._events[0]
    take = events.take

    def counted(n):  # one call per round, taken by the rows whose clocks are still in the step: each jumps once more
        ringing = batch._clock <= batch.steps
        assert np.count_nonzero(ringing) == n
        counts[batch.steps - 1, ringing] += 1
        return take(n)

    monkeypatch.setattr(events, "take", counted)
    batch.run_until(cfg.horizon)
    assert batch.steps == steps and np.all(batch.winner < 0)  # every row stepped throughout
    # each count of jumps in a row's step within 4 SE of its Poisson(0.5) frequency, with 5 or more pooled
    n = counts.size
    pmf = [math.exp(-lam) * lam**k / math.factorial(k) for k in range(5)]
    for k, p in enumerate([*pmf, 1.0 - sum(pmf)]):
        seen = np.count_nonzero(counts == k) if k < 5 else np.count_nonzero(counts >= 5)
        assert abs(seen - n * p) <= 4.0 * math.sqrt(n * p * (1.0 - p)), (k, seen, n * p)
    # a row's counts on consecutive steps uncorrelated, within 4 SE of zero
    assert abs(np.corrcoef(counts[:-1].ravel(), counts[1:].ravel())[0, 1]) <= 4.0 / math.sqrt(n - R)


def test_a_drift_returning_one_cached_array_is_never_scaled_in_place():
    # any callable may serve as the drift, and its result may be shared: the step must leave it as it was
    X = np.array([[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]])
    mu = np.array([[0.5, -0.25, -0.25], [-0.25, 0.5, -0.25]])  # dyadic and zero-sum: X + dt * mu is exact, rows sum to 1
    cached = mu.copy()
    cfg = SdeConfig(K=3, drift=lambda x: cached, sigma=0.0, measure=ZeroMeasure(), dt=0.125, horizon=1.0)
    rng = RngStream(19).generator()
    for _ in range(3):
        Y = _step(cfg, np.asfortranarray(X), rng)
        assert np.ascontiguousarray(Y).tobytes() == (X + 0.125 * mu).tobytes()
        assert cached.tobytes() == mu.tobytes()


def test_frozen_dynamics_identity():
    cfg = SdeConfig(K=3, drift=DriftFunction.neutral(3), sigma=0.0, measure=ZeroMeasure(), dt=0.01, horizon=1.0)
    X = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0]])
    Y = _step(cfg, X, RngStream(2).generator())
    assert np.array_equal(X, Y)


def test_jump_is_exact_convex_combination():
    # pure-jump dynamics, rate tuned so steps rarely carry two jumps
    cfg = SdeConfig(K=3, drift=DriftFunction.neutral(3), sigma=0.0, measure=PointMass(0.5, 1.25), dt=0.01, horizon=1.0)
    rng = RngStream(3).generator()
    x = np.array([0.5, 0.25, 0.25])
    single, jumped = 0, 0
    for y in _step(cfg, np.tile(x, (2000, 1)), rng):
        if np.array_equal(y, x):
            continue
        jumped += 1
        assert y.sum() == pytest.approx(1.0, abs=1e-15)
        # a single size-1/2 jump halves everything then adds 1/2 to one type
        residual = (y - x / 2) * 2
        if any(np.allclose(residual, np.eye(3)[i], atol=1e-14) for i in range(3)):
            single += 1
    assert jumped > 20
    assert single / jumped > 0.9  # stacked double jumps are rare at this rate


def test_dt_jump_rate_warning():
    with pytest.warns(UserWarning):
        SdeConfig(K=2, drift=DriftFunction.neutral(2), sigma=0.0, measure=PointMass(0.1, 10.0), dt=0.01, horizon=1.0)


def test_neutral_martingale_and_variance():
    sigma, T, R = 1.0, 0.5, 20_000
    cfg = SdeConfig(K=2, drift=DriftFunction.neutral(2), sigma=sigma, measure=ZeroMeasure(), dt=1e-3, horizon=T)
    batch = BatchSde(cfg, [0.3, 0.7], [R], [RngStream(4).generator()])
    batch.run_until(T)
    vals = batch.X[:, 0]
    assert abs(vals.mean() - 0.3) <= 4.5 * vals.std() / math.sqrt(R)
    # Var X_T = x(1-x)(1 - exp(-sigma T))
    target = 0.3 * 0.7 * (1.0 - math.exp(-sigma * T))
    assert vals.var() == pytest.approx(target, rel=0.05)


def test_every_recorded_state_is_on_the_simplex():
    cfg = SdeConfig(
        K=3,
        drift=DriftFunction.rps(1.0),
        sigma=0.5,
        measure=FiniteAtoms([(0.2, 0.5), (0.6, 0.5)]),
        dt=1e-3,
        horizon=1.0,
    )
    states, _ = simulate_sde(cfg, [0.5, 0.25, 0.25], 4, np.arange(0, 1001, 10) * cfg.dt, RngStream(5))
    assert states.shape == (101, 4, 3)
    assert states.min() >= 0.0
    assert np.allclose(states.sum(axis=2), 1.0, atol=1e-12)


def test_vertex_start_stays_fixed():
    cfg = SdeConfig(K=3, drift=DriftFunction.rps(1.0), sigma=1.0, measure=PointMass(0.5, 1.0), dt=1e-3, horizon=0.2)
    states, events = simulate_sde(cfg, [0.0, 1.0, 0.0], 2, np.arange(201) * cfg.dt, RngStream(6))
    assert states.shape == (201, 2, 3) and np.all(states[:, :, 1] == 1.0)
    assert np.all(events.winner == 1) and np.all(events.fixation_time == 0.0)


def test_simulate_sde_rejects_record_times_that_go_back():
    cfg = SdeConfig(K=2, drift=DriftFunction.neutral(2), sigma=1.0, measure=ZeroMeasure(), dt=1e-2, horizon=1.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        simulate_sde(cfg, [0.5, 0.5], 2, [0.5, 0.2], RngStream(3))


def test_simulate_sde_rejects_record_times_outside_the_run():
    cfg = SdeConfig(K=2, drift=DriftFunction.neutral(2), sigma=1.0, measure=ZeroMeasure(), dt=0.1, horizon=0.3)
    for times in ([0.1, 5.0], [0.4], [-1.0, 0.2], [-0.1]):
        with pytest.raises(ValueError, match="within the run"):
            simulate_sde(cfg, [0.5, 0.5], 4, times, RngStream(3))
    # times are compared as step indices: 3 * 0.1 rounds to the last step, though it exceeds the horizon 0.3
    times = np.arange(4) * cfg.dt
    assert times[-1] > cfg.horizon
    states, events = simulate_sde(cfg, [0.5, 0.5], 4, times, RngStream(3))
    batch = BatchSde(cfg, [0.5, 0.5], [4], [RngStream(3).derive(LANE_SDE, 0).generator()])
    batch.run_until(cfg.horizon)  # the run that simulate_sde records
    assert states.shape == (4, 4, 2) and batch.steps <= 3
    assert np.array_equal(states[-1], batch.X) and np.array_equal(events.winner, batch.winner)


def test_cyclic_relabelling_symmetry():
    # relabelling 1 -> 2 -> 3 -> 1 of the start state relabels the trajectory
    # law; with a common seed the two runs agree after relabelling because
    # the integrator treats coordinates symmetrically up to the noise basis.
    cfg = SdeConfig(K=3, drift=DriftFunction.rps(1.0), sigma=0.0, measure=ZeroMeasure(), dt=1e-3, horizon=1.0)
    times = np.arange(0, 1001, 100) * cfg.dt
    base, _ = simulate_sde(cfg, [0.5, 0.25, 0.25], 1, times, RngStream(7))
    rolled, _ = simulate_sde(cfg, [0.25, 0.5, 0.25], 1, times, RngStream(7))
    assert np.allclose(np.roll(base, 1, axis=2), rolled, atol=1e-12)
    assert np.allclose(base.sum(axis=2), 1.0, atol=1e-12)


def test_extinction_clamp_records_events():
    cfg = SdeConfig(
        K=3, drift=DriftFunction.neutral(3), sigma=1.0, measure=ZeroMeasure(), dt=1e-3, horizon=100.0, tol_ext=1e-6
    )
    batch = BatchSde(cfg, [0.2, 0.3, 0.5], [200], [RngStream(8).generator()])
    unfixed = batch.run_until(100.0)
    assert unfixed == 0
    assert np.all(batch.winner >= 0)
    for r in range(200):
        losses = np.delete(batch.extinction_time[r], batch.winner[r])
        assert np.all(np.isfinite(losses))
        assert math.isnan(batch.extinction_time[r][batch.winner[r]])
        assert batch.fixation_time[r] == pytest.approx(np.max(losses))


@pytest.mark.parametrize("K", [2, 3, 6])
def test_a_clamp_below_one_over_k_always_keeps_a_coordinate(K):
    # at 1/K and above the clamp could zero every coordinate of the uniform point and divide by a zero sum
    kwargs = dict(K=K, drift=DriftFunction.neutral(K), sigma=1.0, measure=ZeroMeasure(), dt=1e-2, horizon=0.5)
    with pytest.raises(ValueError, match=r"tol_ext must lie in \[0, 1/K\)"):
        SdeConfig(**kwargs, tol_ext=1.0 / K)
    cfg = SdeConfig(**kwargs, tol_ext=np.nextafter(1.0 / K, 0.0))
    states = simulate_sde(cfg, np.full(K, 1.0 / K), 50, [0.0, 0.5], RngStream(2))[0]
    assert not np.isnan(states).any() and np.allclose(states.sum(axis=2), 1.0)


def test_simulate_sde_stops_at_fixation_with_the_records_of_stepping_through():
    cfg = SdeConfig(
        K=3, drift=DriftFunction.rps(1.0), sigma=1.0, measure=PointMass(0.5, 1.0), dt=1e-3, horizon=5.0, tol_ext=1e-6
    )
    R, record_every = 6, 7  # 7 does not divide the 5000 steps
    recorded, run = simulate_sde(cfg, [0.2, 0.3, 0.5], R, np.arange(0, 5001, record_every) * cfg.dt, RngStream(11))
    fixed = run.fixation_time[run.winner >= 0]
    assert np.unique(fixed).size >= 3  # rows fix at different steps ...
    assert fixed.min() < cfg.horizon - 1.0  # ... and some sit absorbed for long stretches

    batch = BatchSde(cfg, [0.2, 0.3, 0.5], [R], [RngStream(11).derive(LANE_SDE, 0).generator()])
    states = [batch.X.copy()]
    for s in range(1, int(round(cfg.horizon / cfg.dt)) + 1):
        batch.step()
        if s % record_every == 0:
            states.append(batch.X.copy())
    assert np.array_equal(recorded, np.array(states))
    assert np.array_equal(run.extinction_time, batch.extinction_time, equal_nan=True)
    assert np.array_equal(run.fixation_time, batch.fixation_time, equal_nan=True)
    assert np.array_equal(run.winner, batch.winner)
    assert np.array_equal(run.clamp_fired, batch.clamp_fired)


def _lone_batches(cfg, x0, widths, stream, times):
    """Each batch a ``BatchSde`` of its own on its own stream: the records and events ``simulate_sde`` must give."""
    records, runs = [], []
    for b, width in enumerate(widths):
        batch = BatchSde(cfg, x0, [width], [stream.derive(LANE_SDE, b).generator()])
        block = []
        for t in times:
            batch.run_until(t)
            block.append(batch.X.copy())
        batch.run_until(cfg.horizon)
        records.append(np.array(block))
        runs.append(batch)
    events = {f.name: np.concatenate([getattr(run, f.name) for run in runs]) for f in dataclasses.fields(BoundaryEvents)}
    return np.concatenate(records, axis=1), events


def _assert_same_bytes(got, want):
    states, events = got
    assert states.tobytes() == want[0].tobytes()
    for name, column in want[1].items():
        assert getattr(events, name).tobytes() == column.tobytes(), name


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_simulate_sde_is_its_batches_run_side_by_side(threads):
    # 2 * BATCH + 7 replicates: two full batches and a partial one, each on its own stream; two threads step one
    # and two of them in lockstep, four threads outnumber them
    cfg = SdeConfig(
        K=3, drift=DriftFunction.rps(1.0), sigma=1.0, measure=PointMass(0.5, 1.0), dt=1e-2, horizon=1.5, tol_ext=1e-4
    )
    x0, R, times = [0.2, 0.3, 0.5], 2 * BATCH + 7, np.arange(0, 151, 30) * cfg.dt
    stream = RngStream(12)
    states, events = simulate_sde(cfg, x0, R, times, stream, threads)
    _assert_same_bytes((states, events), _lone_batches(cfg, x0, (BATCH, BATCH, 7), stream, times))
    assert (events.winner >= 0).any() and (events.winner < 0).any() and events.clamp_fired.any()


def _win_probs(K):
    """Win probabilities with no dyadic entry off the diagonal."""
    P, upper = np.full((K, K), 0.5), iter([0.3, 0.7, 0.15, 0.6, 0.35, 0.9, 0.45, 0.2, 0.8, 0.55, 0.65, 0.1] * 3)
    for i, j in zip(*np.triu_indices(K, 1)):
        P[i, j] = next(upper)
        P[j, i] = 1.0 - P[i, j]
    return P


_MUTATION = PolynomialMap([{tuple(np.eye(3, dtype=int)[j]): 0.95 * (i == j) + 0.05 / 3 for j in range(3)} for i in range(3)])
# from_polynomial refuses a mutation map; SdeConfig takes any callable drift, and this one revives absent types
# strong selection: at dt * kappa = 0.2 a drift that gave a row other bits in another block would show in the states
_LOCKSTEP_DRIFTS = {
    "neutral": (DriftFunction.neutral(3), [0.2, 0.3, 0.5]),
    "transitive": (DriftFunction.transitive(20.0, {1: 0.5, 2: 0.5}, 3), [0.0, 0.4, 0.6]),  # an edge start
    "rps": (DriftFunction.rps(20.0), [0.2, 0.3, 0.5]),
    "polynomial": (lambda x: 20.0 * (_MUTATION(x) - x), [0.0, 0.4, 0.6]),  # revives its zeros
    **{
        f"{kind}-{K}": (drift, np.arange(1.0, K + 1) / (K * (K + 1) / 2))
        for K in (6, 9)
        for kind, drift in (
            ("logistic", DriftFunction.logistic(20.0, _win_probs(K))),
            ("food_web", DriftFunction.food_web(20.0, [(i, (i + 1) % K) for i in range(K)] + [(0, K // 2)], K)),
            ("neg_freq", DriftFunction.negfreq(20.0, K)),
            ("pos_freq", DriftFunction.posfreq(20.0, K)),
        )
    },
}


@pytest.mark.parametrize("name", list(_LOCKSTEP_DRIFTS))
def test_lockstep_batches_get_the_bytes_of_lone_batches(monkeypatch, name):
    # batches of 4 rows, six full and one of a single row: one to four threads give runs of unequal batch counts,
    # and rows fix at different steps, so a batch is often down to one active row in a taller block, as the last
    # is from the start; a cap of 3 batches per block splits a thread's run
    monkeypatch.setattr(batches, "BATCH", 4)
    drift, x0 = _LOCKSTEP_DRIFTS[name]
    measure = PointMass(0.5, 1.0) if list(_LOCKSTEP_DRIFTS).index(name) % 2 else BetaLaw(1.0, 0.5, 0.5)
    cfg = SdeConfig(
        K=len(x0), drift=drift, sigma=1.0, measure=measure, dt=0.01, horizon=4.0, tol_ext=0.02, eps_jump=0.05
    )
    stream, times = RngStream(5), np.arange(0, 401, 40) * cfg.dt
    want = _lone_batches(cfg, x0, [4] * 6 + [1], stream, times)
    for threads in (1, 2, 3, 4):
        _assert_same_bytes(simulate_sde(cfg, x0, 25, times, stream, threads), want)
    monkeypatch.setattr(sde, "LOCKSTEP", 3)
    _assert_same_bytes(simulate_sde(cfg, x0, 25, times, stream, 1), want)
    winner, clamped = want[1]["winner"], want[1]["clamp_fired"]
    assert np.unique(want[1]["fixation_time"][winner >= 0]).size > 10 and clamped.any()

    # three events a chunk: a group refills its queue inside a round and on steps of its own, which no other group
    # shares, and a refill's events serve later steps
    monkeypatch.setattr(sde, "JUMP_CHUNK", 3)
    chunks, sample = [], cfg.size_law.sample
    monkeypatch.setattr(cfg.size_law, "sample", lambda rng, n: chunks.append(n) or sample(rng, n))
    want = _lone_batches(cfg, x0, [4] * 6 + [1], stream, times)
    assert len(chunks) > 6 * 2 + 1  # more than the first clocks took
    for threads in (1, 2):
        _assert_same_bytes(simulate_sde(cfg, x0, 25, times, stream, threads), want)


def test_a_jump_step_runs_each_round_once_for_the_whole_block(monkeypatch):
    # ten groups of five rows at three jumps per row and step: every group has rows due on the first step, and a
    # round draws the targets of all of them in one call, not one per group
    with pytest.warns(UserWarning, match="multiple jumps"):
        cfg = SdeConfig(K=3, drift=DriftFunction.neutral(3), sigma=0.0, measure=PointMass(0.5, 1.0), dt=0.75,
                        horizon=0.75)
    batch = BatchSde(cfg, [0.2, 0.3, 0.5], [5] * 10, [RngStream(70, g).generator() for g in range(10)])
    taken, draws = [[] for _ in batch._events], []  # per group, the events of each take; per round, the rows drawn
    for mine, events in zip(taken, batch._events):
        monkeypatch.setattr(events, "take", lambda n, mine=mine, take=events.take: mine.append(n) or take(n))
    categorical = sde._categorical
    monkeypatch.setattr(sde, "_categorical", lambda G, u: draws.append(G.shape[1]) or categorical(G, u))
    due = np.count_nonzero(batch._clock <= 1)
    batch.step()
    takes = list(map(len, taken))
    assert min(takes) >= 1 and draws[0] == due == sum(n for mine in taken for n in mine[:1])
    # a group with rows due in a round had rows due in every round before it, so the rounds are its most takes
    assert len(draws) == max(takes) < sum(takes)


def _check_bookkeeping_per_step(cfg, x0, R, seed, n_steps):
    """Step a batch, checking its records against the observed ``X`` after every step."""
    batch = BatchSde(cfg, x0, [R], [RngStream(seed).generator()])
    X = batch.X.copy()
    first_zero = np.where(X == 0.0, 0.0, np.nan)
    first_vertex = np.where((X == 1.0).any(axis=1), 0.0, np.nan)
    snapshots = {0: X}
    while batch.steps < n_steps:
        active = batch.winner < 0
        clamped = batch.clamp_fired.copy()
        groups, clock = copy.deepcopy((batch._groups, batch._clock))
        batch.step()
        prev, X, t = X, batch.X.copy(), batch.t
        snapshots[batch.steps] = X

        # the active rows took one step from their observed states and jump clocks, in row order
        Y = _advance(cfg, prev[active], groups)
        _jump(Y, clock, batch.steps, groups)
        small = (Y > 0.0) & (Y <= cfg.tol_ext)
        hit = small.any(axis=1)
        Y[small] = 0.0
        Y[hit] /= Y[hit].sum(axis=1, keepdims=True)
        assert np.array_equal(X[active], Y)
        assert np.array_equal(X[~active], prev[~active])
        clamped[np.flatnonzero(active)[hit]] = True
        assert np.array_equal(batch.clamp_fired, clamped)

        first_zero[np.isnan(first_zero) & (X == 0.0)] = t
        first_vertex[np.isnan(first_vertex) & (X == 1.0).any(axis=1)] = t
        assert np.array_equal(batch.extinction_time, first_zero, equal_nan=True)
        assert np.array_equal(batch.fixation_time, first_vertex, equal_nan=True)
        fixed = ~np.isnan(first_vertex)
        assert np.array_equal(batch.winner[fixed], X[fixed].argmax(axis=1))
        assert np.all(batch.winner[~fixed] == -1)

    replay = BatchSde(cfg, x0, [R], [RngStream(seed).generator()])
    for steps in sorted({1, n_steps // 10, n_steps // 2, n_steps}):
        replay.run_until(steps * cfg.dt)
        assert np.array_equal(replay.X, snapshots[steps])
    return batch


def test_compact_active_set_bookkeeping_matches_observed_states():
    # diffusion, jumps and an extinction clamp that fires
    cfg = SdeConfig(
        K=3, drift=DriftFunction.rps(1.0), sigma=1.0, measure=PointMass(0.5, 1.0), dt=5e-3, horizon=3.0, tol_ext=2e-3
    )
    # a vertex start: every row is fixed at construction and never moves
    vertex = _check_bookkeeping_per_step(cfg, [0.0, 1.0, 0.0], 3, 12, 20)
    assert np.all(vertex.fixation_time == 0.0) and np.all(vertex.winner == 1)
    assert vertex.run_until(cfg.horizon) == 0

    # an edge start: the missing type is extinct from time 0 and stays so
    edge = _check_bookkeeping_per_step(cfg, [0.5, 0.0, 0.5], 4, 13, 300)
    assert np.all(edge.extinction_time[:, 1] == 0.0)

    # interior starts: replicates fix one by one, so the block shrinks several times
    interior = _check_bookkeeping_per_step(cfg, [0.2, 0.3, 0.5], 8, 14, 600)
    assert interior.clamp_fired.any() and not interior.clamp_fired.all()
    assert np.unique(interior.fixation_time).size == 8 and interior.winner.min() >= 0
    with pytest.raises(ValueError):
        interior.X[0, 0] = 0.5


def test_size_one_jump_fixes_on_the_step_it_fires():
    # a jump of size 1 replaces the whole population: the vertex is reached
    # in one step, and every other type dies at that same step
    cfg = SdeConfig(K=3, drift=DriftFunction.neutral(3), sigma=0.0, measure=PointMass(1.0, 1.0), dt=0.01, horizon=10.0)
    batch = _check_bookkeeping_per_step(cfg, [0.2, 0.3, 0.5], 12, 15, 400)
    fixed = batch.winner >= 0
    assert fixed.sum() >= 8 and np.all(batch.fixation_time[fixed] > 0.0)
    for r in np.flatnonzero(fixed):
        others = np.delete(batch.extinction_time[r], batch.winner[r])
        assert np.all(others == batch.fixation_time[r])
        assert math.isnan(batch.extinction_time[r, batch.winner[r]])
    assert not batch.clamp_fired.any()


def test_clamp_onto_a_vertex_records_the_fixation_on_that_step():
    # a jump of size 0.9 leaves the other types at or below tol_ext, whose
    # clamp then lands the row on the vertex within the same step
    cfg = SdeConfig(
        K=3, drift=DriftFunction.neutral(3), sigma=0.0, measure=PointMass(0.9, 0.81), dt=0.01, horizon=10.0,
        tol_ext=0.05,
    )
    batch = _check_bookkeeping_per_step(cfg, [0.5, 0.25, 0.25], 12, 16, 400)
    fixed = batch.winner >= 0
    assert fixed.sum() >= 8
    assert np.array_equal(batch.clamp_fired, fixed)
    for r in np.flatnonzero(fixed):
        assert np.all(np.delete(batch.extinction_time[r], batch.winner[r]) == batch.fixation_time[r])


def test_pure_jump_rows_fix_when_the_leading_coordinate_rounds_to_one():
    # without a clamp, halving jumps leave the losing type at ~1e-16, never
    # at zero: the row fixes on the step its leading coordinate reads 1.0
    cfg = SdeConfig(
        K=2, drift=DriftFunction.neutral(2), sigma=0.0, measure=PointMass(0.5, 1.0), dt=0.025, horizon=100.0
    )
    batch = _check_bookkeeping_per_step(cfg, [0.5, 0.5], 6, 17, 1500)
    fixed = batch.winner >= 0
    assert fixed.sum() >= 4
    assert np.isnan(batch.extinction_time[fixed]).all()


def test_clamp_still_fires_on_a_type_revived_by_mutation():
    # a mutation drift feeds extinct types again: a coordinate already seen
    # at zero can come back at or below tol_ext, and is clamped there again
    K, m = 3, 0.05
    mutation = PolynomialMap(
        [{tuple(np.eye(K, dtype=int)[j]): (1 - m) * (i == j) + m / K for j in range(K)} for i in range(K)]
    )
    cfg = SdeConfig(
        K=K, drift=lambda x: 0.5 * (mutation(x) - x), sigma=1.0, measure=ZeroMeasure(), dt=1e-2,
        horizon=10.0, tol_ext=1e-3,
    )
    batch = _check_bookkeeping_per_step(cfg, [0.8, 0.15, 0.05], 10, 18, 400)
    assert batch.clamp_fired.any() and (batch.winner >= 0).any()


def test_jump_duality_against_chain_matrix_exponential():
    # Full-model duality with jumps: E[X_1(t)^n0] from the integrator must
    # match E[x^D_t] for the dual chain, evaluated here by matrix
    # exponential rather than by simulation (independent oracle).
    from lwf.ancestral import AncestralModel, dual_moment
    from lwf.measures import PointMass
    from lwf.selection import DriftFunction

    kappa, sigma, x0, t, n0 = 0.5, 0.5, 0.3, 0.75, 2
    measure = PointMass(0.5, 1.0)
    cfg = SdeConfig(
        K=2,
        drift=DriftFunction.transitive(kappa, {1: 1.0}, 2),
        sigma=sigma,
        measure=measure,
        dt=1e-3,
        horizon=t,
    )
    R = 30_000
    batch = BatchSde(cfg, [x0, 1.0 - x0], [R], [RngStream(21).generator()])
    batch.run_until(t)
    vals = batch.X[:, 0] ** n0
    se = vals.std() / math.sqrt(R)
    chain = AncestralModel(kappa, sigma, {1: 1.0}, measure)
    target, bound, _ = dual_moment(chain, x0, n0, t)
    assert abs(vals.mean() - target) <= 4.0 * se + bound, (vals.mean(), target, se)


def _generator_value(drift, sigma, measure, x, f_kind, i, j=None):
    """Closed-form generator action on f = x_i or f = x_i x_j."""
    mu = drift(x)
    mass = measure.total_mass()
    if f_kind == "linear":
        return mu[i]  # diffusion and jumps are mean-zero for linear f
    if i == j:
        return 2 * x[i] * mu[i] + sigma * x[i] * (1 - x[i]) + mass * x[i] * (1 - x[i])
    return x[j] * mu[i] + x[i] * mu[j] - sigma * x[i] * x[j] - mass * x[i] * x[j]


@pytest.mark.parametrize(
    "drift",
    [
        DriftFunction.neutral(3),
        DriftFunction.transitive(1.0, {1: 1.0}, 3),
        DriftFunction.rps(1.0),
        DriftFunction.negfreq(1.0, 3),
        DriftFunction.posfreq(1.0, 3),
        DriftFunction.logistic(1.0, [[0.5, 0.7, 0.2], [0.3, 0.5, 0.6], [0.8, 0.4, 0.5]]),
    ],
    ids=lambda d: d.kind,
)
def test_generator_consistency(drift):
    # Monte Carlo (E[f(X_dt)] - f(x)) / dt against the closed generator action
    sigma, dt, R = 1.0, 1e-3, 400_000
    measure = FiniteAtoms([(0.3, 0.4), (0.7, 0.6)])
    cfg = SdeConfig(K=3, drift=drift, sigma=sigma, measure=measure, dt=dt, horizon=dt, eps_jump=1e-3)
    rng_pts = RngStream(9).generator()
    pts = random_interior_points(rng_pts, 3, 3, 0.15)
    for p_idx, x in enumerate(pts):
        batch = BatchSde(cfg, x, [R], [RngStream(10).derive(p_idx).generator()])
        batch.step()
        X = batch.X
        for kind, i, j in (("linear", 0, None), ("linear", 2, None), ("quad", 0, 0), ("quad", 0, 1)):
            if kind == "linear":
                vals = X[:, i]
                base = x[i]
            else:
                vals = X[:, i] * X[:, j]
                base = x[i] * x[j]
            est = (vals.mean() - base) / dt
            se = vals.std() / math.sqrt(R) / dt
            target = _generator_value(drift, sigma, measure, x, kind, i, j)
            # 4 SE plus an O(dt) discretization allowance
            assert abs(est - target) <= 4.0 * se + 2.0 * abs(target) * dt + 0.02, (drift.kind, kind, i, j)
