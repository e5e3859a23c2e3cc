"""Fixed-width replicate batches on per-batch random streams.

The engines :func:`~lwf.sde.simulate_sde` and
:func:`~lwf.discrete.simulate_discrete` split their replicates here, into
batches of ``BATCH`` rows whatever the thread count.  Batch ``b`` of a lane
draws from ``stream.derive(lane, b)`` alone and writes only its own rows of
the engine's output, so every output reproduces byte-for-byte on any number
of threads.  The lanes keep the streams of the different kinds of work apart.
A pool gets one task per thread, a contiguous run of the items.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .rng import RngStream

BATCH = 500  # replicate batch width; independent of thread count by design

LANE_POINTS, LANE_DISCRETE, LANE_SDE = range(1, 4)
LANE_DRIFT = 5  # lane 4 is free: the dual moment draws nothing, and the drift oracle keeps its streams


def _runs(items, threads: int) -> list:
    """``items`` cut into at most ``threads`` contiguous, nonempty runs in order, their lengths one apart at most."""
    parts = min(max(threads, 1), len(items))
    cuts = [len(items) * i // parts for i in range(parts + 1)] if parts else []
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


def pmap(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, each of up to ``threads`` threads calling ``fn`` on one run of the items."""
    runs = _runs(items, threads)
    if len(runs) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=len(runs)) as pool:
        return [out for run in pool.map(lambda run: [fn(item) for item in run], runs) for out in run]


def map_batches(fn, replicates: int, stream: RngStream, lane: int, threads: int) -> None:
    """``fn(groups)`` once per thread: ``groups`` holds ``(rows, rng)`` for each batch of its run of the batches.

    ``rows`` is a batch's slice of the ``replicates`` and ``rng`` its generator; a run is contiguous, so its rows
    are too.
    """
    def run(batches):
        fn([(slice(b * BATCH, min((b + 1) * BATCH, replicates)), stream.derive(lane, b).generator()) for b in batches])

    pmap(run, _runs(range(-(-replicates // BATCH)), threads), threads)
