"""Fixed-width replicate batches on per-batch random streams.

The engines :func:`~lwf.sde.simulate_sde` and
:func:`~lwf.discrete.simulate_discrete` split their replicates here, into
batches of ``BATCH`` rows whatever the thread count.  Batch ``b`` of a lane
draws from ``stream.derive(lane, b)`` alone and writes only its own rows of
the engine's output, so every output reproduces byte-for-byte on any number
of threads.  The lanes keep the streams of the different kinds of work apart.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from .rng import RngStream

BATCH = 500  # replicate batch width; independent of thread count by design

LANE_POINTS, LANE_DISCRETE, LANE_SDE = range(1, 4)
LANE_DRIFT = 5  # lane 4 is free: the dual moment draws nothing, and the drift oracle keeps its streams


def pmap(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, on a pool of ``threads`` threads."""
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def map_batches(fn, replicates: int, stream: RngStream, lane: int, threads: int) -> None:
    """``fn(rows, rng)`` for every batch of ``replicates``: ``rows`` is its slice of them, ``rng`` its generator."""
    def run(b):
        fn(slice(b * BATCH, min((b + 1) * BATCH, replicates)), stream.derive(lane, b).generator())

    pmap(run, range(-(-replicates // BATCH)), threads)
