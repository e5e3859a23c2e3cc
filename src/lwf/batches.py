"""Fixed-width replicate batches on per-batch random streams.

The engines :func:`~lwf.sde.simulate_sde` and
:func:`~lwf.discrete.simulate_discrete` split their replicates here, into
batches of ``BATCH`` rows whatever the thread count.  Batch ``b`` of a lane
draws from ``stream.derive(lane, b)`` alone and writes only its own rows of
the engine's output, so every output reproduces byte-for-byte on any number
of threads.  The lanes keep the streams of the different kinds of work apart.
A call gets one pool task per thread, a contiguous run of the items.  One pool serves the process: the first call
that needs threads makes it, it starts a thread only when no idle one can take a task, so it never waits on busy
ones, and a forked child, which inherits it without its threads, drops it.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor, wait

from .rng import RngStream

BATCH = 500  # replicate batch width; independent of thread count by design

LANE_POINTS, LANE_DISCRETE, LANE_SDE = range(1, 4)
LANE_DRIFT = 5  # lane 4 is free: the dual moment draws nothing, and the drift oracle keeps its streams


def _runs(items, threads: int) -> list:
    """``items`` cut into at most ``threads`` contiguous, nonempty runs in order, their lengths one apart at most."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    parts = min(threads, len(items))
    cuts = [len(items) * i // parts for i in range(parts + 1)] if parts else []
    return [items[a:b] for a, b in zip(cuts, cuts[1:])]


_pool, _pool_lock = None, threading.Lock()


def _drop_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()  # another thread may have held the lock at the fork


os.register_at_fork(after_in_child=_drop_pool)


def pmap(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, each of up to ``threads`` threads calling ``fn`` on one run of the items."""
    global _pool
    runs = _runs(items, threads)
    if len(runs) <= 1:
        return [fn(item) for item in items]
    with _pool_lock:  # two first calls at once make one pool
        if _pool is None:
            _pool = ThreadPoolExecutor(sys.maxsize, thread_name_prefix="lwf-pmap")  # a bound that never binds
    tasks = [_pool.submit(lambda run: [fn(item) for item in run], run) for run in runs]
    wait(tasks)  # a task that raises leaves none of the others running on past the call
    return [out for task in tasks for out in task.result()]


def map_batches(fn, replicates: int, stream: RngStream, lane: int, threads: int) -> None:
    """``fn(groups)`` once per thread: ``groups`` holds ``(rows, rng)`` for each batch of its run of the batches.

    ``rows`` is a batch's slice of the ``replicates`` and ``rng`` its generator; a run is contiguous, so its rows
    are too.
    """
    def run(batches):
        fn([(slice(b * BATCH, min((b + 1) * BATCH, replicates)), stream.derive(lane, b).generator()) for b in batches])

    pmap(run, _runs(range(-(-replicates // BATCH)), threads), threads)
