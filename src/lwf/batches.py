"""Fixed-width replicate batches on per-batch random streams.

The engines :func:`~lwf.sde.simulate_sde` and
:func:`~lwf.discrete.simulate_discrete` split their replicates here, into
batches of ``BATCH`` rows whatever the thread count.  Batch ``b`` of a lane
draws from ``stream.derive(lane, b)`` alone and writes only its own rows of
the engine's output, so every output reproduces byte-for-byte on any number
of threads.  The lanes keep the streams of the different kinds of work apart.
A call gets one pool task per thread, a contiguous run of the items.  The pool is kept for the process: made by
the first call that needs threads, replaced by a larger one when a call needs more, and dropped in a forked child,
which inherits the pool but none of its threads.
"""

from __future__ import annotations

import os
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


_pool, _workers, _pool_lock = None, 0, threading.Lock()


def _drop_pool() -> None:
    global _pool, _workers, _pool_lock
    _pool, _workers, _pool_lock = None, 0, threading.Lock()  # another thread may have held the lock at the fork


os.register_at_fork(after_in_child=_drop_pool)


def pmap(fn, items, threads: int) -> list:
    """``[fn(item) for item in items]``, each of up to ``threads`` threads calling ``fn`` on one run of the items.

    A call from inside a pool task runs its items in turn: the pool's threads would wait on each other.
    """
    global _pool, _workers
    runs = _runs(items, threads)
    if len(runs) <= 1 or threading.current_thread().name.startswith("lwf-pmap"):
        return [fn(item) for item in items]
    with _pool_lock:  # the tasks go in before another call may replace the pool; a replaced pool ends its tasks
        if _workers < len(runs):
            if _pool is not None:
                _pool.shutdown(wait=False)
            _pool, _workers = ThreadPoolExecutor(len(runs), thread_name_prefix="lwf-pmap"), len(runs)
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
