import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from lwf import batches
from lwf.batches import BATCH, LANE_SDE, map_batches, pmap
from lwf.rng import RngStream


@pytest.mark.parametrize("threads", [1, 2, 3, 4, 12])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 10])
def test_pmap_returns_results_in_item_order_calling_each_item_once(monkeypatch, threads, n):
    calls, tasks, lock = [], [], threading.Lock()

    class Pool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            tasks.append(*args)
            return super().submit(fn, *args, **kwargs)

    def square(item):
        with lock:
            calls.append(item)
        return item * item

    monkeypatch.setattr(batches, "ThreadPoolExecutor", Pool)
    assert pmap(square, list(range(n)), threads) == [i * i for i in range(n)]
    assert sorted(calls) == list(range(n))
    # one pool task per thread, each a run of consecutive items, none empty and none longer than another by 2
    parts = min(threads, n)
    assert len(tasks) == (parts if parts > 1 else 0)
    if tasks:
        assert [item for task in tasks for item in task] == list(range(n))
        assert min(map(len, tasks)) >= max(map(len, tasks)) - 1 >= 0


@pytest.mark.parametrize("threads", [1, 2, 3, 5])
def test_map_batches_hands_each_thread_its_run_of_batches_in_one_call(threads):
    replicates, stream = 3 * BATCH + 2, RngStream(9)
    calls, lock = [], threading.Lock()

    def record(groups):
        with lock:
            calls.append([(rows, rng.random()) for rows, rng in groups])

    map_batches(record, replicates, stream, LANE_SDE, threads)
    assert len(calls) == min(threads, 4)
    groups = [group for call in sorted(calls, key=lambda c: c[0][0].start) for group in call]
    assert [rows for rows, _ in groups] == [slice(b * BATCH, min((b + 1) * BATCH, replicates)) for b in range(4)]
    assert [u for _, u in groups] == [stream.derive(LANE_SDE, b).generator().random() for b in range(4)]
    for call in calls:  # a thread's batches are consecutive
        assert all(a.stop == b.start for (a, _), (b, _) in zip(call, call[1:]))


def test_map_batches_with_no_replicates_calls_nothing():
    calls = []
    map_batches(calls.append, 0, RngStream(1), LANE_SDE, 3)
    assert calls == []
    assert np.array(pmap(abs, [], 3)).size == 0
