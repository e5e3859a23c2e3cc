import os
import signal
import sys
import threading
import warnings
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
    submit = ThreadPoolExecutor.submit

    def counted(pool, fn, *args, **kwargs):  # the pool is kept across calls, so its class is patched, not the name
        tasks.append(*args)
        return submit(pool, fn, *args, **kwargs)

    def square(item):
        with lock:
            calls.append(item)
        return item * item

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    assert pmap(square, list(range(n)), threads) == [i * i for i in range(n)]
    assert sorted(calls) == list(range(n))
    # one pool task per thread, each a run of consecutive items, none empty and none longer than another by 2
    parts = min(threads, n)
    assert len(tasks) == (parts if parts > 1 else 0)
    if tasks:
        assert [item for task in tasks for item in task] == list(range(n))
        assert min(map(len, tasks)) >= max(map(len, tasks)) - 1 >= 0


def test_a_pool_grown_for_three_threads_serves_a_later_call_on_two(monkeypatch):
    monkeypatch.setattr(batches, "_pool", None)
    monkeypatch.setattr(batches, "_workers", 0)
    items, want = list(range(11)), [i * i for i in range(11)]
    assert pmap(lambda i: i * i, items, 2) == want
    first = batches._pool
    assert pmap(lambda i: i * i, items, 3) == want
    grown = batches._pool
    assert grown is not first and batches._workers == 3
    assert pmap(lambda i: i * i, items, 2) == want
    assert batches._pool is grown


def test_a_call_from_inside_a_pool_task_runs_its_items_in_turn(monkeypatch):
    # on a pool of two threads, both busy with the outer runs, inner runs queued on the pool would wait forever
    monkeypatch.setattr(batches, "_pool", None)
    monkeypatch.setattr(batches, "_workers", 0)
    results = []

    def nested():
        results.append(pmap(lambda i: pmap(lambda j: i * j, [1, 2, 3], 2), [1, 2], 2))

    outer = threading.Thread(target=nested, daemon=True)
    outer.start()
    outer.join(timeout=10)
    assert results == [[[1, 2, 3], [2, 4, 6]]]


def test_callers_on_many_threads_share_the_pool_and_each_get_their_own_results(monkeypatch):
    # six callers grow a fresh pool step by step while the others' tasks still run on the pools it replaces
    counts, interval = (2, 3, 5, 8), sys.getswitchinterval()

    def caller(c):
        for threads in counts:
            results[c, threads] = pmap(lambda i: (c, i * i), list(range(20)), threads)

    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(batches, "_pool", None)
            monkeypatch.setattr(batches, "_workers", 0)
            results, callers = {}, [threading.Thread(target=caller, args=(c,)) for c in range(6)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in callers)
            assert results == {(c, threads): [(c, i * i) for i in range(20)] for c in range(6) for threads in counts}
            assert batches._workers == 8
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_gets_a_pool_of_its_own():
    # a child inherits the kept pool but none of its threads: once the pool's threads have gone idle, a call on
    # that pool would queue its runs for threads the child does not have, and wait forever
    for _ in range(10):
        assert pmap(abs, [-1, -2, -3], 2) == [1, 2, 3]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking with live threads warns from Python 3.12
        pid = os.fork()
    if pid == 0:  # the child leaves by os._exit alone, whatever happens, so it never runs on into the test session
        ok = False
        try:
            signal.alarm(5)  # a deadlocked child is killed, not waited on
            ok = pmap(abs, [-1, -2, -3], 2) == [1, 2, 3]
        finally:
            os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


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


@pytest.mark.parametrize("threads", [0, -1])
def test_a_thread_count_below_one_is_refused(threads):
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        pmap(abs, [1, 2], threads)
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        map_batches(print, 2, RngStream(1), LANE_SDE, threads)
