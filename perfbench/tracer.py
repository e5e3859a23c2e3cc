"""Spans and counts at lwf's public calls, recorded from outside the package.

While a :class:`Tracer` is installed, every public function and method
defined in an ``lwf`` module is replaced, wherever a module holds a
reference to it, by a wrapper that records one span: name, start, end, the
span that caused it, and the run id the benchmark set.  A few calls also
record an amount of work (rows, draws, bytes, CPU time).  Spans are kept in
one flat integer array while tracing and are only aggregated or written out
afterwards, so the wrapper does no more than read two clocks and append.

Spans opened in a pool thread with no open span of their own take as parent
the innermost span open on the installing thread, which is the experiment
call that started the pool.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import os
import sys
import threading
import time
from array import array

import numpy as np

FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "run", "amount")
_WIDTH = len(FIELDS)
_NO_PARENT = -1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _cpu_start(args, kwargs):
    return time.process_time_ns()


def _cpu_used(args, kwargs, start):
    return time.process_time_ns() - start


def _active_rows(args, kwargs):
    return int((args[0].winner < 0).sum())


def _draws(args, kwargs):
    return int(_arg(args, kwargs, 2, "size"))


def _generation_rows(args, kwargs):
    return len(_arg(args, kwargs, 1, "X"))


def _sample_rows(args, kwargs):
    return len(_arg(args, kwargs, 1, "counts"))


def _bytes_written(args, kwargs, _):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _hooks(name: str):
    """(before, after) amount hooks for a span name; ``after`` gets before's value."""
    if name == "sde.BatchSde.step":
        return _active_rows, None
    if name == "measures.TruncatedSizeLaw.sample":
        return _draws, None
    if name == "discrete.step_generation_batch":
        return _generation_rows, None
    if name.endswith(".distribution_batch"):
        return _sample_rows, None
    if name.startswith("trajectory.write_"):
        return None, _bytes_written
    if name.startswith("experiments.run_"):
        return _cpu_start, _cpu_used
    return None, None


def _public_callables(module):
    """(owner, attribute, span name, function, rewrap) for what ``module`` defines."""
    short = module.__name__.split(".", 1)[1]
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, attr, f"{short}.{attr}", value, None
        elif inspect.isclass(value) and not issubclass(value, BaseException):
            for name, member in list(vars(value).items()):
                if name.startswith("_") and name != "__call__":
                    continue
                span = f"{short}.{value.__name__}.{name}"
                if inspect.isfunction(member):
                    yield value, name, span, member, None
                elif isinstance(member, (classmethod, staticmethod)):
                    yield value, name, span, member.__func__, type(member)


class Tracer:
    """Install wrappers on lwf, collect spans, turn them into layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.run_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, fn, span_name):
        name_idx = len(self.names)
        self.names.append(span_name)
        before, after = _hooks(span_name)
        local, ids, spans, clock = self._local, self._ids, self.spans, time.perf_counter_ns
        main_stack = local.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else _NO_PARENT)
            span = next(ids)
            amount = before(args, kwargs) if before is not None else 0
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if after is not None:
                amount = after(args, kwargs, amount)
            spans.extend((span, name_idx, start, end, parent, tracer.run_id, amount))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public lwf callable, in every lwf module that binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._local.stack = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "lwf" or n.startswith("lwf.")]
        wrapped = {}
        for module in modules:
            if module.__name__ == "lwf":
                continue
            for owner, attr, span_name, fn, rewrap in _public_callables(module):
                wrapper = wrapped.get(fn)
                if wrapper is None:
                    wrapper = wrapped[fn] = self._wrap(fn, span_name)
                self._saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, rewrap(wrapper) if rewrap else wrapper)
        # Modules that imported a function by name hold their own reference.
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapped[value])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis -------------------------------------------------------------

    def table(self) -> np.ndarray:
        """Recorded spans as an ``(n, 7)`` integer array, columns in FIELDS order."""
        return np.array(self.spans, dtype=np.int64).reshape(-1, _WIDTH)

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s and the summed amount.

        Self time is a span's duration minus the part of its interval that
        its child spans cover; children in pool threads may overlap, so the
        covered part is the union of their intervals.
        """
        t = self.table()
        ids, names, start, end, parent, _, amount = t.T
        covered = np.zeros(int(ids.max()) + 1 if t.size else 0, dtype=np.int64)
        kids = np.flatnonzero(parent != _NO_PARENT)
        if kids.size:
            order = kids[np.lexsort((start[kids], parent[kids]))]
            p, s, e = parent[order], start[order], end[order]
            # Shift each parent's children into a window of their own so one
            # running maximum over the whole array never crosses windows.
            first = np.r_[True, p[1:] != p[:-1]]
            group = np.cumsum(first) - 1
            base = s[first][group]
            width = int((e - base).max()) + 1
            s2, e2 = s - base + group * width, e - base + group * width
            reach = np.maximum.accumulate(e2)
            prev = np.r_[np.int64(-1), reach[:-1]]
            np.add.at(covered, p, np.maximum(e2 - np.maximum(s2, prev), 0))
        duration = end - start
        self_ns = duration - covered[ids] if t.size else duration
        stats: dict[str, dict] = {}
        for idx in np.unique(names):
            rows = names == idx
            entry = stats.setdefault(self.names[idx], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "amount": 0})
            entry["calls"] += int(rows.sum())
            entry["total_s"] += float(duration[rows].sum()) * 1e-9
            entry["self_s"] += float(self_ns[rows].sum()) * 1e-9
            entry["amount"] += int(amount[rows].sum())
        return stats

    def write(self, path) -> None:
        """Write the spans as gzip-compressed CSV with span names spelled out."""
        t = self.table()
        with gzip.open(path, "wt", newline="") as fh:
            fh.write(",".join(FIELDS) + "\n")
            for chunk in range(0, len(t), 10_000):
                for row in t[chunk : chunk + 10_000].tolist():
                    row[1] = self.names[row[1]]
                    fh.write(",".join(map(str, row)) + "\n")


def _sum(stats, match, key):
    return sum(v[key] for name, v in stats.items() if match(name))


def _named(*names):
    return lambda name: name in names


def layer_metrics(stats: dict[str, dict]) -> dict[str, float]:
    """The per-layer metrics the benchmark reports, from :meth:`Tracer.by_name`."""
    step = _named("sde.BatchSde.step")
    zeta = _named("sde.zeta")
    drift = _named("selection.DriftFunction.__call__")
    size_law = _named("measures.TruncatedSizeLaw.sample")
    stationary = _named("ancestral.stationary_and_pgf")
    rates = _named("ancestral.AncestralModel.rates")
    empirical = _named("discrete.empirical_drift")
    generation = _named("discrete.step_generation_batch")
    distribution = lambda n: n.startswith("rules.") and n.endswith(".distribution_batch")
    type_law = lambda n: n.startswith("rules.") and n.endswith(".type_law_batch")
    experiment = lambda n: n.startswith("experiments.run_")
    write_csv = lambda n: n.startswith("trajectory.write_")

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    return {
        "sde.step.calls": _sum(stats, step, "calls"),
        "sde.step.active_rows": _sum(stats, step, "amount"),
        "sde.step.self_s": _sum(stats, step, "self_s"),
        "sde.ns_per_row_step": per(_sum(stats, step, "total_s"), _sum(stats, step, "amount"), 1e9),
        "sde.zeta.calls": _sum(stats, zeta, "calls"),
        "sde.zeta.total_s": _sum(stats, zeta, "total_s"),
        "sde.simulate_sde.total_s": _sum(stats, _named("sde.simulate_sde"), "total_s"),
        "selection.drift.calls": _sum(stats, drift, "calls"),
        "selection.drift.total_s": _sum(stats, drift, "total_s"),
        "measures.size_law.calls": _sum(stats, size_law, "calls"),
        "measures.size_law.draws": _sum(stats, size_law, "amount"),
        "measures.size_law.total_s": _sum(stats, size_law, "total_s"),
        "ancestral.fixation_probabilities.total_s": _sum(
            stats, _named("ancestral.fixation_probabilities"), "total_s"
        ),
        "ancestral.stationary.total_s": _sum(stats, stationary, "total_s"),
        "ancestral.rates.calls": _sum(stats, rates, "calls"),
        "ancestral.events_per_s": per(_sum(stats, rates, "calls"), _sum(stats, stationary, "total_s")),
        "discrete.empirical_drift.calls": _sum(stats, empirical, "calls"),
        "discrete.empirical_drift.total_s": _sum(stats, empirical, "total_s"),
        "discrete.step_generation_batch.calls": _sum(stats, generation, "calls"),
        "discrete.step_generation_batch.rows": _sum(stats, generation, "amount"),
        "discrete.ns_per_row_generation": per(
            _sum(stats, generation, "total_s"), _sum(stats, generation, "amount"), 1e9
        ),
        "discrete.simulate_discrete.total_s": _sum(stats, _named("discrete.simulate_discrete"), "total_s"),
        "rules.distribution_batch.calls": _sum(stats, distribution, "calls"),
        "rules.distribution_batch.rows": _sum(stats, distribution, "amount"),
        "rules.distribution_batch.total_s": _sum(stats, distribution, "total_s"),
        "rules.type_law_batch.calls": _sum(stats, type_law, "calls"),
        "rules.type_law_batch.total_s": _sum(stats, type_law, "total_s"),
        "experiments.run.self_s": _sum(stats, experiment, "self_s"),
        "experiments.cpu_per_wall": per(_sum(stats, experiment, "amount") * 1e-9, _sum(stats, experiment, "total_s")),
        "cli.main.self_s": _sum(stats, _named("cli.main"), "self_s"),
        "config.load_config.total_s": _sum(stats, _named("config.load_config"), "total_s"),
        "trajectory.write_csv.total_s": _sum(stats, write_csv, "total_s"),
        "trajectory.bytes_written": _sum(stats, write_csv, "amount"),
        "rng.generator.calls": _sum(stats, _named("rng.RngStream.generator"), "calls"),
    }
