"""Outside-in per-layer tracing.

The program is not modified: :func:`installed` wraps the public calls
that enter each layer, at the names their callers look up (class
attributes, and every loaded module's global that holds a wrapped
function), records one span per call, and puts every original back on
exit.  A layer's self time is its spans' durations minus the time their
direct child spans cover.  Spans record only in the process that
installed the wrappers; every workload serves under the ``sequential``
strategy, so that is where all the work runs.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time

#: the layers, named after the program's packages
LAYERS = (
    "numerics",
    "parallel",
    "gpusim",
    "memory",
    "core",
    "graphs",
    "serve",
    "faults",
    "cluster",
    "workloads",
)


def _works(args, result):
    return {"works": len(args[1])}


def _slot_work(args, result):
    return {"requests": [r.request_id for r in args[1].batch]}


def targets() -> list:
    """``(layer, owner, attribute, attrs)`` for every wrapped call.
    ``owner`` is a class, or a module for a module-level function;
    ``attrs(args, result)`` adds span attributes."""
    import repro.serve  # noqa: F401  (before repro.parallel; import cycle)
    from repro.cluster.cluster import Cluster
    from repro.cluster.network import ClusterNetwork
    from repro.cluster.scheduler import ClusterScheduler
    from repro.core.context import (
        ParallelExecutionContext,
        SerialExecutionContext,
    )
    from repro.core.dag import ComputationDAG
    from repro.core.streams import StreamManager
    from repro.faults.lifecycle import SlotLifecycle
    from repro.gpusim.engine import SimEngine
    from repro.graphs.graph import ExecutableGraph
    from repro.graphs.handtuned import HandTunedScheduler
    from repro.kernels.kernel import KernelLaunch
    from repro.memory.coherence import CoherenceEngine
    from repro.multigpu.context import MultiGpuExecutionContext
    from repro.parallel import strategy, work
    from repro.serve import workloads as serve_workloads
    from repro.serve.capture import CaptureCache
    from repro.serve.fleet import GpuFleet
    from repro.serve.service import SchedulerService
    from repro.session import Session
    from repro.workloads import suite
    from repro.workloads.base import Benchmark

    found = [
        ("numerics", KernelLaunch, "execute", None),
        ("parallel", strategy.SequentialStrategy, "execute", _works),
        ("parallel", work, "execute_slot_work", _slot_work),
    ]
    found += [
        ("gpusim", SimEngine, name, None)
        for name in (
            "submit", "record_event", "wait_event", "sync_event",
            "sync_stream", "sync_all",
        )
    ]
    found += [
        ("memory", CoherenceEngine, name, None)
        for name in (
            "acquire", "release", "acquire_multi", "release_multi",
            "cpu_access", "flush_window", "prefetch",
        )
    ]
    found += [
        ("core", ComputationDAG, "add", None),
        ("core", ComputationDAG, "deactivate_completed", None),
        ("core", SerialExecutionContext, "launch", None),
        ("core", ParallelExecutionContext, "launch", None),
        ("core", MultiGpuExecutionContext, "launch", None),
        ("core", StreamManager, "assign", None),
        ("graphs", ExecutableGraph, "launch", None),
        ("graphs", HandTunedScheduler, "launch", None),
        ("serve", SchedulerService, "submit", None),
        ("serve", SchedulerService, "run", None),
        # Cluster nodes drain their services directly, not through run().
        ("serve", SchedulerService, "drain", None),
        ("serve", CaptureCache, "lookup", None),
        ("serve", GpuFleet, "choose", None),
        ("faults", SlotLifecycle, "advance", None),
        ("cluster", Cluster, "submit", None),
        ("cluster", Cluster, "run", None),
        ("cluster", ClusterScheduler, "place", None),
        ("cluster", ClusterNetwork, "transfer", None),
        ("workloads", serve_workloads, "traffic_mix_graphs", None),
        ("workloads", suite, "create_benchmark", None),
        ("workloads", Benchmark, "run", None),
        ("workloads", Session, "__init__", None),
    ]
    # Every benchmark overrides the abstract refresh().
    found += [
        ("workloads", cls, "refresh", None)
        for cls in sorted(set(suite.BENCHMARKS.values()), key=repr)
    ]
    return found


class Recorder:
    """Spans kept in memory: ``(key, start, end, parent, attrs)`` with
    ``key = (layer, name)`` and ``parent`` the index of the enclosing
    span (-1 for none)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.active = True

    def wrap(self, fn, key, attrs=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    key, start, end, stack[-1] if stack else -1, None
                )
            if attrs is not None:
                spans[index] = spans[index][:4] + (attrs(args, result),)
            return result

        wrapper.bench_span = key
        return wrapper

    def self_times(self) -> list[float]:
        """Per span: its duration minus that of its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [
            end - start - child
            for (_, start, end, _, _), child in zip(self.spans, covered)
        ]

    def layer_times(self) -> dict:
        """``{layer: (self seconds, calls)}`` over every recorded span."""
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for span, own in zip(self.spans, self.self_times()):
            entry = totals[span[0][0]]
            entry[0] += own
            entry[1] += 1
        return {layer: tuple(v) for layer, v in totals.items()}

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0][1] == name)

    def attr_sum(self, name: str, field: str) -> float:
        return sum(
            s[4][field] for s in self.spans if s[0][1] == name and s[4]
        )

    def write_chrome_trace(self, path: str, origin: float, meta: dict) -> None:
        """Chrome-trace / Perfetto JSON: one complete event per span, in
        start order; ``args.parent`` is the index of the enclosing span's
        event (-1 for none)."""
        events = []
        for key, start, end, parent, attrs in self.spans:
            args = {"parent": parent}
            if attrs:
                args.update(attrs)
            events.append(
                {
                    "name": key[1],
                    "cat": key[0],
                    "ph": "X",
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "otherData": meta},
                fh,
                separators=(",", ":"),
            )


def patch_points() -> list:
    """``(layer, key, namespace, attribute, value, attrs)`` for every
    place a wrapper goes: the owning class (the value it resolves to,
    possibly inherited), or every loaded module whose global holds the
    wrapped function."""
    points = []
    for layer, owner, name, attrs in targets():
        key = (layer, f"{owner.__name__}.{name}")
        if isinstance(owner, type):
            raw = next(
                k.__dict__[name] for k in owner.__mro__ if name in k.__dict__
            )
            points.append((layer, key, owner, name, raw, attrs))
            continue
        fn = getattr(owner, name)
        points += [
            (layer, key, module, name, fn, attrs)
            for module in list(sys.modules.values())
            if getattr(module, name, None) is fn
        ]
    return points


def _wrapped(recorder, raw, key, attrs):
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(recorder.wrap(raw.__func__, key, attrs))
    return recorder.wrap(raw, key, attrs)


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every target for the duration of the block; on exit, put
    every original back and fail if any wrapper is left behind."""
    points = patch_points()
    saved = []
    try:
        for _, key, namespace, name, raw, attrs in points:
            inherited = isinstance(namespace, type) and name not in vars(
                namespace
            )
            saved.append((namespace, name, raw, inherited))
            setattr(namespace, name, _wrapped(recorder, raw, key, attrs))
        yield recorder
    finally:
        recorder.active = False
        for namespace, name, raw, inherited in reversed(saved):
            if inherited:
                delattr(namespace, name)
            else:
                setattr(namespace, name, raw)
    left = leaks()
    if left:
        raise RuntimeError(f"trace wrappers left installed: {left}")


def _is_wrapper(value) -> bool:
    return hasattr(getattr(value, "__func__", value), "bench_span")


def leaks() -> list[str]:
    """Wrapped calls that do not resolve to the program's original: at a
    patch point, or in any module global named like a wrapped function
    (a module imported while the wrappers were in place)."""
    left = [
        f"{getattr(p[2], '__name__', p[2])}.{p[3]}"
        for p in patch_points()
        if _is_wrapper(p[4])
    ]
    names = {
        name for _, owner, name, _ in targets() if not isinstance(owner, type)
    }
    left += [
        f"{module.__name__}.{name}"
        for module in list(sys.modules.values())
        for name in names
        if _is_wrapper(getattr(module, name, None))
    ]
    return left
