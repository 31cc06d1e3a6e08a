"""Reusable-capture cache keyed on graph topology.

The first time a topology is served, the service pays the full
dependency-inference path *and* records the equivalent multi-stream
schedule through :class:`repro.graphs.capture.StreamCapture` — exactly
the stream-capture baseline of section V-D, run once per distinct
topology instead of once per program.  Every later request with the same
:meth:`~repro.graphs.taskgraph.TaskGraph.topology_key` replays the cached
plan: kernels are submitted straight onto pre-assigned streams with
pre-computed event waits, skipping per-launch dependency computation —
the CUDA-Graphs amortization, applied fleet-wide.

The plan itself is topology-pure (stream indices + wait edges), so it
serves every tenant; cache entries are keyed per **(graph topology,
slot shape)** — a multi-GPU fleet slot replays plan stream ``i`` on
slot device ``i % gpus``, so slots of different shapes (device count or
model mix) must not share an entry even though the wait edges coincide.
Correctness is unchanged because the plan derives from the same
dependency-set analysis the runtime scheduler performs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graphs.capture import capture_plan
from repro.graphs.graph import CudaGraph
from repro.graphs.planner import StreamPlanStep, launch_parents, plan_streams
from repro.graphs.taskgraph import TaskGraph
from repro.kernels.registry import build_kernel
from repro.memory.array import DeviceArray
from repro.obs.counters import CounterRegistry


@dataclass(frozen=True)
class CapturePlan:
    """One cached, replayable schedule for a graph topology."""

    steps: tuple[StreamPlanStep, ...]
    stream_count: int
    #: the captured CUDA graph (introspection: node/edge counts)
    captured: CudaGraph


class CaptureCache:
    """(topology, slot shape)-keyed cache of :class:`CapturePlan` s."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._plans: dict[tuple, CapturePlan] = {}
        #: hit/miss tallies, on the observability registry so the
        #: serve-bench summary reads them under one namespace
        self.counters = CounterRegistry()
        #: requests served from a cached plan (batch members ride
        #: their head's lookup)
        self._c_hits = self.counters.counter("serve.capture_hits")
        #: requests that paid the full inference path
        self._c_misses = self.counters.counter("serve.capture_misses")

    @property
    def hits(self) -> int:
        return self._c_hits.value

    @property
    def misses(self) -> int:
        return self._c_misses.value

    def __len__(self) -> int:
        return len(self._plans)

    def peek(
        self, graph: TaskGraph, shape_key: tuple | None = None
    ) -> bool:
        """Whether a plan is already cached for ``graph`` on a slot of
        ``shape_key`` — no counter effect, no plan derivation.  The
        cluster AFFINITY policy asks this about *other* nodes' caches;
        only a real dispatch may move the hit/miss tallies."""
        return (
            self.enabled
            and (graph.topology_key(), shape_key) in self._plans
        )

    def lookup(
        self,
        graph: TaskGraph,
        shape_key: tuple | None = None,
        requests: int = 1,
    ) -> CapturePlan | None:
        """The cached plan for ``graph``'s topology on a slot of
        ``shape_key`` (see :attr:`repro.serve.fleet.FleetSlot.shape_key`;
        None means a shape-agnostic single entry), or None on a miss:
        the plan is then derived and cached, and the caller takes the
        capture (context) path once.  Counts ``requests`` hits or
        misses, since a batch's members ride its head's lookup; a
        disabled cache counts nothing."""
        if not self.enabled:
            return None
        key = (graph.topology_key(), shape_key)
        plan = self._plans.get(key)
        if plan is not None:
            self._c_hits.value += requests
            return plan
        self._c_misses.value += requests
        self._plans[key] = derive_plan(graph)
        return None


def derive_plan(graph: TaskGraph) -> CapturePlan:
    """Derive the replay schedule for one topology.

    Dependencies come from :func:`~repro.graphs.planner.launch_parents`,
    the runtime scheduler's dependency-set analysis run offline; the
    resulting schedule is recorded through stream capture (streams +
    event record/wait calls, the section V-D baseline idiom) and kept
    both as plan steps for the replay executor and as the captured
    :class:`CudaGraph`.
    """
    steps = tuple(plan_streams(launch_parents(graph)))
    stream_count = 1 + max(s.stream for s in steps)

    placeholders = {
        name: DeviceArray(1, name=name) for name in graph.arrays
    }
    kernels = {
        k.name: build_kernel(k.fn, k.name, k.signature, cost_model=k.cost)
        for k in graph.kernels
    }
    captured = capture_plan(
        f"serve:{graph.name}", steps, graph.launches, kernels, placeholders
    )
    return CapturePlan(
        steps=steps,
        stream_count=stream_count,
        captured=captured,
    )
