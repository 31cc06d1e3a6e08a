"""Static dependency analysis and stream planning of task graphs.

:func:`launch_parents` derives a task graph's dependencies with the same
dependency-set analysis the runtime scheduler performs.  Given that
structure, :func:`plan_streams` assigns each node a stream and derives
the cross-stream event waits — the schedule a skilled CUDA programmer
writes by hand (the Fig. 6 coloring), shared by the baseline executors
and the serving layer's capture cache:

* the first child of a node inherits its stream (no event needed);
* otherwise reuse a stream whose current tail is an *ancestor* of the
  node — work there is already ordered before us, so the stream is
  logically free (this is what keeps iterated pipelines like HITS on two
  streams instead of leaking one stream per iteration);
* otherwise open a new stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dag import ComputationDAG
from repro.core.element import ComputationalElement
from repro.graphs.taskgraph import TaskGraph
from repro.memory.array import DeviceArray


@dataclass(frozen=True)
class StreamPlanStep:
    """Planned placement for one node of a static schedule."""

    index: int
    stream: int
    waits: tuple[int, ...]
    record_event: bool


def launch_parents(graph: TaskGraph) -> list[list[int]]:
    """Per launch of ``graph``, the indices of the launches it depends on.

    The runtime scheduler's dependency-set analysis, run offline on
    placeholder arrays: the parents of a launch are exactly those the
    execution context would make it wait for.
    """
    accesses_of = graph.signature_accesses()
    placeholders = {
        name: DeviceArray(1, name=name) for name in graph.arrays
    }
    dag = ComputationDAG()
    index_of: dict[int, int] = {}
    parents_of: list[list[int]] = []
    for i, launch in enumerate(graph.launches):
        element = ComputationalElement(
            [
                (placeholders[n], k)
                for n, k in zip(launch.array_names, accesses_of[launch.kernel])
            ],
            label=f"{launch.kernel}#{i}",
        )
        index_of[element.element_id] = i
        parents_of.append([index_of[p.element_id] for p in dag.add(element)])
    return parents_of


def plan_streams(parents_of: list[list[int]]) -> list[StreamPlanStep]:
    """Assign streams/events for nodes with the given parent lists.

    ``parents_of[i]`` holds indices ``< i`` (the list must be in
    topological/insertion order).
    """
    n = len(parents_of)
    stream_of: list[int] = [0] * n
    ancestors: list[set[int]] = [set() for _ in range(n)]
    children_seen = [0] * n
    tails: list[int | None] = []  # per stream: last node placed on it

    for i in range(n):
        for p in parents_of[i]:
            ancestors[i] |= ancestors[p]
            ancestors[i].add(p)

        stream = -1
        for p in parents_of[i]:
            if children_seen[p] == 0:
                stream = stream_of[p]
                break
        if stream < 0:
            # Reuse the oldest stream whose tail is already ordered
            # before this node; else open a new one.
            for s, tail in enumerate(tails):
                if tail is None or tail in ancestors[i]:
                    stream = s
                    break
            else:
                stream = len(tails)
                tails.append(None)

        # Stream FIFO ordering adds an implicit edge from the tail.
        tail = tails[stream]
        if tail is not None:
            ancestors[i] |= ancestors[tail]
            ancestors[i].add(tail)
        tails[stream] = i
        stream_of[i] = stream
        for p in parents_of[i]:
            children_seen[p] += 1

    steps: list[StreamPlanStep] = []
    needs_event = [False] * n
    waits_of: list[tuple[int, ...]] = []
    for i in range(n):
        waits = tuple(
            sorted(
                p
                for p in set(parents_of[i])
                if stream_of[p] != stream_of[i]
            )
        )
        waits_of.append(waits)
        for p in waits:
            needs_event[p] = True
    for i in range(n):
        steps.append(
            StreamPlanStep(
                index=i,
                stream=stream_of[i],
                waits=waits_of[i],
                record_event=needs_event[i],
            )
        )
    return steps
