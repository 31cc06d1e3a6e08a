"""The CUDA Graphs API on the simulator.

Mirrors the C++ API shape: build a graph of kernel/memcpy nodes with
explicit dependencies (``cudaGraphAddKernelNode``), ``instantiate()``
once — computing the stream plan and amortizing setup — then ``launch()``
it many times with near-zero host overhead.

Unified-memory behaviour matches the paper's observation: a launched
graph does *not* prefetch; stale arrays reach the GPU through page
faults (Pascal+) or are moved eagerly ahead of each kernel (Maxwell,
which has no fault mechanism).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.core.context import submit_kernel
from repro.errors import GraphError
from repro.gpusim.engine import SimEngine
from repro.gpusim.stream import SimEvent, SimStream
from repro.kernels.kernel import Kernel, KernelLaunch, normalize_dim
from repro.memory.coherence import CoherenceEngine, MovementPolicy

_node_counter = itertools.count()

#: One-time host cost of launching an instantiated graph.  Tiny: the
#: whole point of CUDA Graphs is that per-kernel launch overhead is paid
#: at instantiation, not per launch.
GRAPH_LAUNCH_OVERHEAD_US = 3.0

#: One-time cost of building + instantiating a graph (section II notes
#: "initialization overheads due to graph creation"); amortized over many
#: launches in the paper's setup.
GRAPH_INSTANTIATE_OVERHEAD_US = 300.0


class NodeKind(enum.Enum):
    KERNEL = "kernel"
    EMPTY = "empty"


@dataclass
class GraphNode:
    """One node of a CUDA graph."""

    kind: NodeKind
    label: str
    launch: KernelLaunch | None = None
    deps: tuple["GraphNode", ...] = ()
    node_id: int = field(default_factory=lambda: next(_node_counter))
    # Filled by instantiate():
    stream_index: int = -1
    needs_event: bool = False

    def __hash__(self) -> int:
        return self.node_id


class CudaGraph:
    """A graph under construction (``cudaGraphCreate``)."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.nodes: list[GraphNode] = []
        self._node_set: set[int] = set()

    def add_kernel_node(
        self,
        kernel: Kernel,
        grid: int | tuple[int, ...],
        block: int | tuple[int, ...],
        args: tuple[Any, ...],
        deps: list[GraphNode] | tuple[GraphNode, ...] = (),
    ) -> GraphNode:
        """``cudaGraphAddKernelNode``: explicit dependencies, no capture."""
        launch = kernel.bind_args(
            tuple(args), normalize_dim(grid), normalize_dim(block)
        )
        return self._add(
            GraphNode(
                kind=NodeKind.KERNEL,
                label=kernel.name,
                launch=launch,
                deps=tuple(deps),
            )
        )

    def add_empty_node(
        self, deps: list[GraphNode] | tuple[GraphNode, ...] = ()
    ) -> GraphNode:
        """``cudaGraphAddEmptyNode``: a pure synchronization point."""
        return self._add(
            GraphNode(kind=NodeKind.EMPTY, label="empty", deps=tuple(deps))
        )

    def _add(self, node: GraphNode) -> GraphNode:
        for dep in node.deps:
            if dep.node_id not in self._node_set:
                raise GraphError(
                    f"dependency {dep.label!r} is not part of graph"
                    f" {self.name!r}"
                )
        self.nodes.append(node)
        self._node_set.add(node.node_id)
        return node

    def instantiate(self) -> "ExecutableGraph":
        """``cudaGraphInstantiate``: freeze the stream plan.

        Stream assignment uses the shared static planner (the same
        first-child-inherits / ancestor-reuse rules a skilled programmer
        applies — and that the paper's runtime scheduler converges to).
        Nodes with cross-stream children are flagged to record an event.
        """
        if not self.nodes:
            raise GraphError(f"graph {self.name!r} is empty")
        from repro.graphs.planner import plan_streams

        index_of = {n.node_id: i for i, n in enumerate(self.nodes)}
        parents_of = [
            [index_of[d.node_id] for d in n.deps] for n in self.nodes
        ]
        plan = plan_streams(parents_of)
        for node, step in zip(self.nodes, plan):
            node.stream_index = step.stream
            node.needs_event = step.record_event
        return ExecutableGraph(self)


class ExecutableGraph:
    """An instantiated graph, launchable many times (``cudaGraphLaunch``).

    The first launch on an engine charges the instantiation overhead;
    subsequent launches only pay the (tiny) replay cost — exactly the
    amortization the paper grants the CUDA Graphs baselines.
    """

    def __init__(self, graph: CudaGraph) -> None:
        self.graph = graph
        self.stream_count = 1 + max(n.stream_index for n in graph.nodes)
        self._engine_streams: dict[int, list[SimStream]] = {}
        # One coherence engine per sim engine, persistent across
        # launches: transitions commit at op completion, so a per-launch
        # engine would re-plan movement a still-in-flight previous
        # launch already has on the wire (launch() is asynchronous).
        self._engine_coherence: dict[int, CoherenceEngine] = {}
        self.launch_count = 0

    def _streams_for(self, engine: SimEngine) -> list[SimStream]:
        key = id(engine)
        if key not in self._engine_streams:
            self._engine_streams[key] = [
                engine.create_stream(label=f"{self.graph.name}-{i}")
                for i in range(self.stream_count)
            ]
            engine.charge_host_time(GRAPH_INSTANTIATE_OVERHEAD_US * 1e-6)
        return self._engine_streams[key]

    def launch(self, engine: SimEngine) -> None:
        """Replay the graph once on ``engine`` (asynchronous).

        A launched graph does not prefetch: data movement runs under the
        ``PAGE_FAULT`` policy (degrading to eager copies on pre-Pascal
        devices, where the coherence engine issues the shared-input
        copies on the first reader's stream and orders later readers on
        other streams behind the migration event — the same hazard every
        other mode faces).
        """
        streams = self._streams_for(engine)
        engine.charge_host_time(GRAPH_LAUNCH_OVERHEAD_US * 1e-6)
        self.launch_count += 1
        events: dict[int, SimEvent] = {}
        coherence = self._engine_coherence.get(id(engine))
        if coherence is None:
            coherence = CoherenceEngine(
                engine, policy=MovementPolicy.PAGE_FAULT
            )
            self._engine_coherence[id(engine)] = coherence
        for node in self.graph.nodes:
            stream = streams[node.stream_index]
            for dep in node.deps:
                if dep.stream_index != node.stream_index:
                    engine.wait_event(stream, events[dep.node_id])
            if node.kind is NodeKind.KERNEL:
                assert node.launch is not None
                submit_kernel(coherence, stream, node.launch)
            if node.needs_event:
                events[node.node_id] = engine.record_event(
                    stream, label=f"g:{node.label}"
                )
