"""Stream capture: record multi-stream host code into a CUDA graph.

``cudaStreamBeginCapture`` semantics: operations issued to capturing
streams are recorded — not executed — together with their cross-stream
event dependencies, producing a :class:`CudaGraph`.  This is the paper's
second baseline: "stream-capture to wrap hand-optimized multi-stream
scheduling synchronized with CUDA events".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import GraphError
from repro.graphs.graph import CudaGraph, GraphNode
from repro.kernels.kernel import Kernel

if TYPE_CHECKING:
    from repro.graphs.planner import StreamPlanStep
    from repro.graphs.taskgraph import LaunchDecl

_capture_ids = itertools.count()


@dataclass
class CaptureStream:
    """A stream handle inside a capture region."""

    index: int
    last_node: GraphNode | None = None
    pending_deps: list[GraphNode] = field(default_factory=list)


@dataclass(frozen=True)
class CaptureEvent:
    """An event recorded during capture; resolves to the recording
    stream's latest node."""

    node: GraphNode | None
    event_id: int = field(default_factory=lambda: next(_capture_ids))


class StreamCapture:
    """Records hand-optimized stream/event host code into a graph."""

    def __init__(self, name: str = "captured") -> None:
        self.graph = CudaGraph(name=name)
        self._streams: list[CaptureStream] = []
        self._ended = False

    def stream(self) -> CaptureStream:
        """Open one capturing stream."""
        self._check_open()
        s = CaptureStream(index=len(self._streams))
        self._streams.append(s)
        return s

    def launch(
        self,
        stream: CaptureStream,
        kernel: Kernel,
        grid: int | tuple[int, ...],
        block: int | tuple[int, ...],
        args: tuple[Any, ...],
    ) -> GraphNode:
        """Record one kernel launch on ``stream``."""
        self._check_open()
        deps: list[GraphNode] = []
        if stream.last_node is not None:
            deps.append(stream.last_node)
        deps.extend(stream.pending_deps)
        stream.pending_deps.clear()
        node = self.graph.add_kernel_node(
            kernel, grid, block, tuple(args), deps=deps
        )
        stream.last_node = node
        return node

    def record_event(self, stream: CaptureStream) -> CaptureEvent:
        """``cudaEventRecord`` inside capture: snapshots stream state."""
        self._check_open()
        return CaptureEvent(node=stream.last_node)

    def wait_event(self, stream: CaptureStream, event: CaptureEvent) -> None:
        """``cudaStreamWaitEvent`` inside capture: adds a dependency to
        the next node recorded on ``stream``."""
        self._check_open()
        if event.node is not None:
            stream.pending_deps.append(event.node)

    def end_capture(self) -> CudaGraph:
        """``cudaStreamEndCapture``: returns the recorded graph."""
        self._check_open()
        if not self.graph.nodes:
            raise GraphError("capture recorded no operations")
        self._ended = True
        return self.graph

    def _check_open(self) -> None:
        if self._ended:
            raise GraphError("capture already ended")


def capture_plan(
    name: str,
    steps: Sequence[StreamPlanStep],
    launches: Sequence[LaunchDecl],
    kernels: Mapping[str, Kernel],
    arrays: Mapping[str, Any],
) -> CudaGraph:
    """Record ``launches`` as a hand-optimized host program would: one
    capturing stream per planned stream, and the planned cross-stream
    waits expressed through captured events."""
    capture = StreamCapture(name=name)
    streams = [
        capture.stream() for _ in range(1 + max(s.stream for s in steps))
    ]
    events: dict[int, CaptureEvent] = {}
    for launch, step in zip(launches, steps):
        stream = streams[step.stream]
        for w in step.waits:
            capture.wait_event(stream, events[w])
        capture.launch(
            stream,
            kernels[launch.kernel],
            launch.grid,
            launch.block,
            launch.resolve(arrays),
        )
        if step.record_event:
            events[step.index] = capture.record_event(stream)
    return capture.end_capture()
