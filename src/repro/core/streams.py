"""Transparent CUDA-stream management (section IV-C).

The stream manager owns every stream the scheduler uses and implements
the paper's assignment rules:

* an element without dependencies gets a *free* stream — existing streams
  are scanned in FIFO (creation) order, and a new stream is created only
  when none is free;
* the **first** child of a computation inherits its parent's stream,
  avoiding a synchronization event (consecutive work on one stream is
  ordered by CUDA already); further children get free/new streams to
  preserve concurrency;
* cross-stream dependencies synchronize through the parent's finish
  event, never by blocking the host.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.core.element import ComputationalElement
from repro.core.policies import NewStreamPolicy, ParentStreamPolicy
from repro.gpusim.engine import SimEngine
from repro.gpusim.stream import SimStream


class _FreeList:
    """The streams free for reuse, as creation indices on a heap, fed by
    each stream's idle callback (:meth:`note_idle`).  It holds ints
    only, so the callback a manager leaves on each of its streams makes
    no reference cycle with the manager: a dropped manager is freed by
    reference counting."""

    __slots__ = ("heap", "queued", "index_of")

    def __init__(self) -> None:
        #: creation indices of free streams; the *oldest* is reused
        #: first (the paper's FIFO rule)
        self.heap: list[int] = []
        #: the creation indices on the heap
        self.queued: set[int] = set()
        #: stream id -> creation index
        self.index_of: dict[int, int] = {}

    def note_idle(self, stream: SimStream) -> None:
        """Idle callback: the stream drained and is reusable again."""
        index = self.index_of[stream.stream_id]
        if index in self.queued or stream.destroyed:
            return
        self.queued.add(index)
        heapq.heappush(self.heap, index)


class StreamManager:
    """Allocates and reuses simulator streams per the configured policies.

    Free-stream retrieval is constant-time: instead of scanning every
    stream per retrieval (O(n) per scheduled computation — measurable on
    long-lived engines with hundreds of streams), the manager keeps a
    free-list ordered by creation index, fed by each stream's idle
    callback when its last queued operation completes.  Entries are
    validated lazily at pop time, so a stream that went busy again since
    enqueueing is simply skipped; each stream enters the list at most
    once per idle transition, keeping the amortized cost per retrieval
    O(1) (O(log n) heap maintenance in the worst case).
    """

    def __init__(
        self,
        engine: SimEngine,
        new_stream: NewStreamPolicy = NewStreamPolicy.FIFO,
        parent_stream: ParentStreamPolicy = ParentStreamPolicy.DISJOINT,
        stream_factory: Callable[[int], SimStream] | None = None,
    ) -> None:
        self.engine = engine
        self.new_stream_policy = new_stream
        self.parent_stream_policy = parent_stream
        #: optional override producing engine streams, called with the
        #: new stream's creation index (the parallel context pins each
        #: device's manager's streams to that device)
        self._factory = stream_factory
        self._streams: list[SimStream] = []
        self._free = _FreeList()
        self.created_count = 0
        self.reused_count = 0

    # -- free-stream retrieval ------------------------------------------------

    def _create_stream(self) -> SimStream:
        index = len(self._streams)
        if self._factory is not None:
            stream = self._factory(index)
        else:
            stream = self.engine.create_stream(label=f"grcuda-{index}")
        self._free.index_of[stream.stream_id] = index
        self._streams.append(stream)
        stream.idle_callbacks.append(self._free.note_idle)
        self.created_count += 1
        return stream

    def retrieve_free_stream(self) -> SimStream:
        """A stream with no in-flight work, per the new-stream policy."""
        free = self._free
        if self.new_stream_policy is NewStreamPolicy.FIFO:
            while free.heap:
                stream = self._streams[free.heap[0]]
                if stream.free:
                    # Left in the list: it stays retrievable until work
                    # is actually submitted to it, like the old scan.
                    self.reused_count += 1
                    return stream
                # Stale entry: the stream went busy (or was destroyed)
                # after it was enqueued; its next idle re-enqueues it.
                free.queued.discard(heapq.heappop(free.heap))
        stream = self._create_stream()
        # A created-but-never-used stream is still free: keep it
        # retrievable (FIFO scan semantics) until work is submitted.
        free.note_idle(stream)
        return stream

    # -- element assignment ------------------------------------------------------

    def assign(
        self,
        element: ComputationalElement,
        parents: list[ComputationalElement],
    ) -> SimStream:
        """Choose the execution stream for ``element``.

        ``parents`` are the dependencies just inferred by the DAG (their
        ``children_count`` already includes ``element``).  The chosen
        stream is recorded on the element; the caller submits the ops and
        the cross-stream event waits.
        """
        stream = self._choose(parents)
        element.stream = stream
        return stream

    def _choose(self, parents: list[ComputationalElement]) -> SimStream:
        if not parents:
            return self.retrieve_free_stream()
        if self.parent_stream_policy is ParentStreamPolicy.SAME_AS_PARENT:
            parent = parents[0]
            assert parent.stream is not None
            return parent.stream
        # DISJOINT: reuse the stream of a parent for which we are the
        # first child; otherwise take a free stream.
        for parent in parents:
            if parent.children_count == 1 and parent.stream is not None:
                return parent.stream
        return self.retrieve_free_stream()

    # -- introspection ---------------------------------------------------------

    @property
    def streams(self) -> tuple[SimStream, ...]:
        return tuple(self._streams)

    @property
    def active_stream_count(self) -> int:
        return sum(1 for s in self._streams if s.busy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StreamManager streams={len(self._streams)}"
            f" busy={self.active_stream_count}>"
        )
