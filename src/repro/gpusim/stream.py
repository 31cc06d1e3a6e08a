"""CUDA-style streams and events for the simulator.

Semantics follow the CUDA programming model:

* operations submitted to one stream execute in FIFO order;
* operations in different streams are unordered unless related through an
  event (``EventRecordOp`` / ``EventWaitOp``);
* an event *completes* when its record-op is reached in stream order,
  i.e. when every operation submitted to the stream before the record has
  completed.

The default stream (id 0) carries no special "legacy sync" behaviour here:
the paper's runtime always uses non-blocking streams, and the serial
baseline achieves its ordering by host synchronization instead.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable

from repro.errors import InvalidStateError
from repro.gpusim.ops import Operation

DEFAULT_STREAM_ID = 0

_event_counter = itertools.count()


class SimEvent:
    """A CUDA-event analogue.

    The event is created un-recorded; an :class:`EventRecordOp` submitted
    to a stream marks it complete when the stream reaches it.  ``complete``
    is monotonic: once set it never clears (CUDA events can be re-recorded,
    but the runtime in this library never reuses them, and forbidding reuse
    keeps the DAG acyclic by construction).
    """

    __slots__ = (
        "event_id", "label", "complete", "record_time", "_waiters"
    )

    def __init__(self, label: str = "") -> None:
        self.event_id: int = next(_event_counter)
        self.label = label
        self.complete: bool = False
        self.record_time: float = float("nan")
        #: streams parked on this event (blocked head waiting for it);
        #: the engine re-queues them when the record op fires.  Keyed by
        #: stream id so repeated parking never duplicates an entry.
        self._waiters: dict[int, "SimStream"] | None = None

    def _record(self, time: float) -> None:
        if self.complete:
            raise InvalidStateError(
                f"event {self.label or self.event_id} recorded twice"
            )
        self.complete = True
        self.record_time = time

    def add_waiter(self, stream: "SimStream") -> None:
        """Park ``stream`` until this event records (engine internal)."""
        if self._waiters is None:
            self._waiters = {}
        self._waiters[stream.stream_id] = stream

    def pop_waiters(self) -> tuple["SimStream", ...]:
        """Drain and return the parked streams (engine internal)."""
        if not self._waiters:
            return ()
        waiters = tuple(self._waiters.values())
        self._waiters = None
        return waiters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "complete" if self.complete else "pending"
        return f"<SimEvent {self.label or self.event_id} {state}>"


class SimStream:
    """A FIFO queue of operations.

    The engine pops the head operation when it becomes runnable (all its
    wait-events complete).  Streams track the set of in-flight operations
    so the stream manager can tell whether a stream is free for reuse.
    """

    def __init__(
        self, stream_id: int, label: str = "", device_index: int = 0
    ) -> None:
        self.stream_id = stream_id
        self.label = label or f"S{stream_id}"
        #: which GPU the stream belongs to (multi-GPU engines; 0 for the
        #: single-device setups of the paper's main evaluation)
        self.device_index = device_index
        self.pending: deque[Operation] = deque()
        self.running: Operation | None = None
        self.completed_count = 0
        self.destroyed = False
        #: called with the stream whenever it drains (busy -> free); the
        #: stream manager uses this to keep its free-list current in
        #: O(1) instead of scanning every stream per retrieval
        self.idle_callbacks: list[Callable[["SimStream"], None]] = []

    # -- submission ------------------------------------------------------

    def submit(self, op: Operation) -> None:
        """Append ``op`` to the stream's FIFO queue."""
        if self.destroyed:
            raise InvalidStateError(f"stream {self.label} was destroyed")
        if op.stream is not None:
            raise InvalidStateError(
                f"{op.describe()} already submitted to {op.stream.label}"
            )
        op.stream = self
        self.pending.append(op)

    # -- engine interface --------------------------------------------------

    def head_if_ready(self) -> Operation | None:
        """Return the head op if it can start now, else None."""
        if self.running is not None or not self.pending:
            return None
        head = self.pending[0]
        if head.waits_satisfied():
            return head
        return None

    def begin(self, op: Operation) -> None:
        if not self.pending or self.pending[0] is not op:
            raise InvalidStateError("op is not at the head of its stream")
        self.pending.popleft()
        self.running = op

    def finish(self, op: Operation) -> None:
        if self.running is not op:
            raise InvalidStateError("finishing an op that is not running")
        self.running = None
        self.completed_count += 1
        if not self.pending:
            for callback in self.idle_callbacks:
                callback(self)

    # -- queries -----------------------------------------------------------

    @property
    def busy(self) -> bool:
        """True while any operation is queued or running on this stream."""
        return self.running is not None or bool(self.pending)

    @property
    def free(self) -> bool:
        return not self.busy and not self.destroyed

    def destroy(self) -> None:
        """Mark the stream unusable.  Only legal when idle."""
        if self.busy:
            raise InvalidStateError(
                f"cannot destroy busy stream {self.label}"
            )
        self.destroyed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SimStream {self.label} queued={len(self.pending)}"
            f" running={self.running is not None}>"
        )
