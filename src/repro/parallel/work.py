"""Per-slot work units, the timing-only slot executor and the data
plane.

Serving is split in two.  The *control plane* simulates every request
timing-only: a :class:`SlotWork` carries everything one fleet slot needs
to simulate one placement round's batch — the requests, the
(pre-derived) capture plan, the dispatch-time fault draws — and
:func:`execute_slot_work` runs it against a
:class:`~repro.serve.fleet.FleetSlot` touching **no service-global
state**: no admission queue, no capture cache, no tenant accounting, no
shared tracer.  Arrays are virtual, kernels have no bodies, and each
request records the order in which the engine completed its kernels.
Everything the service needs back rides the returned
:class:`SlotOutcome`, which the service merges in slot-id order (see
``SchedulerService._merge_round``).

The *data plane* is one pure function, :func:`run_numerics`: a
completed request's kernels run once, in that recorded order, on the
graph's own inputs.  Virtual time never reads a computed value, so
where and when the data plane runs cannot change a simulated number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.context import submit_kernel
from repro.core.history import KernelExecutionRecord
from repro.kernels.kernel import Kernel, KernelLaunch
from repro.kernels.registry import build_kernel
from repro.memory.array import (
    AccessKind,
    DeviceArray,
    is_zero_block,
    read_only_view,
)
from repro.memory.coherence import CoherenceEngine
from repro.obs.trace import TraceEvent, Tracer

if TYPE_CHECKING:
    # repro.serve imports this package at run time (the service drives
    # the slot rounds), so the serving types are for annotations only.
    from repro.graphs.taskgraph import LaunchDecl, TaskGraph
    from repro.serve.capture import CapturePlan
    from repro.serve.fleet import FleetSlot
    from repro.serve.request import GraphRequest

__all__ = [
    "SlotOutcome",
    "SlotWork",
    "Submission",
    "execute_slot_work",
    "read_back",
    "run_numerics",
    "submit_context",
    "submit_replay",
]


@dataclass
class SlotWork:
    """One placement round's batch for one slot.

    Built sequentially by the service's plan phase (so admission,
    placement, capture-cache lookups and fault draws stay
    deterministic), then simulated by :func:`execute_slot_work`.
    """

    slot_index: int
    #: coalesced batch, head first (the service's plan phase popped
    #: these from the admission queue)
    batch: list[GraphRequest]
    #: pre-derived capture plan (None: context path — the plan was a
    #: cache miss, derived and cached for the *next* batch)
    plan: CapturePlan | None
    batch_id: int
    #: DEGRADE stretch factor pinned at dispatch time
    slowdown: float
    #: transfer-fault draw pinned at dispatch time (lifecycle state is
    #: service-owned; slot execution must not re-draw)
    transfer_fault: bool
    #: slot virtual time when the batch was planned (trace span start)
    clock_start: float


@dataclass
class SlotOutcome:
    """What one executed :class:`SlotWork` sends back to the service."""

    slot_index: int
    batch_id: int
    #: slot virtual time after the batch fully drained (post-degrade
    #: stretch; stream reclaim is clock-neutral)
    finish: float
    #: per batch member, in batch order:
    #: ``(request_id, order, start_time, read_clock)`` — ``order`` lists
    #: the member's launch indices in kernel completion order, and
    #: ``read_clock`` is the virtual time its outputs became readable
    #: (its result finish time, pre-stretch)
    results: list[tuple[int, list[int], float, float]]
    #: per batch member, in batch order: ``(tenant, kernel records)``
    histories: list[tuple[str, list[KernelExecutionRecord]]]
    #: buffered engine/coherence trace events (tracing runs only)
    trace_events: list[TraceEvent] | None = None


class Submission:
    """In-flight bookkeeping for one request inside a batch."""

    def __init__(
        self, request: GraphRequest, slot: FleetSlot, start_time: float
    ) -> None:
        self.request = request
        self.slot = slot
        self.start_time = start_time
        self.arrays: dict[str, DeviceArray] = {}
        self.context = None            # context path only
        self.coherence: CoherenceEngine | None = None   # replay path
        self.history: list[KernelExecutionRecord] = []  # replay path
        #: launch indices in the order the engine completed their kernels
        self.order: list[int] = []

    def recorder(self, index: int):
        """An op ``on_complete`` callback recording launch ``index``."""
        return lambda _op: self.order.append(index)


def bind_launch(
    kernel: Kernel, decl: LaunchDecl, arrays: dict[str, DeviceArray]
) -> KernelLaunch:
    """``decl``'s launch of ``kernel`` over ``arrays``, not yet
    submitted."""
    return kernel(decl.grid, decl.block).bind(*decl.resolve(arrays))


def submit_context(slot: FleetSlot, request: GraphRequest) -> Submission:
    """Serve one request through a fresh execution context: the full
    dependency-inference and device-placement scheduling path of the
    paper (on a multi-GPU slot the graph transparently spans the
    slot's devices)."""
    rt = slot.session
    graph = request.graph
    ctx = rt.renew_context(
        op_tags={
            "tenant": request.tenant,
            "request": request.request_id,
        },
        drain=False,
    )
    sub = Submission(request, slot, slot.engine.clock)
    sub.context = ctx
    for name, decl in graph.arrays.items():
        sub.arrays[name] = rt.array(
            decl.shape, dtype=decl.dtype, name=name, materialize=False
        )
    for name, decl in graph.arrays.items():
        if decl.init is not None:
            sub.arrays[name].touch_write_full()
    for i, launch_decl in enumerate(graph.launches):
        kernel = slot.kernel_for(graph.kernel_by_name(launch_decl.kernel))
        ctx.launch(
            bind_launch(kernel, launch_decl, sub.arrays),
            on_complete=sub.recorder(i),
        )
        slot.kernels_launched += 1
    return sub


def submit_replay(
    slot: FleetSlot,
    request: GraphRequest,
    plan: CapturePlan,
    config,
    member: int = 0,
) -> Submission:
    """Serve one request by replaying the cached capture plan:
    pre-assigned streams, pre-computed event waits, no per-launch
    dependency inference.  Plan stream ``i`` runs on slot device
    ``i % gpus`` (the deterministic mapping the plan was keyed under),
    and data movement flows through the request's own coherence
    engine."""
    rt = slot.session
    engine = slot.engine
    graph = request.graph
    tags = {
        "tenant": request.tenant,
        "request": request.request_id,
        "replay": True,
    }
    sub = Submission(request, slot, engine.clock)
    # Replay bypasses execution contexts, so the request gets its
    # own coherence engine: shared-input migration hazards, movement
    # policy, cross-acquire coalescing windows and state transitions
    # all live there (no manual coherence management on this path).
    coherence = CoherenceEngine(
        engine,
        policy=config.scheduler.resolve_movement(rt.spec),
        op_tags=tags,
        window=config.scheduler.movement_window,
    )
    sub.coherence = coherence
    # Each batch member replays on its own stream slice so members
    # space-share instead of serializing behind shared FIFOs.
    streams = slot.replay_streams(plan.stream_count, member=member)
    engine.charge_host_time(config.replay_overhead_us * 1e-6)

    for name, decl in graph.arrays.items():
        arr = DeviceArray(
            decl.shape, dtype=decl.dtype, devices=rt.devices,
            name=name, materialize=False,
        )
        rt.adopt_array(arr)  # freed with the batch
        if decl.init is not None:
            # No hook installed: declare the host write to the engine
            # so planned overlays and pending migrations reset too.
            coherence.cpu_access(arr, AccessKind.WRITE, arr.nbytes)
        sub.arrays[name] = arr

    events: dict[int, object] = {}
    for launch_decl, step in zip(graph.launches, plan.steps):
        stream = streams[step.stream]
        for w in step.waits:
            engine.wait_event(stream, events[w])

        kernel = slot.kernel_for(
            graph.kernel_by_name(launch_decl.kernel)
        )
        launch = bind_launch(kernel, launch_decl, sub.arrays)
        _, acq = submit_kernel(
            coherence, stream, launch, step.stream % slot.gpus,
            tags=tags, history=sub.history.append,
            on_complete=sub.recorder(step.index),
        )
        slot.kernels_launched += 1
        finish_event = None
        if step.record_event or acq.fault_replicas:
            finish_event = engine.record_event(
                stream, label=f"replay:{launch.label}"
            )
            coherence.register_fault_ordering(acq, finish_event)
        if step.record_event:
            events[step.index] = finish_event
    return sub


def read_back(sub: Submission) -> float:
    """Declare the reads of the request's outputs (synchronizing just
    enough) and return the virtual time they became readable.  No data
    moves: the data plane computes the outputs once the request
    completes.  Recording is a separate step — a mid-batch fault voids
    the whole batch *after* its readbacks were simulated."""
    engine = sub.slot.engine
    for name in sub.request.graph.outputs:
        arr = sub.arrays[name]
        if sub.context is not None:
            # Attached array: the CPU-access hook syncs producers
            # precisely and charges the readback migration.
            arr.touch_read_full()
        else:
            # Replay path (engine already drained): declare the
            # readback to the request's coherence engine, mirroring
            # the hook's behaviour on the context path.
            assert sub.coherence is not None
            sub.coherence.cpu_access(
                arr, AccessKind.READ, arr.nbytes,
                stream=engine.default_stream,
            )
    return engine.clock


def execute_slot_work(
    slot: FleetSlot,
    work: SlotWork,
    config,
    *,
    trace: bool = False,
) -> SlotOutcome:
    """Simulate one batch on one slot, timing-only.

    Touches only ``slot`` (its engine, session, counters, kernel
    caches) plus the work unit itself.  With ``trace``, engine and
    coherence events are buffered on a private tracer (restored on
    exit) and the service appends the buffers in slot-id order, so a
    trace never depends on the order slots were simulated in.
    """
    engine = slot.engine
    # getattr: frozen reference engines in the golden tests predate the
    # tracer attribute.
    saved_tracer = getattr(engine, "tracer", None)
    buffer = Tracer() if trace else None
    if buffer is not None:
        engine.tracer = buffer
    try:
        batch = work.batch
        # The slot idles until the last coalesced arrival (or retry
        # backoff floor): a batch cannot causally start before its
        # members exist (the classic batching latency trade).
        start_floor = max(r.dispatch_floor for r in batch)
        if engine.clock < start_floor:
            engine.charge_host_time(start_floor - engine.clock)
        t0 = engine.clock
        engine.charge_host_time(config.dispatch_overhead_us * 1e-6)
        plan = work.plan
        submissions = [
            submit_replay(slot, r, plan, config, member=i)
            if plan is not None
            else submit_context(slot, r)
            for i, r in enumerate(batch)
        ]
        if plan is not None:
            # Replay bypasses the per-array CPU hooks, so drain before
            # the manual readbacks below.
            engine.sync_all()
        read_clocks = [read_back(sub) for sub in submissions]
        engine.sync_all()
        if work.slowdown > 1.0 and engine.clock > t0:
            # A degraded slot stretches the whole batch span: the
            # extra wall time lands after the fact, which keeps the
            # in-batch schedule (and its completion order) untouched.
            engine.charge_host_time(
                (engine.clock - t0) * (work.slowdown - 1.0)
            )
        # Reclaim per-request streams and absorb per-request coherence
        # counters into the slot roll-up, so a long-lived slot engine
        # stays bounded.  Histories travel back to the service — tenant
        # accounting is service-owned.
        histories: list[tuple[str, list[KernelExecutionRecord]]] = []
        for sub in submissions:
            if sub.context is not None:
                records = [
                    rec
                    for name in sub.context.history.kernels()
                    for rec in sub.context.history.executions(name)
                ]
                engine.reclaim_streams(
                    sub.context.reclaimable_streams()
                )
                slot.counters.merge(sub.context.coherence.counters)
            else:
                records = list(sub.history)
                assert sub.coherence is not None
                engine.reclaim_streams(
                    sub.coherence.take_owned_streams()
                )
                slot.counters.merge(sub.coherence.counters)
            histories.append((sub.request.tenant, records))
        slot.session.free_arrays()
        finish = engine.clock
        return SlotOutcome(
            slot_index=work.slot_index,
            batch_id=work.batch_id,
            finish=finish,
            results=[
                (sub.request.request_id, sub.order, sub.start_time, clock)
                for sub, clock in zip(submissions, read_clocks)
            ],
            histories=histories,
            trace_events=list(buffer.events) if buffer is not None else None,
        )
    finally:
        if buffer is not None:
            engine.tracer = saved_tracer


def run_numerics(
    graph: TaskGraph, order: Sequence[int]
) -> dict[str, np.ndarray]:
    """The data plane: run ``graph``'s launches once each, in
    ``order`` (launch indices, as the kernels completed in the
    simulation), and return the graph's outputs.

    An input no launch writes is read in place, through a read-only
    view, so a kernel writing through a ``const`` pointer raises
    :class:`ValueError` instead of changing the graph.  Every written
    array is private: zeros, or a copy of its non-zero input.  Written
    outputs are returned uncopied and unwritten ones are copied, so
    results never alias inputs.
    """
    written = graph.written_arrays()
    arrays = {}
    for name, decl in graph.arrays.items():
        buffer = None  # fresh zeros
        if decl.init is not None and name not in written:
            buffer = read_only_view(decl.init, decl.dtype)
        elif decl.init is not None and not is_zero_block(decl.init):
            buffer = np.array(decl.init, dtype=decl.dtype)
        arrays[name] = DeviceArray(
            decl.shape, dtype=decl.dtype, name=name, buffer=buffer
        )
    kernels = {
        k.name: build_kernel(k.fn, k.name, k.signature, cost_model=k.cost)
        for k in graph.kernels
    }
    for i in order:
        decl = graph.launches[i]
        bind_launch(kernels[decl.kernel], decl, arrays).execute()
    return {
        name: (
            arrays[name].kernel_view
            if name in written
            else arrays[name].kernel_view.copy()
        )
        for name in graph.outputs
    }
