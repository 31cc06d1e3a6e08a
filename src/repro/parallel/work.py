"""Picklable per-slot work units and the slot-local batch executor.

This module is the isolation boundary of the parallel substrate: a
:class:`SlotWork` carries *everything* one fleet slot needs to simulate
one placement round's batch — the requests, the (pre-derived) capture
plan, the dispatch-time fault draws — and :func:`execute_slot_work`
runs it against a :class:`~repro.serve.fleet.FleetSlot` touching **no
service-global state**: no admission queue, no capture cache, no tenant
accounting, no shared tracer.  Everything the service needs back rides
the returned :class:`SlotOutcome`, which the parent merges in slot-id
order (see ``SchedulerService._merge_round``) so both execution
strategies — sequential and process — produce bit-identical reports.

The submission helpers (:func:`submit_context`, :func:`submit_replay`,
:func:`read_outputs`) are the former ``SchedulerService`` private
methods, hoisted to module level so worker processes can import them
by qualified name (a bound-method closure would not pickle).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.context import submit_kernel
from repro.core.history import KernelExecutionRecord
from repro.gpusim.timeline import TimelineRecord
from repro.kernels.kernel import KernelLaunch, normalize_dim
from repro.memory.array import AccessKind, DeviceArray, is_zero_block
from repro.memory.coherence import CoherenceEngine
from repro.obs.trace import TraceEvent, Tracer

if TYPE_CHECKING:
    # repro.serve imports this package at run time (the service drives
    # the strategies), so the serving types are for annotations only.
    from repro.serve.capture import CapturePlan
    from repro.serve.fleet import FleetSlot
    from repro.serve.request import GraphRequest

__all__ = [
    "SlotOutcome",
    "SlotWork",
    "Submission",
    "execute_slot_work",
    "read_outputs",
    "submit_context",
    "submit_replay",
]


@dataclass
class SlotWork:
    """One placement round's batch for one slot.

    Built sequentially by the service's plan phase (so admission,
    placement, capture-cache lookups and fault draws stay
    deterministic), then executed by whichever strategy the service
    runs.  Picklable end to end for the process strategy.
    """

    slot_index: int
    #: coalesced batch, head first (the service's plan phase popped
    #: these from the admission queue)
    batch: list[GraphRequest]
    #: pre-derived capture plan (None: context path — the plan was a
    #: cache miss, derived and cached parent-side for the *next* batch)
    plan: CapturePlan | None
    batch_id: int
    #: DEGRADE stretch factor pinned at dispatch time
    slowdown: float
    #: transfer-fault draw pinned at dispatch time (lifecycle state is
    #: parent-owned; workers must not re-draw)
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
    #: ``(request_id, outputs, start_time, read_clock)`` — the virtual
    #: time the member's outputs became readable (its result finish
    #: time, pre-stretch)
    results: list[tuple[int, dict[str, np.ndarray], float, float]]
    #: per batch member, in batch order: ``(tenant, kernel records)``
    histories: list[tuple[str, list[KernelExecutionRecord]]]
    #: buffered engine/coherence trace events (tracing runs only)
    trace_events: list[TraceEvent] | None = None
    # -- process strategy only: slot-state deltas the parent mirrors --
    #: timeline records appended by this batch (meta sanitized to
    #: picklable primitives); None for in-process strategies, which
    #: mutate the real slot engine directly
    timeline_records: list[TimelineRecord] | None = None
    #: absolute engine counter snapshot after the batch
    engine_counters: dict | None = None
    #: absolute slot roll-up counter snapshot after the batch
    slot_counters: dict | None = None
    #: absolute kernels-launched total for the slot
    kernels_launched: int = 0


class Submission:
    """In-flight bookkeeping for one request inside a batch."""

    def __init__(
        self,
        request: GraphRequest,
        slot: FleetSlot,
        start_time: float,
        batch_id: int,
        batch_size: int,
        replayed: bool,
    ) -> None:
        self.request = request
        self.slot = slot
        self.start_time = start_time
        self.batch_id = batch_id
        self.batch_size = batch_size
        self.replayed = replayed
        self.arrays: dict[str, DeviceArray] = {}
        self.context = None            # context path only
        self.coherence: CoherenceEngine | None = None   # replay path
        self.history: list[KernelExecutionRecord] = []  # replay path


def submit_context(
    slot: FleetSlot,
    request: GraphRequest,
    config,
    batch_id: int,
    batch_size: int,
) -> Submission:
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
    sub = Submission(
        request, slot, slot.engine.clock, batch_id, batch_size,
        replayed=False,
    )
    sub.context = ctx
    for name, decl in graph.arrays.items():
        sub.arrays[name] = rt.array(
            decl.shape, dtype=decl.dtype, name=name
        )
    for name, decl in graph.arrays.items():
        if decl.init is not None:
            sub.arrays[name].copy_from_host(decl.init)
    for launch in graph.launches:
        kernel = slot.kernel_for(graph.kernel_by_name(launch.kernel))
        args = tuple(
            sub.arrays[a] if isinstance(a, str) else a
            for a in launch.args
        )
        kernel(launch.grid, launch.block)(*args)
        slot.kernels_launched += 1
    return sub


def submit_replay(
    slot: FleetSlot,
    request: GraphRequest,
    plan: CapturePlan,
    config,
    batch_id: int,
    batch_size: int,
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
    sub = Submission(
        request, slot, engine.clock, batch_id, batch_size,
        replayed=True,
    )
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

    written = graph.written_arrays()
    for name, decl in graph.arrays.items():
        # An input no launch writes is read in place: the array adopts
        # a read-only view of it, so a kernel writing through a const
        # pointer raises instead of changing the graph.
        buffer = (
            _read_only_view(decl.init, decl.dtype)
            if decl.init is not None and name not in written
            else None
        )
        arr = DeviceArray(
            decl.shape, dtype=decl.dtype, devices=rt.devices,
            name=name, buffer=buffer,
        )
        rt.adopt_array(arr)  # freed with the batch
        if decl.init is not None:
            # An adopted buffer already holds the input, and a fresh
            # one is already zero.
            if buffer is None and not is_zero_block(decl.init):
                arr.copy_from_host(decl.init)
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
        bound = kernel.bind_args(
            tuple(
                sub.arrays[a] if isinstance(a, str) else a
                for a in launch_decl.args
            )
        )
        launch = KernelLaunch(
            kernel=bound.kernel,
            grid=normalize_dim(launch_decl.grid),
            block=normalize_dim(launch_decl.block),
            args=bound.args,
            array_args=bound.array_args,
            scalar_args=bound.scalar_args,
        )
        _, acq = submit_kernel(
            coherence, stream, launch, step.stream % slot.gpus,
            tags=tags, history=sub.history.append,
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


def read_outputs(
    sub: Submission,
) -> tuple[dict[str, np.ndarray], float]:
    """Read the request's outputs (synchronizing just enough);
    returns them with the virtual time they became readable.
    Recording is a separate step — a mid-batch fault voids the
    whole batch *after* its outputs were (wastefully) read.

    On the replay path a written output's buffer goes to the result
    uncopied: the batch frees its arrays right after.  An output no
    launch writes is copied, so results never alias graph inputs."""
    engine = sub.slot.engine
    graph = sub.request.graph
    written = graph.written_arrays()
    outputs: dict[str, np.ndarray] = {}
    for name in graph.outputs:
        arr = sub.arrays[name]
        if sub.context is not None:
            # Attached array: the CPU-access hook syncs producers
            # precisely and charges the readback migration.
            outputs[name] = arr.to_numpy()
        else:
            # Replay path (engine already drained): declare the
            # readback to the request's coherence engine, mirroring
            # the hook's behaviour on the context path.
            assert sub.coherence is not None
            sub.coherence.cpu_access(
                arr, AccessKind.READ, arr.nbytes,
                stream=engine.default_stream,
            )
            outputs[name] = (
                arr.kernel_view
                if name in written
                else arr.kernel_view.copy()
            )
    return outputs, engine.clock


def _read_only_view(init: np.ndarray, dtype) -> np.ndarray:
    """``init`` as ``dtype`` (converted only on a mismatch), through a
    view that cannot write it."""
    view = np.asarray(init, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _sanitize_meta(meta: dict) -> dict:
    """Timeline-record meta restricted to picklable primitives; the
    Chrome exporter's ``_clean_args`` drops everything else anyway, so
    exports from mirrored records stay identical."""
    return {
        k: v
        for k, v in meta.items()
        if v is None or isinstance(v, (str, int, float, bool))
    }


def execute_slot_work(
    slot: FleetSlot,
    work: SlotWork,
    config,
    *,
    trace: bool = False,
    collect_state: bool = False,
) -> SlotOutcome:
    """Simulate one batch on one slot; the parallel-safe core of the
    old ``SchedulerService._execute_batch``.

    Touches only ``slot`` (its engine, session, counters, kernel
    caches) plus the work unit itself.  With ``trace``, engine and
    coherence events are buffered on a private tracer (restored on
    exit) so concurrent slots cannot interleave a shared event list —
    the parent appends the buffers in slot-id order.  With
    ``collect_state`` (the process strategy), the outcome additionally
    carries the timeline/counter deltas the parent mirrors onto its
    own slot objects.
    """
    engine = slot.engine
    # getattr: frozen reference engines in the golden tests predate the
    # tracer attribute.
    saved_tracer = getattr(engine, "tracer", None)
    buffer = Tracer() if trace else None
    if buffer is not None:
        engine.tracer = buffer
    timeline_cursor = (
        len(engine.timeline.records) if collect_state else 0
    )
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
            submit_replay(
                slot, r, plan, config, work.batch_id, len(batch),
                member=i,
            )
            if plan is not None
            else submit_context(
                slot, r, config, work.batch_id, len(batch)
            )
            for i, r in enumerate(batch)
        ]
        if plan is not None:
            # Replay bypasses the per-array CPU hooks, so drain before
            # the manual readbacks below.
            engine.sync_all()
        finalized = [
            (sub, *read_outputs(sub)) for sub in submissions
        ]
        engine.sync_all()
        if work.slowdown > 1.0 and engine.clock > t0:
            # A degraded slot stretches the whole batch span: the
            # extra wall time lands after the fact, which keeps the
            # in-batch schedule (and its numerics) untouched.
            engine.charge_host_time(
                (engine.clock - t0) * (work.slowdown - 1.0)
            )
        # Reclaim per-request streams and absorb per-request coherence
        # counters into the slot roll-up, so a long-lived slot engine
        # stays bounded.  Histories travel back to the parent — tenant
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
        results = [
            (sub.request.request_id, outputs, sub.start_time, read_clock)
            for sub, outputs, read_clock in finalized
        ]
        outcome = SlotOutcome(
            slot_index=work.slot_index,
            batch_id=work.batch_id,
            finish=finish,
            results=results,
            histories=histories,
            trace_events=list(buffer.events) if buffer is not None else None,
        )
        if collect_state:
            outcome.timeline_records = [
                dataclasses.replace(rec, meta=_sanitize_meta(rec.meta))
                for rec in engine.timeline.records[timeline_cursor:]
            ]
            outcome.engine_counters = engine.counters.snapshot()
            outcome.slot_counters = slot.counters.snapshot()
            outcome.kernels_launched = slot.kernels_launched
        return outcome
    finally:
        if buffer is not None:
            engine.tracer = saved_tracer
