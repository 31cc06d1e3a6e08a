"""The unified coherence & data-movement engine.

Every execution mode — the serial and parallel contexts, CUDA-graph
replay, the hand-tuned baseline and the serving layer's capture replay
— moves the same bytes for the same reasons: a computation is about to
read an array whose copy on its device is stale, or host code is about
to touch an array the GPUs own.  This module owns that logic once,
behind one :class:`CoherenceEngine` API over location sets (the host
plus any subset of devices holding a valid copy; a single GPU is the
one-device case):

* executors *declare accesses* (:meth:`CoherenceEngine.acquire` before
  submitting a compute op on a device, :meth:`CoherenceEngine.release`
  to bind the resulting location-set transitions to it,
  :meth:`CoherenceEngine.cpu_access` for host-side touches);
* the engine *plans* the :class:`~repro.gpusim.ops.TransferOp` s a
  pluggable :class:`MovementPolicy` calls for — host uploads, or
  peer-to-peer copies from the cheapest valid replica — *orders* them
  against in-flight migrations issued on other streams (the
  shared-input hazard), and *applies* location-set transitions when the
  operation completes on the simulated device — never when planned — so
  that concurrent planning observes a consistent split between the
  *committed* set (what the hardware has done) and the *planned*
  overlay (what is already in flight).

Movement policies
-----------------

``PAGE_FAULT``
    Lazy: stale pages reach the GPU through the Pascal+ fault engine,
    charged to the faulting kernel itself.  This is plain UM behaviour
    and what a launched CUDA graph gets (graphs do not prefetch).
``EAGER_PREFETCH``
    Issue a copy as soon as the DAG schedules a consumer
    (``cudaMemPrefetchAsync`` ahead of the kernel) — the paper's
    prefetching mode.  On pre-Pascal devices the copy is a synchronous
    eager transfer; the fault path does not exist there.
``BATCHED``
    Like ``EAGER_PREFETCH``, but the stale inputs of one acquire that
    share a source are coalesced into a single transfer operation
    (adjacent-array copies ride one DMA submission), trading per-op
    overhead for transfer granularity.  With ``window=0`` (the default)
    coalescing is per *acquire*.  With ``window=N > 0`` the engine runs
    a **submission-window coalescer**: the stale inputs of up to ``N``
    adjacent acquires are deferred onto a dedicated transfer stream per
    destination and merged into one DMA submission per (source,
    destination) pair, flushed when the window fills, when the host
    synchronizes (engine pre-sync hooks), on a CPU access, or at a
    policy boundary (an acquire under a different policy or transfer
    kind).  Consumers park on the window's pre-created event, so
    correctness is unchanged — only the number of transfer submissions
    shrinks.

All three are functionally identical — values live in one numpy buffer;
the policies only decide *when* and *in how many pieces* the simulator
charges the movement.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Sequence

from repro.gpusim.ops import (
    Operation,
    TransferDirection,
    TransferKind,
    TransferOp,
)
from repro.gpusim.stream import SimEvent
from repro.memory.array import AccessKind, DeviceArray, migration_source
from repro.memory.pages import writeback_bytes
from repro.obs.counters import CounterRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gpusim.engine import SimEngine
    from repro.gpusim.stream import SimStream


#: ``CoherenceEngine._pending`` entry of a copy with nothing in flight
_NOTHING_PENDING: tuple[None, None] = (None, None)

#: The location-set transitions a completing op commits (the ``kind`` of
#: a ``(array, kind, device, epoch)`` transition): a device obtained a
#: valid copy, a device wrote the array, or the host obtained one.
_MARK_READ, _MARK_WRITE, _MARK_CPU_READ = range(3)


class MovementPolicy(enum.Enum):
    """How the runtime moves stale data to the device (see module docs)."""

    PAGE_FAULT = "page-fault"
    EAGER_PREFETCH = "eager-prefetch"
    BATCHED = "batched"


class AcquirePlan:
    """Outcome of one :meth:`CoherenceEngine.acquire` declaration.

    ``fault_bytes`` must be charged to the compute op (the page-fault
    path migrates *during* execution); ``completion_marks`` are the
    location-set transitions, ``(array, kind, device, epoch)`` tuples,
    that :meth:`CoherenceEngine.release` binds to the op so they apply
    at completion time.
    """

    __slots__ = ("fault_bytes", "completion_marks", "fault_replicas")

    def __init__(self) -> None:
        self.fault_bytes = 0.0
        self.completion_marks: list[tuple] = []
        #: (array, device) replicas this acquire materializes through
        #: the fault engine — the caller binds the compute op's finish
        #: event to them via :meth:`CoherenceEngine.register_fault_ordering`,
        #: so later consumers sourcing from the replica wait for the
        #: kernel that actually creates it
        self.fault_replicas: list[tuple[DeviceArray, int]] = []


@dataclass
class _WindowGroup:
    """One pending coalescing group of the submission-window coalescer:
    the arrays one merged DMA submission from one source to one
    destination will cover.  ``event`` is created *before* any consumer
    submits (consumers park on it) and recorded on the window stream
    right after the merged transfer at flush time.  ``source_events``
    order the flush behind in-flight materializations of peer source
    replicas."""

    kind: TransferKind
    event: SimEvent
    arrays: list = field(default_factory=list)
    source_events: list = field(default_factory=list)


class _Planned:
    """In-flight overlay over one array's committed location set.

    ``valid_on`` / ``host_valid`` describe the location set *once
    everything already submitted completes*; the committed set on the
    array itself moves only when operations complete on the simulated
    device.  ``outstanding`` counts in-flight transitions: when the last
    one commits, committed == planned again and the overlay retires.
    ``epoch`` guards completion callbacks — a host write bumps the
    array's epoch, so transitions planned before it are dead and must
    not resurrect device replicas when their ops finally land.
    """

    __slots__ = ("valid_on", "host_valid", "epoch", "outstanding")

    def __init__(self, valid_on: set[int], host_valid: bool, epoch: int):
        self.valid_on = valid_on
        self.host_valid = host_valid
        self.epoch = epoch
        self.outstanding = 0


class CoherenceEngine:
    """Owns all host<->device and device<->device coherence traffic for
    one executor on one :class:`~repro.gpusim.engine.SimEngine`.

    The engine keeps two views of every array it has touched:

    * the **committed** location set on the array, updated only by
      completion callbacks on simulator operations;
    * the **planned** overlay — what the set will become once already
      submitted work lands, updated eagerly at planning time so that
      concurrent planning (and placement pricing) never double-moves
      the same bytes.

    Cross-stream ordering (the shared-input hazard): when the migration
    of a replica was issued on stream A and a computation on stream B
    also reads that replica, ``acquire`` makes B wait on the
    migration's event.
    """

    def __init__(
        self,
        engine: "SimEngine",
        policy: MovementPolicy = MovementPolicy.EAGER_PREFETCH,
        op_tags: dict | None = None,
        window: int = 0,
    ) -> None:
        self.engine = engine
        self.policy = policy
        #: per device of ``engine``: whether it has a page-fault engine
        self._faults = tuple(
            d.spec.supports_page_faults for d in engine.devices
        )
        #: submission-window size for cross-acquire BATCHED coalescing:
        #: 0 flushes per acquire (classic BATCHED); N > 0 merges the
        #: stale inputs of up to N adjacent acquires into one transfer
        #: per (source, destination) pair
        self.window = int(window)
        #: extra key/values stamped on every transfer op this engine
        #: submits (shared by reference with the owning executor, e.g.
        #: the tenant tags of ``repro.serve``)
        self.op_tags = op_tags if op_tags is not None else {}
        #: in-flight replica materializations: (id(array), device) ->
        #: (the event that completes the replica, the stream issuing the
        #: copy).  Consumers on other streams wait on the event; the
        #: issuing stream's FIFO already orders its own.  A replica a
        #: faulting kernel materializes has no issuing stream: it orders
        #: only peer copies sourcing from it — a consumer on its own
        #: device faults alongside the kernel, as on one GPU.
        self._pending: dict[
            tuple[int, int], tuple[SimEvent, "SimStream | None"]
        ] = {}
        #: planned overlays over committed location sets, by ``id(array)``
        self._planned: dict[int, _Planned] = {}
        #: per-array epoch, bumped by host writes: completion callbacks
        #: planned in an older epoch are dead
        self._epoch: dict[int, int] = {}
        # -- movement accounting (the movement-bench axis) ---------------
        # One registry per coherence engine: per-instance introspection
        # (one serving request's movement) keeps working even when the
        # serving layer merges many instances into one fleet roll-up.
        # The historical ``*_total`` attributes are properties over
        # these cells.
        self.counters = CounterRegistry()
        #: bytes left to the fault engine (charged inside kernels)
        self._c_fault_bytes = self.counters.counter("coherence.fault_bytes")
        #: bytes moved by engine-issued HtoD/DtoD migrations
        self._c_migrated_bytes = self.counters.counter(
            "coherence.migrated_bytes"
        )
        #: bytes written back to the host on CPU accesses
        self._c_writeback_bytes = self.counters.counter(
            "coherence.writeback_bytes"
        )
        #: transfer operations submitted
        self._c_transfer_ops = self.counters.counter(
            "coherence.transfer_ops"
        )
        #: transfers saved by BATCHED coalescing
        self._c_coalesced = self.counters.counter(
            "coherence.coalesced_transfers"
        )
        # Directional op/byte splits (HtoD migrations, DtoH writebacks,
        # D2D peer mirrors) — created eagerly so merged snapshots always
        # carry the full schema.
        self._c_htod_ops = self.counters.counter("coherence.htod_ops")
        self._c_htod_bytes = self.counters.counter("coherence.htod_bytes")
        self._c_dtoh_ops = self.counters.counter("coherence.dtoh_ops")
        self._c_dtoh_bytes = self.counters.counter("coherence.dtoh_bytes")
        self._c_d2d_ops = self.counters.counter("coherence.d2d_ops")
        self._c_d2d_bytes = self.counters.counter("coherence.d2d_bytes")
        #: submission-window flushes, total and by cause
        self._c_window_flushes = self.counters.counter(
            "coherence.window_flushes"
        )
        # -- submission-window coalescer state --------------------------
        #: pending groups: (source, dest) -> _WindowGroup.  Dict order is
        #: flush order (a group sourcing from another group's
        #: destination replica is necessarily inserted after it, so
        #: insertion order is safe).
        self._win_groups: dict[tuple[int, int], _WindowGroup] = {}
        #: acquires deferred into the open window (window-full trigger)
        self._win_acquires = 0
        #: dedicated per-destination transfer streams (lazily created)
        self._win_streams: dict[int, "SimStream"] = {}

    # -- observability --------------------------------------------------------

    @property
    def fault_bytes_total(self) -> float:
        return self._c_fault_bytes.value

    @property
    def migrated_bytes_total(self) -> float:
        return self._c_migrated_bytes.value

    @property
    def writeback_bytes_total(self) -> float:
        return self._c_writeback_bytes.value

    @property
    def transfer_ops(self) -> int:
        return self._c_transfer_ops.value

    @property
    def coalesced_transfers(self) -> int:
        return self._c_coalesced.value

    @property
    def window_flushes(self) -> int:
        return self._c_window_flushes.value

    # -- planned-view queries -------------------------------------------------

    def resident(self, array: DeviceArray, device_index: int) -> bool:
        """Will ``device_index`` hold a valid replica once in-flight work
        completes?  (The planned view placement pricing reads.)"""
        plan = self._planned.get(id(array))
        if plan is not None:
            return device_index in plan.valid_on
        return device_index in array.valid_on

    def host_valid(self, array: DeviceArray) -> bool:
        """Will the host copy be valid once in-flight work completes?"""
        plan = self._planned.get(id(array))
        if plan is not None:
            return plan.host_valid
        return array.host_valid

    def migration_bytes(self, array: DeviceArray, device_index: int) -> int:
        """Bytes a computation on ``device_index`` would have to migrate
        (planned view — in-flight migrations already count as resident)."""
        return 0 if self.resident(array, device_index) else array.nbytes

    def migration_source(
        self, array: DeviceArray, device_index: int
    ) -> int | None:
        """Cheapest source for making ``device_index`` valid, on the
        planned view: another device (peer copy), ``-1`` for the host,
        None if (planned-)resident."""
        plan = self._planned.get(id(array))
        if plan is None:
            return array.migration_source(device_index)
        return migration_source(
            plan.valid_on, plan.host_valid, device_index, array.name
        )

    # -- overlay bookkeeping -------------------------------------------------

    def _overlay(self, array: DeviceArray) -> _Planned:
        """Open (or fetch) the planned overlay over ``array``'s committed
        location set."""
        plan = self._planned.get(id(array))
        if plan is None:
            plan = _Planned(
                set(array.valid_on),
                array.host_valid,
                self._epoch.get(id(array), 0),
            )
            self._planned[id(array)] = plan
        return plan

    def _commit(self, marks, _op: Operation | None = None) -> None:
        """Apply the committed location-set transitions ``marks`` (the
        completion of the op they are bound to): each ``(array, kind,
        device, epoch)`` is dead if a host write bumped the array's
        epoch since it was planned; a live one that lands last retires
        the array's overlay.  Every planned transition counted itself
        in its overlay's ``outstanding``."""
        epochs = self._epoch
        planned = self._planned
        for array, kind, device, epoch in marks:
            key = id(array)
            if epochs.get(key, 0) != epoch:
                continue  # superseded by a host write
            if kind == _MARK_READ:
                array.mark_read(device)
            elif kind == _MARK_WRITE:
                array.mark_write(device)
            else:
                array.mark_cpu_read()
            plan = planned.get(key)
            if plan is not None:
                plan.outstanding -= 1
                if plan.outstanding <= 0:
                    del planned[key]

    # -- access declaration: GPU side ---------------------------------------

    def acquire(
        self,
        accesses: Sequence[tuple[DeviceArray, AccessKind]],
        stream: "SimStream",
        device_index: int = 0,
        label: str = "",
        policy: MovementPolicy | None = None,
        kind: TransferKind | None = None,
    ) -> AcquirePlan:
        """Declare that a computation on ``stream`` (on device
        ``device_index``) is about to touch ``accesses``; plan and submit
        the movement its policy calls for.

        Every stale read input is sourced from the cheapest
        (planned-)valid copy — peer-to-peer when a device replica
        exists, host upload otherwise.  ``EAGER_PREFETCH`` copies each
        ahead of the kernel, ``BATCHED`` coalesces the inputs sharing a
        source, and ``PAGE_FAULT`` issues no copy: the stale bytes are
        charged to the faulting kernel itself.  Written arrays end with
        ``device_index`` as their only valid copy.  Every transition
        applies when its migrating operation (or, for faults and
        writes, the kernel — via :meth:`release`) completes; the planned
        overlay carries the in-flight residency that placement pricing
        and later acquires read.

        Returns the :class:`AcquirePlan` whose ``fault_bytes`` the caller
        charges to the compute op and which :meth:`release` binds to it.
        ``policy`` overrides the engine's default for this acquire (the
        hand-tuned baseline faults arrays the programmer forgot while
        still prefetching explicitly); ``kind`` overrides the transfer
        kind stamped on migrations (the serial scheduler's eager copies).
        """
        policy = policy or self.policy
        faults = self._faults[device_index]
        if policy is MovementPolicy.PAGE_FAULT and not faults:
            policy = MovementPolicy.EAGER_PREFETCH
        if kind is None:
            kind = TransferKind.PREFETCH if faults else TransferKind.EAGER
        # Policy boundary: an acquire that moves data some other way
        # closes the open coalescing window first, keeping mixed-policy
        # executors (e.g. the hand-tuned baseline) deterministic.
        if self._win_groups and policy is not MovementPolicy.BATCHED:
            self.flush_window("policy-boundary")
        windowed = policy is MovementPolicy.BATCHED and self.window > 0
        # Coherence events ride the engine's tracer, read at each use:
        # a slot's control plane swaps it.
        tracer = self.engine.tracer
        span = (
            tracer.span(
                "acquire",
                track="coherence",
                clock=self.engine._clock,
                policy=policy.value,
                label=label,
                device=device_index,
            )
            if tracer.enabled
            else None
        )
        plan = AcquirePlan()
        #: stale reads grouped by source (BATCHED coalescing unit)
        stale_by_source: dict[int, list[DeviceArray]] = {}
        #: (array, source, in-flight source event) tuples deferred into
        #: the submission window instead of migrating now
        deferred: list[tuple[DeviceArray, int, SimEvent | None]] = []
        seen: set[int] = set()
        for array, access in accesses:
            if not access.reads or id(array) in seen:
                continue
            seen.add(id(array))
            if self.resident(array, device_index):
                # Resident — possibly via a still-in-flight migration
                # issued by another stream: wait on its event.
                pending, issuer = self._pending.get(
                    array.copy_keys[device_index], _NOTHING_PENDING
                )
                if (
                    issuer is not None
                    and issuer is not stream
                    and not pending.complete
                ):
                    self.engine.wait_event(stream, pending)
                continue
            source = self.migration_source(array, device_index)
            # A peer copy (or a faulting kernel reading a peer replica)
            # must not start before the source replica is itself fully
            # materialized — its migration may be in flight elsewhere.
            source_pending = None
            if source >= 0:
                source_pending = self._pending.get(
                    array.copy_keys[source], _NOTHING_PENDING
                )[0]
                if source_pending is not None and source_pending.complete:
                    source_pending = None
            if windowed:
                # The merged transfer (not the consumer) orders behind
                # the source replica; the consumer parks on the window
                # event instead.
                deferred.append((array, source, source_pending))
                continue
            if source_pending is not None:
                self.engine.wait_event(stream, source_pending)
            if policy is MovementPolicy.PAGE_FAULT:
                # The fault engine migrates on demand, charged to the
                # kernel; residency commits when the kernel completes.
                plan.fault_bytes += array.nbytes
                overlay = self._overlay(array)
                overlay.valid_on.add(device_index)
                overlay.outstanding += 1
                plan.completion_marks.append(
                    (array, _MARK_READ, device_index, overlay.epoch)
                )
                # The replica exists only once the faulting kernel
                # completes: consumers that source from it must order
                # behind the kernel's finish event, registered by the
                # caller.
                plan.fault_replicas.append((array, device_index))
            else:
                stale_by_source.setdefault(source, []).append(array)
        if plan.fault_bytes:
            # A float, as AcquirePlan.fault_bytes (counters are hashed
            # into report fingerprints, which see the type).
            self._c_fault_bytes.value += plan.fault_bytes

        if deferred:
            self._defer(deferred, device_index, stream, kind)
        batched = policy is MovementPolicy.BATCHED
        for source, arrays in stale_by_source.items():
            if batched:
                self._c_coalesced.value += len(arrays) - 1
                self._migrate(arrays, source, device_index, stream, kind)
            else:
                for array in arrays:
                    self._migrate(
                        [array], source, device_index, stream, kind
                    )

        # Writes commit at compute-op completion; the overlay flips now
        # so later planning sees the writing device as the only copy.
        seen.clear()
        for array, access in accesses:
            if not access.writes or id(array) in seen:
                continue
            seen.add(id(array))
            overlay = self._overlay(array)
            overlay.valid_on = {device_index}
            overlay.host_valid = False
            overlay.outstanding += 1
            plan.completion_marks.append(
                (array, _MARK_WRITE, device_index, overlay.epoch)
            )
        if span is not None:
            span.annotate(
                stale=sum(len(a) for a in stale_by_source.values()),
                deferred=len(deferred),
                fault_bytes=plan.fault_bytes,
            )
            span.close()
        return plan

    def release(
        self, plan: AcquirePlan, op: Operation | None = None
    ) -> None:
        """Bind ``plan``'s location-set transitions to ``op`` so they
        apply when the compute op completes; with ``op=None`` (host-side
        executors that already synchronized) they apply immediately."""
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(
                "release",
                track="coherence",
                vt=self.engine.clock,
                marks=len(plan.completion_marks),
                bound=op is not None,
            )
        if not plan.completion_marks:
            return
        if op is None:
            self._commit(plan.completion_marks)
            return
        op.on_complete.append(partial(self._commit, plan.completion_marks))

    # Former multi-GPU names, still wrapped by the benchmark's layer
    # tracer (``bench/layers.py``); nothing in the program calls them.
    acquire_multi = acquire
    release_multi = release

    def register_fault_ordering(
        self, plan: AcquirePlan, event: SimEvent
    ) -> None:
        """Bind the finish event of the compute op consuming ``plan`` to
        the replicas its faults materialize, so later peer copies
        sourcing from those replicas wait for the kernel that creates
        them (a consumer on a replica's own device faults alongside the
        kernel instead)."""
        for array, device_index in plan.fault_replicas:
            self._pending[array.copy_keys[device_index]] = (event, None)

    def prefetch(
        self, array: DeviceArray, stream: "SimStream", device_index: int = 0
    ) -> None:
        """Explicit ``cudaMemPrefetchAsync``: move a (planned-)stale
        array to ``device_index`` ahead of its consumers."""
        source = self.migration_source(array, device_index)
        if source is not None:
            self._migrate(
                [array], source, device_index, stream, TransferKind.PREFETCH
            )

    def _migrate(
        self,
        arrays: list[DeviceArray],
        source: int,
        device_index: int,
        stream: "SimStream",
        kind: TransferKind,
        event: SimEvent | None = None,
    ) -> None:
        """One copy covering ``arrays`` from ``source`` (-1 = host) to
        ``device_index``: planned overlay at submission, committed
        location set at completion, ordering event recorded after.
        ``event`` records a pre-created event (the submission-window
        flush path, whose consumers already park on it) instead of a
        fresh one."""
        names = ",".join(a.name for a in arrays)
        if source == -1:
            direction = TransferDirection.HOST_TO_DEVICE
            route = f"HtoD{device_index}"
        else:
            direction = TransferDirection.DEVICE_TO_DEVICE
            route = f"D{source}toD{device_index}"
        op = TransferOp(
            label=(
                f"{route}:{names}"
                if event is None
                else f"{route}:window[{names}]"
            ),
            direction=direction,
            nbytes=sum(a.nbytes for a in arrays),
            kind=kind,
        )
        # Race-detector tokens are per *copy* — (array, device) — so a
        # peer-to-peer copy reading GPU 0's replica does not conflict
        # with a kernel also reading that replica, but does conflict
        # with anything touching the destination replica.  Tuples, as
        # in core.context.submit_kernel: the collector untracks them.
        sources = tuple(
            (id(a), "host") if source == -1 else a.copy_keys[source]
            for a in arrays
        )
        dests = tuple(a.copy_keys[device_index] for a in arrays)
        op.info["reads"] = sources
        op.info["writes"] = dests
        op.info["array_names"] = tuple(
            {
                key: a.name
                for keys in (sources, dests)
                for key, a in zip(keys, arrays)
            }.items()
        )
        op.info.update(self.op_tags)
        marks = []
        for array in arrays:
            overlay = self._overlay(array)
            overlay.valid_on.add(device_index)
            overlay.outstanding += 1
            marks.append((array, _MARK_READ, device_index, overlay.epoch))
        op.apply_fn = partial(self._commit, marks)
        self.engine.submit(stream, op)
        self._c_transfer_ops.value += 1
        self._c_migrated_bytes.value += op.nbytes
        if source == -1:
            self._c_htod_ops.value += 1
            self._c_htod_bytes.value += op.nbytes
        else:
            self._c_d2d_ops.value += 1
            self._c_d2d_bytes.value += op.nbytes
        event = self.engine.record_event(
            stream, event=event, label=f"mig:{names}@gpu{device_index}"
        )
        for key in dests:
            self._pending[key] = (event, stream)

    # -- submission-window coalescer -----------------------------------------

    def _window_stream(self, device_index: int) -> "SimStream":
        """The dedicated transfer stream merged windows flush on (one
        per destination device, created lazily, reclaimed with the
        owning executor via :meth:`take_owned_streams`)."""
        stream = self._win_streams.get(device_index)
        if stream is None:
            stream = self.engine.create_stream(
                label=f"coalesce-g{device_index}",
                device_index=device_index,
            )
            self._win_streams[device_index] = stream
        return stream

    def take_owned_streams(self) -> tuple["SimStream", ...]:
        """Streams this engine created for itself (the window
        coalescer's transfer streams).  A retiring executor hands them
        back to the engine alongside its context streams, so long-lived
        serving engines do not accumulate dead coalescing streams."""
        streams = tuple(self._win_streams.values())
        self._win_streams = {}
        return streams

    def _defer(
        self,
        deferred: list[tuple[DeviceArray, int, SimEvent | None]],
        device_index: int,
        stream: "SimStream",
        kind: TransferKind,
    ) -> None:
        """Defer one acquire's stale reads into the submission window:
        arrays join the (source, destination) group they can share a DMA
        submission with, the planned overlay and pending-migration map
        advance as if the copy were already in flight, and the consumer
        parks on the group's pre-created event.

        A group of another transfer kind closes the window first (a
        policy boundary).  A deferral whose *source* replica is itself
        pending in the open window flushes first too: two groups each
        sourcing a replica the other creates would otherwise wait on
        each other's unrecorded events (the window streams deadlock).
        After the flush every source event's record is already
        submitted, so wait chains stay acyclic by construction."""
        if any(g.kind is not kind for g in self._win_groups.values()):
            self.flush_window("policy-boundary")
        win_stream = self._window_stream(device_index)
        events: dict[int, SimEvent] = {}
        for array, source, source_pending in deferred:
            if source_pending is not None and any(
                g.event is source_pending
                for g in self._win_groups.values()
            ):
                self.flush_window("source-hazard")
            group = self._win_groups.get((source, device_index))
            if group is None:
                group = self._open_group(source, device_index, kind)
            group.arrays.append(array)
            if source_pending is not None:
                group.source_events.append(source_pending)
            self._overlay(array).valid_on.add(device_index)
            self._pending[array.copy_keys[device_index]] = (
                group.event, win_stream
            )
            events[group.event.event_id] = group.event
        for event in events.values():
            self.engine.wait_event(stream, event)
        self._win_acquires += 1
        if self._win_acquires >= self.window:
            self.flush_window("window-full")

    def _open_group(
        self, source: int, dest: int, kind: TransferKind
    ) -> _WindowGroup:
        if not self._win_groups:
            # First deferral of this window: make sure any host sync
            # flushes us (a consumer parked on an unrecorded window
            # event would otherwise deadlock the sync).
            self.engine.add_pre_sync_hook(
                id(self), lambda: self.flush_window("pre-sync")
            )
        group = _WindowGroup(
            kind=kind, event=SimEvent(label=f"coalesce:{source}to{dest}")
        )
        self._win_groups[(source, dest)] = group
        return group

    def flush_window(self, cause: str = "manual") -> None:
        """Flush every pending coalescing group: one merged transfer per
        (source, destination) pair on its window stream, followed by the
        group's event record so parked consumers unblock.

        Idempotent; ``cause`` records *why* in the counter registry:
        ``window-full``, ``policy-boundary``, ``cpu-access``,
        ``pre-sync`` (engine host-sync hooks), ``source-hazard``
        (a deferral sourcing a replica the open window creates), or
        ``manual``.
        """
        if not self._win_groups:
            return
        groups = self._win_groups
        self._win_groups = {}
        self._win_acquires = 0
        self.engine.remove_pre_sync_hook(id(self))
        self._c_window_flushes.value += 1
        self.counters.inc(f"coherence.window_flush.{cause}")
        tracer = self.engine.tracer
        span = (
            tracer.span(
                "flush_window",
                track="coherence",
                clock=self.engine._clock,
                cause=cause,
                groups=len(groups),
                nbytes=sum(
                    a.nbytes for g in groups.values() for a in g.arrays
                ),
            )
            if tracer.enabled
            else None
        )
        for (source, dest), group in groups.items():
            win_stream = self._window_stream(dest)
            for ev in group.source_events:
                if not ev.complete:
                    self.engine.wait_event(win_stream, ev)
            self._c_coalesced.value += len(group.arrays) - 1
            self._migrate(
                group.arrays, source, dest, win_stream, group.kind,
                event=group.event,
            )
        if span is not None:
            span.close()

    # -- access declaration: host side ---------------------------------------

    def cpu_access(
        self,
        array: DeviceArray,
        kind: AccessKind,
        touched: int,
        stream: "SimStream | None" = None,
    ) -> TransferOp | None:
        """Declare an imminent host access; move and transition as needed.

        Reads and partial writes of a (planned-)stale host copy write
        the touched pages back from a valid replica (page-granular
        read-modify-write, like real UM), draining the writeback before
        returning — the host access itself is synchronous.  Any write
        then leaves the host as the only valid copy: every device
        replica dies, and the epoch bump kills the committed
        transitions of anything still in flight.  A pure write covering
        the whole array moves nothing.  Returns the writeback op, if
        any.
        """
        self.flush_window("cpu-access")  # host access closes the window
        tracer = self.engine.tracer
        span = (
            tracer.span(
                "cpu_access",
                track="coherence",
                clock=self.engine._clock,
                array=array.name,
                access=kind.name,
                touched=touched,
            )
            if tracer.enabled
            else None
        )
        op: TransferOp | None = None
        full_write = kind is AccessKind.WRITE and touched >= array.nbytes
        if not full_write and not self.host_valid(array):
            overlay = self._overlay(array)
            source = min(overlay.valid_on)
            op = TransferOp(
                label=f"DtoH:{array.name}",
                direction=TransferDirection.DEVICE_TO_HOST,
                nbytes=writeback_bytes(array.nbytes, touched),
                kind=TransferKind.WRITEBACK,
            )
            # Race-detector tokens as tuples, as in _migrate.
            key = array.copy_keys[source]
            op.info["writes"] = ()
            op.info["reads"] = (key,)
            op.info["array_names"] = ((key, array.name),)
            op.info.update(self.op_tags)
            overlay.host_valid = True
            overlay.outstanding += 1
            op.apply_fn = partial(
                self._commit,
                ((array, _MARK_CPU_READ, None, overlay.epoch),),
            )
            stream = stream or self.engine.default_stream
            self.engine.submit(stream, op)
            self._c_transfer_ops.value += 1
            self._c_writeback_bytes.value += op.nbytes
            self._c_dtoh_ops.value += 1
            self._c_dtoh_bytes.value += op.nbytes
            self.engine.sync_stream(stream)
        if kind.writes:
            array.mark_cpu_write()
            self._epoch[id(array)] = self._epoch.get(id(array), 0) + 1
            self._planned.pop(id(array), None)
            for key in array.copy_keys:
                self._pending.pop(key, None)
        if span is not None:
            span.annotate(writeback_bytes=op.nbytes if op else 0)
            span.close()
        return op

    # -- introspection --------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CoherenceEngine {self.policy.value}"
            f" planned={len(self._planned)}"
            f" moved={self.migrated_bytes_total:.0f}B"
            f" faulted={self.fault_bytes_total:.0f}B>"
        )
