"""Discrete-event simulation engine.

The engine owns the virtual clock, the set of streams and the running
operations.  Host code (the scheduler) submits operations and then asks
the engine to advance — to a stream sync, to an event, or until all queued
work drains.  Between host sync points the clock does not move: host
actions are modelled as instantaneous unless an explicit host overhead is
charged via :meth:`SimEngine.charge_host_time`.

Rate-based progress: whenever the running set changes, the contention
model re-prices everyone's progress rate; the clock then jumps straight to
the earliest completion.  This is exact for piecewise-constant rates.

Per-op cost is independent of the live-stream count — O(classes + log n)
rather than O(running):

* running kernels are grouped into **contention-class runs** (one per
  distinct resource signature per device) and transfers into
  per-direction DMA runs; a reprice asks the incremental
  :class:`~repro.gpusim.contention.ClassedContentionModel` for one rate
  per *class* (``repricings`` counts true repricings, ``steps`` counts
  engine steps, ``class_repricings`` counts per-class rate computations);
* a clock advance decrements only each run's *head* — the member with
  the least remaining work.  The other members accrue progress lazily
  through a per-run chain of per-step work deltas (the run's progress
  integral) and settle by replaying their suffix of the chain when they
  are promoted to head, which reproduces the exact sequential
  floating-point decrements the frozen reference engine performs;
* the next completion is the minimum over the per-class head
  projections — one division per *run*, folded into the same O(classes)
  pass that decrements the heads;
* queued same-direction DMA transfers progress at a trickle rate and
  almost never matter for the next completion; a conservative *probe*
  on a global **lazy deferred-event heap** guards the rare case where
  one does.  Probes are keyed by absolute virtual fire time, pushed
  once per queue change rather than per step, invalidated by a per-run
  epoch and dropped stale on pop (``heap_stale_drops``) — the
  defer-invalidation discipline of a lazy priority queue.  A firing
  probe settles its queue and switches it to exact per-member
  accounting before any member can cross its completion threshold;
* startable operations come from a *ready-stream* queue fed by
  notifications — submission to an idle stream, an event record
  unblocking a parked head, an operation finishing with work queued
  behind it — instead of scanning every stream per step;
* removal from the running set is O(1) (index map + swap-pop), and a
  busy-stream counter makes ``idle``/``sync_all`` O(1) per check.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Callable, Iterable

from repro.errors import DeadlockError, InvalidStateError, SimulationError
from repro.gpusim.contention import ContentionModel
from repro.gpusim.device import Device
from repro.obs.counters import CounterRegistry
from repro.obs.trace import Tracer, current_tracer
from repro.gpusim.ops import (
    EventRecordOp,
    EventWaitOp,
    KernelOp,
    Operation,
    OpState,
    TransferDirection,
    TransferOp,
)
from repro.gpusim.stream import DEFAULT_STREAM_ID, SimEvent, SimStream
from repro.gpusim.timeline import IntervalKind, Timeline

#: Completion tolerance for floating-point work accounting.
_WORK_EPS = 1e-9

#: Rate of DMA transfers queued behind their direction's head (shared
#: with the contention model's one-shot allocator).
_DMA_QUEUE_RATE = ContentionModel._DMA_QUEUE_RATE

#: Timeline interval kind of each transfer direction.
_TRANSFER_KINDS = {
    TransferDirection.HOST_TO_DEVICE: IntervalKind.TRANSFER_HTOD,
    TransferDirection.DEVICE_TO_HOST: IntervalKind.TRANSFER_DTOH,
    TransferDirection.DEVICE_TO_DEVICE: IntervalKind.TRANSFER_D2D,
}


def _completion_threshold(op: Operation) -> float:
    """``_WORK_EPS * max(1.0, work_total)`` without the max() call."""
    total = op.work_total
    return _WORK_EPS * (total if total > 1.0 else 1.0)


class _KernelRun:
    """All running kernels of one contention class on one device.

    ``head`` is the member with the least remaining work (members share
    ``work_total`` and rate, so remaining work is FIFO in start order);
    only the head is decremented eagerly.  ``laggards`` wait with their
    join index into ``chain``, the run's list of per-step work deltas;
    a promoted laggard replays its chain suffix, reproducing the exact
    per-step float subtractions the reference engine would have done.
    """

    __slots__ = ("cls", "rate", "head", "laggards", "chain", "chain_base")

    def __init__(self, cls, head: KernelOp) -> None:
        self.cls = cls
        self.rate = -1.0  # priced before the first advance (reprice)
        self.head: KernelOp | None = head
        self.laggards: deque[tuple[KernelOp, int]] = deque()
        self.chain: list[float] = []
        self.chain_base = 0


class _TransferRun:
    """All running transfers of one direction on one device's DMA engine.

    The head owns the PCIe link; queue members (a heap ordered by op_id,
    the DMA submission order) trickle at :data:`_DMA_QUEUE_RATE` through
    the same lazy delta chain as kernel laggards.  ``qlb``/``qsum`` keep
    a conservative lower bound on any member's remaining work, feeding
    the probe entries that guard against a queued member completing
    before the head; once a probe fires the run turns ``eager`` and
    members are settled exactly every step until the queue drains.
    ``epoch`` lazily invalidates probes outlived by a settle or drain.
    """

    __slots__ = (
        "key", "bw", "epoch", "head", "queue", "chain", "chain_base",
        "qsum", "qlb", "qthresh", "eager",
    )

    def __init__(
        self, key: tuple[int, TransferDirection], bw: float, head: TransferOp
    ) -> None:
        self.key = key
        self.bw = bw
        self.epoch = 0
        self.head: TransferOp | None = head
        self.queue: list[tuple[int, int, TransferOp]] = []
        self.chain: list[float] = []
        self.chain_base = 0
        self.qsum = 0.0
        self.qlb = math.inf
        self.qthresh = 0.0
        self.eager = False


class SimEngine:
    """Virtual-time executor for one or more :class:`Device` s.

    Multi-GPU engines (the paper's section-VI future work) share one
    virtual clock and one event space; each stream belongs to a device,
    and the contention model of *that* device prices its running
    operations (each GPU has its own SMs, bandwidth pools and PCIe
    link).
    """

    def __init__(
        self,
        device: Device | list[Device],
        tracer: Tracer | None = None,
    ) -> None:
        devices = [device] if isinstance(device, Device) else list(device)
        if not devices:
            raise InvalidStateError("engine needs at least one device")
        self.devices: tuple[Device, ...] = tuple(devices)
        self.device = self.devices[0]  # primary, single-GPU API
        self.clock: float = 0.0
        self.timeline = Timeline()
        self._streams: dict[int, SimStream] = {}
        self._stream_ids = itertools.count(DEFAULT_STREAM_ID)
        self._running: list[Operation] = []
        #: op_id -> position in ``_running`` (O(1) swap-pop removal)
        self._running_pos: dict[int, int] = {}
        #: stream ids whose head *may* be startable; validated lazily
        self._ready_ids: set[int] = set()
        #: streams with at least one queued or running operation
        self._busy_streams: int = 0
        #: live contention-class runs: one per distinct kernel resource
        #: signature per device (keyed by the interned class object) and
        #: one per (device, transfer direction)
        self._kernel_runs: dict[object, _KernelRun] = {}
        self._transfer_runs: dict[
            tuple[int, TransferDirection], _TransferRun
        ] = {}
        #: running kernel op_id -> (device model, contention class), so
        #: completion can decrement the class count in O(1)
        self._op_run: dict[int, tuple] = {}
        #: global lazy deferred-event heap of transfer-queue probes —
        #: ``(abs_fire_time, seq, run, epoch)`` entries, pushed per
        #: queue change (not per step); stale epochs are dropped on pop
        self._heap: list[tuple] = []
        self._heap_seq = itertools.count()
        self._rates_dirty: bool = True
        #: monotone sequence stamped on ops entering the running set, so
        #: same-instant completions fire in legacy start order
        self._start_seq = itertools.count()
        #: callbacks fired at the top of every host synchronization
        #: (sync_event / sync_stream / sync_all), keyed so a registrant
        #: can deregister itself.  The coherence engine's submission
        #: -window coalescer uses this to flush deferred transfers before
        #: the host blocks — otherwise a kernel parked on a window event
        #: that never records would deadlock the sync.
        self._pre_sync_hooks: dict[int, Callable[[], None]] = {}
        self.default_stream = self.create_stream(label="default")
        #: namespaced counters; the historical ``steps`` / ``repricings``
        #: / ``running_set_changes`` attributes remain as read-only
        #: properties over these cells, so BENCH JSON schemas and
        #: existing assertions keep working unchanged
        self.counters = CounterRegistry()
        #: count of rate recomputations: grows with *changes* to the
        #: running set, not with engine steps (engine-efficiency
        #: introspection, asserted by ``sim-bench``)
        self._c_repricings = self.counters.counter("engine.repricings")
        #: engine steps taken (instantaneous drains and clock advances)
        self._c_steps = self.counters.counter("engine.steps")
        #: additions to / removals from the running set
        self._c_running_set_changes = self.counters.counter(
            "engine.running_set_changes"
        )
        #: per-class rate computations across all repricings: the true
        #: repricing cost of the classed engine (compare against
        #: ``repricings * running`` for the per-op design it replaces)
        self._c_class_repricings = self.counters.counter(
            "engine.class_repricings"
        )
        #: deferred-event-heap traffic: probes pushed, and stale probes
        #: dropped on pop (the lazy-invalidation rate)
        self._c_heap_pushes = self.counters.counter("engine.heap_pushes")
        self._c_heap_stale = self.counters.counter(
            "engine.heap_stale_drops"
        )
        self.tracer = current_tracer() if tracer is None else tracer
        if self.tracer.enabled:
            self.tracer.attach_engine(self)

    # -- observability -------------------------------------------------------

    @property
    def repricings(self) -> int:
        return self._c_repricings.value

    @property
    def steps(self) -> int:
        return self._c_steps.value

    @property
    def running_set_changes(self) -> int:
        return self._c_running_set_changes.value

    @property
    def active_classes(self) -> int:
        """Live contention-class runs (kernel classes + DMA directions)."""
        return len(self._kernel_runs) + len(self._transfer_runs)

    @property
    def _obs_track(self) -> str:
        """The tracer track this engine's events land on (named by
        :meth:`~repro.obs.trace.Tracer.attach_engine`)."""
        return getattr(self, "_obs_name", "engine")

    # -- stream management --------------------------------------------------

    def create_stream(
        self, label: str = "", device_index: int = 0
    ) -> SimStream:
        if not 0 <= device_index < len(self.devices):
            raise InvalidStateError(
                f"device index {device_index} out of range"
                f" (engine has {len(self.devices)} device(s))"
            )
        sid = next(self._stream_ids)
        stream = SimStream(sid, label=label, device_index=device_index)
        self._streams[sid] = stream
        return stream

    @property
    def streams(self) -> tuple[SimStream, ...]:
        return tuple(self._streams.values())

    def stream(self, stream_id: int) -> SimStream:
        return self._streams[stream_id]

    def reclaim_stream(self, stream: SimStream) -> None:
        """Destroy an idle stream and stop scheduling over it.

        Long-lived engines that serve many short-lived contexts (see
        :meth:`repro.session.Session.renew_context`) would
        otherwise accumulate an ever-growing population of dead streams.
        The default stream cannot be reclaimed.
        """
        if stream is self.default_stream:
            raise InvalidStateError("cannot reclaim the default stream")
        if self._streams.get(stream.stream_id) is not stream:
            raise InvalidStateError(
                f"stream {stream.label} does not belong to this engine"
            )
        stream.destroy()  # raises if busy
        del self._streams[stream.stream_id]
        self._ready_ids.discard(stream.stream_id)

    def reclaim_streams(self, streams: Iterable[SimStream]) -> None:
        """Reclaim several idle streams (see :meth:`reclaim_stream`)."""
        for stream in streams:
            self.reclaim_stream(stream)

    # -- submission -----------------------------------------------------------

    def submit(self, stream: SimStream, op: Operation) -> Operation:
        """Queue ``op`` on ``stream`` at the current virtual time."""
        if stream.stream_id not in self._streams:
            raise InvalidStateError(f"stream {stream.label} is foreign")
        op.submit_time = self.clock
        was_busy = stream.busy
        stream.submit(op)
        if not was_busy:
            # The new op is the stream head: the stream went idle->busy.
            self._busy_streams += 1
            self._ready_ids.add(stream.stream_id)
        if self.tracer.enabled:
            self.tracer.instant(
                f"submit:{op.label}",
                track=self._obs_track,
                vt=self.clock,
                stream=stream.stream_id,
            )
        return op

    def record_event(
        self, stream: SimStream, event: SimEvent | None = None, label: str = ""
    ) -> SimEvent:
        """Submit an event-record on ``stream``; returns the event."""
        ev = event or SimEvent(label=label or f"ev@{stream.label}")
        self.submit(stream, EventRecordOp(label=ev.label, event=ev))
        return ev

    def wait_event(self, stream: SimStream, event: SimEvent) -> None:
        """Make later work on ``stream`` wait for ``event``."""
        self.submit(
            stream, EventWaitOp(label=f"wait:{event.label}", event=event)
        )

    def charge_host_time(self, seconds: float) -> None:
        """Advance the clock by host-side overhead, simulating the device
        in the background meanwhile (launch overheads, scheduling costs)."""
        if seconds < 0:
            raise ValueError("host time must be >= 0")
        self._advance_to_time(self.clock + seconds)

    # -- synchronization ----------------------------------------------------

    def add_pre_sync_hook(self, key: int, fn: Callable[[], None]) -> None:
        """Register ``fn`` to run at the top of every host sync (keyed so
        the registrant can deregister; re-registering a key replaces)."""
        self._pre_sync_hooks[key] = fn

    def remove_pre_sync_hook(self, key: int) -> None:
        self._pre_sync_hooks.pop(key, None)

    def _fire_pre_sync_hooks(self) -> None:
        if self._pre_sync_hooks:
            # Hooks may deregister themselves (a flushed window removes
            # its hook), so iterate over a snapshot.
            for fn in list(self._pre_sync_hooks.values()):
                fn()

    def sync_event(self, event: SimEvent) -> None:
        """Block the host until ``event`` completes."""
        with self.tracer.span(
            "sync_event",
            track=self._obs_track,
            clock=self._clock,
            event=event.label,
        ):
            self._fire_pre_sync_hooks()
            self._run_until(
                lambda: event.complete, what=f"event {event.label}"
            )

    def sync_stream(self, stream: SimStream) -> None:
        """Block the host until everything queued on ``stream`` completes."""
        with self.tracer.span(
            "sync_stream",
            track=self._obs_track,
            clock=self._clock,
            stream=stream.stream_id,
        ):
            self._fire_pre_sync_hooks()
            self._run_until(
                lambda: not stream.busy, what=f"stream {stream.label}"
            )

    def sync_all(self) -> None:
        """Drain every stream (``cudaDeviceSynchronize``)."""
        with self.tracer.span(
            "sync_all", track=self._obs_track, clock=self._clock
        ):
            self._fire_pre_sync_hooks()
            while self._busy_streams:
                if not self._step():
                    raise self._deadlock("device")

    def _clock(self) -> float:
        """Bound clock reader for tracer spans."""
        return self.clock

    @property
    def idle(self) -> bool:
        return self._busy_streams == 0

    # -- core loop -------------------------------------------------------------

    def _run_until(self, pred: Callable[[], bool], what: str) -> None:
        while not pred():
            if not self._step():
                raise self._deadlock(what)

    @staticmethod
    def _deadlock(what: str) -> DeadlockError:
        return DeadlockError(
            f"waiting on {what}, but no operation can make progress"
            " (cyclic event wait or event never recorded)"
        )

    def _advance_to_time(self, target: float) -> None:
        """Simulate until ``clock == target`` (GPU may go idle earlier)."""
        while self.clock < target:
            if not self._step(time_cap=target):
                self.clock = target
                return

    def _reprice(self) -> None:
        """Re-price the active contention classes.

        Only called when the running set actually changed since the last
        pricing; rates are piecewise-constant in between.  Cost is
        O(classes), not O(running ops): each device's incremental model
        prices one rate per class (memoized on the active multiset, so
        revisited running sets cost a dict hit).
        """
        self._c_repricings.value += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "reprice",
                track=self._obs_track,
                vt=self.clock,
                running=len(self._running),
            )
        runs = self._kernel_runs
        for device in self.devices:
            repriced = device.contention.reprice_classes()
            if not repriced:
                continue
            self._c_class_repricings.value += len(repriced)
            for cls, rate, _share in repriced:
                if rate <= 0:
                    head = runs[cls].head
                    assert head is not None
                    raise SimulationError(
                        f"{head.describe()} allocated non-positive"
                        f" rate {rate}"
                    )
                runs[cls].rate = rate
        self._rates_dirty = False

    def _next_completion_dt(self) -> float:
        """Time to the next completion: the minimum head projection over
        the live runs (one division per *class*, not per op).

        This equals the minimum the reference engine computes by
        scanning every running op: kernel laggards can never finish
        before their class head (same work_total, same rate, joined
        later — float division is monotone in the numerator), and
        non-eager queued transfers are guarded by their probes.  Due
        probes — those that would fire at or before the scan minimum —
        settle their queue into exact ``eager`` accounting *now*, which
        is never later than their nominal fire time, and the settled
        members join the scan.
        """
        kernel_runs = self._kernel_runs
        best = (
            min([r.head.work_remaining / r.rate for r in kernel_runs.values()])
            if kernel_runs
            else math.inf
        )
        for run in self._transfer_runs.values():
            dt = run.head.work_remaining / run.bw
            if dt < best:
                best = dt
            if run.eager:
                for _op_id, _join, member in run.queue:
                    dt = member.work_remaining / _DMA_QUEUE_RATE
                    if dt < best:
                        best = dt
        heap = self._heap
        stale = 0
        clock = self.clock
        while heap:
            fire_at, _seq, run, epoch = heap[0]
            if epoch != run.epoch:
                heapq.heappop(heap)
                stale += 1
                continue
            if fire_at > clock + best:
                break  # not due: every queued member stays above its
                # completion threshold through the coming step
            heapq.heappop(heap)
            self._probe_transfer_queue(run)
            for _op_id, _join, member in run.queue:
                dt = member.work_remaining / _DMA_QUEUE_RATE
                if dt < best:
                    best = dt
        if stale:
            self._c_heap_stale.value += stale
        return best

    def _step(self, time_cap: float | None = None) -> bool:
        """One engine step.  Returns False if no progress is possible.

        Instantaneous progress (op starts, event records) returns
        immediately without advancing the clock, so host-side sync
        predicates are re-checked at the tightest possible points.
        """
        self._c_steps.value += 1
        if self._drain_instantaneous():
            return True
        if not self._running:
            return False
        if self._rates_dirty:
            self._reprice()
        dt = self._next_completion_dt()
        if time_cap is not None:
            dt = min(dt, time_cap - self.clock)
        if dt < 0 or not math.isfinite(dt):
            raise SimulationError(f"invalid time step {dt}")
        self.clock += dt
        finished = self._apply_progress(dt)
        if finished:
            # Same-instant completions fire in the order the ops started
            # (the legacy running-list order), not in per-run order.
            finished.sort(key=lambda op: op.start_seq)
            for op in finished:
                self._complete(op)
        return True

    def _apply_progress(self, dt: float) -> list[Operation]:
        """Advance every run by ``dt``: decrement heads eagerly, append
        the per-step delta to each run's progress chain for its lazy
        members, and collect completions (promoting new heads as they
        surface).  O(classes + log n) per op, independent of the
        running-set size."""
        finished: list[Operation] = []
        eps = _WORK_EPS

        dead_kernel_runs = None
        for run in self._kernel_runs.values():
            head = run.head
            assert head is not None
            delta = run.rate * dt
            w = head.work_remaining - delta
            head.work_remaining = w
            if run.laggards and delta != 0.0:
                run.chain.append(delta)
            while w <= eps:  # kernels: work_total == 1.0 exactly
                head.work_remaining = 0.0
                finished.append(head)
                head = self._promote_kernel(run)
                if head is None:
                    break
                w = head.work_remaining
            if head is None:
                if dead_kernel_runs is None:
                    dead_kernel_runs = []
                dead_kernel_runs.append(run.cls)
        if dead_kernel_runs:
            for cls in dead_kernel_runs:
                del self._kernel_runs[cls]

        dead_transfer_runs = None
        for run in self._transfer_runs.values():
            head = run.head
            assert head is not None
            delta = run.bw * dt
            w = head.work_remaining - delta
            head.work_remaining = w
            queue = run.queue
            if queue:
                dq = _DMA_QUEUE_RATE * dt
                if run.eager:
                    # Exact per-member accounting (reference semantics):
                    # a probe fired because a queued member's completion
                    # may matter, so decrement and check each one.
                    crossed = None
                    for op_id, _join, member in queue:
                        mw = member.work_remaining - dq
                        member.work_remaining = mw
                        if mw <= _completion_threshold(member):
                            member.work_remaining = 0.0
                            finished.append(member)
                            if crossed is None:
                                crossed = set()
                            crossed.add(op_id)
                    if crossed:
                        queue = [e for e in queue if e[0] not in crossed]
                        heapq.heapify(queue)
                        run.queue = queue
                elif dq != 0.0:
                    run.chain.append(dq)
                    run.qsum += dq
            thresh = _completion_threshold(head)
            while w <= thresh:
                head.work_remaining = 0.0
                finished.append(head)
                head = self._promote_transfer(run)
                if head is None:
                    break
                w = head.work_remaining
                thresh = _completion_threshold(head)
            if head is None:
                if dead_transfer_runs is None:
                    dead_transfer_runs = []
                dead_transfer_runs.append(run.key)
        if dead_transfer_runs:
            for key in dead_transfer_runs:
                del self._transfer_runs[key]

        # Bound heap garbage: stale probes are dropped on pop, but a
        # busy DMA queue can accumulate them faster than pops retire
        # them.
        heap = self._heap
        if len(heap) > 64 and len(heap) > 8 * (len(self._transfer_runs) + 1):
            live = [e for e in heap if e[3] == e[2].epoch]
            self._c_heap_stale.value += len(heap) - len(live)
            heapq.heapify(live)
            self._heap = live
        return finished

    def _promote_kernel(self, run: _KernelRun) -> KernelOp | None:
        """Pop the next head of a kernel run: settle the oldest laggard
        by replaying its suffix of the progress chain (bitwise the same
        subtractions the reference engine performed step by step)."""
        laggards = run.laggards
        if not laggards:
            run.head = None
            return None
        op, join = laggards.popleft()
        chain = run.chain
        base = run.chain_base
        w = op.work_remaining
        for d in chain[join - base:]:
            w -= d
        op.work_remaining = w
        run.head = op
        if laggards:
            cut = laggards[0][1] - base
            if cut > 32:  # compact the replayed prefix occasionally
                del chain[:cut]
                run.chain_base = base + cut
        else:
            run.chain_base = base + len(chain)
            chain.clear()
        return op

    def _promote_transfer(self, run: _TransferRun) -> TransferOp | None:
        """Pop the next DMA head (lowest op_id) and settle its lazy
        trickle progress; an emptied queue resets the run's chain and
        leaves eager mode."""
        queue = run.queue
        if not queue:
            run.head = None
            return None
        _op_id, join, op = heapq.heappop(queue)
        if not run.eager:
            chain = run.chain
            w = op.work_remaining
            for d in chain[join - run.chain_base:]:
                w -= d
            op.work_remaining = w
        run.head = op
        if not queue:
            # Queue drained: reset the lazy state and invalidate any
            # outstanding probes (they guarded the old queue).
            run.chain_base += len(run.chain)
            run.chain.clear()
            run.qsum = 0.0
            run.qlb = math.inf
            run.eager = False
            run.epoch += 1
        return op

    def _settle_transfer_queue(self, run: _TransferRun) -> None:
        """Replay every queue member's chain suffix so all residuals are
        exact *now*; rebase joins and reset the chain."""
        chain = run.chain
        base = run.chain_base
        top = base + len(chain)
        qlb = math.inf
        if chain:
            queue = run.queue
            for i, (op_id, join, op) in enumerate(queue):
                w = op.work_remaining
                for d in chain[join - base:]:
                    w -= d
                op.work_remaining = w
                # op_id (the heap key) is unchanged: order holds.
                queue[i] = (op_id, top, op)
                if w < qlb:
                    qlb = w
        else:
            for _op_id, _join, op in run.queue:
                if op.work_remaining < qlb:
                    qlb = op.work_remaining
        run.chain_base = top
        chain.clear()
        run.qsum = 0.0
        run.qlb = qlb

    def _probe_transfer_queue(self, run: _TransferRun) -> None:
        """A probe fired: a queued member's completion is close enough
        (at the trickle rate) to possibly precede every other event.
        Settle the queue and switch to exact per-member accounting —
        the completion scan covers eager members directly."""
        self._settle_transfer_queue(run)
        run.eager = True
        run.epoch += 1  # any sibling probes are now stale

    def _push_transfer_probe(self, run: _TransferRun) -> None:
        """Push the conservative queued-completion guard for ``run``.

        ``qlb - 1.01*qsum`` lower-bounds every member's current residual
        (settled lower bound minus slack-inflated trickle progress);
        subtracting twice the largest completion threshold and taking a
        quarter of the implied trickle time gives a fire time the member
        residuals provably cannot reach their thresholds by, so the
        probe is keyed into the deferred-event heap at that *absolute*
        virtual time and left alone — no per-step re-push.  Any step
        that would advance the clock to or past the fire time settles
        the queue first.  A non-positive bound settles immediately.
        """
        bound = run.qlb - 1.01 * run.qsum - 2.0 * run.qthresh
        if bound <= 0.0:
            self._probe_transfer_queue(run)
            return
        heapq.heappush(
            self._heap,
            (
                self.clock + 0.25 * bound / _DMA_QUEUE_RATE,
                next(self._heap_seq),
                run,
                run.epoch,
            ),
        )
        self._c_heap_pushes.value += 1

    def _drain_instantaneous(self) -> bool:
        """Start all ready ops; complete the zero-duration ones, looping
        until no cascade remains (an event record can unblock waits).

        Only streams whose head *might* have become startable are
        visited; a popped stream whose head is still blocked is parked
        on its incomplete wait events and re-queued when they record.
        """
        progressed = False
        while self._ready_ids:
            # Creation order (= ascending stream id), matching the
            # legacy full-scan pass order.
            batch = sorted(self._ready_ids)
            self._ready_ids.clear()
            for sid in batch:
                stream = self._streams.get(sid)
                if stream is None:
                    continue
                op = stream.head_if_ready()
                if op is None:
                    self._park_if_blocked(stream)
                    continue
                self._start(op)
                progressed = True
                if op.instantaneous:
                    self._complete(op)
        return progressed

    def _park_if_blocked(self, stream: SimStream) -> None:
        """Register a blocked stream head on its incomplete wait events,
        so the event records (the only way the head can unblock) re-queue
        the stream instead of every step re-scanning it."""
        if stream.running is not None or not stream.pending:
            return
        head = stream.pending[0]
        for event in head.wait_events:
            if not event.complete:
                event.add_waiter(stream)

    # -- op lifecycle -----------------------------------------------------------

    def _start(self, op: Operation) -> None:
        assert op.stream is not None
        op.stream.begin(op)
        op.state = OpState.RUNNING
        op.start_time = self.clock
        if not op.instantaneous:
            op.start_seq = next(self._start_seq)
            self._running_pos[op.op_id] = len(self._running)
            self._running.append(op)
            self._rates_dirty = True
            self._c_running_set_changes.value += 1
            self._class_add(op)
        if self.tracer.enabled:
            self.tracer.instant(
                f"start:{op.label}",
                track=self._obs_track,
                vt=self.clock,
                stream=op.stream.stream_id,
            )

    def _class_add(self, op: Operation) -> None:
        """File a newly running op into its contention-class run."""
        assert op.stream is not None
        device_index = op.stream.device_index
        if isinstance(op, KernelOp):
            model = self.devices[device_index].contention
            cls = model.class_add(op)
            self._op_run[op.op_id] = (model, cls)
            run = self._kernel_runs.get(cls)
            if run is None:
                self._kernel_runs[cls] = _KernelRun(cls, op)
                self.counters.set_max("engine.classes", self.active_classes)
            else:
                run.laggards.append(
                    (op, run.chain_base + len(run.chain))
                )
        elif isinstance(op, TransferOp):
            key = (device_index, op.direction)
            run = self._transfer_runs.get(key)
            if run is None:
                bw = self.devices[device_index].spec.pcie_bandwidth_gbs * 1e9
                self._transfer_runs[key] = _TransferRun(key, bw, op)
                self.counters.set_max("engine.classes", self.active_classes)
            elif op.op_id < run.head.op_id:
                # A transfer constructed earlier (e.g. deferred by the
                # coherence window) starts after a younger one: the DMA
                # engine serves by submission (op_id) order, so the
                # younger head steps aside into the queue.
                self._queue_transfer(run, run.head)
                run.head = op
            else:
                self._queue_transfer(run, op)
        else:
            raise SimulationError(
                f"{op.describe()}: no contention class for this op type"
            )

    def _queue_transfer(self, run: _TransferRun, op: TransferOp) -> None:
        heapq.heappush(
            run.queue, (op.op_id, run.chain_base + len(run.chain), op)
        )
        w = op.work_remaining
        if w < run.qlb:
            run.qlb = w
        thresh = _completion_threshold(op)
        if thresh > run.qthresh:
            run.qthresh = thresh
        if not run.eager:
            # Eager members are covered by the completion scan; lazy
            # queues need a (tighter) probe for the new member.
            self._push_transfer_probe(run)

    def _remove_running(self, op: Operation) -> None:
        pos = self._running_pos.pop(op.op_id, None)
        if pos is None:
            return
        last = self._running.pop()
        if last is not op:
            self._running[pos] = last
            self._running_pos[last.op_id] = pos
        entry = self._op_run.pop(op.op_id, None)
        if entry is not None:
            model, cls = entry
            model.class_remove(cls)
            model.forget_op(op.op_id)
        self._rates_dirty = True
        self._c_running_set_changes.value += 1

    def _complete(self, op: Operation) -> None:
        assert op.stream is not None
        op.state = OpState.COMPLETE
        op.end_time = self.clock
        self._remove_running(op)
        stream = op.stream
        stream.finish(op)
        if stream.pending:
            # More work queued behind: the new head may be startable.
            self._ready_ids.add(stream.stream_id)
        else:
            self._busy_streams -= 1
        self._record(op)
        self._apply_effects(op)
        if self.tracer.enabled and not op.instantaneous:
            self.tracer.complete(
                op.label,
                track=self._obs_track,
                vt_start=op.start_time,
                vt_end=op.end_time,
                stream=stream.stream_id,
            )
        for callback in op.on_complete:
            callback(op)

    def _apply_effects(self, op: Operation) -> None:
        if isinstance(op, EventRecordOp):
            assert op.event is not None
            op.event._record(self.clock)
            for waiter in op.event.pop_waiters():
                if waiter.stream_id in self._streams:
                    self._ready_ids.add(waiter.stream_id)
        elif isinstance(op, TransferOp) and op.apply_fn is not None:
            op.apply_fn()
        elif isinstance(op, KernelOp) and op.compute_fn is not None:
            op.compute_fn()

    def _record(self, op: Operation) -> None:
        # Fields only: the timeline keeps ``op.info`` and builds records
        # (and their merged meta) when read.
        assert op.stream is not None
        if isinstance(op, KernelOp):
            self.timeline.append(
                op.op_id, op.label, IntervalKind.KERNEL,
                op.stream.stream_id, op.start_time, op.end_time, 0.0,
                op.info, op.resources,
            )
        elif isinstance(op, TransferOp):
            self.timeline.append(
                op.op_id, op.label, _TRANSFER_KINDS[op.direction],
                op.stream.stream_id, op.start_time, op.end_time, op.nbytes,
                op.info, op.kind,
            )
        else:
            self.timeline.append(
                op.op_id, op.label, IntervalKind.EVENT,
                op.stream.stream_id, op.start_time, op.end_time, 0.0,
                op.info,
            )
