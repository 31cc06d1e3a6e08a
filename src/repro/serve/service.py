"""The multi-tenant scheduler service.

:class:`SchedulerService` is the jump from the paper's single-program
scheduler to shared-infrastructure dispatch: many logical tenants submit
:class:`~repro.graphs.taskgraph.TaskGraph` s; an admission-control queue
(FIFO / priority / fair-share) decides *who* goes next; the
:class:`~repro.serve.fleet.GpuFleet` placement policy decides *where*
— which fleet *slot*, each a long-lived (possibly multi-GPU) simulated
engine — and the slot's own in-slot
:class:`~repro.core.policies.DevicePlacementPolicy` decides which of
its GPUs runs each kernel, so a single admitted graph spans devices.
Each admitted graph executes with full per-request isolation — its own
execution context (DAG, stream manager, history) on the slot's engine,
closed with its arrays when its batch ends.  Admission and the
fault-management knobs live on :class:`ServeConfig`.  The two placement
levels are independent: ``ServeConfig.placement`` picks slots (default
LEAST_LOADED) and the slot's
:class:`~repro.core.policies.SchedulerConfig` ``placement`` picks the
GPU inside a slot (default the paper's MIN_TRANSFER).  That
configuration governs both of a slot's paths, context and replay;
``ServeConfig.scheduler`` is what a service hands the fleet it builds.
Queueing, fault handling and terminal records are the shared
:class:`~repro.serve.dispatch.Dispatcher`'s.

Two optimizations ride the dispatch path:

* **Batching** — admitted requests whose graphs share a topology key and
  arrived within one virtual-time window coalesce into a batch.  The
  batch pays the dispatch overhead once and its members' kernels are in
  flight *simultaneously*, so the device space-shares across tenants
  (unbatched requests on one device serialize at batch boundaries).
* **Capture cache** — the first request of a topology runs the full
  dependency-inference path while a replayable multi-stream plan is
  recorded through :mod:`repro.graphs.capture`; later requests replay the
  plan, skipping per-launch dependency computation (the CUDA-Graphs
  amortization, shared across tenants).  Plans are keyed per
  (graph topology, slot shape): a multi-GPU slot's replay assigns plan
  streams round-robin over its devices, so slots of different shapes
  derive separate plans.

Correctness invariant, enforced by the integration tests: every
request's numerical outputs are identical to executing its graph alone
on a private serial runtime
(:func:`repro.serve.request.execute_serial`).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field

from repro.core.policies import (
    AdmissionPolicy,
    DevicePlacementPolicy,
    SchedulerConfig,
)
from repro.errors import ConfigError
from repro.gpusim.timeline import Timeline
from repro.faults import FaultPlan
from repro.metrics.service import ServiceMetrics, compute_service_metrics
from repro.obs.counters import CounterRegistry
from repro.obs.trace import Tracer, current_tracer
from repro.parallel.strategy import SequentialStrategy
from repro.parallel.work import SlotOutcome, SlotWork
from repro.serve.capture import CaptureCache
from repro.serve.dispatch import Dispatcher
from repro.serve.fleet import FleetSlot, GpuFleet, parse_fleet_spec
from repro.serve.request import GraphRequest, GraphResult, RequestStatus
from repro.serve.tenant import TenantState


@dataclass
class ServeConfig:
    """Configuration of one :class:`SchedulerService` instance."""

    admission: AdmissionPolicy = AdmissionPolicy.FIFO
    #: which fleet slot runs each batch (the in-slot device decision is
    #: ``scheduler.placement``)
    placement: DevicePlacementPolicy = DevicePlacementPolicy.LEAST_LOADED
    #: coalesce topology-identical requests whose arrivals lie within
    #: this many virtual seconds of the batch head (0 disables batching)
    batch_window: float = 500e-6
    batch_max: int = 8
    capture_cache: bool = True
    #: seeded deterministic fault-injection plan (or its DSL string form,
    #: parsed at construction); None serves fault-free
    faults: FaultPlan | str | None = None
    #: dispatch attempts after the first before a crashed/faulted
    #: request turns terminally FAILED
    max_retries: int = 3
    #: base of the exponential re-dispatch backoff, in virtual
    #: microseconds: retry *k* waits ``backoff * 2**(k-1)`` after the
    #: failure
    retry_backoff_us: float = 200.0
    #: healthy-capacity fraction below which graceful degradation sheds
    #: lowest-priority queued work (0 disables shedding entirely)
    shed_watermark: float = 0.5
    #: queue depth kept per admitting GPU while below the watermark —
    #: everything beyond it is shed
    shed_queue_per_gpu: int = 4
    #: the one data plane, ``sequential`` (a thread pool in this
    #: process); any other value is an error.  The field goes once the
    #: benchmark stops passing it (ROADMAP Small items)
    parallel: str = "sequential"
    #: threads of the data-plane pool (None: one per core; 1 runs the
    #: requests one after another, the reference)
    workers: int | None = None
    #: the scheduler configuration of the fleet the service builds
    #: (a caller-built fleet keeps its own)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)

    def __post_init__(self) -> None:
        self.scheduler.validate()
        if self.parallel != "sequential":
            raise ConfigError(
                f"unknown data plane {self.parallel!r}; expected"
                " 'sequential'"
            )
        if self.workers is not None and (
            not isinstance(self.workers, int)
            or isinstance(self.workers, bool)
            or self.workers < 1
        ):
            raise ConfigError(
                f"workers must be a positive integer, got {self.workers!r}"
            )
        if (
            not isinstance(self.max_retries, int)
            or isinstance(self.max_retries, bool)
            or self.max_retries < 0
        ):
            raise ConfigError(
                "max_retries must be a non-negative integer, got"
                f" {self.max_retries!r}"
            )
        if self.retry_backoff_us < 0:
            raise ConfigError("retry_backoff_us must be >= 0")
        if not 0.0 <= self.shed_watermark <= 1.0:
            raise ConfigError(
                "shed_watermark is a capacity fraction and must lie in"
                f" [0, 1], got {self.shed_watermark!r}"
            )
        if isinstance(self.faults, str):
            self.faults = FaultPlan.parse(self.faults)

    @property
    def batching(self) -> bool:
        return self.batch_window > 0 and self.batch_max > 1


def fingerprint_results(
    results: list[GraphResult], counters: dict
) -> str:
    """A deterministic digest of everything a serving run produced.

    Covers every result's identity, terminal status, exact virtual
    times (via ``float.hex`` — no formatting loss), placement (device,
    batch and — since the cluster layer — node), output array bytes and
    the full counter snapshot: two runs fingerprint equal iff their
    reports are bit-identical.  This is the canonical determinism
    check: serve-bench summaries carry it, the chaos grid and the
    cluster harness compare it between replays.
    """
    h = hashlib.sha256()
    for r in sorted(results, key=lambda r: r.request_id):
        h.update(
            "|".join(
                (
                    str(r.request_id),
                    r.tenant,
                    r.graph_name,
                    r.status.value,
                    str(r.attempts),
                    str(r.device_index),
                    str(r.node_index),
                    str(r.batch_id),
                    str(r.batch_size),
                    str(r.replayed),
                    r.arrival_time.hex(),
                    r.start_time.hex(),
                    r.finish_time.hex(),
                )
            ).encode()
        )
        for name in sorted(r.outputs):
            h.update(name.encode())
            h.update(r.outputs[name].tobytes())
    for name, value in sorted(counters.items()):
        h.update(f"{name}={value}".encode())
    return h.hexdigest()


@dataclass
class ServiceReport:
    """Everything a serving run produced."""

    results: list[GraphResult]
    metrics: ServiceMetrics
    tenants: dict[str, TenantState]
    fleet: GpuFleet
    config: ServeConfig
    #: flat namespaced counter roll-up across the whole run: ``serve.*``
    #: (admission, batching, capture cache), ``engine.*`` (summed over
    #: slots) and ``coherence.*`` (summed over every retired request)
    counters: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Canonical replay-determinism digest of this report (see
        :func:`fingerprint_results`)."""
        return fingerprint_results(self.results, self.counters)

    def render(self) -> str:
        """ASCII summary (the ``serve-bench`` CLI output)."""
        m = self.metrics
        lines = [
            "Scheduler service report",
            "========================",
            f"admission={self.config.admission.value}"
            f"  placement={self.fleet.policy.value}"
            f"  fleet={self.fleet.describe()}",
            f"requests={m.completed}  tenants={m.tenants}"
            f"  makespan={m.makespan * 1e3:.3f} ms"
            f"  throughput={m.throughput_rps:.1f} req/s",
        ]
        if m.shed or m.timed_out or m.failed:
            lines.append(
                f"degraded: shed={m.shed}  timed-out={m.timed_out}"
                f"  failed={m.failed}"
                f"  (injected={self.counters.get('faults.injected', 0)}"
                f"  retries={self.counters.get('faults.retries', 0)}"
                f"  replacements="
                f"{self.counters.get('faults.replacements', 0)})"
            )
        lines += [
            f"latency ms: p50={m.latency.p50 * 1e3:.3f}"
            f"  p95={m.latency.p95 * 1e3:.3f}"
            f"  p99={m.latency.p99 * 1e3:.3f}"
            f"  worst={m.latency.worst * 1e3:.3f}",
            f"queue wait ms: p50={m.queue_wait.p50 * 1e3:.3f}"
            f"  p95={m.queue_wait.p95 * 1e3:.3f}",
            f"batches={m.batches}  batched requests={m.batched_requests}"
            f"  capture hits/misses={m.capture_hits}/{m.capture_misses}",
            "fleet utilization: "
            + "  ".join(
                f"gpu{i}={u * 100:.1f}%"
                for i, u in enumerate(m.device_utilization)
            )
            + f"  (mean {m.mean_utilization * 100:.1f}%)",
            "",
            f"{'tenant':<12} {'done':>5} {'p50 ms':>9} {'p95 ms':>9}"
            f" {'p99 ms':>9} {'worst ms':>9}",
        ]
        for name in sorted(m.per_tenant):
            s = m.per_tenant[name]
            lines.append(
                f"{name:<12} {s.count:>5} {s.p50 * 1e3:>9.3f}"
                f" {s.p95 * 1e3:>9.3f} {s.p99 * 1e3:>9.3f}"
                f" {s.worst * 1e3:>9.3f}"
            )
        return "\n".join(lines)


class SchedulerService(Dispatcher):
    """Accepts task-graph submissions from many tenants and serves them
    from a simulated GPU fleet."""

    TRACK = "service"
    CHILD = "slot"
    FAULT_EVENT = "fault"
    RETRY_EVENT = "retry"
    QUEUE_PEAK = "serve.queue_depth_peak"
    INJECTED = "faults.injected"
    SHED = "faults.shed"
    RETRIED = "faults.retries"

    def __init__(
        self,
        fleet: GpuFleet | None = None,
        *,
        fleet_size: int = 2,
        fleet_topology: str | list[int] | None = None,
        gpu: str = "GTX 1660 Super",
        config: ServeConfig | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        explicit_tracer = tracer
        if tracer is None:
            # Adopt an externally-built fleet's tracer so slot engines
            # and service spans land in the same trace.
            tracer = (
                fleet.tracer if fleet is not None else current_tracer()
            )
        if fleet is None:
            if fleet_topology is not None:
                topology = (
                    parse_fleet_spec(fleet_topology)
                    if isinstance(fleet_topology, str)
                    else list(fleet_topology)
                )
            else:
                topology = [1] * fleet_size
            fleet = GpuFleet(
                topology,
                gpu=gpu,
                policy=self.config.placement,
                config=self.config.scheduler,
                tracer=explicit_tracer,
            )
        self.fleet = fleet
        if self.config.faults is not None:
            self.fleet.attach_faults(self.config.faults)
        super().__init__(
            self.config, self.config.faults, self.fleet.slots, tracer
        )
        self.cache = CaptureCache(enabled=self.config.capture_cache)
        self._batch_ids = itertools.count(1)
        self._batches = 0
        self._c_admitted = self.counters.counter("serve.admitted")
        self._c_batches = self.counters.counter("serve.batches")
        self._c_batched_requests = self.counters.counter(
            "serve.batched_requests"
        )
        # faults.* counters exist only when a plan is attached, so a
        # fault-free run's counter snapshot stays bit-identical to the
        # pre-fault-subsystem output; with a plan they are registered
        # eagerly so every chaos snapshot carries all four keys.
        if self.faults is not None:
            for name in (
                self.INJECTED,
                self.RETRIED,
                self.SHED,
                "faults.replacements",
            ):
                self.counters.counter(name)

    def enqueue(self, request: GraphRequest) -> int:
        """Queue an already-built :class:`GraphRequest`.

        The cluster layer admits once globally and hands whole request
        objects to the chosen node's service — attempts, backoff floor
        and deadline travel with the request across nodes.
        """
        self._c_admitted.value += 1
        return super().enqueue(request)

    def _admit_attrs(self, request: GraphRequest) -> dict:
        return {"priority": request.priority}

    def _retry_attrs(self, request: GraphRequest, slot: FleetSlot) -> dict:
        return {
            "attempt": request.attempts,
            "not_before": request.not_before,
            "slot": slot.index,
        }

    # -- the serving loop ---------------------------------------------------

    def drain(self) -> None:
        """Serve until the admission queue is empty (no report built —
        the cluster layer drains each node per placement round and
        reports once at the end).

        The loop runs *placement rounds*: plan a round of per-slot
        batches (admission, placement, fault draws — the inherently
        ordered decisions), simulate every planned batch timing-only
        (each slot's simulation is independent between rounds), then
        merge the outcomes in slot-id order.  Outputs are computed
        afterwards, by :meth:`run`.

        Every popped request reaches a terminal status — COMPLETED,
        SHED, TIMEOUT or FAILED — even under total fleet loss: when no
        slot admits and none ever will again, the remaining queue is
        shed instead of deadlocking; when a restart is pending, the
        loop fast-forwards virtual time to it.
        """
        strategy = SequentialStrategy(
            self.fleet.slots, trace=self.tracer.enabled
        )
        while len(self.queue):
            works = self._plan_round()
            if not works:
                # The plan phase terminally resolved everything it
                # popped (blackout shed / timed-out heads).
                break
            outcomes = strategy.execute(works)
            self._merge_round(works, outcomes)

    def _plan_round(self) -> list[SlotWork]:
        """Pop and place one round of batches: at most one batch per
        slot, every head dispatched at the same virtual instant.

        A round ends when the queue is empty, the next head's dispatch
        floor lies in the future, or no *idle* admitting slot remains
        (busy slots' clocks only advance at execution, so placing onto
        them mid-round would read stale availability).
        """
        works: list[SlotWork] = []
        busy: set[int] = set()
        while True:
            head = self.queue.peek()
            if head is None:
                break
            if works:
                if head.dispatch_floor > self._now:
                    break
                now = self._now
            else:
                now = max(self._now, head.dispatch_floor)
            now, eligible = self._eligible(now, busy)
            if not eligible:
                # The queue was shed, or slots may revive (or free up)
                # once the in-flight round joins: revisit this head
                # next round.
                break
            self._now = now
            popped = self.queue.pop()
            assert popped is head
            self._shed_to_watermark(now)
            if self._expired(head, now):
                continue
            batch = [head]
            if self.config.batching:
                key = head.topology_id
                window = self.config.batch_window
                batch.extend(
                    self.queue.take_matching(
                        lambda r: (
                            r.topology_id == key
                            and abs(r.arrival_time - head.arrival_time)
                            <= window
                            and r.not_before <= now
                            and (r.deadline is None or now <= r.deadline)
                        ),
                        self.config.batch_max - 1,
                    )
                )
            slot = self.fleet.choose(head, eligible)
            for r in batch:
                if r.last_slot is not None:
                    if r.last_slot != slot.index:
                        self.counters.counter(
                            "faults.replacements"
                        ).value += 1
                    r.last_slot = None
            works.append(self._plan_work(slot, batch))
            busy.add(slot.index)
        return works

    def _plan_work(
        self, slot: FleetSlot, batch: list[GraphRequest]
    ) -> SlotWork:
        """Pin every service-global decision for one batch into a
        self-contained work unit: batch ids, capture-cache outcome
        (derivation happens parent-side — workers never see the
        cache), and the dispatch-time fault draws (lifecycles are
        parent-owned state)."""
        batch_id = next(self._batch_ids)
        self._batches += 1
        self._c_batches.value += 1
        if len(batch) > 1:
            self._c_batched_requests.value += len(batch)
        plan = self.cache.lookup(
            batch[0].graph, slot.shape_key, requests=len(batch)
        )
        faulted = self.faults is not None
        # Degradation factor and transfer-fault draw are pinned at
        # dispatch time; a mid-batch DEGRADE only affects later
        # batches.
        slowdown = slot.lifecycle.slowdown if faulted else 1.0
        transfer_fault = bool(
            faulted and slot.lifecycle.take_transfer_fault(self._now)
        )
        return SlotWork(
            slot_index=slot.index,
            batch=batch,
            plan=plan,
            batch_id=batch_id,
            slowdown=slowdown,
            transfer_fault=transfer_fault,
            clock_start=slot.clock,
        )

    def _merge_round(
        self, works: list[SlotWork], outcomes: list[SlotOutcome]
    ) -> None:
        """Join one simulated round back into service state, in slot-id
        order (every batch in a round dispatched at the same virtual
        instant, so slot id is the deterministic tie-break) — results,
        retries, tenant histories, lifecycle advancement and traces
        merge identically whatever order the slots were simulated in."""
        by_slot = {o.slot_index: o for o in outcomes}
        for work in sorted(works, key=lambda w: w.slot_index):
            outcome = by_slot[work.slot_index]
            slot = self.fleet.slots[work.slot_index]
            finish = outcome.finish
            if outcome.trace_events:
                self.tracer.events.extend(outcome.trace_events)
            crashed = self._advance(slot, finish)
            for tenant, records in outcome.histories:
                self.tenants[tenant].absorb_history(records)
            if crashed or work.transfer_fault:
                # The batch's work is lost (crash) or its results never
                # arrived (transient transfer fault): the simulated
                # time it burned stays on the timeline, nothing is
                # computed and every member re-queues with backoff (or
                # fails).
                for r in work.batch:
                    self._retry_or_fail(r, slot, finish)
            else:
                requests = {r.request_id: r for r in work.batch}
                for request_id, order, start, read_clock in (
                    outcome.results
                ):
                    self._record_result(
                        requests[request_id],
                        order,
                        start,
                        read_clock,
                        slot=slot,
                        work=work,
                    )
                slot.requests_served += len(work.batch)
                slot.warm_topologies.add(work.batch[0].topology_key)
            if self.tracer.enabled:
                attrs: dict = {
                    "slot": slot.index,
                    "size": len(work.batch),
                    "batch_id": work.batch_id,
                    "tenant": work.batch[0].tenant,
                    "graph": work.batch[0].graph.name,
                    "replayed": work.plan is not None,
                }
                if crashed or work.transfer_fault:
                    attrs["crashed"] = crashed
                    attrs["transfer_fault"] = work.transfer_fault
                self.tracer.complete(
                    "batch",
                    track=self.TRACK,
                    vt_start=work.clock_start,
                    vt_end=finish,
                    **attrs,
                )

    # -- fault machinery ---------------------------------------------------

    def _on_crash(self, slot: FleetSlot) -> None:
        # The slot's (simulated) host process died: built kernels and
        # MIN_TRANSFER warmth die with it.
        slot.cold_restart()

    def _shed_to_watermark(self, now: float) -> None:
        """Graceful degradation: below the healthy-capacity watermark,
        keep only ``shed_queue_per_gpu`` queued requests per admitting
        GPU and shed the least-valuable excess."""
        watermark = self.config.shed_watermark
        if not watermark or self.faults is None:
            return
        admitting = self.fleet.admitting_gpus()
        if admitting / self.fleet.total_gpus >= watermark:
            return
        allowed = self.config.shed_queue_per_gpu * max(1, admitting)
        excess = len(self.queue) - allowed
        if excess <= 0:
            return
        for victim in self.queue.evict_lowest(excess):
            self._record_dropped(victim, now, RequestStatus.SHED)

    def _retry_or_fail(
        self, request: GraphRequest, slot: FleetSlot, finish: float
    ) -> None:
        """A dispatch was lost to a fault: re-queue with exponential
        backoff, or terminate FAILED once retries are exhausted."""
        request.last_slot = slot.index
        if not self._retry(request, slot, finish):
            self._record_dropped(request, finish, RequestStatus.FAILED)

    def report(self) -> ServiceReport:
        if not self.results:
            raise ValueError("no completed requests to report on")
        self._build_tenant_timelines()
        metrics = compute_service_metrics(
            self.results,
            [s.engine.timeline for s in self.fleet.slots],
            batches=self._batches,
            capture_hits=self.cache.hits,
            capture_misses=self.cache.misses,
        )
        return ServiceReport(
            results=list(self.results),
            metrics=metrics,
            tenants=dict(self.tenants),
            fleet=self.fleet,
            config=self.config,
            counters=self.counters_snapshot(),
        )

    def counters_snapshot(self) -> dict:
        """Service-wide flat counter roll-up: ``serve.*`` (admission,
        batching, capture cache) plus ``engine.*`` and ``coherence.*``
        summed across every slot and retired request."""
        merged = CounterRegistry()
        merged.merge(self.counters)
        merged.merge(self.cache.counters)
        for slot in self.fleet.slots:
            merged.merge(slot.engine.counters)
            merged.merge(slot.counters)
        return merged.snapshot()

    # -- completion -----------------------------------------------------------

    def _record_result(
        self,
        request: GraphRequest,
        order: list[int],
        start_time: float,
        finish: float,
        *,
        slot: FleetSlot,
        work: SlotWork,
    ) -> None:
        timed_out = (
            request.deadline is not None and finish > request.deadline
        )
        if not timed_out:
            # A timed-out request's results were never delivered, so
            # only a completion leaves work for the data plane.
            self.numerics[request.request_id] = (request.graph, order)
        result = GraphResult(
            request_id=request.request_id,
            tenant=request.tenant,
            graph_name=request.graph.name,
            outputs={},
            arrival_time=request.arrival_time,
            start_time=start_time,
            finish_time=finish,
            device_index=slot.index,
            batch_id=work.batch_id,
            batch_size=len(work.batch),
            replayed=work.plan is not None,
            status=(
                RequestStatus.TIMEOUT
                if timed_out
                else RequestStatus.COMPLETED
            ),
            attempts=request.attempts + 1,
        )
        self.results.append(result)
        if result.ok:
            self.tenants[request.tenant].record_completion(result.latency)

    # -- per-tenant timeline isolation ------------------------------------------

    def _build_tenant_timelines(self) -> None:
        """Rebuild each tenant's private timeline from the tenant tags
        stamped on every op (idempotent)."""
        timelines = {name: Timeline() for name in self.tenants}
        for slot in self.fleet.slots:
            slot.engine.timeline.split_by("tenant", timelines)
        for name, timeline in timelines.items():
            self.tenants[name].timeline = timeline
