"""The dispatch machinery shared by every serving level.

A :class:`Dispatcher` admits tenant submissions into one admission
queue and drives them to a terminal status over a set of *children*,
each with its own :class:`~repro.faults.SlotLifecycle`: the slots of a
:class:`~repro.serve.service.SchedulerService` fleet, or the nodes of a
:class:`~repro.cluster.Cluster`.  The base class owns what both levels
do identically:

* the admission queue, the tenant registry and request-id allocation;
* the append-only list of terminal results;
* lifecycle advance over the children, fault counting and tracing;
* the total-outage step — fast-forward to the first revival, or shed
  the whole queue when no child will ever admit again — and the
  deadline check;
* the exponential-backoff re-queue and the terminal drop record;
* the data plane: once :meth:`Dispatcher.drain` has simulated every
  request timing-only, :meth:`Dispatcher.run` computes each COMPLETED
  request's outputs once, in request-id order.

Each level keeps its own round policy (:meth:`Dispatcher.drain`), its
report, and its counter and trace names (the class constants), so a
level's fingerprints and traces do not depend on the other's.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

from repro.faults import FaultKind, FaultPlan, Transition
from repro.obs.counters import CounterRegistry
from repro.obs.trace import Tracer
from repro.parallel.strategy import map_numerics
from repro.serve.admission import AdmissionQueue
from repro.serve.request import (
    GraphRequest,
    GraphResult,
    RequestStatus,
    TaskGraph,
)
from repro.serve.tenant import TenantState

if TYPE_CHECKING:
    from repro.serve.service import ServeConfig


class Dispatcher:
    """Admission, fault handling and terminal records over children.

    A child is anything with an ``index``, a ``lifecycle``, a ``clock``
    (the virtual time it has simulated to) and an ``admitting`` flag.
    """

    #: tracer track of this level's instants
    TRACK: str
    #: trace attribute naming the child a fault struck
    CHILD: str
    #: trace instant of a fault transition
    FAULT_EVENT: str
    #: trace instant of a backoff re-queue
    RETRY_EVENT: str
    #: counters: queue-depth high watermark, fault specs injected,
    #: requests shed, backoff re-queues
    QUEUE_PEAK: str
    INJECTED: str
    SHED: str
    RETRIED: str

    def __init__(
        self,
        serve: ServeConfig,
        faults: FaultPlan | None,
        children: list,
        tracer: Tracer,
    ) -> None:
        self.tracer = tracer
        #: this level's fault plan (None serves fault-free)
        self.faults = faults
        self.children = children
        self.queue = AdmissionQueue(serve.admission)
        self.tenants: dict[str, TenantState] = {}
        #: terminal results in the order they were reached
        self.results: list[GraphResult] = []
        self.counters = CounterRegistry()
        self._max_retries = serve.max_retries
        self._retry_backoff_us = serve.retry_backoff_us
        self._parallel = serve.parallel
        self._workers = serve.workers
        #: request id -> (graph, launch indices in kernel completion
        #: order) of each completion the data plane has yet to compute
        self.numerics: dict[int, tuple[TaskGraph, list[int]]] = {}
        #: instance-owned ids: concurrent dispatchers never interleave
        #: them
        self._request_ids = itertools.count(1)
        #: topology key -> its :attr:`GraphRequest.topology_id`, numbered
        #: in first-enqueue order (one table per dispatcher, per run)
        self._topology_ids: dict[tuple, int] = {}
        #: monotone virtual-time cursor of the dispatch decisions
        self._now = 0.0
        #: fault specs already counted as injected (a DRAIN makes two
        #: transitions, a RESTART makes two more — each spec counts once)
        self._injected: set[int] = set()

    # -- tenant/submission API -------------------------------------------

    def register_tenant(
        self, name: str, priority: int = 0
    ) -> TenantState:
        state = self.tenants.get(name)
        if state is None:
            state = TenantState(name=name, priority=priority)
            self.tenants[name] = state
        else:
            state.priority = priority
        return state

    def submit(
        self,
        tenant: str,
        graph: TaskGraph,
        priority: int | None = None,
        arrival_time: float = 0.0,
        deadline: float | None = None,
    ) -> int:
        """Queue one task graph for ``tenant``; returns the request id.

        ``arrival_time`` is the virtual service time of the submission
        (workload generators space these; 0 means "present at start").
        ``deadline`` is an absolute virtual time by which the results
        must be readable, else the request terminates TIMEOUT.
        """
        if deadline is not None and deadline < arrival_time:
            raise ValueError(
                f"deadline {deadline:g} precedes arrival {arrival_time:g}"
            )
        state = self.tenants.get(tenant) or self.register_tenant(tenant)
        return self.enqueue(
            GraphRequest(
                request_id=next(self._request_ids),
                tenant=tenant,
                graph=graph,
                priority=state.priority if priority is None else priority,
                arrival_time=arrival_time,
                deadline=deadline,
            )
        )

    def enqueue(self, request: GraphRequest) -> int:
        """Queue an already-built :class:`GraphRequest`."""
        state = self.tenants.get(request.tenant) or self.register_tenant(
            request.tenant, priority=request.priority
        )
        state.submitted += 1
        ids = self._topology_ids
        request.topology_id = ids.setdefault(request.topology_key, len(ids))
        self.queue.push(request)
        self.counters.set_max(self.QUEUE_PEAK, len(self.queue))
        if self.tracer.enabled:
            self.tracer.instant(
                "admit",
                track=self.TRACK,
                vt=request.arrival_time,
                tenant=request.tenant,
                request=request.request_id,
                **self._admit_attrs(request),
                queue_depth=len(self.queue),
            )
        return request.request_id

    def _admit_attrs(self, request: GraphRequest) -> dict[str, Any]:
        """This level's extra attributes of an "admit" trace instant."""
        return {}

    # -- the serving loop --------------------------------------------------

    def run(self):
        """Serve every admitted request to a terminal status, compute
        the completed requests' outputs, then report."""
        self.drain()
        completed = sorted(
            (r for r in self.results if r.status is RequestStatus.COMPLETED),
            key=lambda r: r.request_id,
        )
        outputs = map_numerics(
            [self.numerics[r.request_id] for r in completed],
            self._parallel,
            self._workers,
        )
        for result, out in zip(completed, outputs):
            result.outputs = out
        return self.report()

    def drain(self) -> None:
        """Serve until every admitted request is terminal (timing
        only: outputs are computed by :meth:`run`)."""
        raise NotImplementedError

    def report(self):
        raise NotImplementedError

    # -- lifecycles --------------------------------------------------------

    def _advance(self, child, now: float) -> bool:
        """Advance ``child``'s health machine to ``max(now, clock)`` — a
        child that has simulated up to its own clock has experienced
        every event up to it, and lifecycles never rewind.  Returns
        whether the child crashed."""
        if self.faults is None:
            return False
        lifecycle = child.lifecycle
        made = lifecycle.advance(max(now, lifecycle.now, child.clock))
        return self._process_transitions(child, made)

    def _advance_lifecycles(
        self, now: float, busy: "set[int] | frozenset" = frozenset()
    ) -> None:
        """Advance every child not in ``busy`` (children dispatched
        earlier in the round being planned: their post-dispatch events
        belong to the merge)."""
        for child in self.children:
            if child.index not in busy:
                self._advance(child, now)

    def _process_transitions(
        self, child, made: list[Transition]
    ) -> bool:
        """Count injections and trace every transition; returns whether
        a CRASH was among them."""
        crashed = False
        for t in made:
            if id(t.spec) not in self._injected:
                self._injected.add(id(t.spec))
                self.counters.counter(self.INJECTED).value += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    self.FAULT_EVENT,
                    track=self.TRACK,
                    vt=t.time,
                    **{self.CHILD: child.index},
                    kind=t.spec.kind.value,
                    before=t.before.value,
                    after=t.after.value,
                )
            if t.spec.kind is FaultKind.CRASH and t.before is not t.after:
                crashed = True
                self._on_crash(child)
        return crashed

    def _on_crash(self, child) -> None:
        """React to ``child`` crashing (nothing by default)."""

    def _earliest_revival(self, now: float) -> float | None:
        """Earliest virtual time any child could admit again, or None."""
        times = [
            t
            for c in self.children
            if (t := c.lifecycle.earliest_admit(now)) is not None
        ]
        return min(times) if times else None

    def _eligible(
        self, now: float, busy: "set[int] | frozenset" = frozenset()
    ) -> tuple[float, list]:
        """Advance the lifecycles to ``now``, the dispatch instant of the
        queue's head, and return it with the admitting children not in
        ``busy``.

        Under a total outage with nothing busy, a pending restart
        fast-forwards ``now`` to the first revival; when no child will
        ever admit again, graceful degradation sheds the whole queue
        instead of deadlocking.  An empty list means the head cannot go
        anywhere now: the queue was shed, or only busy children might
        take it once they join.
        """
        self._advance_lifecycles(now, busy)
        eligible = [
            c for c in self.children
            if c.admitting and c.index not in busy
        ]
        if eligible or busy:
            return now, eligible
        revive = self._earliest_revival(now)
        if revive is None:
            while len(self.queue):
                request = self.queue.pop()
                assert request is not None
                self._record_dropped(request, now, RequestStatus.SHED)
            return now, []
        now = max(now, revive)
        self._advance_lifecycles(now)
        eligible = [c for c in self.children if c.admitting]
        assert eligible, "a revived child must admit"
        return now, eligible

    # -- terminal records and retries ------------------------------------

    def _expired(self, request: GraphRequest, now: float) -> bool:
        """Record TIMEOUT for a request whose deadline passed before
        dispatch at ``now``."""
        if request.deadline is not None and now > request.deadline:
            self._record_dropped(request, now, RequestStatus.TIMEOUT)
            return True
        return False

    def _record_dropped(
        self, request: GraphRequest, now: float, status: RequestStatus
    ) -> None:
        """Terminal non-completed status for a request that never (or
        never successfully) ran: SHED / TIMEOUT / FAILED."""
        if status is RequestStatus.SHED:
            self.counters.counter(self.SHED).value += 1
        if self.tracer.enabled:
            self.tracer.instant(
                status.value,
                track=self.TRACK,
                vt=now,
                tenant=request.tenant,
                request=request.request_id,
            )
        self.results.append(
            GraphResult(
                request_id=request.request_id,
                tenant=request.tenant,
                graph_name=request.graph.name,
                outputs={},
                arrival_time=request.arrival_time,
                start_time=now,
                finish_time=now,
                device_index=-1,
                batch_id=0,
                status=status,
                attempts=request.attempts,
            )
        )

    def _retry(self, request: GraphRequest, child, finish: float) -> bool:
        """A dispatch of ``request`` on ``child`` was lost at ``finish``:
        re-queue it, not before retry *k*'s backoff of
        ``retry_backoff_us * 2**(k-1)`` has passed.  False once its
        retries are exhausted; the level decides what it becomes."""
        request.attempts += 1
        if request.attempts > self._max_retries:
            return False
        backoff = self._retry_backoff_us * 1e-6 * 2 ** (request.attempts - 1)
        request.not_before = max(request.not_before, finish + backoff)
        self.counters.counter(self.RETRIED).value += 1
        if self.tracer.enabled:
            self.tracer.instant(
                self.RETRY_EVENT,
                track=self.TRACK,
                vt=finish,
                tenant=request.tenant,
                request=request.request_id,
                **self._retry_attrs(request, child),
            )
        self.queue.push(request)
        return True

    def _retry_attrs(self, request: GraphRequest, child) -> dict[str, Any]:
        """This level's extra attributes of a retry trace instant."""
        raise NotImplementedError
