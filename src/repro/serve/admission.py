"""Admission control: which queued request is dispatched next.

Three policies, selectable per service instance (and from the
``serve-bench`` CLI):

* **FIFO** — strict arrival order; simple, but a heavy tenant ahead of
  you delays everyone.
* **PRIORITY** — higher request priority first (FIFO within a priority
  level).  Starvation of low-priority tenants is possible *by design*;
  use fair-share when that is unacceptable.
* **FAIR_SHARE** — least-service-first across tenants: the next request
  comes from the backlogged tenant that has been admitted the fewest
  requests so far (FIFO within a tenant).  Between any two continuously
  backlogged tenants the admitted counts never diverge by more than one,
  so no tenant starves.

All queues also support :meth:`AdmissionQueue.take_matching`, the hook
the batching layer uses to pull topology-identical requests forward into
the batch being formed (admission accounting still charges their
tenants).
"""

from __future__ import annotations

import abc
import heapq
import itertools
from collections import defaultdict, deque
from typing import Callable

from repro.core.policies import AdmissionPolicy
from repro.serve.request import GraphRequest

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "FairShareQueue",
    "FifoQueue",
    "PriorityQueue",
    "make_queue",
]


def make_queue(policy: AdmissionPolicy) -> "AdmissionQueue":
    """Factory: the queue implementation for ``policy``."""
    return {
        AdmissionPolicy.FIFO: FifoQueue,
        AdmissionPolicy.PRIORITY: PriorityQueue,
        AdmissionPolicy.FAIR_SHARE: FairShareQueue,
    }[policy]()


class AdmissionQueue(abc.ABC):
    """Common bookkeeping for every admission policy."""

    def __init__(self) -> None:
        self._seq = itertools.count()
        #: requests admitted (popped/taken) per tenant, the service
        #: measure fair-share balances
        self.admitted_counts: dict[str, int] = defaultdict(int)

    # -- policy interface -------------------------------------------------

    @abc.abstractmethod
    def push(self, request: GraphRequest) -> None:
        """Enqueue a submission."""

    @abc.abstractmethod
    def pop(self) -> GraphRequest | None:
        """Admit the next request per the policy (None when empty)."""

    @abc.abstractmethod
    def peek(self) -> GraphRequest | None:
        """The request :meth:`pop` would admit next, without removing it
        or charging admission accounting (None when empty)."""

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def pending_by_tenant(self) -> dict[str, int]:
        """Queued-request counts per tenant (introspection/tests)."""

    @abc.abstractmethod
    def _remove_matching(
        self, predicate: Callable[[GraphRequest], bool], limit: int
    ) -> list[GraphRequest]: ...

    # -- shared machinery ---------------------------------------------------

    def take_matching(
        self, predicate: Callable[[GraphRequest], bool], limit: int
    ) -> list[GraphRequest]:
        """Remove and return up to ``limit`` queued requests matching
        ``predicate`` (queue order).  Used to coalesce batches; admission
        accounting is charged as if the requests were popped."""
        if limit <= 0:
            return []
        taken = self._remove_matching(predicate, limit)
        for r in taken:
            self.admitted_counts[r.tenant] += 1
        return taken

    def evict_lowest(self, count: int) -> list[GraphRequest]:
        """Remove and return the ``count`` least-valuable queued
        requests: lowest priority first, newest arrival first within a
        priority (the graceful-degradation shed order — fresh low-value
        work goes before old high-value work).

        Evicted requests are *not* charged to admission accounting (they
        were never served); survivors keep their relative queue order.
        """
        if count <= 0:
            return []
        queued = self._remove_matching(lambda r: True, len(self))
        victims = sorted(
            queued,
            key=lambda r: (
                r.priority, -r.arrival_time, -r.request_id
            ),
        )[:count]
        victim_ids = {r.request_id for r in victims}
        for r in queued:
            if r.request_id not in victim_ids:
                self.push(r)
        return victims

    def _note_admitted(self, request: GraphRequest) -> None:
        self.admitted_counts[request.tenant] += 1


class FifoQueue(AdmissionQueue):
    """Strict arrival order."""

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[GraphRequest] = deque()

    def push(self, request: GraphRequest) -> None:
        self._queue.append(request)

    def pop(self) -> GraphRequest | None:
        if not self._queue:
            return None
        request = self._queue.popleft()
        self._note_admitted(request)
        return request

    def peek(self) -> GraphRequest | None:
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)

    def pending_by_tenant(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for r in self._queue:
            counts[r.tenant] += 1
        return dict(counts)

    def _remove_matching(self, predicate, limit) -> list[GraphRequest]:
        taken: list[GraphRequest] = []
        kept: deque[GraphRequest] = deque()
        while self._queue:
            r = self._queue.popleft()
            if len(taken) < limit and predicate(r):
                taken.append(r)
            else:
                kept.append(r)
        self._queue = kept
        return taken


class PriorityQueue(AdmissionQueue):
    """Higher ``request.priority`` first; FIFO within a level."""

    def __init__(self) -> None:
        super().__init__()
        #: heap on (-priority, submission seq): stable priority order
        self._heap: list[tuple[tuple[int, int], GraphRequest]] = []

    def push(self, request: GraphRequest) -> None:
        heapq.heappush(
            self._heap, ((-request.priority, next(self._seq)), request)
        )

    def pop(self) -> GraphRequest | None:
        if not self._heap:
            return None
        _, request = heapq.heappop(self._heap)
        self._note_admitted(request)
        return request

    def peek(self) -> GraphRequest | None:
        return self._heap[0][1] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def pending_by_tenant(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for _, r in self._heap:
            counts[r.tenant] += 1
        return dict(counts)

    def _remove_matching(self, predicate, limit) -> list[GraphRequest]:
        # Matches leave in admission (priority) order, not heap-array
        # order; the survivors are re-heapified.
        entries = sorted(self._heap, key=lambda e: e[0])
        taken: list[GraphRequest] = []
        kept: list[tuple[tuple[int, int], GraphRequest]] = []
        for key, r in entries:
            if len(taken) < limit and predicate(r):
                taken.append(r)
            else:
                kept.append((key, r))
        heapq.heapify(kept)
        self._heap = kept
        return taken


class FairShareQueue(AdmissionQueue):
    """Least-service-first across tenants, FIFO within a tenant.

    ``pop`` always serves a backlogged tenant whose admitted count is
    minimal among backlogged tenants — the starvation-freedom invariant
    the property tests pin down.
    """

    def __init__(self) -> None:
        super().__init__()
        self._per_tenant: dict[str, deque[tuple[int, GraphRequest]]] = (
            defaultdict(deque)
        )

    def push(self, request: GraphRequest) -> None:
        self._per_tenant[request.tenant].append(
            (next(self._seq), request)
        )

    def pop(self) -> GraphRequest | None:
        backlogged = [t for t, q in self._per_tenant.items() if q]
        if not backlogged:
            return None
        # Least admitted first; tie-break on the oldest queued request
        # so equal-share tenants still serve in arrival order.
        tenant = min(
            backlogged,
            key=lambda t: (
                self.admitted_counts[t],
                self._per_tenant[t][0][0],
            ),
        )
        _, request = self._per_tenant[tenant].popleft()
        self._note_admitted(request)
        return request

    def peek(self) -> GraphRequest | None:
        backlogged = [t for t, q in self._per_tenant.items() if q]
        if not backlogged:
            return None
        tenant = min(
            backlogged,
            key=lambda t: (
                self.admitted_counts[t],
                self._per_tenant[t][0][0],
            ),
        )
        return self._per_tenant[tenant][0][1]

    def __len__(self) -> int:
        return sum(len(q) for q in self._per_tenant.values())

    def pending_by_tenant(self) -> dict[str, int]:
        return {t: len(q) for t, q in self._per_tenant.items() if q}

    def _remove_matching(self, predicate, limit) -> list[GraphRequest]:
        # Two passes: find every match first, THEN truncate to the
        # globally-oldest ``limit`` — a per-tenant scan that applied the
        # limit while walking would prefer whichever tenant the dict
        # yields first over older queued requests.
        matches: list[tuple[int, GraphRequest]] = []
        for queue in self._per_tenant.values():
            matches.extend(e for e in queue if predicate(e[1]))
        matches.sort(key=lambda e: e[0])  # global arrival order
        chosen = {seq for seq, _ in matches[:limit]}
        for tenant, queue in self._per_tenant.items():
            self._per_tenant[tenant] = deque(
                e for e in queue if e[0] not in chosen
            )
        return [r for seq, r in matches[:limit]]
