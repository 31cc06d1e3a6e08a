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

One :class:`AdmissionQueue` serves all three.  It keeps the queued
requests in push order and admits the one with the least policy key:
FIFO its position, PRIORITY (−priority, position), FAIR_SHARE (its
tenant's admitted count, position).  :meth:`AdmissionQueue.take_matching`
is the hook the batching layer uses to pull topology-identical requests
forward into the batch being formed (admission accounting still charges
their tenants).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable

from repro.core.policies import AdmissionPolicy
from repro.serve.request import GraphRequest

__all__ = ["AdmissionPolicy", "AdmissionQueue"]


class AdmissionQueue:
    """The queued requests in push order, admitted per ``policy``.

    Requests are only appended and removals never reorder the rest, so
    a request's position orders it exactly as its push order does.
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self._queued: list[GraphRequest] = []
        #: requests admitted (popped/taken) per tenant, the service
        #: measure fair-share balances
        self.admitted_counts: dict[str, int] = defaultdict(int)

    def push(self, request: GraphRequest) -> None:
        """Enqueue a submission."""
        self._queued.append(request)

    def __len__(self) -> int:
        return len(self._queued)

    def pending_by_tenant(self) -> dict[str, int]:
        """Queued-request counts per tenant (introspection/tests)."""
        return dict(Counter(r.tenant for r in self._queued))

    def _next(self) -> int | None:
        """Position of the request the policy admits next."""
        queued = self._queued
        if not queued:
            return None
        if self.policy is AdmissionPolicy.FIFO:
            return 0
        # Only the oldest request of each priority level (PRIORITY) or
        # of each tenant (FAIR_SHARE) can be next: note those heads in
        # one pass, then compare one candidate per level or tenant.
        heads: dict = {}
        if self.policy is AdmissionPolicy.PRIORITY:
            for i, r in enumerate(queued):
                heads.setdefault(r.priority, i)
            return heads[max(heads)]
        for i, r in enumerate(queued):
            heads.setdefault(r.tenant, i)
        counts = self.admitted_counts
        return min(
            heads.values(), key=lambda i: (counts[queued[i].tenant], i)
        )

    def pop(self) -> GraphRequest | None:
        """Admit the next request per the policy (None when empty)."""
        i = self._next()
        if i is None:
            return None
        request = self._queued.pop(i)
        self.admitted_counts[request.tenant] += 1
        return request

    def peek(self) -> GraphRequest | None:
        """The request :meth:`pop` would admit next, without removing it
        or charging admission accounting (None when empty)."""
        i = self._next()
        return None if i is None else self._queued[i]

    def take_matching(
        self, predicate: Callable[[GraphRequest], bool], limit: int
    ) -> list[GraphRequest]:
        """Remove and return up to ``limit`` queued requests matching
        ``predicate``, oldest first (highest priority level first under
        PRIORITY).  Used to coalesce batches; admission accounting is
        charged as if the requests were popped."""
        if limit <= 0:
            return []
        queued = self._queued
        order: range | list[int] = range(len(queued))
        if self.policy is AdmissionPolicy.PRIORITY:
            order = sorted(order, key=lambda i: -queued[i].priority)
        chosen: list[int] = []
        for i in order:
            if predicate(queued[i]):
                chosen.append(i)
                if len(chosen) == limit:
                    break
        taken = [queued[i] for i in chosen]
        self._delete(chosen)
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
        queued = self._queued
        chosen = sorted(
            range(len(queued)),
            key=lambda i: (
                queued[i].priority,
                -queued[i].arrival_time,
                -queued[i].request_id,
            ),
        )[:count]
        victims = [queued[i] for i in chosen]
        self._delete(chosen)
        return victims

    def _delete(self, positions: list[int]) -> None:
        for i in sorted(positions, reverse=True):
            del self._queued[i]
