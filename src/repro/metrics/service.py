"""Service-level metrics for the multi-tenant serving layer.

The paper's evaluation reports per-program makespans; a serving system
is judged on *distributions*: request latency percentiles (p50/p95/p99),
sustained throughput, and how busy the fleet actually was.  This module
computes those from the per-request results and per-device timelines the
:class:`repro.serve.service.SchedulerService` produces.

All times are virtual (simulated) seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.gpusim.timeline import IntervalKind, Timeline, intervals_measure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.request import GraphResult


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    Raises
    ------
    ValueError
        On empty input or ``q`` outside [0, 100].
    """
    items = sorted(values)
    if not items:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    if len(items) == 1:
        return items[0]
    pos = (q / 100.0) * (len(items) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return items[lo]
    frac = pos - lo
    return items[lo] * (1.0 - frac) + items[hi] * frac


def busy_seconds(
    timeline: Timeline, *, include_transfers: bool = True
) -> float:
    """Measure of the union of the timeline's busy intervals.

    Overlapping kernels/transfers count once (this is *occupancy*, not
    work): the device was busy whenever at least one operation ran.
    """
    return intervals_measure(
        (r.start, r.end)
        for r in timeline
        if r.kind is IntervalKind.KERNEL
        or (include_transfers and r.kind.is_transfer)
    )


@dataclass(frozen=True)
class LatencyStats:
    """Summary of one latency distribution (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    worst: float

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "LatencyStats":
        items = list(values)
        if not items:
            raise ValueError("no latencies to summarize")
        return cls(
            count=len(items),
            mean=sum(items) / len(items),
            p50=percentile(items, 50),
            p95=percentile(items, 95),
            p99=percentile(items, 99),
            worst=max(items),
        )

    @classmethod
    def empty(cls) -> "LatencyStats":
        """The all-zero distribution — what a faulted run that completed
        nothing reports (raising would make a total-outage run
        unreportable)."""
        return cls(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, worst=0.0)


@dataclass(frozen=True)
class ServiceMetrics:
    """Aggregate service-level indicators of one serving run."""

    completed: int
    tenants: int
    makespan: float                      # first arrival -> last completion
    throughput_rps: float                # completed / makespan
    latency: LatencyStats
    queue_wait: LatencyStats
    per_tenant: dict[str, LatencyStats] = field(default_factory=dict)
    device_busy: tuple[float, ...] = ()
    device_utilization: tuple[float, ...] = ()
    batches: int = 0
    batched_requests: int = 0            # requests that shared a batch
    capture_hits: int = 0
    capture_misses: int = 0
    #: non-completed terminal statuses (fault injection / degradation);
    #: all zero on a fault-free run
    shed: int = 0
    timed_out: int = 0
    failed: int = 0

    @property
    def terminal(self) -> int:
        """Every request that reached *some* terminal status — equals
        the submission count when the serving loop never hangs."""
        return self.completed + self.shed + self.timed_out + self.failed

    @property
    def mean_utilization(self) -> float:
        if not self.device_utilization:
            return 0.0
        return sum(self.device_utilization) / len(self.device_utilization)


def compute_service_metrics(
    results: Sequence["GraphResult"],
    device_timelines: Sequence[Timeline],
    *,
    batches: int = 0,
    capture_hits: int = 0,
    capture_misses: int = 0,
) -> ServiceMetrics:
    """Summarize a serving run from its results and device timelines.

    Latency/queue-wait distributions cover *completed* requests only —
    a shed or timed-out request has no meaningful service latency.  The
    makespan spans every terminal result, completed or not, so a run
    that shed its tail still reports how long the fleet was engaged.
    """
    if not results:
        raise ValueError("no results to summarize")
    done = [r for r in results if r.status.ok]
    first_arrival = min(r.arrival_time for r in results)
    last_finish = max(r.finish_time for r in results)
    makespan = max(last_finish - first_arrival, 1e-12)

    by_tenant: dict[str, list[float]] = {}
    for r in done:
        by_tenant.setdefault(r.tenant, []).append(r.latency)

    def stats(values: list[float]) -> LatencyStats:
        return (
            LatencyStats.from_values(values)
            if values
            else LatencyStats.empty()
        )

    from repro.serve.request import RequestStatus

    busy = tuple(busy_seconds(t) for t in device_timelines)
    return ServiceMetrics(
        completed=len(done),
        tenants=len({r.tenant for r in results}),
        makespan=makespan,
        throughput_rps=len(done) / makespan,
        latency=stats([r.latency for r in done]),
        queue_wait=stats([r.queue_wait for r in done]),
        per_tenant={
            t: LatencyStats.from_values(v) for t, v in by_tenant.items()
        },
        device_busy=busy,
        device_utilization=tuple(b / makespan for b in busy),
        batches=batches,
        batched_requests=sum(1 for r in done if r.batch_size > 1),
        capture_hits=capture_hits,
        capture_misses=capture_misses,
        shed=sum(1 for r in results if r.status is RequestStatus.SHED),
        timed_out=sum(
            1 for r in results if r.status is RequestStatus.TIMEOUT
        ),
        failed=sum(
            1 for r in results if r.status is RequestStatus.FAILED
        ),
    )
