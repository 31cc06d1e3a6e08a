"""Per-tenant isolation state.

Each logical tenant of the serving layer owns:

* a **kernel history** of its own (the section IV-A heuristics substrate)
  — one tenant's block-size evidence never leaks into another's
  recommendations;
* a **timeline** holding only its own operations, reconstructed from the
  tenant tags the execution contexts stamp on every op (the shared
  per-device engine timelines interleave all tenants);
* admission/latency accounting used by fair-share and the service
  metrics.

The DAG needs no tenant-level object: every *request* executes in its
own execution context, built on its fleet slot's engine and closed when
its batch ends (see :class:`repro.parallel.work.Submission`), so DAG
isolation is per request — strictly stronger than per tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.history import KernelExecutionRecord, KernelHistory
from repro.gpusim.timeline import Timeline


@dataclass
class TenantState:
    """Everything the service tracks about one tenant."""

    name: str
    #: default priority for submissions that do not set their own
    priority: int = 0
    submitted: int = 0
    completed: int = 0
    latencies: list[float] = field(default_factory=list)
    history: KernelHistory = field(default_factory=KernelHistory)
    timeline: Timeline = field(default_factory=Timeline)

    def record_completion(self, latency: float) -> None:
        self.completed += 1
        self.latencies.append(latency)

    def absorb_history(self, records: list[KernelExecutionRecord]) -> None:
        for record in records:
            self.history.record(record)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TenantState {self.name} prio={self.priority}"
            f" done={self.completed}/{self.submitted}>"
        )
