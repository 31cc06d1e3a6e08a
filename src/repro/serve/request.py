"""Task-graph submissions: what a tenant hands the serving layer.

A :class:`GraphRequest` wraps one
:class:`~repro.graphs.taskgraph.TaskGraph` — the declarative,
runtime-independent description of a client computation — in its
serving envelope, so that the
:class:`~repro.serve.service.SchedulerService` can queue it, batch it,
price it and replay it: the per-request unit the serving layer
multiplexes over the fleet.

Dependency inference stays where it always was: when a request executes,
its launches flow through a (per-request) execution context which infers
the DAG from dependency sets, or through a cached capture plan derived
from the same analysis.  Per-tenant numerical results are therefore
identical to running the same graph alone on a private runtime.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.core.policies import ExecutionPolicy, SchedulerConfig
from repro.errors import (
    AdmissionShedError,
    RequestTimeoutError,
    SlotFailedError,
)
from repro.graphs.taskgraph import TaskGraph
from repro.session import Session
from repro.gpusim.specs import GPUSpec

#: ids of requests constructed directly; every service and cluster
#: numbers its own submissions from 1
_request_ids = itertools.count(1)


class RequestStatus(enum.Enum):
    """Terminal status of one served request.

    Every submitted request reaches exactly one of these — the serving
    loop never hangs a request, even under total fleet loss (graceful
    degradation sheds instead of deadlocking).
    """

    #: outputs read back, bit-identical to serial execution
    COMPLETED = "completed"
    #: dropped by graceful degradation (capacity below the watermark, or
    #: zero admitting slots with no restart pending)
    SHED = "shed"
    #: the request's deadline passed before its results were readable
    TIMEOUT = "timed-out"
    #: every retry after slot crashes / transfer faults was exhausted
    FAILED = "failed"

    @property
    def ok(self) -> bool:
        return self is RequestStatus.COMPLETED


@dataclass
class GraphRequest:
    """One queued submission: a task graph plus its serving envelope."""

    tenant: str
    graph: TaskGraph
    priority: int = 0
    #: virtual service time at which the request entered the system
    arrival_time: float = 0.0
    #: absolute virtual deadline: results must be readable by this time
    #: or the request times out (None = no deadline)
    deadline: float | None = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: dispatch attempts so far (fault retries re-queue and increment)
    attempts: int = 0
    #: earliest virtual re-dispatch time after a fault (exponential
    #: backoff floor; 0 = dispatch whenever admitted)
    not_before: float = 0.0
    #: slot index of the last failed dispatch (None = never failed);
    #: used to count re-placements onto surviving slots
    last_slot: int | None = None
    #: the queueing dispatcher's number for :attr:`topology_key`, set
    #: on every enqueue: equal keys get equal numbers within one
    #: dispatcher, so the batch predicate compares ints, not key tuples
    topology_id: int = field(default=-1, init=False, compare=False)

    @property
    def topology_key(self) -> tuple:
        return self.graph.topology_key()

    @property
    def dispatch_floor(self) -> float:
        """Earliest virtual time this request may be dispatched."""
        return max(self.arrival_time, self.not_before)


@dataclass
class GraphResult:
    """Outcome of one served request."""

    request_id: int
    tenant: str
    graph_name: str
    outputs: dict[str, np.ndarray]
    arrival_time: float
    start_time: float          # virtual time execution began on the device
    finish_time: float         # virtual time the outputs were consumable
    device_index: int          # -1 when the request never ran (shed/timeout)
    batch_id: int
    batch_size: int = 1
    replayed: bool = False     # served from the capture cache
    status: RequestStatus = RequestStatus.COMPLETED
    #: dispatch attempts the request consumed (> 1 means fault retries)
    attempts: int = 1
    #: cluster node that served the request (-1 = single-node serving,
    #: or the request never reached a node)
    node_index: int = -1

    @property
    def ok(self) -> bool:
        return self.status.ok

    @property
    def latency(self) -> float:
        """End-to-end virtual latency: arrival -> results readable."""
        return self.finish_time - self.arrival_time

    @property
    def queue_wait(self) -> float:
        return self.start_time - self.arrival_time

    def raise_for_status(self) -> None:
        """Raise the matching :mod:`repro.errors` fault for a
        non-completed terminal status (no-op when completed)."""
        if self.status is RequestStatus.COMPLETED:
            return
        detail = (
            f"request {self.request_id} ({self.graph_name},"
            f" tenant {self.tenant})"
        )
        if self.status is RequestStatus.SHED:
            raise AdmissionShedError(
                f"{detail} was shed by graceful degradation"
            )
        if self.status is RequestStatus.TIMEOUT:
            raise RequestTimeoutError(
                f"{detail} missed its deadline"
            )
        raise SlotFailedError(
            f"{detail} failed after {self.attempts} attempt(s) on"
            " faulted slots"
        )


def execute_serial(
    graph: TaskGraph, gpu: str | GPUSpec = "GTX 1660 Super"
) -> dict[str, np.ndarray]:
    """Reference execution: the graph alone on a private serial runtime.

    This is the ground truth the serving layer's results are validated
    against — one tenant, one session, original-GrCUDA serial scheduling.
    """
    rt = Session(
        gpus=1,
        gpu=gpu,
        config=SchedulerConfig(execution=ExecutionPolicy.SERIAL),
    )
    arrays = {
        name: rt.array(decl.shape, dtype=decl.dtype, name=name)
        for name, decl in graph.arrays.items()
    }
    kernels = {
        k.name: rt.build_kernel(k.fn, k.name, k.signature, cost_model=k.cost)
        for k in graph.kernels
    }
    for name, decl in graph.arrays.items():
        if decl.init is not None:
            arrays[name].copy_from_host(decl.init)
    for launch in graph.launches:
        kernels[launch.kernel](launch.grid, launch.block)(
            *launch.resolve(arrays)
        )
    outputs = {name: arrays[name].to_numpy() for name in graph.outputs}
    rt.close()
    return outputs
