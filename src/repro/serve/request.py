"""Task-graph submissions: what a tenant hands the serving layer.

A :class:`TaskGraph` is a *declarative*, runtime-independent description
of one client computation: the arrays it allocates (with optional host
input data), the kernels it builds and the launches of its host program
in program order.  It is exactly the information a GrCUDA host program
conveys through the Fig. 4 API, reified as data so that the
:class:`~repro.serve.service.SchedulerService` can queue it, batch it,
price it and replay it — the per-request unit the serving layer
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
from typing import Any, Callable

import numpy as np

from repro.core.policies import ExecutionPolicy, SchedulerConfig
from repro.errors import (
    AdmissionShedError,
    RequestTimeoutError,
    SlotFailedError,
)
from repro.session import Session
from repro.gpusim.specs import GPUSpec
from repro.kernels.profile import CostModel
from repro.kernels.signature import parse_signature
from repro.memory.array import is_zero_block, zero_block

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


def _captured(value: object) -> object:
    """A closure cell's share of a kernel identity (see
    :attr:`KernelDecl.identity`)."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    return id(value)


def _zero_block_decl(name, shape, dtype, init_shape, init_dtype):
    return ArrayDecl(name, shape, dtype, zero_block(init_shape, init_dtype))


@dataclass(frozen=True)
class ArrayDecl:
    """One array of a task graph, with optional host input data."""

    name: str
    shape: tuple[int, ...] | int
    dtype: Any = np.float32
    #: host data copied in before the first launch (None -> zeros, the
    #: fresh-UM default).  Read-only: executors read it in place, and
    #: it may be a :func:`~repro.memory.array.zero_block`, so copy it
    #: before writing.
    init: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        shape = (self.shape,) if isinstance(self.shape, int) else self.shape
        n = 1
        for s in shape:
            n *= s
        return n * np.dtype(self.dtype).itemsize

    def __reduce__(self):
        # numpy pickles a broadcast view at full size and loads it
        # writable; a zero block ships as its shape and dtype instead.
        init = self.init
        if init is not None and is_zero_block(init):
            return _zero_block_decl, (
                self.name, self.shape, self.dtype, init.shape, init.dtype,
            )
        return ArrayDecl, (self.name, self.shape, self.dtype, init)


@dataclass(frozen=True)
class KernelDecl:
    """One kernel of a task graph: implementation + signature + cost."""

    name: str
    signature: str
    fn: Callable[..., None]
    cost: CostModel

    @property
    def identity(self) -> tuple:
        """Hashable identity used by topology keys and kernel caches.

        A closure also computes with what it captured (HITS kernels
        close over their benchmark's matrices), so its captured values
        join the key: plain values by value, anything else by object
        identity."""
        fn_key: object = getattr(self.fn, "__qualname__", repr(self.fn))
        closure = getattr(self.fn, "__closure__", None)
        if closure:
            captured = tuple(_captured(c.cell_contents) for c in closure)
            fn_key = (fn_key, captured)
        return (self.name, self.signature, fn_key, repr(self.cost))


@dataclass(frozen=True)
class LaunchDecl:
    """One kernel launch in host-program order.

    String entries of ``args`` name graph arrays; everything else passes
    through as a scalar (the :class:`~repro.workloads.base.Invocation`
    convention).
    """

    kernel: str
    grid: int | tuple[int, ...]
    block: int | tuple[int, ...]
    args: tuple[Any, ...]


@dataclass
class TaskGraph:
    """A complete, self-contained task-graph description."""

    name: str
    arrays: dict[str, ArrayDecl]
    kernels: tuple[KernelDecl, ...]
    launches: tuple[LaunchDecl, ...]
    #: arrays read back to the host when the graph completes; defaults
    #: (in __post_init__) to every array some launch writes
    outputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.launches:
            raise ValueError(f"task graph {self.name!r} has no launches")
        known = set(self.arrays)
        kernel_names = {k.name for k in self.kernels}
        for launch in self.launches:
            if launch.kernel not in kernel_names:
                raise ValueError(
                    f"launch references unknown kernel {launch.kernel!r}"
                )
            for arg in launch.args:
                if isinstance(arg, str) and arg not in known:
                    raise ValueError(
                        f"launch of {launch.kernel!r} references unknown"
                        f" array {arg!r}"
                    )
        if not self.outputs:
            self.outputs = tuple(sorted(self.written_arrays()))

    # -- derived structure ------------------------------------------------

    def kernel_by_name(self, name: str) -> KernelDecl:
        for k in self.kernels:
            if k.name == name:
                return k
        raise KeyError(name)

    def signature_accesses(self) -> dict[str, list]:
        """kernel name -> pointer-parameter access kinds, in order."""
        return {
            k.name: [
                p.access for p in parse_signature(k.signature) if p.is_pointer
            ]
            for k in self.kernels
        }

    def written_arrays(self) -> frozenset[str]:
        """Arrays written by at least one launch (per the signatures).

        Memoized like :meth:`topology_key`: replay and readback consult
        it per request."""
        cached = self.__dict__.get("_written_arrays")
        if cached is not None:
            return cached
        accesses = self.signature_accesses()
        written: set[str] = set()
        for launch in self.launches:
            names = [a for a in launch.args if isinstance(a, str)]
            for name, access in zip(names, accesses[launch.kernel]):
                if access.writes:
                    written.add(name)
        frozen = self.__dict__["_written_arrays"] = frozenset(written)
        return frozen

    @property
    def total_bytes(self) -> int:
        """UM footprint of the graph (the Table-I quantity)."""
        return sum(a.nbytes for a in self.arrays.values())

    @property
    def input_bytes(self) -> int:
        """Host input data staged in before the first launch — the
        bytes a cross-node placement must move over the cluster
        network before the graph can start."""
        return sum(
            a.nbytes for a in self.arrays.values() if a.init is not None
        )

    @property
    def output_bytes(self) -> int:
        """Bytes read back to the submitting host when the graph
        completes (the cluster-network return leg)."""
        return sum(self.arrays[name].nbytes for name in self.outputs)

    def topology_key(self) -> tuple:
        """Hashable structural identity of the graph.

        Two graphs with equal keys launch the *same kernels with the same
        signatures, geometries and argument wiring on same-shaped
        arrays* — they differ at most in array contents.  Such graphs
        share one capture plan and may be coalesced into one batch.

        Memoized: the serving loop evaluates keys per queued request per
        batch, and graphs are immutable once submitted.
        """
        cached = self.__dict__.get("_topology_key")
        if cached is not None:
            return cached
        key = (
            tuple(
                (n, a.shape if isinstance(a.shape, tuple) else (a.shape,),
                 str(np.dtype(a.dtype)))
                for n, a in sorted(self.arrays.items())
            ),
            tuple(k.identity for k in self.kernels),
            tuple(
                (d.kernel, d.grid, d.block, d.args) for d in self.launches
            ),
            self.outputs,
        )
        self.__dict__["_topology_key"] = key
        return key


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
        args = tuple(
            arrays[a] if isinstance(a, str) else a for a in launch.args
        )
        kernels[launch.kernel](launch.grid, launch.block)(*args)
    outputs = {name: arrays[name].to_numpy() for name in graph.outputs}
    rt.sync()
    rt.free_arrays()
    return outputs
