"""``repro.Session`` — one runtime entry point for every device count.

The paper's core promise is that the host program never changes: the
runtime transparently decides scheduling, placement and data movement.
:class:`Session` is that promise at the API layer::

    from repro import Session, SchedulerConfig, MovementPolicy

    sess = Session(gpus=2, config=SchedulerConfig(
        movement=MovementPolicy.PAGE_FAULT,
    ))
    x = sess.array(1_000_000)
    square = sess.build_kernel(lambda a, n: np.square(a, out=a),
                               "square", "ptr, sint32")
    square(256, 256)(x, 1_000_000)
    value = x[0]          # host access; the scheduler syncs just enough

The same six calls — :meth:`~Session.array`,
:meth:`~Session.build_kernel`, :meth:`~Session.library_call`,
:meth:`~Session.sync`, :meth:`~Session.timeline`,
:meth:`~Session.metrics` — drive a single GPU and a multi-GPU machine
alike.  One array class, one coherence engine and one parallel context
serve every device count: arrays track a location set over the
session's devices, and the parallel context of section IV-B places each
computation on a GPU (section VI) — on device 0 when there is one.
Device count and every policy — execution, streams, movement,
placement — live in one :class:`~repro.core.policies.SchedulerConfig`;
nothing is selected by class.

A session is one host program's runtime: it builds one execution
context (:func:`~repro.core.context.new_context`) and keeps it for its
whole life.  The serving layer (:mod:`repro.serve`) holds no sessions:
each fleet slot is an engine over its devices, on which every served
request builds its own context.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.context import ExecutionContext, new_context
from repro.core.element import LibraryCallElement
from repro.core.policies import SchedulerConfig
from repro.errors import ConfigError
from repro.gpusim.device import Device
from repro.gpusim.engine import SimEngine
from repro.gpusim.specs import GPUSpec, gpu_by_name
from repro.gpusim.timeline import Timeline
from repro.kernels.kernel import Kernel
from repro.kernels.profile import CostModel
from repro.kernels.registry import KernelRegistry, build_kernel
from repro.memory.array import AccessKind, DeviceArray
from repro.obs.counters import CounterRegistry
from repro.obs.trace import Tracer


@dataclass(frozen=True)
class SessionMetrics:
    """One session's execution counters, from :meth:`Session.metrics`."""

    gpus: int
    #: device execution time: first scheduling to last completion (the
    #: paper's execution-time definition)
    makespan: float
    #: total virtual time including host-side waits and overheads
    host_clock: float
    kernels_launched: int
    #: kernels executed per GPU (placement/load-balance introspection)
    device_kernel_counts: tuple[int, ...]
    #: engine-issued migration/writeback operations
    transfer_ops: int
    #: bytes moved by engine-issued HtoD/DtoD migrations
    migrated_bytes: float
    #: bytes left to the page-fault engine (charged inside kernels)
    fault_bytes: float
    #: bytes written back to the host on CPU accesses
    writeback_bytes: float
    #: transfers saved by BATCHED coalescing
    coalesced_transfers: int
    #: flat namespaced counter snapshot (``engine.*`` + ``coherence.*``)
    #: from the observability registry — the superset the scalar fields
    #: above are drawn from
    counters: dict = dataclass_field(default_factory=dict)


class Session:
    """One runtime instance: N simulated devices + engine + scheduler.

    ``gpus`` is the device count; ``gpu`` names the model (one name for
    a homogeneous session, or a sequence of ``gpus`` names/specs for a
    heterogeneous one).  All policy lives in ``config``.  A hand-built
    session needs no :meth:`close`; closing only lets reference counting
    free it, instead of the cyclic garbage collector.
    """

    def __init__(
        self,
        gpus: int = 1,
        gpu: str | GPUSpec | Sequence[str | GPUSpec] = "GTX 1660 Super",
        config: SchedulerConfig | None = None,
        registry: KernelRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if not isinstance(gpu, (str, GPUSpec)):
            gpu_list = list(gpu)
            if not gpu_list:
                raise ConfigError("gpu list must not be empty")
            if gpus == 1 and len(gpu_list) > 1:
                gpus = len(gpu_list)  # infer the count from the list
        else:
            gpu_list = None
        self.config = config or SchedulerConfig()
        self.config.validate(gpus=gpus)
        if gpu_list is None:
            gpu_list = [gpu] * gpus
        elif gpus != len(gpu_list):
            raise ConfigError(
                f"gpus={gpus} but {len(gpu_list)} GPU specs were given"
            )
        self.gpus = gpus
        self.specs = tuple(
            gpu_by_name(g) if isinstance(g, str) else g for g in gpu_list
        )
        self.spec = self.specs[0]
        self.devices = tuple(Device(s) for s in self.specs)
        self.device = self.devices[0]
        # Without an explicit tracer the engine resolves the ambient
        # default itself.
        self.engine = SimEngine(list(self.devices), tracer=tracer)
        self.registry = registry
        #: the host program's one execution context (section IV-B)
        self.context: ExecutionContext = new_context(
            self.engine, self.config
        )
        self._arrays: list[DeviceArray] = []
        #: every kernel built here, for :meth:`close` to detach
        self._kernels: list[Kernel] = []

    # -- arrays ---------------------------------------------------------------

    def array(
        self,
        shape: tuple[int, ...] | int,
        dtype: Any = np.float32,
        name: str = "",
        materialize: bool = True,
    ) -> DeviceArray:
        """Allocate a UM-backed array managed by this session: a
        :class:`~repro.memory.array.DeviceArray` allocated on every
        device, tracking which of them (and the host) hold a valid
        copy.  Calling code never branches on device count.

        ``materialize=False`` declares the geometry without backing host
        memory — for timing-only sweeps at scales that would not fit in
        host RAM.  All scheduling and transfer costs stay exact.
        """
        arr = DeviceArray(
            shape,
            dtype=dtype,
            devices=self.devices,
            name=name,
            materialize=materialize,
        )
        self.context.attach(arr)
        self._arrays.append(arr)
        return arr

    def free_arrays(self) -> None:
        """Release every array allocated through this session."""
        for arr in self._arrays:
            arr.free()
        self._arrays.clear()

    # -- kernels --------------------------------------------------------------

    def build_kernel(
        self,
        code: Callable[..., None] | str,
        name: str,
        signature: str,
        cost_model: CostModel | None = None,
    ) -> Kernel:
        """GrCUDA's ``buildkernel``: bind code + NIDL signature to this
        session's scheduler (single- or multi-GPU alike)."""
        kernel = build_kernel(
            code,
            name,
            signature,
            cost_model=cost_model,
            launch_handler=self.context.launch,
            registry=self.registry,
        )
        self._kernels.append(kernel)
        return kernel

    # -- library functions -----------------------------------------------------

    def library_call(
        self,
        fn: Callable[[], None],
        accesses: list[tuple[DeviceArray, AccessKind]],
        label: str = "library",
        stream_aware: bool = True,
        cost_seconds: float = 0.0,
    ) -> None:
        """Invoke a pre-registered library function (section IV-A)."""
        element = LibraryCallElement(
            fn=fn,
            accesses=accesses,
            label=label,
            stream_aware=stream_aware,
            cost_seconds=cost_seconds,
        )
        self.context.library_call(element)

    # -- execution control ---------------------------------------------------------

    def sync(self) -> None:
        """Wait for all in-flight GPU work (``cudaDeviceSynchronize``)."""
        self.context.sync()

    def close(self) -> None:
        """Finish with this session: wait for its in-flight work, then
        detach its arrays and kernels from it.

        A session's arrays (their access hooks) and kernels (their
        launch handler) refer to its context while the context's DAG
        refers to them, so a session in use is a reference cycle.  A
        hand-built session needs no ``close()``: an array keeps syncing
        through it for as long as the array lives, and once everything
        is dropped the cyclic garbage collector frees it.  Closing frees
        it on its last reference instead, with everything it built,
        which is what :meth:`~repro.workloads.base.Benchmark.run` does
        after every run.  Afterwards the arrays' host accesses apply
        their location-set transitions directly, and launching one of
        the kernels raises :class:`~repro.errors.LaunchError`.
        """
        self.sync()
        for arr in self._arrays:
            arr.set_access_hook(None)
        for kernel in self._kernels:
            kernel.launch_handler = None

    def timeline(self) -> Timeline:
        """The engine's operation timeline (kernels, transfers, events)."""
        return self.engine.timeline

    def metrics(self) -> SessionMetrics:
        """Execution counters so far (no synchronization is forced)."""
        coherence = self.context.coherence
        return SessionMetrics(
            gpus=self.gpus,
            makespan=self.engine.timeline.makespan,
            host_clock=self.engine.clock,
            kernels_launched=self.context.kernel_count,
            device_kernel_counts=tuple(
                self.context.device_kernel_counts()
            ),
            transfer_ops=coherence.transfer_ops,
            migrated_bytes=coherence.migrated_bytes_total,
            fault_bytes=coherence.fault_bytes_total,
            writeback_bytes=coherence.writeback_bytes_total,
            coalesced_transfers=coherence.coalesced_transfers,
            counters=self.counters(),
        )

    def counters(self) -> dict:
        """Flat namespaced counter snapshot across this session's layers
        (``engine.*`` from the simulator core, ``coherence.*`` from the
        context's coherence engine)."""
        merged = CounterRegistry()
        merged.merge(self.engine.counters)
        merged.merge(self.context.coherence.counters)
        return merged.snapshot()

    @property
    def tracer(self) -> Tracer:
        """The tracer this session's engine reports to."""
        return self.engine.tracer

    @property
    def clock(self) -> float:
        """Current virtual time in seconds."""
        return self.engine.clock

    @property
    def dag(self):
        return self.context.dag

    @property
    def history(self):
        """Per-kernel execution history (section IV-A); use
        ``history.recommend_block_size(...)`` for the section-VI
        block-size heuristic."""
        return self.context.history

    def elapsed(self) -> float:
        """Device execution time so far: first scheduling to last
        completion (the paper's execution-time definition)."""
        return self.engine.timeline.makespan

    def reset_measurement(self) -> None:
        """Clear the timeline (e.g. after a warm-up iteration)."""
        self.sync()
        self.engine.timeline.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = (
            f"{self.gpus}x {self.spec.name}"
            if self.gpus > 1
            else self.spec.name
        )
        return f"<Session {kind} {self.config.execution.value}>"
