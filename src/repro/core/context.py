"""Execution contexts: serial-synchronous baseline and the paper's
parallel-asynchronous scheduler.

The GPU execution context (section IV-B) is the component every kernel
invocation and CPU array access flows through:

1. the invocation is converted to a computational element;
2. the element is registered with the context, which updates the DAG
   with the element's data dependencies;
3. the stream manager assigns an execution stream;
4. cross-stream dependencies are synchronized with events — never by
   blocking the host;
5. the operations are scheduled for execution on the device.

The parallel context also decides *which GPU* runs each computation
(the paper's section-VI future work); with one GPU that decision is
fixed to device 0.  The serial context (original GrCUDA) skips all of
that: one stream, host-blocking sync after every computation, no
dependency computation.  Both route data movement through one
:class:`~repro.memory.coherence.CoherenceEngine` over location sets.
"""

from __future__ import annotations

import abc
import functools

from repro.core.dag import ComputationDAG
from repro.core.history import KernelExecutionRecord, KernelHistory
from repro.core.element import (
    ArrayAccessElement,
    ComputationalElement,
    KernelElement,
    LibraryCallElement,
)
from repro.core.policies import (
    DevicePlacementPolicy,
    ExecutionPolicy,
    SchedulerConfig,
)
from repro.core.streams import StreamManager
from repro.gpusim.engine import SimEngine
from repro.gpusim.ops import (
    KernelOp,
    KernelResourceRequest,
    TransferKind,
)
from repro.gpusim.stream import SimStream
from repro.kernels.kernel import KernelLaunch
from repro.kernels.profile import combine_resources
from repro.memory.array import AccessKind, DeviceArray
from repro.memory.coherence import (
    AcquirePlan,
    CoherenceEngine,
    MovementPolicy,
)

#: Host cost the parallel scheduler charges per kernel launch:
#: dependency computation, stream assignment and the launch itself.
SCHEDULING_OVERHEAD_US = 10.0
#: The serial scheduler's lighter per-launch cost: it "does not compute
#: dependencies, making overheads even smaller" (section V-C).
SERIAL_OVERHEAD_US = 4.0


def submit_kernel(
    coherence: CoherenceEngine,
    stream: SimStream,
    launch: KernelLaunch,
    device_index: int = 0,
    *,
    tags: dict | None = None,
    history=None,
    on_complete=None,
    policy: MovementPolicy | None = None,
    kind: TransferKind | None = None,
) -> tuple[KernelOp, AcquirePlan]:
    """The kernel submission path of every executor: declare the
    launch's accesses to ``coherence``, then submit the kernel on
    ``stream`` with the resulting fault charge and completion-applied
    location-set transitions.  At completion ``history`` receives the
    launch's :class:`KernelExecutionRecord` and its statistics key (as
    :meth:`KernelHistory.record` takes them), and ``on_complete`` is
    called with the completed op."""
    # Priced first: a launch its cost model rejects plans no movement.
    resources: KernelResourceRequest = launch.resources()
    plan = coherence.acquire(
        launch.array_args, stream, device_index,
        label=launch.label, policy=policy, kind=kind,
    )
    if plan.fault_bytes > 0:
        resources = combine_resources(resources, plan.fault_bytes)
    op = KernelOp(
        label=launch.label, resources=resources, compute_fn=launch.body
    )
    # The launch's own race-detector tokens: tuples the launch keeps
    # and the collector untracks, so the timeline keeping these
    # annotations for as long as it lives costs the collector nothing.
    info = op.info
    info["reads"], info["writes"], info["array_names"] = launch.tokens(
        device_index
    )
    info["device"] = device_index
    if tags:
        info.update(tags)
    if history is not None:
        op.on_complete.append(
            functools.partial(_record_execution, launch, history)
        )
    if on_complete is not None:
        op.on_complete.append(on_complete)
    coherence.release(plan, op)
    coherence.engine.submit(stream, op)
    return op, plan


def wait_cross_stream_parents(
    engine: SimEngine,
    stream: SimStream,
    parents: list[ComputationalElement],
) -> None:
    """Cross-stream dependencies -> event waits; same-stream ones are
    already ordered by CUDA's FIFO guarantee."""
    for parent in parents:
        if (
            parent.finish_event is not None
            and parent.stream is not stream
            and not parent.finish_event.complete
        ):
            engine.wait_event(stream, parent.finish_event)


def library_call_resources(spec, cost_seconds: float) -> KernelResourceRequest:
    """Model a stream-aware library call of the declared cost as a
    full-device computation on ``spec``."""
    return KernelResourceRequest(
        flops=cost_seconds * spec.flops_rate(False),
        fp64=False,
        dram_bytes=0.0,
        l2_bytes=0.0,
        instructions=0.0,
        threads_total=spec.max_resident_threads,
    )


def _record_execution(
    launch: KernelLaunch, sink, completed_op: KernelOp
) -> None:
    """``on_complete`` of a kernel op with a history sink: hand ``sink``
    the launch's :class:`KernelExecutionRecord` and statistics key."""
    end = completed_op.end_time
    sink(
        tuple.__new__(
            KernelExecutionRecord,
            (
                launch.label,
                launch.threads_per_block,
                launch.blocks,
                launch.data_bytes,
                end - completed_op.start_time,
                completed_op.stream.stream_id,
                end,
            ),
        ),
        launch.history_key,
    )


class ExecutionContext(abc.ABC):
    """Common machinery for both scheduling policies."""

    #: whether this context runs the original serial scheduler (movement
    #: resolution differs: the serial scheduler predates the prefetcher)
    serial = False

    def __init__(self, engine: SimEngine, config: SchedulerConfig) -> None:
        self.engine = engine
        self.devices = engine.devices
        self.config = config
        self.movement = config.resolve_movement(
            engine.device.spec, serial=self.serial
        )
        self.dag = ComputationDAG()
        #: per-kernel execution history (section IV-A), feeding the
        #: block-size heuristic of section VI
        self.history = KernelHistory()
        #: extra key/values merged into every submitted op's ``info``.
        #: Multi-tenant hosts (``repro.serve``) set e.g. a tenant name
        #: here so shared-engine timeline records stay attributable.
        self.op_tags: dict = {}
        #: all data movement flows through here (shares ``op_tags`` by
        #: reference so tenant tags reach transfer ops too)
        self.coherence = CoherenceEngine(
            engine,
            policy=self.movement,
            op_tags=self.op_tags,
            window=config.movement_window,
        )
        self.kernel_count = 0
        self.cpu_access_fast_path_count = 0
        self.cpu_access_element_count = 0

    # -- public API used by the session --------------------------------------

    def attach(self, array: DeviceArray) -> None:
        """Route the array's CPU accesses through this context."""
        array.set_access_hook(self._on_cpu_access)

    @abc.abstractmethod
    def launch(self, launch: KernelLaunch, on_complete=None) -> None:
        """Schedule one kernel launch (GrCUDA launch handler);
        ``on_complete`` is called with its op when the kernel
        completes."""

    @abc.abstractmethod
    def _on_cpu_access(
        self, array: DeviceArray, kind: AccessKind, touched: int
    ) -> None:
        """Hook called before every CPU access to a managed array."""

    def library_call(self, element: LibraryCallElement) -> None:
        """Run a pre-registered library function on the host (section
        IV-A): a stream-unaware library forces a device sync first."""
        self.sync()
        self.engine.charge_host_time(element.cost_seconds)
        element.fn()

    def sync(self) -> None:
        """Host-side device synchronization."""
        self.engine.sync_all()
        self.dag.deactivate_completed()

    def reclaimable_streams(self) -> tuple[SimStream, ...]:
        """Streams a retiring context hands back to the engine (a served
        request's context, see
        :meth:`repro.parallel.work.Submission.close`).  The serial
        context runs on the engine's default stream and owns only what
        its coherence engine created (window-coalescing streams)."""
        return self.coherence.take_owned_streams()

    def device_kernel_counts(self) -> list[int]:
        """Kernels executed per GPU (load-balance introspection)."""
        counts = [0] * len(self.devices)
        for rec in self.engine.timeline.kernels():
            counts[rec.meta.get("device", 0)] += 1
        return counts


class SerialExecutionContext(ExecutionContext):
    """The original GrCUDA scheduler: serial and synchronous.

    Every computation runs alone on the default stream; the host blocks
    until it finishes.  No dependencies are computed ("when using serial
    scheduling, GrCUDA does not compute dependencies, making overheads
    even smaller").  The DAG still records vertices for introspection,
    but no edges are inferred.

    The original scheduler predates the automatic prefetcher, so unified
    memory reaches the GPU through page faults on Pascal+ (plain UM
    behaviour) and through eager copies on Maxwell, which has no fault
    mechanism.  ``SchedulerConfig(movement=...)`` selects any movement
    policy explicitly.  The serial scheduler is single-GPU: it runs on
    device 0.
    """

    serial = True

    def launch(self, launch: KernelLaunch, on_complete=None) -> None:
        self.kernel_count += 1
        self.engine.charge_host_time(SERIAL_OVERHEAD_US * 1e-6)
        stream = self.engine.default_stream
        # The original scheduler's eager copies predate the prefetch API;
        # they surface as plain EAGER transfers whatever the device.
        submit_kernel(
            self.coherence, stream, launch,
            tags=self.op_tags, history=self.history.record,
            on_complete=on_complete, kind=TransferKind.EAGER,
        )
        self.engine.sync_stream(stream)

    def _on_cpu_access(
        self, array: DeviceArray, kind: AccessKind, touched: int
    ) -> None:
        # The device is always idle here (every launch synchronized), so
        # only the data migration cost remains.
        self.coherence.cpu_access(
            array, kind, touched, stream=self.engine.default_stream
        )


def _device_stream(
    engine: SimEngine, device_index: int, created: int
) -> SimStream:
    """Stream number ``created + 1`` of device ``device_index``'s
    stream manager."""
    return engine.create_stream(
        label=f"gpu{device_index}-{created + 1}", device_index=device_index
    )


class _PerDevice:
    """Per-GPU scheduling state of the parallel context."""

    def __init__(
        self, index: int, engine: SimEngine, config: SchedulerConfig
    ) -> None:
        self.index = index
        self.streams = StreamManager(
            engine,
            new_stream=config.new_stream,
            parent_stream=config.parent_stream,
            stream_factory=functools.partial(_device_stream, engine, index),
        )
        #: estimated work submitted and not yet completed (placement)
        self.outstanding_work: float = 0.0

    def retire(self, duration: float) -> None:
        self.outstanding_work = max(0.0, self.outstanding_work - duration)


class ParallelExecutionContext(ExecutionContext):
    """The paper's scheduler: parallel and asynchronous.

    Kernels are converted to DAG elements, dependencies are inferred from
    dependency sets, streams come from per-device stream managers, and
    the host never blocks except on CPU accesses that truly need GPU
    results.  Each computation is also placed on a GPU
    (:class:`~repro.core.policies.DevicePlacementPolicy`):

    * ``ROUND_ROBIN`` — naive; ignores data location;
    * ``MIN_TRANSFER`` — the paper's stated requirement: "compute data
      location and migration costs at run time".  Each candidate device
      is priced as (bytes it would have to migrate, on the coherence
      engine's planned view) plus a load-balance tiebreak on outstanding
      work;
    * ``LEAST_LOADED`` — ignores data location and picks the device with
      the least outstanding (estimated) work; the classic serving-fleet
      dispatch rule that :mod:`repro.serve` builds on.

    With one GPU, placement is fixed to device 0 and neither placement
    pricing nor the per-launch work estimate runs.
    """

    def __init__(self, engine: SimEngine, config: SchedulerConfig) -> None:
        super().__init__(engine, config)
        self.placement = config.placement
        self._per_device = [
            _PerDevice(i, engine, config) for i in range(len(self.devices))
        ]
        #: whether there is a placement decision to make at all
        self._placing = len(self.devices) > 1
        self._rr_next = 0
        #: element id -> device index (placement decisions, for tests)
        self.placements: dict[int, int] = {}

    def reclaimable_streams(self) -> tuple[SimStream, ...]:
        return (
            tuple(
                s
                for per_dev in self._per_device
                for s in per_dev.streams.streams
            )
            + self.coherence.take_owned_streams()
        )

    # -- placement ------------------------------------------------------------

    def _least_loaded(self) -> int:
        return min(
            range(len(self.devices)),
            key=lambda i: (self._per_device[i].outstanding_work, i),
        )

    def _choose_device(self, launch: KernelLaunch) -> int:
        if not self._placing:
            return 0
        if self.placement is DevicePlacementPolicy.ROUND_ROBIN:
            choice = self._rr_next
            self._rr_next = (self._rr_next + 1) % len(self.devices)
            return choice
        if self.placement is DevicePlacementPolicy.LEAST_LOADED:
            return self._least_loaded()

        def cost(i: int) -> tuple[float, float]:
            """(planned migration bytes, outstanding work)."""
            migration = 0.0
            for array, access in launch.array_args:
                if access.reads:
                    migration += self.coherence.migration_bytes(array, i)
            return migration, self._per_device[i].outstanding_work

        return min(range(len(self.devices)), key=cost)

    def _place(
        self, element: ComputationalElement, device_index: int
    ) -> tuple[_PerDevice, SimStream]:
        """Record the placement, assign a stream on the chosen device
        and order it behind cross-stream parents."""
        self.placements[element.element_id] = device_index
        per_dev = self._per_device[device_index]
        parents = self.dag.add(element)
        stream = per_dev.streams.assign(element, parents)
        wait_cross_stream_parents(self.engine, stream, parents)
        return per_dev, stream

    def _finish(
        self,
        element: ComputationalElement,
        stream: SimStream,
        plan: AcquirePlan,
        device_index: int,
    ) -> None:
        element.finish_event = self.engine.record_event(
            stream, label=f"done:{element.label}@gpu{device_index}"
        )
        self.coherence.register_fault_ordering(plan, element.finish_event)
        self.dag.watch_completion(element)

    # -- kernel scheduling ------------------------------------------------------

    def launch(self, launch: KernelLaunch, on_complete=None) -> None:
        self.kernel_count += 1
        self.engine.charge_host_time(SCHEDULING_OVERHEAD_US * 1e-6)
        element = KernelElement(launch)
        device_index = self._choose_device(launch)
        per_dev, stream = self._place(element, device_index)
        # The coherence engine waits on in-flight shared-input
        # migrations, plans the movement the policy calls for (prefetch,
        # batched copies, or fault charges inside the kernel — the
        # ablation of section V-C), and binds the location-set
        # transitions to the kernel's completion.
        op, plan = submit_kernel(
            self.coherence, stream, launch, device_index,
            tags=self.op_tags, history=self.history.record,
            on_complete=on_complete, policy=self.movement,
        )
        if self._placing:
            contention = self.devices[device_index].contention
            estimate = contention.kernel_duration(op)
            per_dev.outstanding_work += estimate
            op.on_complete.append(
                lambda _op, pd=per_dev, d=estimate: pd.retire(d)
            )
        self._finish(element, stream, plan, device_index)

    # -- CPU array accesses -------------------------------------------------------

    def _on_cpu_access(
        self, array: DeviceArray, kind: AccessKind, touched: int
    ) -> None:
        """The CPU-access rule of section IV-A over location sets:
        synchronize the precise conflicting computations, write back
        from a valid replica when the host copy is stale, and let a
        full-array overwrite kill every device replica without moving a
        byte."""
        conflicts = (
            self.dag.active_users(array)
            if kind.writes
            else self.dag.active_writers(array)
        )
        needs_writeback = not (
            kind is AccessKind.WRITE and touched >= array.nbytes
        ) and not self.coherence.host_valid(array)
        if not conflicts and not needs_writeback:
            # Fast path (section IV-A): consecutive accesses, or accesses
            # while no GPU computation is active, bypass the DAG.  A
            # write still leaves the host as the only valid copy through
            # the shared transition path.
            self.cpu_access_fast_path_count += 1
            if kind.writes:
                self.coherence.cpu_access(array, kind, touched)
            return

        self.cpu_access_element_count += 1
        element = ArrayAccessElement(array, kind, touched)
        self.dag.add(element)
        # Synchronize only the computations operating on this data,
        # through their precise per-computation events.
        for parent in conflicts:
            if parent.finish_event is not None:
                self.engine.sync_event(parent.finish_event)
        self.coherence.cpu_access(
            array, kind, touched, stream=self.engine.default_stream
        )
        # The access happens synchronously right after this hook returns:
        # it cannot affect later GPU work through anything but coherence,
        # so it leaves the frontier immediately.
        self.dag.deactivate(element)
        self.dag.deactivate_completed()

    # -- library functions -----------------------------------------------------

    def library_call(self, element: LibraryCallElement) -> None:
        """Schedule a pre-registered library function (section IV-A).

        Stream-aware libraries are placed on the least-loaded GPU (the
        call declares a flat cost, so there is no migration pricing to
        beat) and scheduled asynchronously like kernels, modelled as a
        full-device computation of the declared cost; stream-unaware
        ones force a device sync and run on the host.
        """
        if not element.stream_aware:
            super().library_call(element)
            return
        device_index = self._least_loaded()
        _, stream = self._place(element, device_index)
        plan = self.coherence.acquire(
            list(element.accesses), stream, device_index,
            label=element.label, policy=self.movement,
        )
        resources = library_call_resources(
            self.devices[device_index].spec, element.cost_seconds
        )
        if plan.fault_bytes > 0:
            resources = combine_resources(resources, plan.fault_bytes)
        op = KernelOp(
            label=element.label,
            resources=resources,
            compute_fn=element.fn,
        )
        op.info["device"] = device_index
        op.info.update(self.op_tags)
        self.coherence.release(plan, op)
        self.engine.submit(stream, op)
        self._finish(element, stream, plan, device_index)


def new_context(
    engine: SimEngine, config: SchedulerConfig
) -> ExecutionContext:
    """The execution context ``config.execution`` selects, on
    ``engine``: a session's one context, or a served request's own."""
    if config.execution is ExecutionPolicy.SERIAL:
        return SerialExecutionContext(engine, config)
    return ParallelExecutionContext(engine, config)
