"""Benchmark framework: declare a workload once, run it five ways.

A :class:`Benchmark` declares its arrays, kernels (numpy implementation +
roofline cost model + NIDL signature) and the per-iteration kernel
invocations.  The framework derives every execution mode from that single
declaration:

* the GrCUDA modes replay the invocations through the runtime's host API,
  exactly like the Python host code of the paper's Fig. 4;
* the baseline modes derive the *optimal static schedule* (the Fig. 6
  stream coloring) with the same greedy rules and execute it through the
  CUDA Graphs API, stream capture, or hand-tuned events.

This mirrors the paper's methodology: the baselines embody what a skilled
programmer writes by hand; GrCUDA must match them automatically.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.dag import ComputationDAG
from repro.core.element import ComputationalElement
from repro.core.policies import (
    DevicePlacementPolicy,
    ExecutionPolicy,
    PrefetchPolicy,
    SchedulerConfig,
)
from repro.session import Session
from repro.gpusim.device import Device
from repro.gpusim.engine import SimEngine
from repro.gpusim.specs import GPUSpec, gpu_by_name
from repro.gpusim.timeline import Timeline
from repro.graphs.capture import StreamCapture
from repro.graphs.graph import CudaGraph
from repro.graphs.handtuned import HandTunedScheduler
from repro.graphs.planner import plan_streams
from repro.kernels.kernel import Kernel
from repro.kernels.profile import CostModel
from repro.kernels.registry import build_kernel
from repro.kernels.signature import parse_signature
from repro.memory.array import AccessKind, DeviceArray
from repro.memory.coherence import CoherenceEngine, MovementPolicy


class Mode(enum.Enum):
    """The five execution modes of the evaluation."""

    SERIAL = "grcuda-serial"
    PARALLEL = "grcuda-parallel"
    GRAPH_MANUAL = "cudagraph-manual"
    GRAPH_CAPTURE = "cudagraph-capture"
    HANDTUNED = "handtuned-events"

    @property
    def is_grcuda(self) -> bool:
        return self in (Mode.SERIAL, Mode.PARALLEL)


@dataclass(frozen=True)
class ArraySpec:
    """Declaration of one benchmark array."""

    shape: tuple[int, ...] | int
    dtype: Any = np.float32

    @property
    def nbytes(self) -> int:
        shape = (
            (self.shape,) if isinstance(self.shape, int) else self.shape
        )
        n = 1
        for s in shape:
            n *= s
        return n * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class KernelSpec:
    """Declaration of one kernel: implementation + signature + cost."""

    name: str
    signature: str
    fn: Any  # Callable[..., None]
    cost: CostModel


@dataclass(frozen=True)
class Invocation:
    """One kernel launch inside an iteration.

    ``args`` entries that are strings name benchmark arrays; everything
    else is passed through as a scalar.
    """

    kernel: str
    grid: int | tuple[int, ...]
    block: int | tuple[int, ...]
    args: tuple[Any, ...]


@dataclass
class RunResult:
    """Outcome of one benchmark execution."""

    benchmark: str
    mode: Mode
    gpu: str
    elapsed: float            # device makespan (paper's execution time)
    host_clock: float         # total virtual time including host waits
    results: list[float]      # per-iteration scalar results
    timeline: Timeline
    stream_count: int
    iterations: int
    #: merged observability-registry snapshot (engine + coherence
    #: counters) of the run — movement-bench reads its tallies here
    counters: dict[str, int | float] = field(default_factory=dict)

    @property
    def per_iteration(self) -> float:
        return self.elapsed / max(1, self.iterations)


@dataclass(frozen=True)
class PlanStep:
    """Static-schedule entry for one invocation (baseline modes)."""

    index: int
    stream: int
    waits: tuple[int, ...]       # invocation indices to wait on
    record_event: bool


class Benchmark(abc.ABC):
    """One workload of the suite.  Subclasses declare, the base runs."""

    #: short identifier, e.g. ``"vec"``
    name: str = ""
    #: human description, shown by the harness
    description: str = ""

    def __init__(
        self,
        scale: int,
        block_size: int = 256,
        block_size_2d: int = 8,
        num_blocks: int = 512,
        iterations: int = 6,
        seed: int = 42,
        execute: bool = True,
    ) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.block_size = block_size
        self.block_size_2d = block_size_2d
        self.num_blocks = num_blocks
        self.iterations = iterations
        self.seed = seed
        self.execute = execute
        self._inputs: list[dict[str, np.ndarray]] = []

    # -- declaration (subclass responsibility) ------------------------------

    @abc.abstractmethod
    def array_specs(self) -> dict[str, ArraySpec]:
        """Arrays the workload allocates, by name."""

    @abc.abstractmethod
    def kernel_specs(self) -> list[KernelSpec]:
        """Kernels the workload builds."""

    @abc.abstractmethod
    def invocations(self) -> list[Invocation]:
        """Kernel launches of ONE iteration, in host-program order."""

    @abc.abstractmethod
    def refresh(self, arrays: dict[str, DeviceArray], iteration: int) -> None:
        """Host-side input (re-)initialization before an iteration.

        Must record the generated inputs via :meth:`record_inputs` so
        that :meth:`reference` can validate results.
        """

    @abc.abstractmethod
    def read_result(self, arrays: dict[str, DeviceArray]) -> float:
        """Host-side result consumption after an iteration (this is the
        access that forces synchronization)."""

    @abc.abstractmethod
    def reference(self, iteration: int) -> float:
        """Independent numpy recomputation of iteration's result."""

    # -- shared helpers -----------------------------------------------------

    def rng(self, iteration: int) -> np.random.Generator:
        """Deterministic per-iteration RNG."""
        return np.random.default_rng((self.seed, iteration))

    def record_inputs(self, iteration: int, **named: np.ndarray) -> None:
        """Store the iteration's inputs for :meth:`reference`."""
        while len(self._inputs) <= iteration:
            self._inputs.append({})
        self._inputs[iteration].update(
            {k: np.array(v, copy=True) for k, v in named.items()}
        )

    def load_input(
        self,
        iteration: int,
        array: DeviceArray,
        make,
        record: str | None = None,
    ) -> np.ndarray | None:
        """Write one host input into ``array``.

        When functional execution is on, ``make()`` generates the data,
        it is copied in (paying the UM costs through the access hook) and
        optionally recorded for :meth:`reference`.  In timing-only mode
        the write is *announced* instead (identical timing) without
        generating gigabytes of values.
        """
        if self.execute:
            data = make()
            array.copy_from_host(data)
            if record:
                self.record_inputs(iteration, **{record: data})
            return data
        array.touch_write_full()
        return None

    def inputs(self, iteration: int) -> dict[str, np.ndarray]:
        return self._inputs[iteration]

    def memory_footprint_bytes(self) -> int:
        """Total UM allocation, the quantity of Table I."""
        return sum(s.nbytes for s in self.array_specs().values())

    def kernel_count_per_iteration(self) -> int:
        return len(self.invocations())

    def distinct_kernel_count(self) -> int:
        return len(self.kernel_specs())

    # -- mode dispatch ---------------------------------------------------------

    def run(
        self,
        gpu: str | GPUSpec,
        mode: Mode = Mode.PARALLEL,
        prefetch: PrefetchPolicy = PrefetchPolicy.AUTO,
        movement: MovementPolicy | None = None,
        gpus: int = 1,
        placement: DevicePlacementPolicy | None = None,
        movement_window: int = 0,
    ) -> RunResult:
        """Execute the benchmark once under ``mode`` on ``gpu``.

        ``movement`` selects the coherence engine's data-movement policy
        explicitly (the movement-bench axis); None keeps the legacy
        derivation from ``prefetch``; ``movement_window`` sizes the
        cross-acquire BATCHED coalescing window (0 = per-acquire).
        ``gpus``/``placement`` run the
        GrCUDA modes on a multi-GPU session — the declaration is device
        -count agnostic, so nothing else changes (the baseline modes are
        single-GPU by construction: their static plans encode one
        device's streams).
        """
        if gpus > 1 and mode not in (Mode.SERIAL, Mode.PARALLEL):
            raise ValueError(
                f"{mode.value} is a single-GPU baseline; multi-GPU"
                " execution flows through the GrCUDA modes"
            )
        if mode is Mode.SERIAL:
            # gpus/placement pass through: a serial multi-GPU request is
            # rejected by Session's config validation, not ignored here.
            return self._run_grcuda(
                gpu, ExecutionPolicy.SERIAL, prefetch, movement,
                gpus=gpus, placement=placement,
                movement_window=movement_window,
            )
        if mode is Mode.PARALLEL:
            return self._run_grcuda(
                gpu, ExecutionPolicy.PARALLEL, prefetch, movement,
                gpus=gpus, placement=placement,
                movement_window=movement_window,
            )
        if mode in (Mode.GRAPH_MANUAL, Mode.GRAPH_CAPTURE):
            return self._run_graph(gpu, mode)
        return self._run_handtuned(gpu)

    # -- GrCUDA modes -------------------------------------------------------------

    def _build_session(
        self,
        gpu: str | GPUSpec,
        execution: ExecutionPolicy,
        prefetch: PrefetchPolicy,
        movement: MovementPolicy | None = None,
        gpus: int = 1,
        placement: DevicePlacementPolicy | None = None,
        movement_window: int = 0,
    ) -> Session:
        return Session(
            gpus=gpus,
            gpu=gpu,
            config=SchedulerConfig(
                execution=execution,
                prefetch=prefetch,
                movement=movement,
                placement=placement,
                movement_window=movement_window,
            ),
        )

    def _run_grcuda(
        self,
        gpu: str | GPUSpec,
        execution: ExecutionPolicy,
        prefetch: PrefetchPolicy,
        movement: MovementPolicy | None = None,
        gpus: int = 1,
        placement: DevicePlacementPolicy | None = None,
        movement_window: int = 0,
    ) -> RunResult:
        rt = self._build_session(
            gpu, execution, prefetch, movement,
            gpus=gpus, placement=placement,
            movement_window=movement_window,
        )
        arrays = {
            name: rt.array(
                spec.shape,
                dtype=spec.dtype,
                name=name,
                materialize=self.execute,
            )
            for name, spec in self.array_specs().items()
        }
        kernels = {
            spec.name: rt.build_kernel(
                spec.fn if self.execute else _noop,
                spec.name,
                spec.signature,
                cost_model=spec.cost,
            )
            for spec in self.kernel_specs()
        }
        results: list[float] = []
        for it in range(self.iterations):
            self.refresh(arrays, it)
            for inv in self.invocations():
                args = self._resolve_args(inv.args, arrays)
                kernels[inv.kernel](inv.grid, inv.block)(*args)
            results.append(self.read_result(arrays))
        rt.sync()
        timeline = rt.timeline()
        return RunResult(
            benchmark=self.name,
            mode=(
                Mode.SERIAL
                if execution is ExecutionPolicy.SERIAL
                else Mode.PARALLEL
            ),
            gpu=rt.spec.name,
            elapsed=timeline.makespan,
            host_clock=rt.clock,
            results=results,
            timeline=timeline,
            stream_count=len(
                {r.stream_id for r in timeline.kernels()}
            ),
            iterations=self.iterations,
            counters=rt.counters(),
        )

    # -- static plan shared by the baseline modes ---------------------------------

    def static_plan(self) -> list[PlanStep]:
        """The optimal static schedule a skilled programmer would write.

        Dependencies come from the same dependency-set analysis the
        runtime scheduler performs (run offline on placeholder arrays);
        stream assignment uses the first-child-inherits rule.  This is
        the Fig. 6 coloring, derived rather than hard-coded, and shared
        by the graph-manual, graph-capture and hand-tuned runners.
        """
        sig_access = {
            spec.name: [
                p.access for p in parse_signature(spec.signature) if p.is_pointer
            ]
            for spec in self.kernel_specs()
        }
        placeholders = {
            name: DeviceArray(1, name=name) for name in self.array_specs()
        }
        dag = ComputationDAG()
        elements: list[ComputationalElement] = []
        parents_of: list[list[int]] = []
        index_of: dict[int, int] = {}
        for i, inv in enumerate(self.invocations()):
            array_names = [a for a in inv.args if isinstance(a, str)]
            accesses = [
                (placeholders[n], k)
                for n, k in zip(array_names, sig_access[inv.kernel])
            ]
            e = ComputationalElement(accesses, label=f"{inv.kernel}#{i}")
            parent_elems = dag.add(e)
            elements.append(e)
            index_of[e.element_id] = i
            parents_of.append(
                [index_of[p.element_id] for p in parent_elems]
            )

        return [
            PlanStep(
                index=s.index,
                stream=s.stream,
                waits=s.waits,
                record_event=s.record_event,
            )
            for s in plan_streams(parents_of)
        ]

    # -- baseline infrastructure ------------------------------------------------

    def _baseline_setup(
        self, gpu: str | GPUSpec
    ) -> tuple[SimEngine, dict[str, DeviceArray], dict[str, Kernel]]:
        spec = gpu_by_name(gpu) if isinstance(gpu, str) else gpu
        engine = SimEngine(Device(spec))
        arrays = {
            name: DeviceArray(
                aspec.shape,
                dtype=aspec.dtype,
                devices=engine.devices,
                name=name,
                materialize=self.execute,
            )
            for name, aspec in self.array_specs().items()
        }
        host = _BaselineHost(engine)
        self._baseline_host = host
        for arr in arrays.values():
            arr.set_access_hook(host.hook)
        kernels = {
            kspec.name: build_kernel(
                kspec.fn if self.execute else _noop,
                kspec.name,
                kspec.signature,
                cost_model=kspec.cost,
            )
            for kspec in self.kernel_specs()
        }
        return engine, arrays, kernels

    def _resolve_args(
        self, args: tuple[Any, ...], arrays: dict[str, DeviceArray]
    ) -> tuple[Any, ...]:
        return tuple(
            arrays[a] if isinstance(a, str) else a for a in args
        )

    def _finish_baseline(
        self,
        engine: SimEngine,
        mode: Mode,
        results: list[float],
        streams_used: int,
    ) -> RunResult:
        engine.sync_all()
        from repro.obs.counters import CounterRegistry

        merged = CounterRegistry()
        engine_counters = getattr(engine, "counters", None)
        if engine_counters is not None:
            merged.merge(engine_counters)
        host = getattr(self, "_baseline_host", None)
        if host is not None:
            merged.merge(host.coherence.counters)
        return RunResult(
            benchmark=self.name,
            mode=mode,
            gpu=engine.device.spec.name,
            elapsed=engine.timeline.makespan,
            host_clock=engine.clock,
            results=results,
            timeline=engine.timeline,
            stream_count=streams_used,
            iterations=self.iterations,
            counters=merged.snapshot(),
        )

    def _run_graph(self, gpu: str | GPUSpec, mode: Mode) -> RunResult:
        engine, arrays, kernels = self._baseline_setup(gpu)
        plan = self.static_plan()
        invocations = self.invocations()
        if mode is Mode.GRAPH_MANUAL:
            graph = CudaGraph(name=self.name)
            nodes = []
            for inv, step in zip(invocations, plan):
                # Manual deps: explicit edges — the cross-stream waits of
                # the plan, plus the same-stream chain expressed as an
                # edge to the immediate same-stream predecessor.
                same_stream_prior = [
                    p for p in range(step.index)
                    if plan[p].stream == step.stream
                ]
                deps = [nodes[p] for p in step.waits]
                if same_stream_prior:
                    deps.append(nodes[same_stream_prior[-1]])
                nodes.append(
                    graph.add_kernel_node(
                        kernels[inv.kernel],
                        inv.grid,
                        inv.block,
                        self._resolve_args(inv.args, arrays),
                        deps=deps,
                    )
                )
        else:
            cap = StreamCapture(name=self.name)
            cap_streams = [
                cap.stream()
                for _ in range(1 + max(s.stream for s in plan))
            ]
            events: dict[int, Any] = {}
            for inv, step in zip(invocations, plan):
                stream = cap_streams[step.stream]
                for w in step.waits:
                    cap.wait_event(stream, events[w])
                cap.launch(
                    stream,
                    kernels[inv.kernel],
                    inv.grid,
                    inv.block,
                    self._resolve_args(inv.args, arrays),
                )
                if step.record_event:
                    events[step.index] = cap.record_event(stream)
            graph = cap.end_capture()
        exe = graph.instantiate()
        results: list[float] = []
        for it in range(self.iterations):
            self.refresh(arrays, it)
            exe.launch(engine)
            results.append(self.read_result(arrays))
        return self._finish_baseline(
            engine, mode, results, exe.stream_count
        )

    def _run_handtuned(self, gpu: str | GPUSpec) -> RunResult:
        engine, arrays, kernels = self._baseline_setup(gpu)
        plan = self.static_plan()
        invocations = self.invocations()
        sig_access = {
            spec.name: [
                p.access
                for p in parse_signature(spec.signature)
                if p.is_pointer
            ]
            for spec in self.kernel_specs()
        }
        ht = HandTunedScheduler(engine)
        streams = [
            ht.stream() for _ in range(1 + max(s.stream for s in plan))
        ]
        results: list[float] = []
        for it in range(self.iterations):
            self.refresh(arrays, it)
            events: dict[int, Any] = {}
            for inv, step in zip(invocations, plan):
                stream = streams[step.stream]
                for w in step.waits:
                    ht.wait_event(stream, events[w])
                # The expert prefetches every stale read array explicitly.
                array_names = [a for a in inv.args if isinstance(a, str)]
                for name, access in zip(
                    array_names, sig_access[inv.kernel]
                ):
                    if access.reads:
                        ht.prefetch(arrays[name], stream)
                ht.launch(
                    stream,
                    kernels[inv.kernel],
                    inv.grid,
                    inv.block,
                    self._resolve_args(inv.args, arrays),
                )
                if step.record_event:
                    events[step.index] = ht.record_event(stream)
            results.append(self.read_result(arrays))
        return self._finish_baseline(
            engine, Mode.HANDTUNED, results, len(streams)
        )


class _BaselineHost:
    """CPU-access hook for baseline modes: what careful C++ host code
    does around unified memory — synchronize before touching arrays the
    GPU may be using, and declare the access to the coherence engine,
    which plans and charges the UM migration."""

    def __init__(self, engine: SimEngine) -> None:
        self.engine = engine
        self.coherence = CoherenceEngine(engine)

    def hook(self, array: DeviceArray, kind: AccessKind, touched: int) -> None:
        if not self.engine.idle:
            self.engine.sync_all()
        self.coherence.cpu_access(
            array, kind, touched, stream=self.engine.default_stream
        )


def _noop(*args: Any) -> None:
    """Stand-in compute function when functional execution is disabled
    (timing-only sweeps)."""
