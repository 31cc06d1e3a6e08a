"""Benchmark framework: declare a workload once, run it five ways.

A :class:`Benchmark` declares one iteration as a
:class:`~repro.graphs.taskgraph.TaskGraph` — its arrays, kernels (numpy
implementation + roofline cost model + NIDL signature) and launches —
plus :meth:`~Benchmark.inputs`, the host writes before each iteration.
The framework derives every execution mode from that single declaration:

* the GrCUDA modes replay the launches through the runtime's host API,
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
from typing import Any, Callable

import numpy as np

from repro.core.policies import (
    DevicePlacementPolicy,
    ExecutionPolicy,
    SchedulerConfig,
)
from repro.session import Session
from repro.gpusim.device import Device
from repro.gpusim.engine import SimEngine
from repro.gpusim.specs import GPUSpec, gpu_by_name
from repro.gpusim.timeline import Timeline
from repro.graphs.capture import capture_plan
from repro.graphs.graph import CudaGraph
from repro.graphs.handtuned import HandTunedScheduler
from repro.graphs.planner import launch_parents, plan_streams
from repro.graphs.taskgraph import ArrayDecl, KernelDecl, LaunchDecl, TaskGraph
from repro.kernels.kernel import Kernel, timing_only
from repro.kernels.registry import build_kernel
from repro.memory.array import AccessKind, DeviceArray
from repro.memory.coherence import CoherenceEngine, MovementPolicy
from repro.obs.counters import CounterRegistry

#: The host writes before one iteration, in write order: array name ->
#: a generator of the array's data.
Writes = dict[str, Callable[[], np.ndarray]]


def generate(writes: Writes) -> dict[str, np.ndarray]:
    """Every write's data, generated in write order."""
    return {name: make() for name, make in writes.items()}


#: Draws per chunk of :func:`fill_uniform` (256 KB of float64).
FILL_CHUNK = 1 << 15

#: Blocks of every 1D launch (the kernels grid-stride over the data).
NUM_BLOCKS = 512
#: Blocks per side of every 2D launch (IMG, DL).
NUM_BLOCKS_2D = 48
#: Threads per side of every 2D block (IMG, DL).
BLOCK_SIZE_2D = 8


def fill_uniform(
    rng: np.random.Generator, low: float, high: float, out: np.ndarray
) -> np.ndarray:
    """Write ``rng.uniform(low, high, out.shape)`` into ``out``, bit
    for bit, and return it.

    The draw is numpy's own transform, ``low + (high - low) * u``, done
    as ``rng.random(out=...)``, ``*=`` and ``+=`` over chunks of
    :data:`FILL_CHUNK` draws; the chunks consume exactly the stream one
    ``uniform`` call does.  A float64 ``out`` is drawn in place; any
    other dtype through one chunk-sized float64 buffer, cast on
    assignment as ``astype`` would, so no full-size float64 temporary
    is made.  ``out`` must be C-contiguous.
    """
    if not out.flags.c_contiguous:
        raise ValueError("fill_uniform needs a C-contiguous out")
    flat = out.reshape(-1)
    in_place = flat.dtype == np.float64
    buffer = None if in_place else np.empty(min(FILL_CHUNK, flat.size))
    for start in range(0, flat.size, FILL_CHUNK):
        part = flat[start:start + FILL_CHUNK]
        draws = part if in_place else buffer[:part.size]
        rng.random(out=draws)
        draws *= high - low
        draws += low
        if not in_place:
            part[...] = draws
    return out


class Mode(enum.Enum):
    """The five execution modes of the evaluation."""

    SERIAL = "grcuda-serial"
    PARALLEL = "grcuda-parallel"
    GRAPH_MANUAL = "cudagraph-manual"
    GRAPH_CAPTURE = "cudagraph-capture"
    HANDTUNED = "handtuned-events"


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
        iterations: int = 6,
        seed: int = 42,
        execute: bool = True,
    ) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.block_size = block_size
        self.iterations = iterations
        self.seed = seed
        self.execute = execute

    # -- declaration (subclass responsibility) ------------------------------

    @abc.abstractmethod
    def graph(self) -> TaskGraph:
        """One iteration: the arrays, kernels and launches in
        host-program order (no input data; see :meth:`inputs`)."""

    @abc.abstractmethod
    def inputs(self, iteration: int) -> Writes:
        """The host writes before ``iteration``, in write order.

        A pure function of the seed and the iteration.  A generator runs
        only when its data is wanted, and a caller that wants the data
        runs every generator of one call once, in order: they may share
        one RNG stream.  Build that stream on its first draw
        (``functools.cache``): a timing-only refresh draws nothing.
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

    def declare(
        self,
        arrays: list[ArrayDecl],
        kernels: list[KernelDecl],
        launches: list[LaunchDecl],
    ) -> TaskGraph:
        """The task graph :meth:`graph` returns, named after the
        benchmark and its scale."""
        return TaskGraph(
            name=f"{self.name}@{self.scale}",
            arrays={a.name: a for a in arrays},
            kernels=tuple(kernels),
            launches=tuple(launches),
        )

    def refresh(self, arrays: dict[str, DeviceArray], iteration: int) -> None:
        """Host-side input (re-)initialization before an iteration.

        With functional execution on, each write of :meth:`inputs` is
        generated and copied in (paying the UM costs through the access
        hook).  In timing-only mode the write is *announced* instead
        (identical timing) without generating gigabytes of values.
        """
        for name, make in self.inputs(iteration).items():
            if self.execute:
                arrays[name].copy_from_host(make())
            else:
                arrays[name].touch_write_full()

    def memory_footprint_bytes(self) -> int:
        """Total UM allocation, the quantity of Table I."""
        return self.graph().total_bytes

    # -- mode dispatch ---------------------------------------------------------

    def run(
        self,
        gpu: str | GPUSpec,
        mode: Mode = Mode.PARALLEL,
        movement: MovementPolicy | None = None,
        gpus: int = 1,
        placement: DevicePlacementPolicy = DevicePlacementPolicy.MIN_TRANSFER,
        movement_window: int = 0,
    ) -> RunResult:
        """Execute the benchmark once under ``mode`` on ``gpu``.

        ``movement`` selects the coherence engine's data-movement policy
        explicitly (the movement-bench axis); None keeps the scheduler's
        own default; ``movement_window`` sizes the
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
                gpu, ExecutionPolicy.SERIAL, movement,
                gpus=gpus, placement=placement,
                movement_window=movement_window,
            )
        if mode is Mode.PARALLEL:
            return self._run_grcuda(
                gpu, ExecutionPolicy.PARALLEL, movement,
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
        movement: MovementPolicy | None = None,
        gpus: int = 1,
        placement: DevicePlacementPolicy = DevicePlacementPolicy.MIN_TRANSFER,
        movement_window: int = 0,
    ) -> Session:
        return Session(
            gpus=gpus,
            gpu=gpu,
            config=SchedulerConfig(
                execution=execution,
                movement=movement,
                placement=placement,
                movement_window=movement_window,
            ),
        )

    def _run_grcuda(
        self,
        gpu: str | GPUSpec,
        execution: ExecutionPolicy,
        movement: MovementPolicy | None = None,
        gpus: int = 1,
        placement: DevicePlacementPolicy = DevicePlacementPolicy.MIN_TRANSFER,
        movement_window: int = 0,
    ) -> RunResult:
        rt = self._build_session(
            gpu, execution, movement,
            gpus=gpus, placement=placement,
            movement_window=movement_window,
        )
        graph = self.graph()
        arrays = {
            name: rt.array(
                decl.shape,
                dtype=decl.dtype,
                name=name,
                materialize=self.execute,
            )
            for name, decl in graph.arrays.items()
        }
        kernels = {
            k.name: rt.build_kernel(
                k.fn if self.execute else timing_only,
                k.name,
                k.signature,
                cost_model=k.cost,
            )
            for k in graph.kernels
        }
        # Bound once, as the graph baselines bind theirs at
        # instantiation: every iteration dispatches the same launches.
        launches = [
            decl.bind(kernels[decl.kernel], arrays)
            for decl in graph.launches
        ]
        results: list[float] = []
        for it in range(self.iterations):
            self.refresh(arrays, it)
            for launch in launches:
                launch.dispatch()
            results.append(self.read_result(arrays))
        rt.close()
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
            stream_count=len(timeline.kernel_stream_ids()),
            iterations=self.iterations,
            counters=rt.counters(),
        )

    # -- baseline infrastructure ------------------------------------------------
    #
    # The three baselines share one static plan: the runtime scheduler's
    # dependency analysis run offline (graphs.planner.launch_parents) and
    # the first-child-inherits stream assignment — the Fig. 6 coloring,
    # derived rather than hard-coded.

    def _baseline_setup(
        self, gpu: str | GPUSpec, graph: TaskGraph
    ) -> tuple[
        SimEngine, _BaselineHost, dict[str, DeviceArray], dict[str, Kernel]
    ]:
        spec = gpu_by_name(gpu) if isinstance(gpu, str) else gpu
        engine = SimEngine(Device(spec))
        arrays = {
            name: DeviceArray(
                decl.shape,
                dtype=decl.dtype,
                devices=engine.devices,
                name=name,
                materialize=self.execute,
            )
            for name, decl in graph.arrays.items()
        }
        host = _BaselineHost(engine)
        for arr in arrays.values():
            arr.set_access_hook(host.hook)
        kernels = {
            k.name: build_kernel(
                k.fn if self.execute else timing_only,
                k.name,
                k.signature,
                cost_model=k.cost,
            )
            for k in graph.kernels
        }
        return engine, host, arrays, kernels

    def _finish_baseline(
        self,
        engine: SimEngine,
        host: _BaselineHost,
        mode: Mode,
        results: list[float],
        streams_used: int,
    ) -> RunResult:
        engine.sync_all()
        merged = CounterRegistry()
        merged.merge(engine.counters)
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
        graph = self.graph()
        engine, host, arrays, kernels = self._baseline_setup(gpu, graph)
        plan = plan_streams(launch_parents(graph))
        if mode is Mode.GRAPH_MANUAL:
            cuda_graph = CudaGraph(name=self.name)
            nodes = []
            for launch, step in zip(graph.launches, plan):
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
                    cuda_graph.add_kernel_node(
                        kernels[launch.kernel],
                        launch.grid,
                        launch.block,
                        launch.resolve(arrays),
                        deps=deps,
                    )
                )
        else:
            cuda_graph = capture_plan(
                self.name, plan, graph.launches, kernels, arrays
            )
        exe = cuda_graph.instantiate()
        results: list[float] = []
        for it in range(self.iterations):
            self.refresh(arrays, it)
            exe.launch(engine)
            results.append(self.read_result(arrays))
        return self._finish_baseline(
            engine, host, mode, results, exe.stream_count
        )

    def _run_handtuned(self, gpu: str | GPUSpec) -> RunResult:
        graph = self.graph()
        engine, host, arrays, kernels = self._baseline_setup(gpu, graph)
        plan = plan_streams(launch_parents(graph))
        accesses_of = graph.signature_accesses()
        ht = HandTunedScheduler(engine)
        streams = [
            ht.stream() for _ in range(1 + max(s.stream for s in plan))
        ]
        # The expert binds every launch once and prefetches every stale
        # read array explicitly.
        launches = [
            (
                decl.bind(kernels[decl.kernel], arrays),
                [
                    arrays[name]
                    for name, access in zip(
                        decl.array_names, accesses_of[decl.kernel]
                    )
                    if access.reads
                ],
            )
            for decl in graph.launches
        ]
        results: list[float] = []
        for it in range(self.iterations):
            self.refresh(arrays, it)
            events: dict[int, Any] = {}
            for (launch, prefetched), step in zip(launches, plan):
                stream = streams[step.stream]
                for w in step.waits:
                    ht.wait_event(stream, events[w])
                for array in prefetched:
                    ht.prefetch(array, stream)
                ht.launch(stream, launch)
                if step.record_event:
                    events[step.index] = ht.record_event(stream)
            results.append(self.read_result(arrays))
        return self._finish_baseline(
            engine, host, Mode.HANDTUNED, results, len(streams)
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
