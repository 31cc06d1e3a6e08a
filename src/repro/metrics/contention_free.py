"""Contention-free execution bound (section V-E, Fig. 9).

The paper estimates the theoretical peak of each benchmark "by looking
at dependencies between kernels and measuring their execution time with
serial scheduling so that each kernel has full access to the GPU
resources": the bound is the critical path through the dependency DAG
where every kernel runs at its uncontended (serial) speed, every input
transfer moves at full PCIe bandwidth, and unlimited concurrency is
free.  Comparing the parallel scheduler's measured time against this
bound quantifies how much performance space-sharing contention costs
(~30-40 % for most benchmarks; B&S, whose ten chains hammer the same
FP64 units and PCIe link, only reaches 15-20 % of its bound).
"""

from __future__ import annotations

from repro.gpusim.contention import ContentionModel
from repro.gpusim.ops import KernelOp
from repro.gpusim.specs import GPUSpec, gpu_by_name
from repro.graphs.planner import launch_parents
from repro.graphs.taskgraph import TaskGraph
from repro.kernels.kernel import timing_only
from repro.kernels.registry import build_kernel
from repro.memory.array import DeviceArray
from repro.workloads.base import Benchmark


def _critical_path(
    graph: TaskGraph,
    spec: GPUSpec,
    parents_of: list[list[int]],
    stale_inputs: set[str],
) -> float:
    """Critical-path time of one iteration with the given inputs stale."""
    model = ContentionModel(spec)
    # Virtual arrays of the declared geometry: cost models size their
    # work from the arguments.
    placeholders = {
        name: DeviceArray(
            decl.shape, dtype=decl.dtype, name=name, materialize=False
        )
        for name, decl in graph.arrays.items()
    }
    # Launches are bound through their kernels, so the bound validates
    # geometry, arguments and price exactly as a run does.
    kernels = {
        k.name: build_kernel(
            timing_only, k.name, k.signature, cost_model=k.cost
        )
        for k in graph.kernels
    }
    pcie = spec.pcie_bandwidth_gbs * 1e9

    finish: list[float] = []
    pending_transfer = set(stale_inputs)
    for launch, parents in zip(graph.launches, parents_of):
        bound = launch.bind(kernels[launch.kernel], placeholders)
        duration = model.kernel_duration(
            KernelOp(label=launch.kernel, resources=bound.resources())
        )

        transfer = 0.0
        for array, access in bound.array_args:
            if access.reads and array.name in pending_transfer:
                pending_transfer.discard(array.name)
                transfer += graph.arrays[array.name].nbytes / pcie

        start = max((finish[p] for p in parents), default=0.0)
        finish.append(start + transfer + duration)
    return max(finish)


def contention_free_time(
    benchmark: Benchmark, gpu: str | GPUSpec
) -> float:
    """Lower bound on the benchmark's total execution time on ``gpu``.

    First iteration pays every input upload; later iterations only the
    host-refreshed inputs.  Iterations serialize (the host consumes each
    result before refreshing the next batch).
    """
    spec = gpu_by_name(gpu) if isinstance(gpu, str) else gpu
    graph = benchmark.graph()
    parents_of = launch_parents(graph)
    first = _critical_path(
        graph, spec, parents_of, set(benchmark.inputs(0))
    )
    if benchmark.iterations <= 1:
        return first
    steady = _critical_path(
        graph, spec, parents_of, set(benchmark.inputs(1))
    )
    return first + (benchmark.iterations - 1) * steady
