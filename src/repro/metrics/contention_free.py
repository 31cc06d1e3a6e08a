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
from repro.kernels.kernel import KernelLaunch, normalize_dim
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
    accesses_of = graph.signature_accesses()
    # Virtual arrays of the declared geometry: cost models size their
    # work from the arguments.
    placeholders = {
        name: DeviceArray(
            decl.shape, dtype=decl.dtype, name=name, materialize=False
        )
        for name, decl in graph.arrays.items()
    }
    pcie = spec.pcie_bandwidth_gbs * 1e9

    finish: list[float] = []
    pending_transfer = set(stale_inputs)
    for launch, parents in zip(graph.launches, parents_of):
        kinds = accesses_of[launch.kernel]
        kernel_launch = KernelLaunch(
            kernel=None,  # type: ignore[arg-type]  # cost models ignore it
            grid=normalize_dim(launch.grid),
            block=normalize_dim(launch.block),
            args=tuple(launch.args),
            array_args=tuple(
                zip((placeholders[n] for n in launch.array_names), kinds)
            ),
            scalar_args=tuple(
                a for a in launch.args if not isinstance(a, str)
            ),
        )
        resources = graph.kernel_by_name(launch.kernel).cost.resources(
            kernel_launch
        )
        duration = model.kernel_duration(
            KernelOp(label=launch.kernel, resources=resources)
        )

        transfer = 0.0
        for name, access in zip(launch.array_names, kinds):
            if access.reads and name in pending_transfer:
                pending_transfer.discard(name)
                transfer += graph.arrays[name].nbytes / pcie

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


def contention_free_ratio(
    benchmark: Benchmark, gpu: str | GPUSpec, measured: float
) -> float:
    """Fig. 9's y-value: bound / measured (1.0 = no contention loss)."""
    if measured <= 0:
        return 0.0
    return contention_free_time(benchmark, gpu) / measured
