"""Adapters: suite benchmarks -> servable task graphs.

The paper's benchmark suite (:mod:`repro.workloads.suite`) declares each
workload's iteration once, as a :class:`~repro.graphs.taskgraph.TaskGraph`
plus the host writes before it, so the serving layer's mixed workloads
come straight from the suite: a tenant submitting "one VEC iteration at
scale 100k with seed 7" gets the same kernels, cost models and inputs
the figure experiments use.
"""

from __future__ import annotations

import dataclasses

from repro.graphs.taskgraph import ArrayDecl, TaskGraph
from repro.memory.array import read_only_view, zero_block
from repro.workloads.base import Benchmark, generate
from repro.workloads.suite import create_benchmark


def graph_from_benchmark(
    bench: Benchmark, iteration: int = 0
) -> TaskGraph:
    """One iteration of ``bench`` as a self-contained task graph.

    The benchmark's declared graph, with the host writes of
    ``bench.inputs(iteration)`` generated once (same per-iteration RNG)
    and adopted as read-only ``init``; every array the iteration does
    not write gets a zero block.
    """
    graph = bench.graph()
    data = generate(bench.inputs(iteration))
    arrays = {}
    for name, decl in graph.arrays.items():
        shape = (decl.shape,) if isinstance(decl.shape, int) else decl.shape
        if name in data:
            init = read_only_view(data[name], decl.dtype)
            if init.shape != shape:
                raise ValueError(
                    f"shape mismatch: array {name} {shape}, input"
                    f" {init.shape}"
                )
        else:
            init = zero_block(shape, decl.dtype)
        arrays[name] = ArrayDecl(name, shape, decl.dtype, init)
    return dataclasses.replace(graph, arrays=arrays)


#: Small per-workload scales that keep serving benchmarks fast while
#: still exercising multi-kernel DAGs with real transfers.
SERVING_SCALES: dict[str, int] = {
    "vec": 120_000,
    "b&s": 60_000,
    "ml": 4_000,
}

#: The two serving traffic mixes the benchmark grids sweep: ``uniform``
#: cycles every workload evenly (cold-cache heavy — three topologies
#: alternate); ``skewed`` leans on one hot topology (batching/capture
#: -cache heavy), the classic production shape where one model
#: dominates traffic.
TRAFFIC_MIXES: dict[str, tuple[str, ...]] = {
    "uniform": ("vec", "b&s", "ml"),
    "skewed": ("vec", "vec", "vec", "vec", "b&s", "ml"),
}


def traffic_mix_graphs(
    count: int,
    mix: str = "uniform",
    seed: int = 7,
    scales: dict[str, int] | None = None,
) -> list[TaskGraph]:
    """``count`` task graphs drawn from one named traffic mix."""
    try:
        names = TRAFFIC_MIXES[mix]
    except KeyError:
        raise ValueError(
            f"unknown traffic mix {mix!r}; choose from"
            f" {sorted(TRAFFIC_MIXES)}"
        ) from None
    return mixed_workload_graphs(
        count, seed=seed, workloads=list(names), scales=scales
    )


def mixed_workload_graphs(
    count: int,
    seed: int = 7,
    workloads: list[str] | None = None,
    scales: dict[str, int] | None = None,
) -> list[TaskGraph]:
    """``count`` task graphs cycling over the suite's workloads.

    Graphs of the same workload share a topology (same kernels, shapes
    and launch wiring) but carry different input data (per-graph seeds),
    which is exactly the mix the batching window and capture cache are
    built for.  ``scales`` overrides :data:`SERVING_SCALES` per
    workload; a workload with a scale in neither raises ValueError.
    """
    names = workloads or list(SERVING_SCALES)
    scales = {**SERVING_SCALES, **(scales or {})}
    unscaled = sorted(set(names) - set(scales))
    if unscaled:
        raise ValueError(
            f"no serving scale for {unscaled}: workloads with one are"
            f" {sorted(scales)}; give the others a scale in scales="
        )
    graphs: list[TaskGraph] = []
    for i in range(count):
        name = names[i % len(names)]
        bench = create_benchmark(
            name, scales[name], seed=seed + i, iterations=1
        )
        graphs.append(graph_from_benchmark(bench, iteration=0))
    return graphs
