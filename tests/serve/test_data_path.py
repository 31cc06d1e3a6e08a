"""The serving data path carries each input byte once: arrays a graph's
producer never writes are zero blocks, the data plane reads unwritten
inputs in place and hands written buffers over uncopied — without
changing any simulated quantity or result."""

import dataclasses

import numpy as np
import pytest

from repro.kernels.profile import LinearCostModel
from repro.memory.array import is_zero_block
from repro.serve import (
    ArrayDecl,
    KernelDecl,
    LaunchDecl,
    SchedulerService,
    ServeConfig,
    TaskGraph,
    execute_serial,
)
from repro.serve.workloads import mixed_workload_graphs

#: arrays each serving workload's refresh() leaves untouched
UNTOUCHED = {
    "vec": {"res"},
    "b&s": {f"y{i}" for i in range(10)},
    "ml": {"r1", "r2", "r"},
}


def materialized(graph: TaskGraph) -> TaskGraph:
    """``graph`` with every input as a full private array."""
    return dataclasses.replace(
        graph,
        arrays={
            name: dataclasses.replace(decl, init=np.array(decl.init))
            for name, decl in graph.arrays.items()
        },
    )


def owned_bytes(graphs: list[TaskGraph]) -> int:
    """Bytes the graphs' inputs own, summed over distinct base buffers."""
    bases = {}
    for graph in graphs:
        for decl in graph.arrays.values():
            base = decl.init
            while base.base is not None:
                base = base.base
            bases[id(base)] = base
    return sum(b.nbytes for b in bases.values())


@pytest.mark.parametrize("workload", sorted(UNTOUCHED))
def test_untouched_arrays_are_zero_blocks(workload):
    graph = mixed_workload_graphs(1, seed=3, workloads=[workload])[0]
    for name, decl in graph.arrays.items():
        assert not decl.init.flags.writeable, name
        assert is_zero_block(decl.init) == (name in UNTOUCHED[workload])
        if name in UNTOUCHED[workload]:
            assert np.array_equal(decl.init, np.zeros(decl.shape))
    full = materialized(graph)
    assert graph.input_bytes == full.input_bytes
    assert graph.total_bytes == full.total_bytes
    assert graph.topology_key() == full.topology_key()


def test_zero_blocks_halve_the_bs_footprint():
    graphs = mixed_workload_graphs(20, workloads=["b&s"])
    snapshot = sum(g.total_bytes for g in graphs)
    assert owned_bytes([materialized(g) for g in graphs]) == snapshot
    assert owned_bytes(graphs) <= 0.55 * snapshot


def _serve(graphs, fleet, **config):
    service = SchedulerService(
        fleet_topology=fleet, config=ServeConfig(**config)
    )
    for i, graph in enumerate(graphs):
        service.submit(f"t{i % 3}", graph, arrival_time=i * 1e-4)
    return service.run()


@pytest.mark.parametrize("fleet", ["1,1", "2,1"])
def test_replay_results_alias_no_input_and_match_serial(fleet):
    graphs = mixed_workload_graphs(18, seed=5)
    report = _serve(graphs, fleet)
    # Both slots replay: single- and multi-GPU arrays on the "2,1" fleet.
    assert {r.device_index for r in report.results if r.replayed} == {0, 1}
    inits = [d.init for g in graphs for d in g.arrays.values()]
    for result in report.results:
        graph = graphs[result.request_id - 1]
        expected = execute_serial(graph)
        assert set(result.outputs) == set(expected)
        for name, out in result.outputs.items():
            assert np.array_equal(out, expected[name])
            assert not any(np.shares_memory(out, i) for i in inits)


def _scribble(x: np.ndarray, y: np.ndarray, n: int) -> None:
    """Declares ``x`` const, then writes it anyway."""
    x[:n] += 1.0
    y[:n] = x[:n]


def _const_violating_graph(seed: int) -> TaskGraph:
    n = 64
    return TaskGraph(
        name="scribble",
        arrays={
            "x": ArrayDecl(
                "x", (n,), np.float32,
                init=np.random.default_rng(seed).random(n, np.float32),
            ),
            "y": ArrayDecl("y", (n,), np.float32),
        },
        kernels=(
            KernelDecl(
                "scribble", "const ptr, ptr, sint32", _scribble,
                LinearCostModel(flops_per_item=1.0,
                                dram_bytes_per_item=8.0),
            ),
        ),
        launches=(LaunchDecl("scribble", 1, 64, ("x", "y", n)),),
    )


@pytest.mark.parametrize("fleet", ["1", "2"])
def test_replayed_kernel_cannot_write_a_const_input(fleet):
    graphs = [_const_violating_graph(seed) for seed in (1, 2)]
    before = [g.arrays["x"].init.copy() for g in graphs]
    # Both requests' kernels read the graph's own input in place: the
    # capture miss as well as the replay.
    with pytest.raises(ValueError, match="read-only"):
        _serve(graphs, fleet, batch_window=0.0)
    for graph, data in zip(graphs, before):
        assert np.array_equal(graph.arrays["x"].init, data)


def test_hits_graphs_do_not_share_cached_kernels():
    # HITS kernels are closures over their benchmark's CSR matrices: two
    # graphs with different matrices must not share a slot's cached
    # kernels (nor, through the topology key, a capture plan).
    from repro.serve.workloads import graph_from_benchmark
    from repro.workloads.suite import create_benchmark

    graphs = [
        graph_from_benchmark(
            create_benchmark("hits", 2_000, seed=seed, iterations=1)
        )
        for seed in (1, 2)
    ]
    assert graphs[0].topology_key() != graphs[1].topology_key()
    report = _serve(graphs, "1")
    for result in report.results:
        expected = execute_serial(graphs[result.request_id - 1])
        for name, out in result.outputs.items():
            assert np.array_equal(out, expected[name]), name
