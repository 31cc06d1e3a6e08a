"""The data plane: :func:`run_numerics` runs a graph's launches once, in
a given completion order, on the graph's own inputs, and
:func:`map_numerics` collects many such runs in work order, in-process
or over a forked pool.  The control plane runs no kernel body."""

import os

import numpy as np
import pytest

from repro.kernels.kernel import KernelLaunch
from repro.kernels.profile import LinearCostModel
from repro.memory.array import zero_block
from repro.parallel import STRATEGIES, map_numerics, run_numerics, strategy
from repro.serve import (
    ArrayDecl,
    KernelDecl,
    LaunchDecl,
    SchedulerService,
    ServeConfig,
    TaskGraph,
    execute_serial,
)
from repro.serve import dispatch
from repro.serve.workloads import mixed_workload_graphs

N = 256
COST = LinearCostModel(flops_per_item=1.0, dram_bytes_per_item=8.0)


def _inputs(seed: int) -> np.ndarray:
    init = np.random.default_rng(seed).random(N, np.float32)
    init.flags.writeable = False
    return init


def _one_kernel(fn, signature, args, arrays, outputs) -> TaskGraph:
    return TaskGraph(
        name="one-kernel",
        arrays=arrays,
        kernels=(KernelDecl("k", signature, fn, COST),),
        launches=(LaunchDecl("k", 1, N, args),),
        outputs=outputs,
    )


def _copy_graph(fn, init: np.ndarray, outputs=("y",)) -> TaskGraph:
    """One kernel reading ``x`` (declared const) and writing ``y``."""
    return _one_kernel(
        fn,
        "const ptr, ptr, sint32",
        ("x", "y", N),
        {
            "x": ArrayDecl("x", (N,), np.float32, init=init),
            "y": ArrayDecl("y", (N,), np.float32),
        },
        outputs,
    )


def _copy(x, y, n):
    y[:n] = x[:n]


def _increment(x, n):
    x[:n] += 1.0


def _in_place_graph(init: np.ndarray) -> TaskGraph:
    """One kernel incrementing its input ``x`` in place."""
    return _one_kernel(
        _increment,
        "ptr, sint32",
        ("x", N),
        {"x": ArrayDecl("x", (N,), np.float32, init=init)},
        ("x",),
    )


def _inc(x, y, n):
    y[:n] = x[:n] + 1.0


def _twice(y, z, n):
    z[:n] = 2.0 * y[:n]


def _chain_graph(seed: int) -> TaskGraph:
    """``y = x + 1`` then ``z = 2 y``."""
    return TaskGraph(
        name="chain",
        arrays={
            "x": ArrayDecl("x", (N,), np.float32, init=_inputs(seed)),
            "y": ArrayDecl("y", (N,), np.float32),
            "z": ArrayDecl("z", (N,), np.float32),
        },
        kernels=(
            KernelDecl("inc", "const ptr, ptr, sint32", _inc, COST),
            KernelDecl("twice", "const ptr, ptr, sint32", _twice, COST),
        ),
        launches=(
            LaunchDecl("inc", 1, N, ("x", "y", N)),
            LaunchDecl("twice", 1, N, ("y", "z", N)),
        ),
    )


class TestRunNumerics:
    @pytest.mark.parametrize("workload", ["vec", "b&s", "ml"])
    def test_launch_order_matches_serial(self, workload):
        graph = mixed_workload_graphs(1, seed=3, workloads=[workload])[0]
        outputs = run_numerics(graph, range(len(graph.launches)))
        expected = execute_serial(graph)
        assert set(outputs) == set(expected)
        for name, out in outputs.items():
            assert np.array_equal(out, expected[name]), name

    def test_order_is_the_execution_order(self):
        graph = _chain_graph(1)
        assert np.array_equal(
            run_numerics(graph, [0, 1])["z"], execute_serial(graph)["z"]
        )
        # The consumer ran first: it read y before y was written.
        assert np.array_equal(run_numerics(graph, [1, 0])["z"], np.zeros(N))

    def test_each_ordered_launch_executes_once(self, monkeypatch):
        labels = []
        execute = KernelLaunch.execute

        def counted(launch):
            labels.append(launch.label)
            execute(launch)

        monkeypatch.setattr(KernelLaunch, "execute", counted)
        run_numerics(_chain_graph(1), [0, 1])
        assert labels == ["inc", "twice"]

    def test_unwritten_input_is_read_in_place(self):
        init = _inputs(1)
        seen = []

        def record(x, y, n):
            seen.append(x)
            y[:n] = x[:n]

        run_numerics(_copy_graph(record, init), [0])
        (x,) = seen
        assert np.shares_memory(x, init)
        assert not x.flags.writeable

    def test_const_write_raises_and_leaves_the_input(self):
        init = _inputs(1)
        before = init.copy()

        def scribble(x, y, n):
            x[:n] += 1.0

        with pytest.raises(ValueError, match="read-only"):
            run_numerics(_copy_graph(scribble, init), [0])
        assert np.array_equal(init, before)

    def test_written_input_is_a_private_copy(self):
        init = _inputs(1)
        graph = _in_place_graph(init)
        first = run_numerics(graph, [0])["x"]
        second = run_numerics(graph, [0])["x"]
        assert np.array_equal(first, init + 1.0)
        assert np.array_equal(second, first)
        assert not np.shares_memory(first, init)
        assert not np.shares_memory(first, second)

    def test_written_zero_block_starts_from_fresh_zeros(self):
        init = zero_block((N,), np.float32)
        out = run_numerics(_in_place_graph(init), [0])["x"]
        assert np.array_equal(out, np.ones(N, np.float32))
        assert not np.shares_memory(out, init)

    def test_written_output_is_handed_over_uncopied(self):
        seen = []

        def record(x, y, n):
            seen.append(y)
            y[:n] = x[:n]

        out = run_numerics(_copy_graph(record, _inputs(1)), [0])["y"]
        assert np.shares_memory(out, seen[0])

    def test_unwritten_output_is_a_copy(self):
        init = _inputs(1)
        out = run_numerics(
            _copy_graph(_copy, init, outputs=("x", "y")), [0]
        )["x"]
        assert np.array_equal(out, init)
        assert not np.shares_memory(out, init)
        assert out.flags.writeable


class TestMapNumerics:
    @pytest.mark.parametrize("parallel", STRATEGIES)
    def test_results_come_back_in_work_order(self, parallel):
        works = [
            (_chain_graph(seed), order)
            for seed in range(6)
            for order in ([0, 1], [1, 0])
        ]
        results = map_numerics(works, parallel, workers=2)
        assert len(results) == len(works)
        for (graph, order), result in zip(works, results):
            expected = run_numerics(graph, order)
            assert np.array_equal(result["z"], expected["z"])

    def test_no_work_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(strategy, "ProcessPoolExecutor", no_pool)
        assert map_numerics([], "process", workers=2) == []

    @pytest.mark.parametrize("workers", [None, 1, 3])
    def test_workers_size_the_pool(self, monkeypatch, workers):
        sizes = []

        class Recording(strategy.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(strategy, "ProcessPoolExecutor", Recording)
        map_numerics([(_chain_graph(1), [0, 1])], "process", workers)
        # None: one worker per core
        assert sizes == [workers or os.cpu_count()]


#: kernel-body calls made in this process
CALLS = [0]


def _counted_inc(x, y, n):
    CALLS[0] += 1
    y[:n] = x[:n] + 1.0


def _counted_graph(seed: int) -> TaskGraph:
    return TaskGraph(
        name="counted",
        arrays={
            "x": ArrayDecl("x", (N,), np.float32, init=_inputs(seed)),
            "y": ArrayDecl("y", (N,), np.float32),
            "z": ArrayDecl("z", (N,), np.float32),
        },
        kernels=(
            KernelDecl("inc", "const ptr, ptr, sint32", _counted_inc, COST),
        ),
        launches=(
            LaunchDecl("inc", 1, N, ("x", "y", N)),
            LaunchDecl("inc", 1, N, ("y", "z", N)),
        ),
    )


@pytest.mark.parametrize("fleet", ["1", "2,1"])
def test_control_plane_runs_no_kernel_body(monkeypatch, fleet):
    """Every request is simulated before any body runs, each records a
    permutation of its launches, and the data plane then runs each
    completed request's launches once."""
    seen = []
    real = dispatch.map_numerics

    def recording(works, parallel, workers=None):
        seen.append((CALLS[0], [order for _, order in works]))
        return real(works, parallel, workers)

    monkeypatch.setattr(dispatch, "map_numerics", recording)
    graphs = [_counted_graph(seed) for seed in range(8)]
    service = SchedulerService(fleet_topology=fleet, config=ServeConfig())
    for i, graph in enumerate(graphs):
        service.submit("t", graph, arrival_time=i * 1e-5)
    CALLS[0] = 0
    report = service.run()
    ((calls_before, orders),) = seen
    assert calls_before == 0
    assert len(orders) == report.metrics.completed == len(graphs)
    assert all(sorted(order) == [0, 1] for order in orders)
    assert CALLS[0] == 2 * len(graphs)
    for result in report.results:
        expected = execute_serial(graphs[result.request_id - 1])
        assert np.array_equal(result.outputs["z"], expected["z"])
