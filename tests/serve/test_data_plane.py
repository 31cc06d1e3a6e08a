"""Served outputs come from the recorded schedule, once per completed
request: a plan that lets a consumer finish before its producer gives
wrong outputs, and attempts that never deliver compute nothing."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.kernels.profile import LinearCostModel
from repro.parallel import strategy
from repro.serve import (
    ArrayDecl,
    KernelDecl,
    LaunchDecl,
    RequestStatus,
    SchedulerService,
    ServeConfig,
    TaskGraph,
    execute_serial,
)
from repro.serve import capture, dispatch
from repro.serve.workloads import traffic_mix_graphs

N = 4096
SHORT = LinearCostModel(flops_per_item=1.0, dram_bytes_per_item=8.0)
LONG = LinearCostModel(flops_per_item=1e4, dram_bytes_per_item=8.0)


def _add_one(x, a, n):
    a[:n] = x[:n] + 1.0


def _double(y, p, n):
    p[:n] = 2.0 * y[:n]


def _sum(a, p, c, n):
    c[:n] = a[:n] + p[:n]


def _producer_consumer_graph(seed: int) -> TaskGraph:
    """A short launch A, a long producer P on a second stream, and a
    short consumer C of both that inherits A's stream and waits on P."""
    rng = np.random.default_rng(seed)
    return TaskGraph(
        name="producer-consumer",
        arrays={
            "x": ArrayDecl("x", (N,), np.float32, init=rng.random(N, np.float32)),
            "y": ArrayDecl("y", (N,), np.float32, init=rng.random(N, np.float32)),
            "a": ArrayDecl("a", (N,), np.float32),
            "p": ArrayDecl("p", (N,), np.float32),
            "c": ArrayDecl("c", (N,), np.float32),
        },
        kernels=(
            KernelDecl("A", "const ptr, ptr, sint32", _add_one, SHORT),
            KernelDecl("P", "const ptr, ptr, sint32", _double, LONG),
            KernelDecl("C", "const ptr, const ptr, ptr, sint32", _sum, SHORT),
        ),
        launches=(
            LaunchDecl("A", 16, 256, ("x", "a", N)),
            LaunchDecl("P", 16, 256, ("y", "p", N)),
            LaunchDecl("C", 16, 256, ("a", "p", "c", N)),
        ),
        outputs=("c",),
    )


def test_a_plan_missing_a_wait_gives_wrong_outputs(monkeypatch):
    derive = capture.derive_plan

    def without_wait_on_producer(graph):
        plan = derive(graph)
        consumer = plan.steps[2]
        assert consumer.waits == (1,)
        assert consumer.stream == plan.steps[0].stream
        assert plan.steps[1].stream != consumer.stream
        steps = plan.steps[:2] + (dataclasses.replace(consumer, waits=()),)
        return dataclasses.replace(plan, steps=steps)

    monkeypatch.setattr(capture, "derive_plan", without_wait_on_producer)
    graphs = [_producer_consumer_graph(seed) for seed in (1, 2)]
    service = SchedulerService(
        fleet_topology="1", config=ServeConfig(batch_window=0.0)
    )
    for i, graph in enumerate(graphs):
        service.submit("t", graph, arrival_time=i * 1e-4)
    miss, replay = sorted(service.run().results, key=lambda r: r.request_id)
    assert (miss.replayed, replay.replayed) == (False, True)
    assert np.array_equal(miss.outputs["c"], execute_serial(graphs[0])["c"])
    # C read P's output before P ran.
    assert not np.array_equal(
        replay.outputs["c"], execute_serial(graphs[1])["c"]
    )


def test_the_recorded_order_is_the_completion_order(monkeypatch):
    """Without its wait on P, the replayed C completes before P: the
    data plane is handed that order, not the launch order."""
    derive = capture.derive_plan

    def without_waits(graph):
        plan = derive(graph)
        steps = tuple(dataclasses.replace(s, waits=()) for s in plan.steps)
        return dataclasses.replace(plan, steps=steps)

    orders = []
    real = dispatch.map_numerics

    def recording(works, workers=None):
        orders.extend(order for _, order in works)
        return real(works, workers)

    monkeypatch.setattr(capture, "derive_plan", without_waits)
    monkeypatch.setattr(dispatch, "map_numerics", recording)
    service = SchedulerService(
        fleet_topology="1", config=ServeConfig(batch_window=0.0)
    )
    for i in range(2):
        service.submit(
            "t", _producer_consumer_graph(i), arrival_time=i * 1e-4
        )
    service.run()
    assert orders == [[0, 1, 2], [0, 2, 1]]


#: kernel-body calls made in this process
CALLS = [0]


def _counted_inc(x, y, n):
    CALLS[0] += 1
    y[:n] = x[:n] + 1.0


def _counted_twice(y, z, n):
    CALLS[0] += 1
    z[:n] = 2.0 * y[:n]


def _counted_graph(seed: int) -> TaskGraph:
    return TaskGraph(
        name="counted",
        arrays={
            "x": ArrayDecl(
                "x", (N,), np.float32,
                init=np.random.default_rng(seed).random(N, np.float32),
            ),
            "y": ArrayDecl("y", (N,), np.float32),
            "z": ArrayDecl("z", (N,), np.float32),
        },
        kernels=(
            KernelDecl("inc", "const ptr, ptr, sint32", _counted_inc, SHORT),
            KernelDecl("twice", "const ptr, ptr, sint32", _counted_twice, SHORT),
        ),
        launches=(
            LaunchDecl("inc", 16, 256, ("x", "y", N)),
            LaunchDecl("twice", 16, 256, ("y", "z", N)),
        ),
    )


def test_only_completed_requests_compute():
    """A crash and a transfer fault each void one dispatched batch, and
    arrivals every 5 us against 80 us deadlines make most dispatched
    requests finish late: none of those attempts runs a kernel body."""
    service = SchedulerService(
        fleet_topology="1,1",
        config=ServeConfig(
            batch_window=0.0,
            faults="crash:slot=1,at=6e-5;transfer-fault:slot=0,at=3e-5",
        ),
    )
    for i in range(30):
        arrival = i * 5e-6
        service.submit(
            f"t{i % 3}", _counted_graph(i),
            arrival_time=arrival, deadline=arrival + 80e-6,
        )
    CALLS[0] = 0
    report = service.run()
    completed = [r for r in report.results if r.ok]
    late = [
        r for r in report.results
        if r.status is RequestStatus.TIMEOUT and r.device_index >= 0
    ]
    assert completed and late
    assert report.counters["faults.retries"] >= 2
    assert CALLS[0] == 2 * len(completed)
    for result in completed:
        graph = _counted_graph(result.request_id - 1)
        assert np.array_equal(result.outputs["z"], execute_serial(graph)["z"])


@pytest.mark.parametrize(
    "front_end",
    [lambda: SchedulerService(fleet_topology="2,1"), lambda: Cluster("2,1|1")],
    ids=["fleet", "cluster"],
)
def test_a_second_run_computes_only_the_new_completions(
    monkeypatch, front_end
):
    """A second run() computes, and a cluster prices the readback of,
    only the requests submitted since the first: the earlier results
    keep their outputs and finish times."""
    calls = []
    real = strategy.run_numerics

    def counting(graph, order):
        calls.append(order)
        return real(graph, order)

    monkeypatch.setattr(strategy, "run_numerics", counting)
    graphs = traffic_mix_graphs(6, seed=3)
    serving = front_end()
    for graph in graphs[:3]:
        serving.submit("t", graph)
    earlier = [(r, r.outputs, r.finish_time) for r in serving.run().results]
    readback = serving.counters.get("cluster.net_readback_bytes")
    for graph in graphs[3:]:
        serving.submit("t", graph)
    assert serving.run().metrics.completed == 6
    assert len(calls) == 6
    assert serving.numerics == {}
    for result, outputs, finish in earlier:
        assert result.outputs is outputs
        assert result.finish_time == finish
    if isinstance(serving, Cluster):
        grown = serving.counters.get("cluster.net_readback_bytes") - readback
        assert grown == sum(g.output_bytes for g in graphs[3:])


@pytest.mark.parametrize(
    "front_end",
    [lambda: SchedulerService(fleet_topology="2,1"), lambda: Cluster("2,1|1")],
    ids=["fleet", "cluster"],
)
def test_a_kernel_error_leaves_every_completion_to_the_next_run(
    monkeypatch, front_end
):
    """A kernel error stores no outputs and drops no completion, so the
    next run() computes them all, without serving or (on a cluster)
    pricing any readback again."""
    real = strategy.run_numerics
    failed = []

    def fail_once(graph, order):
        if not failed:
            failed.append(graph)
            raise ZeroDivisionError("kernel failed")
        return real(graph, order)

    monkeypatch.setattr(strategy, "run_numerics", fail_once)
    graphs = traffic_mix_graphs(4, seed=3)
    serving = front_end()
    for graph in graphs:
        serving.submit("t", graph)
    with pytest.raises(ZeroDivisionError, match="kernel failed"):
        serving.run()
    completed = [r for r in serving.results if r.ok]
    assert len(completed) == len(graphs)
    assert all(r.outputs == {} for r in completed)
    finishes = {r.request_id: r.finish_time for r in serving.results}
    assert sorted(serving.numerics) == sorted(finishes)
    readback = serving.counters.get("cluster.net_readback_bytes")
    serving.run()
    assert serving.numerics == {}
    assert {r.request_id: r.finish_time for r in serving.results} == finishes
    assert serving.counters.get("cluster.net_readback_bytes") == readback
    for result in completed:
        expected = execute_serial(graphs[result.request_id - 1])
        assert set(result.outputs) == set(expected)
        for name, out in result.outputs.items():
            assert np.array_equal(out, expected[name]), name
