"""Serving-layer benchmark: requests/sec under mixed multi-tenant load.

Not a paper figure — the serving subsystem is the ROADMAP's jump from
single-program scheduling to shared-infrastructure dispatch.  The
acceptance bar it tracks:

* >= 100 submitted task graphs across >= 4 tenants on a >= 2-GPU fleet
  in one run;
* per-tenant numerical results identical to serial single-runtime
  execution;
* batching and the capture cache measurably lift throughput over the
  unbatched/uncached dispatch path.
"""

import numpy as np
import pytest

from repro.multigpu import DevicePlacementPolicy
from repro.serve import (
    AdmissionPolicy,
    SchedulerService,
    ServeConfig,
    execute_serial,
)
from repro.serve.workloads import mixed_workload_graphs, traffic_mix_graphs

TENANTS = 4
REQUESTS = 100
FLEET = 2
SEED = 11
MEAN_INTERARRIVAL = 120e-6


def _submit_all(service, graphs):
    rng = np.random.default_rng(SEED)
    arrival = 0.0
    submitted = []
    for i, graph in enumerate(graphs):
        arrival += float(rng.exponential(MEAN_INTERARRIVAL))
        submitted.append(
            (
                service.submit(
                    f"tenant{i % TENANTS}", graph, arrival_time=arrival
                ),
                graph,
            )
        )
    return submitted


def run_serving(
    admission=AdmissionPolicy.FAIR_SHARE,
    placement=DevicePlacementPolicy.LEAST_LOADED,
    batch_window=500e-6,
    capture_cache=True,
    requests=REQUESTS,
    fleet_topology=None,
    traffic=None,
):
    if traffic is None:
        graphs = mixed_workload_graphs(requests, seed=SEED)
    else:
        graphs = traffic_mix_graphs(requests, mix=traffic, seed=SEED)
    service = SchedulerService(
        fleet_size=FLEET,
        fleet_topology=fleet_topology,
        config=ServeConfig(
            admission=admission,
            placement=placement,
            batch_window=batch_window,
            capture_cache=capture_cache,
        ),
    )
    for t in range(TENANTS):
        service.register_tenant(f"tenant{t}", priority=TENANTS - 1 - t)
    submitted = _submit_all(service, graphs)
    report = service.run()
    return report, submitted


def test_serving_throughput_mixed_load(benchmark):
    report, submitted = benchmark.pedantic(
        run_serving, rounds=1, iterations=1
    )
    m = report.metrics
    print(
        f"\nserving {m.completed} graphs / {m.tenants} tenants /"
        f" {FLEET} GPUs: {m.throughput_rps:.0f} req/s,"
        f" p50 {m.latency.p50 * 1e3:.2f} ms,"
        f" p99 {m.latency.p99 * 1e3:.2f} ms,"
        f" util {m.mean_utilization * 100:.0f}%,"
        f" capture {m.capture_hits}/{m.capture_hits + m.capture_misses}"
    )
    # Acceptance bar: scale and isolation.
    assert m.completed >= 100
    assert m.tenants >= 4
    assert m.throughput_rps > 0
    # Every tenant was served and none starved under fair-share.
    assert all(s.count > 0 for s in m.per_tenant.values())
    # The fleet actually shared the load.
    assert all(b > 0 for b in m.device_busy)
    # Capture cache: 3 distinct topologies; every request either replays
    # a cached plan or pays the inference path, and the replayed count
    # matches the per-request flags.
    assert m.capture_hits + m.capture_misses == m.completed
    assert m.capture_hits == sum(1 for r in report.results if r.replayed)
    assert m.capture_hits > m.capture_misses

    # Ground truth: every request's outputs are identical to running its
    # graph alone on a private serial runtime.
    by_id = {r.request_id: r for r in report.results}
    for request_id, graph in submitted:
        reference = execute_serial(graph)
        result = by_id[request_id]
        for name, expected in reference.items():
            assert np.array_equal(result.outputs[name], expected), (
                f"request {request_id} ({graph.name}) diverged on {name}"
            )


def test_batching_and_capture_lift_throughput():
    tuned, _ = run_serving(requests=48)
    plain, _ = run_serving(
        requests=48, batch_window=0.0, capture_cache=False
    )
    print(
        f"\nbatched+cached {tuned.metrics.throughput_rps:.0f} req/s vs"
        f" unbatched/uncached {plain.metrics.throughput_rps:.0f} req/s"
    )
    assert plain.metrics.batched_requests == 0
    assert tuned.metrics.throughput_rps > plain.metrics.throughput_rps


def test_placement_policies_all_serve():
    for placement in DevicePlacementPolicy:
        report, _ = run_serving(requests=24, placement=placement)
        assert report.metrics.completed == 24
        assert all(b > 0 for b in report.metrics.device_busy), (
            f"{placement}: a device sat idle"
        )


@pytest.mark.parametrize(
    "traffic", [None, "skewed"], ids=["mixed", "skewed"]
)
def test_heterogeneous_fleet_throughput(benchmark, traffic):
    """The ``--fleet 2,2,1,1`` shape: multi-GPU slots serve the mixed
    load, and the skewed mix that width-normalized LEAST_LOADED pricing
    exists for, correctly, and every slot carries traffic."""
    report, submitted = benchmark.pedantic(
        run_serving,
        kwargs={
            "requests": 60,
            "fleet_topology": [2, 2, 1, 1],
            "traffic": traffic,
        },
        rounds=1,
        iterations=1,
    )
    m = report.metrics
    print(
        f"\nheterogeneous [2,2,1,1] {traffic or 'mixed'}:"
        f" {m.throughput_rps:.0f} req/s,"
        f" p99 {m.latency.p99 * 1e3:.2f} ms,"
        f" util {m.mean_utilization * 100:.0f}%"
    )
    assert report.fleet.topology == [2, 2, 1, 1]
    assert m.completed == 60
    assert all(b > 0 for b in m.device_busy)
    by_id = {r.request_id: r for r in report.results}
    for request_id, graph in submitted:
        reference = execute_serial(graph)
        result = by_id[request_id]
        for name, expected in reference.items():
            assert np.array_equal(result.outputs[name], expected), (
                f"request {request_id} ({graph.name}) diverged on {name}"
            )
