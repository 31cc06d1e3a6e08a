"""Integration tests for the multi-tenant scheduler service."""

import numpy as np
import pytest

from repro.multigpu import DevicePlacementPolicy
from repro.serve import (
    AdmissionPolicy,
    GpuFleet,
    GraphRequest,
    SchedulerService,
    ServeConfig,
    execute_serial,
)
from repro.serve.capture import derive_plan
from repro.serve.workloads import (
    SERVING_SCALES,
    graph_from_benchmark,
    mixed_workload_graphs,
)
from repro.workloads.suite import create_benchmark


def make_service(admission=AdmissionPolicy.FIFO, fleet_size=2, **kw):
    return SchedulerService(
        fleet_size=fleet_size,
        config=ServeConfig(admission=admission, **kw),
    )


def submit_mixed(service, tenants, count, seed=5, spacing=1e-4):
    """Submit ``count`` mixed graphs round-robin over ``tenants``;
    returns (request_id, graph) pairs."""
    graphs = mixed_workload_graphs(count, seed=seed)
    out = []
    for i, graph in enumerate(graphs):
        out.append(
            (
                service.submit(
                    tenants[i % len(tenants)],
                    graph,
                    arrival_time=i * spacing,
                ),
                graph,
            )
        )
    return out


class TestResultsMatchSerial:
    @pytest.mark.parametrize("admission", list(AdmissionPolicy))
    def test_three_tenants_on_two_gpus_match_serial(self, admission):
        """Acceptance: >= 3 concurrent tenants' graphs on a >= 2-GPU
        fleet produce per-tenant results identical to serial
        single-runtime execution — under every admission policy."""
        service = make_service(admission=admission)
        tenants = ["alice", "bob", "carol"]
        for i, t in enumerate(tenants):
            service.register_tenant(t, priority=i)
        submitted = submit_mixed(service, tenants, 12)
        report = service.run()
        assert report.metrics.completed == 12
        assert report.metrics.tenants == 3
        by_id = {r.request_id: r for r in report.results}
        for request_id, graph in submitted:
            reference = execute_serial(graph)
            result = by_id[request_id]
            assert set(result.outputs) == set(reference)
            for name, expected in reference.items():
                assert np.array_equal(result.outputs[name], expected)

    def test_replayed_and_inferred_requests_agree(self):
        """The capture fast path must be numerically indistinguishable
        from the inference path."""
        service = make_service(batch_window=0.0)  # no batching: pure paths
        bench_a = create_benchmark("vec", 50_000, seed=1, iterations=1)
        bench_b = create_benchmark("vec", 50_000, seed=2, iterations=1)
        ga = graph_from_benchmark(bench_a)
        gb = graph_from_benchmark(bench_b)
        service.submit("t0", ga, arrival_time=0.0)
        service.submit("t0", gb, arrival_time=1e-3)
        report = service.run()
        first, second = sorted(
            report.results, key=lambda r: r.request_id
        )
        assert not first.replayed      # cold topology: inference path
        assert second.replayed         # warm: capture replay
        for graph, result in ((ga, first), (gb, second)):
            reference = execute_serial(graph)
            for name, expected in reference.items():
                assert np.array_equal(result.outputs[name], expected)


class TestTenantIsolation:
    def test_separate_history_and_timeline_per_tenant(self):
        service = make_service()
        submitted = submit_mixed(service, ["a", "b"], 6)
        report = service.run()
        for name in ("a", "b"):
            tenant = report.tenants[name]
            assert tenant.completed == 3
            # Its private history only holds its own executions.
            assert tenant.history.kernels()
            # Its private timeline only carries its own tagged records.
            assert len(tenant.timeline) > 0
            for record in tenant.timeline:
                assert record.meta["tenant"] == name
        # Kernel executions across tenants account for every launch.
        total = sum(
            t.history.execution_count(k)
            for t in report.tenants.values()
            for k in t.history.kernels()
        )
        assert total == sum(
            len(g.launches) for _, g in submitted
        )

    def test_tenant_timeline_includes_transfers(self):
        """CPU-access readbacks and input migrations carry the tenant
        tag too — per-tenant timelines see the whole request, not just
        its kernels."""
        service = make_service(fleet_size=1)
        submit_mixed(service, ["a"], 2)
        report = service.run()
        kinds = {r.kind.value for r in report.tenants["a"].timeline}
        assert "kernel" in kinds
        assert kinds & {"htod", "dtoh"}

    def test_latencies_recorded_per_tenant(self):
        service = make_service()
        submit_mixed(service, ["a", "b", "c"], 9)
        report = service.run()
        for t in ("a", "b", "c"):
            assert len(report.tenants[t].latencies) == 3
            assert all(v > 0 for v in report.tenants[t].latencies)


class TestBatching:
    def test_same_topology_within_window_coalesces(self):
        service = make_service(batch_window=1.0, batch_max=8)
        graphs = mixed_workload_graphs(6, seed=3, workloads=["vec"])
        for i, g in enumerate(graphs):
            service.submit("t", g, arrival_time=i * 1e-5)
        report = service.run()
        assert report.metrics.batches == 1
        assert report.metrics.batched_requests == 6
        assert all(r.batch_size == 6 for r in report.results)

    def test_window_zero_disables_batching(self):
        service = make_service(batch_window=0.0)
        graphs = mixed_workload_graphs(4, seed=3, workloads=["vec"])
        for i, g in enumerate(graphs):
            service.submit("t", g, arrival_time=0.0)
        report = service.run()
        assert report.metrics.batches == 4
        assert report.metrics.batched_requests == 0

    def test_distinct_topologies_never_share_a_batch(self):
        service = make_service(batch_window=10.0)
        graphs = mixed_workload_graphs(6, seed=3)  # vec/b&s/ml cycle
        for g in graphs:
            service.submit("t", g, arrival_time=0.0)
        report = service.run()
        assert report.metrics.batches == 3
        for r in report.results:
            assert r.batch_size == 2

    def test_equal_topologies_share_one_number(self):
        graphs = mixed_workload_graphs(6, seed=3)  # vec/b&s/ml cycle
        requests = [GraphRequest("t", g) for g in graphs]
        first, second = make_service(), make_service()
        for r in requests:
            first.enqueue(r)
        assert [r.topology_id for r in requests] == [0, 1, 2, 0, 1, 2]
        # Each dispatcher numbers its own queue, in first-enqueue order.
        for r in reversed(requests):
            second.enqueue(r)
        assert [r.topology_id for r in requests] == [2, 1, 0, 2, 1, 0]


class TestCaptureCache:
    def test_one_plan_per_topology(self):
        service = make_service()
        submit_mixed(service, ["a"], 9)  # 3 workloads x 3 graphs
        report = service.run()
        assert len(service.cache) == 3
        m = report.metrics
        assert m.capture_hits + m.capture_misses == 9

    def test_disabled_cache_never_replays(self):
        service = make_service(capture_cache=False)
        submit_mixed(service, ["a"], 6)
        report = service.run()
        assert all(not r.replayed for r in report.results)
        # A disabled cache reports no traffic at all — including for
        # batch members riding a head request's (non-)lookup.
        assert report.metrics.capture_hits == 0
        assert report.metrics.capture_misses == 0

    def test_derived_plan_matches_graph_shape(self):
        graph = mixed_workload_graphs(1, workloads=["vec"])[0]
        plan = derive_plan(graph)
        assert len(plan.steps) == len(graph.launches)
        assert plan.stream_count >= 2  # vec's two squares overlap
        assert len(plan.captured.nodes) == len(graph.launches)


class TestFleetPlacement:
    @pytest.mark.parametrize("policy", list(DevicePlacementPolicy))
    def test_every_policy_spreads_load(self, policy):
        service = SchedulerService(
            fleet=GpuFleet([1] * 2, policy=policy),
        )
        submit_mixed(service, ["a", "b"], 8)
        report = service.run()
        assert report.metrics.completed == 8
        assert all(b > 0 for b in report.metrics.device_busy)

    def test_min_transfer_prefers_warm_topology(self):
        fleet = GpuFleet(
            [1] * 2, policy=DevicePlacementPolicy.MIN_TRANSFER
        )
        service = SchedulerService(
            fleet=fleet,
            config=ServeConfig(batch_window=0.0),
        )
        graphs = mixed_workload_graphs(4, seed=9, workloads=["vec"])
        for i, g in enumerate(graphs):
            service.submit("t", g, arrival_time=i * 1e-2)
        report = service.run()
        # Spaced-out identical topologies pile onto the warm device.
        devices = {r.device_index for r in report.results}
        assert len(devices) == 1

    def test_least_loaded_balances(self):
        fleet = GpuFleet(
            [1] * 2, policy=DevicePlacementPolicy.LEAST_LOADED
        )
        service = SchedulerService(
            fleet=fleet, config=ServeConfig(batch_window=0.0)
        )
        graphs = mixed_workload_graphs(6, seed=9, workloads=["vec"])
        for g in graphs:
            service.submit("t", g, arrival_time=0.0)
        report = service.run()
        counts = [0, 0]
        for r in report.results:
            counts[r.device_index] += 1
        assert counts[0] == counts[1] == 3


class TestServiceMechanics:
    def test_latency_includes_queue_wait(self):
        service = make_service(fleet_size=1, batch_window=0.0)
        graphs = mixed_workload_graphs(3, workloads=["vec"])
        for g in graphs:
            service.submit("t", g, arrival_time=0.0)
        report = service.run()
        ordered = sorted(report.results, key=lambda r: r.finish_time)
        # One device, simultaneous arrivals: later requests wait longer.
        assert ordered[0].queue_wait < ordered[-1].queue_wait
        for r in report.results:
            assert r.latency >= r.queue_wait >= 0

    def test_device_idles_until_arrival(self):
        service = make_service(fleet_size=1)
        graph = mixed_workload_graphs(1, workloads=["vec"])[0]
        service.submit("t", graph, arrival_time=0.5)
        report = service.run()
        result = report.results[0]
        assert result.start_time >= 0.5
        assert result.latency < 0.5  # waiting is not execution time

    def test_serial_scheduler_config_serves_correctly(self):
        """The fleet can run original-GrCUDA serial contexts too."""
        from repro.core.policies import ExecutionPolicy, SchedulerConfig

        service = make_service(
            scheduler=SchedulerConfig(execution=ExecutionPolicy.SERIAL),
        )
        submitted = submit_mixed(service, ["a", "b"], 4)
        report = service.run()
        assert report.metrics.completed == 4
        by_id = {r.request_id: r for r in report.results}
        for request_id, graph in submitted:
            reference = execute_serial(graph)
            for name, expected in reference.items():
                assert np.array_equal(
                    by_id[request_id].outputs[name], expected
                )

    def test_report_without_results_raises(self):
        service = make_service()
        with pytest.raises(ValueError):
            service.report()

    def test_render_mentions_key_indicators(self):
        service = make_service()
        submit_mixed(service, ["a", "b"], 4)
        text = service.run().render()
        for needle in ("p50", "p99", "throughput", "utilization", "a"):
            assert needle in text

    def test_engine_stream_count_stays_bounded(self):
        """Re-entrant context reuse must reclaim per-request streams:
        a long-lived serving device's engine does not accumulate one
        stream set per request."""
        service = make_service(fleet_size=1)
        submit_mixed(service, ["a"], 9)
        report = service.run()
        device = report.fleet.slots[0]
        # default + replay pool (bounded by batch_max * plan streams),
        # not O(requests * streams-per-request).
        assert len(device.engine.streams) < 20


class TestServingScales:
    def test_scales_cover_the_mixed_suite(self):
        assert set(SERVING_SCALES) == {"vec", "b&s", "ml"}
        for name, scale in SERVING_SCALES.items():
            bench = create_benchmark(name, scale, execute=False)
            assert bench.memory_footprint_bytes() < 64 * 1024 * 1024

    def test_unknown_workload_without_a_scale_is_rejected(self):
        with pytest.raises(ValueError, match=r"no serving scale for \['img'\]") as err:
            mixed_workload_graphs(1, workloads=["vec", "img"])
        assert "['b&s', 'ml', 'vec']" in str(err.value)

    def test_given_scales_override_the_serving_scales(self):
        graphs = mixed_workload_graphs(
            2, workloads=["img", "vec"], scales={"img": 16}
        )
        assert [g.name for g in graphs] == [
            "img@16", f"vec@{SERVING_SCALES['vec']}"
        ]
