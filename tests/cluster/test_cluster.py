"""Cluster serving: placement policies, node faults, determinism.

The invariants pinned here are the PR's acceptance bar:

* every completed request is bit-identical to serial execution, with
  cross-node staging/readback priced and counted;
* BIN_PACK and SPREAD produce different, individually replay
  -deterministic placements;
* node-scoped fault plans shed/re-place onto survivors and every
  submission still reaches a terminal status.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ClusterPlacementPolicy,
    ClusterScheduler,
    parse_cluster_spec,
)
from repro.errors import ConfigError
from repro.faults import FaultPlan
from repro.serve import (
    GpuFleet,
    RequestStatus,
    ServeConfig,
    execute_serial,
)
from repro.serve.workloads import mixed_workload_graphs


def run_cluster(
    topologies="2,1|2",
    policy="spread",
    faults=None,
    count=8,
    tenants=3,
    seed=11,
    interconnect="ethernet-100g",
    deadline_us=None,
    serve=None,
):
    """One small deterministic cluster run; returns (report, submitted)."""
    cluster = Cluster(
        topologies,
        config=ClusterConfig(
            policy=policy,
            interconnect=interconnect,
            faults=faults,
            serve=serve or ServeConfig(),
        ),
    )
    submitted = []
    for i, graph in enumerate(mixed_workload_graphs(count, seed=seed)):
        arrival = i * 3e-4
        submitted.append(
            (
                cluster.submit(
                    f"t{i % tenants}",
                    graph,
                    arrival_time=arrival,
                    deadline=(
                        arrival + deadline_us * 1e-6
                        if deadline_us is not None
                        else None
                    ),
                ),
                graph,
            )
        )
    return cluster.run(), submitted


def assert_all_terminal(report, submitted):
    by_id = {r.request_id: r for r in report.results}
    assert sorted(by_id) == sorted(rid for rid, _ in submitted)
    return by_id


# -- specs and config ------------------------------------------------------


class TestClusterSpec:
    def test_parse_cluster_spec(self):
        assert parse_cluster_spec("2,2,1,1|4|2,2") == [
            [2, 2, 1, 1],
            [4],
            [2, 2],
        ]
        assert parse_cluster_spec("2") == [[2]]

    @pytest.mark.parametrize("bad", ["", "|", "2,x|1", "2,0|1"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_cluster_spec(bad)

    def test_slot_scoped_plan_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(faults="crash:slot=0,at=1e-3")

    def test_serve_template_faults_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(
                serve=ServeConfig(faults="crash:slot=0,at=1e-3")
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            ClusterConfig(policy="tetris")

    def test_fault_node_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            Cluster(
                "2|1",
                config=ClusterConfig(faults="crash:node=2,at=1e-3"),
            )

    def test_node_scoped_plan_rejected_on_plain_fleet(self):
        fleet = GpuFleet([1, 1])
        with pytest.raises(ValueError):
            fleet.attach_faults(FaultPlan.parse("crash:node=0,at=1e-3"))


# -- fault-free serving ----------------------------------------------------


class TestClusterServing:
    def test_completed_results_match_serial(self):
        report, submitted = run_cluster(count=6)
        by_id = assert_all_terminal(report, submitted)
        for request_id, graph in submitted:
            result = by_id[request_id]
            assert result.status is RequestStatus.COMPLETED
            assert result.node_index in (0, 1)
            for name, expected in execute_serial(graph).items():
                assert np.array_equal(result.outputs[name], expected)

    def test_network_cost_is_counted_and_priced(self):
        report, submitted = run_cluster(count=6)
        # One staging + one readback transfer per completed request.
        assert report.counters["cluster.net_ops"] == 2 * len(submitted)
        assert report.counters["cluster.net_bytes"] > 0
        assert report.counters["cluster.net_stage_bytes"] > 0
        assert report.counters["cluster.net_readback_bytes"] > 0

    def test_interconnect_speed_moves_the_timeline(self):
        slow, _ = run_cluster(interconnect="ethernet-10g")
        fast, _ = run_cluster(interconnect="loopback")
        assert slow.metrics.makespan > fast.metrics.makespan

    def test_per_node_reports_roll_up(self):
        report, submitted = run_cluster(count=8)
        served = sum(
            len(r.results) for r in report.per_node.values()
        )
        assert served == len(submitted)
        assert len(report.nodes) == 2

    def test_cluster_level_deadline_times_out(self):
        report, submitted = run_cluster(count=6, deadline_us=1.0)
        by_id = assert_all_terminal(report, submitted)
        assert any(
            by_id[rid].status is RequestStatus.TIMEOUT
            for rid, _ in submitted
        )


# -- placement policies ----------------------------------------------------


class TestPlacementPolicies:
    def test_bin_pack_and_spread_place_differently(self):
        pack, _ = run_cluster(policy="bin-pack", count=10)
        spread, _ = run_cluster(policy="spread", count=10)
        assert [r.node_index for r in pack.results] != [
            r.node_index for r in spread.results
        ]
        assert pack.fingerprint() != spread.fingerprint()

    @pytest.mark.parametrize(
        "policy", ["bin-pack", "spread", "affinity"]
    )
    def test_each_policy_is_replay_deterministic(self, policy):
        a, _ = run_cluster(policy=policy, count=8)
        b, _ = run_cluster(policy=policy, count=8)
        assert a.fingerprint() == b.fingerprint()

    def test_bin_pack_fills_first_node_first(self):
        report, _ = run_cluster(policy="bin-pack", count=8)
        # 8 requests fit node0's per-round budget (8 req/GPU x 3 GPUs).
        assert {r.node_index for r in report.results} == {0}

    def test_affinity_keeps_tenants_sticky(self):
        report, _ = run_cluster(policy="affinity", count=10, tenants=2)
        nodes_by_tenant = {}
        for r in report.results:
            nodes_by_tenant.setdefault(r.tenant, set()).add(
                r.node_index
            )
        for nodes in nodes_by_tenant.values():
            assert len(nodes) == 1

    def test_scheduler_tie_breaks_by_node_id(self):
        scheduler = ClusterScheduler(ClusterPlacementPolicy.SPREAD)

        class FakeNode:
            def __init__(self, index):
                self.index = index
                self.total_gpus = 2
                self.clock = 0.0

        class FakeRequest:
            class graph:
                total_bytes = 64

            tenant = "t0"

        nodes = [FakeNode(0), FakeNode(1)]
        assert scheduler.place(FakeRequest, nodes).index == 0


# -- node faults -----------------------------------------------------------


class TestNodeFaults:
    def test_node_crash_replaces_onto_survivor(self):
        report, submitted = run_cluster(
            faults="crash:node=1,at=1e-3", count=8
        )
        by_id = assert_all_terminal(report, submitted)
        assert report.counters["cluster.node_faults_injected"] >= 1
        # Everything that terminated COMPLETED must match serial, and
        # the crashed node must not have completed anything after help
        # from the survivor was needed.
        for request_id, graph in submitted:
            result = by_id[request_id]
            if result.status is not RequestStatus.COMPLETED:
                continue
            for name, expected in execute_serial(graph).items():
                assert np.array_equal(result.outputs[name], expected)

    def test_node_drain_stops_placements_without_failures(self):
        report, submitted = run_cluster(
            faults="drain:node=0,at=0.0", count=6
        )
        by_id = assert_all_terminal(report, submitted)
        for rid, _ in submitted:
            result = by_id[rid]
            assert result.status is RequestStatus.COMPLETED
            assert result.node_index == 1

    def test_node_transfer_fault_burns_link_time_once(self):
        plan = "transfer-fault:node=0,at=0.0"
        faulted, _ = run_cluster(faults=plan, count=6)
        clean, _ = run_cluster(count=6)
        assert faulted.counters["cluster.net_retries"] == 1
        assert clean.counters["cluster.net_retries"] == 0
        # The retried staging attempt is an extra transfer op.
        assert (
            faulted.counters["cluster.net_ops"]
            == clean.counters["cluster.net_ops"] + 1
        )

    def test_total_cluster_blackout_sheds_instead_of_hanging(self):
        report, submitted = run_cluster(
            faults="crash:node=0,at=1e-9;crash:node=1,at=1e-9",
            count=6,
        )
        by_id = assert_all_terminal(report, submitted)
        for rid, _ in submitted:
            assert by_id[rid].status in (
                RequestStatus.SHED,
                RequestStatus.FAILED,
            )

    def test_node_restart_recovers(self):
        report, submitted = run_cluster(
            faults=(
                "crash:node=0,at=1e-9;crash:node=1,at=1e-9;"
                "restart:node=0,at=1e-3,warmup=1e-4"
            ),
            count=6,
        )
        by_id = assert_all_terminal(report, submitted)
        completed = [
            by_id[rid]
            for rid, _ in submitted
            if by_id[rid].status is RequestStatus.COMPLETED
        ]
        assert completed
        assert all(r.node_index == 0 for r in completed)

    def test_same_plan_bit_identical(self):
        plan = "crash:node=1,at=1e-3;restart:node=1,at=3e-3,warmup=2e-4"
        a, _ = run_cluster(faults=plan)
        b, _ = run_cluster(faults=plan)
        assert a.fingerprint() == b.fingerprint()

    def test_different_plans_fingerprint_differently(self):
        a, _ = run_cluster(faults="crash:node=0,at=1e-3")
        b, _ = run_cluster(faults="crash:node=1,at=1e-3")
        assert a.fingerprint() != b.fingerprint()


class TestClusterDataPlane:
    def test_crashed_cluster_same_fingerprint_under_the_pool(self):
        plan = "crash:node=1,at=2e-3"
        sequential, _ = run_cluster(faults=plan, count=12)
        pooled, _ = run_cluster(
            faults=plan,
            count=12,
            serve=ServeConfig(parallel="process", workers=2),
        )
        assert sequential.counters["cluster.node_faults_injected"] == 1
        assert pooled.fingerprint() == sequential.fingerprint()

    def test_serve_bench_passes_parallel_flags_to_the_cluster(
        self, monkeypatch
    ):
        from repro.harness import serving

        seen = []

        def fake_drive(graphs, arrivals, config, **kwargs):
            seen.append(config)
            return serving.Served(report=None, tracer=None, wall_s=0.0)

        monkeypatch.setattr(serving, "drive", fake_drive)
        serving.serve_bench(
            requests=2, cluster="2,1|1", parallel="process", workers=2
        )
        (config,) = seen
        assert isinstance(config, ClusterConfig)
        assert config.serve.parallel == "process"
        assert config.serve.workers == 2


# -- the property test -----------------------------------------------------


class TestClusterChaosProperty:
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_node_plans_replay_bit_identical(self, seed):
        """Property (the tentpole's acceptance check): ANY seeded
        node-scoped fault plan over a 2-node cluster yields
        fingerprint-equal reports across two runs, every request
        reaches a terminal status, and completed results match
        serial."""
        plan = FaultPlan.random_nodes(seed, nodes=2, horizon=2e-3)
        first, submitted = run_cluster(
            faults=plan, count=6, seed=seed % 17
        )
        second, _ = run_cluster(faults=plan, count=6, seed=seed % 17)
        assert first.fingerprint() == second.fingerprint()
        by_id = assert_all_terminal(first, submitted)
        assert first.metrics.terminal == len(submitted)
        for request_id, graph in submitted:
            result = by_id[request_id]
            if not result.ok:
                continue
            for name, expected in execute_serial(graph).items():
                assert np.array_equal(result.outputs[name], expected)
