"""Fleet tests: multi-GPU serving slots, topology specs,
slot-keyed captures, deterministic placement and the cross-acquire
coalescing window on the serving path."""

import numpy as np
import pytest

from repro.core.policies import SchedulerConfig
from repro.gpusim.specs import gpu_by_name
from repro.memory.coherence import MovementPolicy
from repro.multigpu import DevicePlacementPolicy
from repro.serve import (
    GpuFleet,
    SchedulerService,
    ServeConfig,
    execute_serial,
    parse_fleet_spec,
)
from repro.serve.fleet import normalize_slot_spec
from repro.serve.workloads import mixed_workload_graphs


def serve_mixed(
    requests,
    tenants=4,
    fleet_topology=(2, 1),
    seed=13,
    spacing=1e-4,
    **config_kw,
):
    service = SchedulerService(
        fleet_topology=list(fleet_topology),
        config=ServeConfig(**config_kw),
    )
    graphs = mixed_workload_graphs(requests, seed=seed)
    submitted = []
    for i, graph in enumerate(graphs):
        submitted.append(
            (
                service.submit(
                    f"tenant{i % tenants}",
                    graph,
                    arrival_time=i * spacing,
                ),
                graph,
            )
        )
    report = service.run()
    return report, submitted


class TestTopologySpec:
    def test_parse_fleet_spec(self):
        assert parse_fleet_spec("2,2,1,1") == [2, 2, 1, 1]
        assert parse_fleet_spec("3") == [3]

    @pytest.mark.parametrize("bad", ["", "0", "2,-1", "a,b", "2,,x"])
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_fleet_spec(bad)

    def test_normalize_slot_spec_forms(self):
        spec = gpu_by_name("GTX 1660 Super")
        assert normalize_slot_spec(2, spec) == [spec, spec]
        assert normalize_slot_spec("GTX 1660 Super", spec) == [spec]
        assert normalize_slot_spec((2, "GTX 1660 Super"), spec) == [
            spec, spec,
        ]
        p100 = gpu_by_name("Tesla P100")
        assert normalize_slot_spec([spec, p100], spec) == [spec, p100]

    def test_normalize_rejects_empty_and_nonpositive(self):
        spec = gpu_by_name("GTX 1660 Super")
        with pytest.raises(ValueError):
            normalize_slot_spec(0, spec)
        with pytest.raises(ValueError):
            normalize_slot_spec([], spec)

    def test_normalize_rejects_non_spec_sequence_entries(self):
        """A nested topology list ([[2, 2]]) must fail loudly at
        validation, not deep inside slot construction."""
        spec = gpu_by_name("GTX 1660 Super")
        with pytest.raises(ValueError, match="GPU names or"):
            normalize_slot_spec([2, 2], spec)
        with pytest.raises(ValueError):
            GpuFleet([[2, 2]])

    def test_describe_reports_mixed_models(self):
        fleet = GpuFleet([2, (1, "Tesla P100")])
        text = fleet.describe()
        assert "mixed(" in text
        assert "Tesla P100" in text and "GTX 1660 Super" in text
        assert fleet.gpu_models() == ["GTX 1660 Super", "Tesla P100"]

    def test_fleet_topology_and_describe(self):
        fleet = GpuFleet([2, 2, 1, 1])
        assert fleet.topology == [2, 2, 1, 1]
        assert fleet.total_gpus == 6
        assert len(fleet) == 4
        assert fleet.describe().startswith("[2,2,1,1]x")
        # Each slot is one multi- or single-GPU engine.
        assert len(fleet.slots[0].engine.devices) == 2
        assert len(fleet.slots[2].engine.devices) == 1

    def test_build_with_gpus_per_slot(self):
        fleet = GpuFleet([2] * 3)
        assert fleet.topology == [2, 2, 2]

    def test_legacy_spec_list_still_means_one_gpu_slots(self):
        fleet = GpuFleet(["GTX 1660 Super", "GTX 1660 Super"])
        assert fleet.topology == [1, 1]


class TestHeterogeneousFleetResults:
    def test_100_graphs_4_tenants_match_serial_on_mixed_topology(self):
        """Acceptance: a mixed [2, 1] fleet serving 100 graphs across 4
        tenants is result-identical to the serial reference — multi-GPU
        slots never change numerics."""
        report, submitted = serve_mixed(100, tenants=4)
        assert report.metrics.completed == 100
        assert report.metrics.tenants == 4
        # Both slot shapes actually served traffic.
        slots_used = {r.device_index for r in report.results}
        assert slots_used == {0, 1}
        by_id = {r.request_id: r for r in report.results}
        for request_id, graph in submitted:
            reference = execute_serial(graph)
            result = by_id[request_id]
            for name, expected in reference.items():
                assert np.array_equal(result.outputs[name], expected), (
                    f"request {request_id} ({graph.name}) diverged on"
                    f" {name}"
                )

    def test_multi_slot_replay_matches_inference(self):
        """On a 2-GPU slot the capture-replay fast path must agree with
        the dependency-inference path bit for bit."""
        service = SchedulerService(
            fleet_topology=[2],
            config=ServeConfig(batch_window=0.0),
        )
        graphs = mixed_workload_graphs(4, seed=3, workloads=["vec"])
        submitted = [
            (service.submit("t0", g, arrival_time=i * 1e-3), g)
            for i, g in enumerate(graphs)
        ]
        report = service.run()
        ordered = sorted(report.results, key=lambda r: r.request_id)
        assert not ordered[0].replayed
        assert all(r.replayed for r in ordered[1:])
        by_id = {r.request_id: r for r in report.results}
        for request_id, graph in submitted:
            reference = execute_serial(graph)
            for name, expected in reference.items():
                assert np.array_equal(
                    by_id[request_id].outputs[name], expected
                )


class TestSlotKeyedCaptures:
    def test_one_plan_per_topology_per_slot_shape(self):
        """A [2, 1] fleet derives separate plans for the 2-GPU and the
        1-GPU slot even for the same graph topology."""
        service = SchedulerService(
            fleet_topology=[2, 1],
            config=ServeConfig(
                batch_window=0.0,
                placement=DevicePlacementPolicy.ROUND_ROBIN,
            ),
        )
        graphs = mixed_workload_graphs(6, seed=9, workloads=["vec"])
        for i, g in enumerate(graphs):
            service.submit("t", g, arrival_time=i * 1e-3)
        report = service.run()
        # Round-robin alternates slots: one topology x two slot shapes.
        assert len(service.cache) == 2
        assert {r.device_index for r in report.results} == {0, 1}

    def test_shape_key_distinguishes_count_and_model(self):
        fleet = GpuFleet([2, 1, (1, "Tesla P100")])
        keys = {slot.shape_key for slot in fleet.slots}
        assert len(keys) == 3


class TestDeterministicPlacement:
    def test_least_loaded_ties_resolve_in_slot_id_order(self):
        fleet = GpuFleet([1, 1, 1])
        graph = mixed_workload_graphs(1, workloads=["vec"])[0]
        from repro.serve.request import GraphRequest

        request = GraphRequest(tenant="t", graph=graph)
        # All slots idle at clock 0: the tie must break on slot id.
        assert fleet.choose(request).index == 0

    def test_serving_replay_is_reproducible(self):
        """Two identical serving runs under least-loaded placement make
        identical slot assignments and produce identical timings."""
        def run_once():
            report, _ = serve_mixed(
                18, tenants=3, fleet_topology=(2, 1, 1), seed=21
            )
            by_id = sorted(report.results, key=lambda r: r.request_id)
            return (
                [r.device_index for r in by_id],
                [r.finish_time for r in by_id],
            )

        slots_a, times_a = run_once()
        slots_b, times_b = run_once()
        assert slots_a == slots_b
        assert times_a == times_b


class TestServeBenchWindowKnob:
    def test_movement_window_flag_engages_batched_windowing(self):
        """Regression: ``serve_bench(movement_window=N)`` must actually
        run the windowed BATCHED policy — not silently keep the eager
        default and merely report the knob in the JSON summary."""
        from repro.harness.serving import report_summary, serve_bench

        report = serve_bench(
            tenants=2, requests=8, fleet="2,1", movement_window=4
        )
        assert report.config.scheduler.movement is (
            MovementPolicy.BATCHED
        )
        labels = [
            r.label
            for slot in report.fleet.slots
            for r in slot.engine.timeline.transfers()
        ]
        assert any("window[" in lab for lab in labels)
        assert report_summary(report)["movement_window"] == 4


class TestServingCoalescingWindow:
    def test_window_zero_bit_identical_to_per_acquire_batched(self):
        """Regression: ``movement_window=0`` must be bit-identical to
        per-acquire BATCHED on the serving path — same results, same
        timeline intervals, same makespan."""
        def run(window):
            report, submitted = serve_mixed(
                9,
                tenants=3,
                fleet_topology=(2, 1),
                scheduler=SchedulerConfig(
                    movement=MovementPolicy.BATCHED,
                    movement_window=window,
                ),
            )
            timelines = [
                [
                    (r.label, r.kind.value, r.start, r.end, r.nbytes)
                    for r in slot.engine.timeline
                ]
                for slot in report.fleet.slots
            ]
            outputs = {
                r.request_id: r.outputs
                for r in report.results
            }
            return timelines, outputs

        tl_plain, out_plain = run(0)
        # Re-running with window=0 again guards flakiness in the probe
        # itself, then the real comparison: the default BATCHED config.
        def run_default():
            report, _ = serve_mixed(
                9,
                tenants=3,
                fleet_topology=(2, 1),
                scheduler=SchedulerConfig(
                    movement=MovementPolicy.BATCHED,
                ),
            )
            return [
                [
                    (r.label, r.kind.value, r.start, r.end, r.nbytes)
                    for r in slot.engine.timeline
                ]
                for slot in report.fleet.slots
            ]

        assert tl_plain == run_default()

    def test_window_preserves_results_and_reduces_htod_ops(self):
        from repro.gpusim.timeline import IntervalKind

        def run(window):
            report, submitted = serve_mixed(
                12,
                tenants=3,
                fleet_topology=(2, 1),
                scheduler=SchedulerConfig(
                    movement=MovementPolicy.BATCHED,
                    movement_window=window,
                ),
            )
            htod = sum(
                1
                for slot in report.fleet.slots
                for r in slot.engine.timeline.transfers()
                if r.kind is IntervalKind.TRANSFER_HTOD
            )
            by_id = {r.request_id: r for r in report.results}
            # Request ids are a process-global counter: key outputs by
            # submission order so the two runs are comparable.
            outputs = [
                by_id[request_id].outputs for request_id, _ in submitted
            ]
            return htod, outputs

        htod_plain, outputs_plain = run(0)
        htod_win, outputs_win = run(6)
        assert htod_win <= htod_plain
        for plain, windowed in zip(outputs_plain, outputs_win):
            assert set(plain) == set(windowed)
            for name, value in plain.items():
                assert np.array_equal(value, windowed[name])
