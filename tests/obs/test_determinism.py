"""Three-way golden determinism: tracing *enabled*, *explicitly
disabled*, and *absent* (the null-tracer default) must produce
bit-identical simulation results and timelines — tracing observes the
schedule, never perturbs it."""

import numpy as np
import pytest

from repro.obs.trace import Tracer, use_tracer
from repro.serve import SchedulerService, ServeConfig
from repro.serve.workloads import mixed_workload_graphs
from repro.workloads import Mode
from repro.workloads.suite import create_benchmark, default_scales

GPU = "GTX 1660 Super"

#: the three tracer states of the acceptance criteria
VARIANTS = {
    "absent": lambda: None,
    "disabled": lambda: Tracer(enabled=False),
    "enabled": lambda: Tracer(),
}


def timeline_shape(timeline):
    """Comparable projection of a timeline (op_ids are process-global,
    so two identical runs differ on them by construction)."""
    return [
        (r.label, r.kind, r.stream_id, r.start, r.end, r.nbytes)
        for r in timeline.records
    ]


class TestWorkloadDeterminism:
    @pytest.mark.parametrize("name", ["vec", "ml"])
    def test_three_way_identical_runs(self, name):
        runs = {}
        for variant, make in VARIANTS.items():
            tracer = make()
            bench = create_benchmark(
                name,
                default_scales(name, GPU)[0],
                iterations=2,
                execute=True,
            )
            with use_tracer(tracer):
                runs[variant] = bench.run(GPU, Mode.PARALLEL)
        reference = runs["absent"]
        for variant in ("disabled", "enabled"):
            run = runs[variant]
            assert run.results == reference.results, variant
            assert run.elapsed == reference.elapsed, variant
            assert run.host_clock == reference.host_clock, variant
            assert timeline_shape(run.timeline) == timeline_shape(
                reference.timeline
            ), variant
        # the enabled run actually recorded something, the others not
        # (counter registries are identical either way)
        assert runs["enabled"].counters == reference.counters


class TestServingDeterminism:
    def _serve(self, tracer):
        service = SchedulerService(
            fleet_size=2, config=ServeConfig(), tracer=tracer
        )
        for t in ("alice", "bob", "carol"):
            service.register_tenant(t)
        graphs = mixed_workload_graphs(8, seed=5)
        submitted = []
        for i, graph in enumerate(graphs):
            submitted.append(
                service.submit(
                    ("alice", "bob", "carol")[i % 3],
                    graph,
                    arrival_time=i * 1e-4,
                )
            )
        report = service.run()
        by_id = {r.request_id: r for r in report.results}
        # request ids are process-global, so align by submission order
        return service, report, [by_id[rid] for rid in submitted]

    def test_three_way_identical_serving_replay(self):
        reports, services, ordered = {}, {}, {}
        for variant, make in VARIANTS.items():
            services[variant], reports[variant], ordered[variant] = (
                self._serve(make())
            )
        ref_service, ref = services["absent"], reports["absent"]
        for variant in ("disabled", "enabled"):
            report = reports[variant]
            assert report.metrics.makespan == ref.metrics.makespan, variant
            assert len(report.results) == len(ref.results)
            for res, want in zip(ordered[variant], ordered["absent"]):
                assert res.start_time == want.start_time, variant
                assert res.finish_time == want.finish_time, variant
                assert res.device_index == want.device_index, variant
                assert res.batch_size == want.batch_size, variant
                for out_name, expected in want.outputs.items():
                    assert np.array_equal(
                        res.outputs[out_name], expected
                    ), (variant, res.request_id, out_name)
            # per-slot device timelines, bit-for-bit (modulo op_ids)
            for slot, ref_slot in zip(
                services[variant].fleet.slots, ref_service.fleet.slots
            ):
                assert timeline_shape(
                    slot.engine.timeline
                ) == timeline_shape(ref_slot.engine.timeline), variant
            # the counter surface is part of the deterministic output
            assert report.counters == ref.counters, variant
        # only the enabled run recorded spans
        assert len(services["enabled"].tracer.events) > 0
        assert len(services["disabled"].tracer.events) == 0
