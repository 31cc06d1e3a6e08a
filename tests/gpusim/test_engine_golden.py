"""Bit-identity of the indexed engine against the frozen scan engine.

The event-heap refactor must not move a single simulated timestamp: the
heap jump is exact for piecewise-constant rates, the cached rates are a
pure function of the running set, and the per-step work accounting uses
the same floating-point operations in the same order.  These tests
compare the new :class:`repro.gpusim.engine.SimEngine` against
``reference_engine.ReferenceSimEngine`` (the verbatim pre-refactor
implementation) with **exact float equality** — no tolerances.
"""

import random

import pytest
from reference_engine import ReferenceSimEngine

from repro.gpusim import Device, GTX1660_SUPER, SimEngine
from repro.gpusim.ops import (
    KernelOp,
    KernelResourceRequest,
    TransferDirection,
    TransferOp,
)
from repro.obs.counters import CounterRegistry
from repro.obs.trace import NULL_TRACER
from repro.workloads import Mode, create_benchmark
from repro.workloads.suite import BENCHMARKS, default_scales


class ObservedReferenceEngine(ReferenceSimEngine):
    """The frozen engine as the runtime constructs and reads an engine:
    it takes ``tracer=`` and reports to the null tracer, and its
    counter registry stays empty.  The frozen file predates both."""

    def __init__(self, device, tracer=None) -> None:
        super().__init__(device)
        self.tracer = NULL_TRACER
        self.counters = CounterRegistry()


def _signature(timeline):
    """Order-normalized record tuples: same-instant zero-duration ops may
    drain in a different relative order across engines, but every
    (start, end, kind, stream, label, nbytes) tuple must match exactly."""
    return sorted(
        (
            (rec.start, rec.end, rec.kind.value, rec.stream_id,
             rec.label, rec.nbytes)
            for rec in timeline
        ),
    )


def _drive(engine_cls, seed, num_ops=150, num_streams=6):
    """One randomized engine-level program: kernels, transfers (both
    directions, including zero-byte instantaneous ones), event chains
    across streams, host-time charges (capped clock advances — the
    floating-point-critical path) and partial syncs.

    Every ``wait_event`` references an event whose record op was
    submitted strictly earlier, so the program is deadlock-free by
    construction.
    """
    rng = random.Random(seed)
    engine = engine_cls(Device(GTX1660_SUPER))
    streams = [engine.default_stream] + [
        engine.create_stream(label=f"s{i}") for i in range(num_streams - 1)
    ]
    events = []
    for i in range(num_ops):
        stream = rng.choice(streams)
        roll = rng.random()
        if roll < 0.40:
            engine.submit(
                stream,
                KernelOp(
                    label=f"k{i}",
                    resources=KernelResourceRequest(
                        flops=rng.uniform(1e7, 4e9),
                        fp64=rng.random() < 0.2,
                        dram_bytes=rng.uniform(0, 5e7),
                        l2_bytes=rng.uniform(0, 1e7),
                        instructions=rng.uniform(0, 1e8),
                        threads_total=rng.choice(
                            [256, 4096, 1 << 16, 1 << 20]
                        ),
                        sm_fraction_cap=rng.choice([1.0, 1.0, 0.5, 0.25]),
                    ),
                ),
            )
        elif roll < 0.55:
            engine.submit(
                stream,
                TransferOp(
                    label=f"t{i}",
                    direction=rng.choice(
                        [
                            TransferDirection.HOST_TO_DEVICE,
                            TransferDirection.DEVICE_TO_HOST,
                        ]
                    ),
                    nbytes=rng.choice([0.0, 4096.0, 1e6, 3e7]),
                ),
            )
        elif roll < 0.67:
            events.append(engine.record_event(stream, label=f"e{i}"))
        elif roll < 0.79 and events:
            engine.wait_event(stream, rng.choice(events))
        elif roll < 0.92:
            engine.charge_host_time(rng.uniform(0.0, 3e-4))
        elif roll < 0.96 and events:
            engine.sync_event(rng.choice(events))
        else:
            engine.sync_stream(rng.choice(streams))
    engine.sync_all()
    return engine


class TestEngineLevelGolden:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_programs_bit_identical(self, seed):
        new = _drive(SimEngine, seed)
        ref = _drive(ReferenceSimEngine, seed)
        assert new.clock == ref.clock  # exact, no approx
        assert len(new.timeline) == len(ref.timeline)
        assert _signature(new.timeline) == _signature(ref.timeline)

    def test_capped_advance_work_accounting_identical(self):
        """Host-time charges interrupt running ops mid-flight; the
        decrement-then-fresh-min arithmetic must match the legacy
        engine's to the last ulp."""

        def run(engine_cls):
            engine = engine_cls(Device(GTX1660_SUPER))
            s = engine.create_stream()
            op = KernelOp(
                label="k",
                resources=KernelResourceRequest(
                    flops=3.8e9,
                    fp64=False,
                    dram_bytes=1e7,
                    l2_bytes=0.0,
                    instructions=0.0,
                    threads_total=1 << 20,
                ),
            )
            engine.submit(s, op)
            # Many tiny irregular charges: each caps a step without
            # completing the kernel.
            for k in range(50):
                engine.charge_host_time(1.3e-5 + k * 1e-7)
            engine.sync_all()
            return engine.clock, op.end_time

        assert run(SimEngine) == run(ReferenceSimEngine)

    def test_churn_with_memo_off_bit_identical(self, monkeypatch):
        """sim-bench's churn is the one run known to switch the reprice
        memo off (at least 512 reprices, under 10% hits): about half of
        its reprices price with the memo off, and must still match the
        oracle to the last ulp."""
        from repro.harness import simbench

        new = simbench._churn_run(1000, 64, "GTX 1660 Super")
        monkeypatch.setattr(simbench, "SimEngine", ObservedReferenceEngine)
        ref = simbench._churn_run(1000, 64, "GTX 1660 Super")
        assert new.device.contention._price_memo is None
        assert new.clock == ref.clock
        assert _signature(new.timeline) == _signature(ref.timeline)

    def test_repricings_bounded_by_set_changes(self):
        engine = _drive(SimEngine, seed=3)
        assert engine.repricings <= engine.running_set_changes + 1
        assert engine.steps >= engine.repricings

    def test_reference_engine_reprices_per_step(self):
        """Sanity: the oracle still shows the legacy pathology the new
        engine fixes (otherwise these tests prove nothing)."""
        ref = _drive(ReferenceSimEngine, seed=3)
        new = _drive(SimEngine, seed=3)
        assert ref.repricings > new.repricings


class TestWorkloadSuiteGolden:
    """Full workload suite, both schedulers, on both engines."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    @pytest.mark.parametrize("mode", [Mode.SERIAL, Mode.PARALLEL])
    def test_workload_timelines_bit_identical(self, monkeypatch, name, mode):
        def run():
            scale = default_scales(name, "GTX 1660 Super")[0]
            bench = create_benchmark(name, scale, iterations=2)
            return bench.run("GTX 1660 Super", mode)

        res_new = run()
        monkeypatch.setattr(
            "repro.session.SimEngine", ObservedReferenceEngine
        )
        monkeypatch.setattr(
            "repro.workloads.base.SimEngine", ObservedReferenceEngine
        )
        res_ref = run()
        assert res_new.elapsed == res_ref.elapsed
        assert res_new.host_clock == res_ref.host_clock
        assert _signature(res_new.timeline) == _signature(res_ref.timeline)

    def test_graph_replay_timeline_bit_identical(self, monkeypatch):
        def run():
            scale = default_scales("vec", "GTX 1660 Super")[0]
            bench = create_benchmark("vec", scale, iterations=2)
            return bench.run("GTX 1660 Super", Mode.GRAPH_CAPTURE)

        res_new = run()
        monkeypatch.setattr(
            "repro.session.SimEngine", ObservedReferenceEngine
        )
        monkeypatch.setattr(
            "repro.workloads.base.SimEngine", ObservedReferenceEngine
        )
        res_ref = run()
        assert res_new.elapsed == res_ref.elapsed
        assert _signature(res_new.timeline) == _signature(res_ref.timeline)


class TestServingReplayGolden:
    def test_serving_report_bit_identical(self, monkeypatch):
        from repro.harness import serve_bench

        def run(engine_cls):
            report = serve_bench(
                tenants=3, requests=24, fleet_size=2, render=False
            )
            # The slots ran on the engine under comparison.
            assert all(
                type(slot.engine) is engine_cls for slot in report.fleet.slots
            )
            m = report.metrics
            return (
                m.makespan,
                m.throughput_rps,
                m.device_utilization,
                m.latency,
                m.queue_wait,
                tuple(
                    (r.tenant, r.arrival_time, r.start_time, r.finish_time)
                    for r in report.results
                ),
            )

        res_new = run(SimEngine)
        monkeypatch.setattr(
            "repro.serve.fleet.SimEngine", ObservedReferenceEngine
        )
        res_ref = run(ObservedReferenceEngine)
        assert res_new == res_ref
