"""Unit + engine-integration tests for the span tracer."""

import pytest

from repro.gpusim.device import Device
from repro.gpusim.engine import SimEngine
from repro.gpusim.ops import KernelOp, KernelResourceRequest
from repro.gpusim.specs import gpu_by_name
from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    current_tracer,
    set_default_tracer,
    use_tracer,
)


def _kernel(label="k"):
    return KernelOp(
        label=label,
        resources=KernelResourceRequest(
            flops=1e8,
            fp64=False,
            dram_bytes=float(1 << 16),
            l2_bytes=0.0,
            instructions=0.0,
            threads_total=4096,
        ),
    )


def _engine(tracer=None, gpu="GTX 1660 Super"):
    return SimEngine(Device(gpu_by_name(gpu)), tracer=tracer)


class TestSpans:
    def test_span_records_virtual_interval_from_clock(self):
        tracer = Tracer()
        clock = iter([1.5, 4.0])
        with tracer.span("work", track="t", clock=lambda: next(clock)):
            pass
        (ev,) = tracer.events
        assert ev.ph == "X"
        assert ev.name == "work"
        assert ev.track == "t"
        assert ev.vt == 1.5
        assert ev.dur == 2.5
        assert ev.wall_dur >= 0.0

    def test_nesting_depths_and_close_order(self):
        tracer = Tracer()
        outer = tracer.span("outer", track="t")
        inner = tracer.span("inner", track="t")
        inner.close()
        outer.close()
        inner_ev, outer_ev = tracer.events
        assert inner_ev.name == "inner" and inner_ev.depth == 1
        assert outer_ev.name == "outer" and outer_ev.depth == 0
        # depth bookkeeping is per track
        other = tracer.span("elsewhere", track="u")
        other.close()
        assert tracer.events[-1].depth == 0

    def test_annotate_merges_attributes(self):
        tracer = Tracer()
        with tracer.span("s", track="t", policy="eager") as span:
            span.annotate(stale=3)
        (ev,) = tracer.events
        assert ev.attrs == {"policy": "eager", "stale": 3}

    def test_instant_and_complete(self):
        tracer = Tracer()
        tracer.instant("mark", track="t", vt=2.0, cause="x")
        tracer.complete("op", track="t", vt_start=1.0, vt_end=3.0)
        mark, op = tracer.events
        assert mark.ph == "i" and mark.vt == 2.0 and mark.dur == 0.0
        assert mark.attrs == {"cause": "x"}
        assert op.ph == "X" and op.vt == 1.0 and op.dur == 2.0

    def test_clear_and_len(self):
        tracer = Tracer()
        tracer.instant("a")
        assert len(tracer) == 1
        tracer.clear()
        assert len(tracer) == 0


class TestDisabledPaths:
    @pytest.mark.parametrize(
        "tracer", [NULL_TRACER, Tracer(enabled=False)]
    )
    def test_disabled_tracers_record_nothing(self, tracer):
        span = tracer.span("s", track="t")
        span.annotate(x=1)
        span.close()
        tracer.instant("i", track="t")
        tracer.complete("c", track="t", vt_start=0.0, vt_end=1.0)
        assert len(tracer.events) == 0
        assert tracer._depths == {}

    def test_disabled_span_is_the_shared_null_span(self):
        a = NULL_TRACER.span("a")
        b = Tracer(enabled=False).span("b")
        assert a is b  # zero allocation on the disabled path

    def test_disabled_attach_engine_is_a_noop(self):
        tracer = Tracer(enabled=False)
        engine = _engine(tracer=tracer)
        assert tracer.engines == []


class TestModuleDefault:
    def test_default_is_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_scopes_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_set_default_tracer_returns_previous(self):
        tracer = Tracer()
        prev = set_default_tracer(tracer)
        try:
            assert prev is NULL_TRACER
            assert current_tracer() is tracer
        finally:
            set_default_tracer(None)
        assert current_tracer() is NULL_TRACER


class TestEngineIntegration:
    def test_engine_picks_up_scoped_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            engine = _engine()
        assert engine.tracer is tracer
        assert tracer.engines == [engine]
        assert engine._obs_name == "engine0"

    def test_attach_engine_is_idempotent_and_keeps_name(self):
        tracer = Tracer()
        engine = _engine(tracer=tracer)
        engine._obs_name = "slot0"
        tracer.attach_engine(engine)
        assert tracer.engines == [engine]
        assert engine._obs_name == "slot0"

    def test_engine_ops_emit_spans_and_completes(self):
        tracer = Tracer()
        engine = _engine(tracer=tracer)
        stream = engine.create_stream(label="s")
        engine.submit(stream, _kernel("k0"))
        engine.sync_all()
        names = [e.name for e in tracer.events]
        assert "submit:k0" in names
        assert "start:k0" in names
        assert "sync_all" in names
        completes = [
            e for e in tracer.events if e.ph == "X" and e.name == "k0"
        ]
        assert len(completes) == 1
        # the op's virtual interval matches the timeline record exactly
        (rec,) = engine.timeline.kernels()
        assert completes[0].vt == rec.start
        assert completes[0].vt + completes[0].dur == rec.end

    def test_engine_counters_mirror_legacy_attributes(self):
        engine = _engine()
        stream = engine.create_stream(label="s")
        for i in range(3):
            engine.submit(stream, _kernel(f"k{i}"))
        engine.sync_all()
        assert engine.steps == engine.counters.get("engine.steps")
        assert engine.repricings == engine.counters.get("engine.repricings")
        assert engine.running_set_changes == engine.counters.get(
            "engine.running_set_changes"
        )
        assert engine.steps > 0
        assert engine.running_set_changes > 0
        assert isinstance(engine.steps, int)

    def test_tracing_does_not_change_the_schedule(self):
        def run(tracer):
            engine = _engine(tracer=tracer)
            streams = [engine.create_stream() for _ in range(2)]
            for i in range(8):
                engine.submit(streams[i % 2], _kernel(f"k{i}"))
            engine.sync_all()
            return engine

        def shape(engine):
            # op_ids come from a process-global counter, so project
            # them out: everything else must be bit-identical
            return [
                (r.label, r.kind, r.stream_id, r.start, r.end, r.nbytes)
                for r in engine.timeline.records
            ]

        plain = run(None)
        traced = run(Tracer())
        assert shape(plain) == shape(traced)
        assert plain.clock == traced.clock
