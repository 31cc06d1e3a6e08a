"""Tests for the benchmark framework plumbing itself."""

import numpy as np
import pytest

from repro.workloads import Mode, create_benchmark
from repro.workloads.base import ArraySpec, _BaselineHost
from repro.gpusim import Device, SimEngine, GTX1660_SUPER
from repro.memory import DeviceArray


class TestArraySpec:
    def test_nbytes_1d(self):
        assert ArraySpec(100, np.float32).nbytes == 400

    def test_nbytes_2d(self):
        assert ArraySpec((10, 20), np.float64).nbytes == 1600


class TestModeEnum:
    def test_grcuda_flags(self):
        assert Mode.SERIAL.is_grcuda
        assert Mode.PARALLEL.is_grcuda
        assert not Mode.GRAPH_MANUAL.is_grcuda
        assert not Mode.HANDTUNED.is_grcuda

    def test_five_modes(self):
        assert len(Mode) == 5


class TestBenchmarkPlumbing:
    def test_scale_validation(self):
        with pytest.raises(ValueError):
            create_benchmark("vec", 0)

    def test_dl_scale_rounded_even(self):
        bench = create_benchmark("dl", 65)
        assert bench.scale == 64

    def test_dl_too_small_rejected(self):
        with pytest.raises(ValueError):
            create_benchmark("dl", 3)

    def test_per_iteration(self):
        bench = create_benchmark("vec", 50_000, iterations=4)
        result = bench.run("1660", Mode.PARALLEL)
        assert result.per_iteration == pytest.approx(result.elapsed / 4)

    def test_rng_deterministic_per_iteration(self):
        bench = create_benchmark("vec", 100)
        a = bench.rng(3).uniform(size=5)
        b = bench.rng(3).uniform(size=5)
        c = bench.rng(4).uniform(size=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_record_and_read_inputs(self):
        bench = create_benchmark("vec", 100)
        bench.record_inputs(0, x=np.ones(3))
        bench.record_inputs(2, y=np.zeros(2))  # gap-filling
        assert list(bench.inputs(0)) == ["x"]
        assert list(bench.inputs(2)) == ["y"]
        assert bench.inputs(1) == {}

    def test_load_input_execute_mode_copies(self):
        bench = create_benchmark("vec", 100, execute=True)
        arr = DeviceArray(100, name="x")
        data = bench.load_input(
            0, arr, lambda: np.full(100, 7.0, dtype=np.float32), record="x"
        )
        assert data is not None
        assert arr.kernel_view[0] == 7.0
        assert "x" in bench.inputs(0)

    def test_load_input_timing_mode_skips_generation(self):
        bench = create_benchmark("vec", 100, execute=False)
        arr = DeviceArray(100, name="x", materialize=False)

        def boom():
            raise AssertionError("must not generate data in timing mode")

        assert bench.load_input(0, arr, boom) is None
        # The write was still announced: device copy invalidated.
        assert arr.migration_bytes(0) == arr.nbytes


class TestBaselineHost:
    def test_syncs_busy_engine_before_access(self):
        from repro.gpusim.ops import KernelOp, KernelResourceRequest

        engine = SimEngine(Device(GTX1660_SUPER))
        host = _BaselineHost(engine)
        arr = DeviceArray(100, name="a")
        arr.set_access_hook(host.hook)
        engine.submit(
            engine.default_stream,
            KernelOp(
                label="busy",
                resources=KernelResourceRequest(
                    flops=3.8e9, fp64=False, dram_bytes=0, l2_bytes=0,
                    instructions=0, threads_total=1 << 20,
                ),
            ),
        )
        assert not engine.idle
        arr[0] = 1.0
        assert engine.idle  # hook synchronized first

    def test_charges_readback_for_stale_host(self):
        engine = SimEngine(Device(GTX1660_SUPER))
        host = _BaselineHost(engine)
        arr = DeviceArray(1 << 20, name="a")
        arr.set_access_hook(host.hook)
        arr.mark_write(0)
        before = engine.clock
        _ = arr[0]
        assert engine.clock > before
        assert len(engine.timeline.transfers()) == 1

    def test_full_overwrite_skips_readback(self):
        engine = SimEngine(Device(GTX1660_SUPER))
        host = _BaselineHost(engine)
        arr = DeviceArray(1 << 20, name="a")
        arr.set_access_hook(host.hook)
        arr.mark_write(0)
        arr.copy_from_host(np.zeros(1 << 20, dtype=np.float32))
        assert engine.timeline.transfers() == []  # invalidate, not move
