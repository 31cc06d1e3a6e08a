"""Tests for the benchmark framework plumbing itself."""

import collections
import gc

import numpy as np
import pytest

from repro.graphs.taskgraph import ArrayDecl
from repro.workloads import Mode, create_benchmark
from repro.workloads.suite import BENCHMARKS, default_scales
from repro.workloads.base import (
    FILL_CHUNK,
    _BaselineHost,
    fill_uniform,
    generate,
)
from repro.workloads.vec import VectorSquares
from repro.gpusim import Device, SimEngine, GTX1660_SUPER
from repro.memory import DeviceArray, MovementPolicy
from tests.workloads.conftest import TEST_SCALES


class TestArrayDecl:
    def test_nbytes_1d(self):
        assert ArrayDecl("a", 100, np.float32).nbytes == 400

    def test_nbytes_2d(self):
        assert ArrayDecl("a", (10, 20), np.float64).nbytes == 1600


class TestModeEnum:
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

    def test_rng_deterministic_per_iteration(self):
        bench = create_benchmark("vec", 100)
        a = bench.rng(3).uniform(size=5)
        b = bench.rng(3).uniform(size=5)
        c = bench.rng(4).uniform(size=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_refresh_execute_mode_copies_the_inputs(self):
        bench = create_benchmark("vec", 100, execute=True)
        arrays = {
            name: DeviceArray(decl.shape, dtype=decl.dtype, name=name)
            for name, decl in bench.graph().arrays.items()
        }
        bench.refresh(arrays, 0)
        data = generate(bench.inputs(0))
        assert list(data) == ["x", "y"]
        for name, values in data.items():
            assert np.array_equal(arrays[name].kernel_view, values)
        assert arrays["res"].kernel_view[0] == 0.0

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_timing_only_run_constructs_no_generator(self, name, monkeypatch):
        """A timing-only refresh only announces its writes, so no input
        generator may be built either (one ``default_rng`` costs about
        as much as simulating a kernel)."""
        built = []
        default_rng = np.random.default_rng

        def counting_rng(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        scale = default_scales(name, "GTX 1660 Super")[0]
        for mode in Mode:
            bench = create_benchmark(name, scale, iterations=2, execute=False)
            bench.run("GTX 1660 Super", mode)
        assert built == []

    def test_refresh_timing_mode_announces_without_generating(self):
        def boom():
            raise AssertionError("must not generate data in timing mode")

        class Untouchable(VectorSquares):
            def inputs(self, iteration):
                return {"x": boom, "y": boom}

        bench = Untouchable(100, execute=False)
        arrays = {
            name: DeviceArray(
                decl.shape, dtype=decl.dtype, name=name, materialize=False
            )
            for name, decl in bench.graph().arrays.items()
        }
        for arr in arrays.values():
            arr.mark_write(0)
        bench.refresh(arrays, 0)
        # Each write was still announced: the device copy invalidated.
        for name in ("x", "y"):
            assert arrays[name].migration_bytes(0) == arrays[name].nbytes
            assert arrays[name].host_valid
        assert not arrays["res"].host_valid


class TestFillUniform:
    @pytest.mark.parametrize("low, high", [
        (0.0, 1.0), (-1.0, 1.0), (20.0, 40.0), (-0.1, 0.1),
    ])
    @pytest.mark.parametrize("shape", [
        0, 1, FILL_CHUNK - 1, FILL_CHUNK, FILL_CHUNK + 1,
        3 * FILL_CHUNK + 5, (4000, 200),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_is_numpys_uniform_bit_for_bit(self, dtype, shape, low, high):
        filled_rng = np.random.default_rng(7)
        uniform_rng = np.random.default_rng(7)
        out = np.empty(shape, dtype)
        assert fill_uniform(filled_rng, low, high, out) is out
        want = uniform_rng.uniform(low, high, shape).astype(dtype)
        assert np.array_equal(out, want)
        # Same stream consumption: the next draw matches too.
        assert filled_rng.random() == uniform_rng.random()

    def test_rejects_a_non_contiguous_out(self):
        out = np.empty((4, 4))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            fill_uniform(np.random.default_rng(0), 0.0, 1.0, out)


class TestTaskGraphInputs:
    """``graph_from_benchmark`` adopts what ``inputs()`` generates."""

    @staticmethod
    def _vec_with(x):
        class Fixed(VectorSquares):
            def inputs(self, iteration):
                return {"x": lambda: x}

        return Fixed(4)

    def test_matching_data_is_adopted_read_only_without_a_copy(self):
        from repro.serve.workloads import graph_from_benchmark

        x = np.arange(4, dtype=np.float32)
        init = graph_from_benchmark(self._vec_with(x)).arrays["x"].init
        assert np.shares_memory(init, x)
        assert not init.flags.writeable
        assert x.flags.writeable  # the generator's array is left alone

    def test_dtype_is_converted_on_a_mismatch(self):
        from repro.serve.workloads import graph_from_benchmark

        x = np.arange(4, dtype=np.float64)
        init = graph_from_benchmark(self._vec_with(x)).arrays["x"].init
        assert init.dtype == np.float32
        assert np.array_equal(init, x)

    def test_shape_mismatch_raises(self):
        from repro.serve.workloads import graph_from_benchmark

        bench = self._vec_with(np.zeros(5, dtype=np.float32))
        with pytest.raises(ValueError, match="shape mismatch"):
            graph_from_benchmark(bench)
        arrays = {
            name: DeviceArray(decl.shape, dtype=decl.dtype, name=name)
            for name, decl in bench.graph().arrays.items()
        }
        with pytest.raises(ValueError, match="shape mismatch"):
            bench.refresh(arrays, 0)


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


def _cyclic_garbage(run) -> collections.Counter:
    """The objects ``run()`` leaves that only the cyclic garbage
    collector frees (reference cycles), counted by type."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return collections.Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class TestRunsFreeThemselves:
    """A finished run is freed by reference counting alone: its session,
    DAG, arrays, kernels, streams and launches form no reference
    cycle, so a grid of cells leaves the collector nothing to find."""

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_every_mode(self, mode, bench_name):
        bench = create_benchmark(
            bench_name, TEST_SCALES[bench_name], iterations=2, execute=False
        )
        assert _cyclic_garbage(lambda: bench.run("GTX 1660 Super", mode)) == {}

    def test_functional_parallel_run(self):
        bench = create_benchmark("b&s", 10_000, iterations=2)
        bench.run("GTX 1660 Super")  # loads the kernels' scipy first
        assert _cyclic_garbage(lambda: bench.run("GTX 1660 Super")) == {}

    @pytest.mark.parametrize(
        "knobs",
        [
            {"gpus": 2},
            {"movement": MovementPolicy.BATCHED, "movement_window": 4},
        ],
        ids=["2gpu", "batched-w4"],
    )
    def test_parallel_variants(self, knobs):
        bench = create_benchmark("img", 96, iterations=2, execute=False)
        assert _cyclic_garbage(
            lambda: bench.run("GTX 1660 Super", Mode.PARALLEL, **knobs)
        ) == {}
