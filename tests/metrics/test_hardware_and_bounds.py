"""Tests for hardware metrics, the contention-free bound, and stats."""

from dataclasses import replace

import pytest

from repro.errors import LaunchError
from repro.gpusim.specs import GTX1660_SUPER
from repro.kernels import LinearCostModel
from repro.metrics import (
    compute_hardware_metrics,
    contention_free_time,
    geomean,
    median,
)
from repro.metrics.stats import speedup
from repro.workloads import Mode, create_benchmark
from repro.workloads.vec import VectorSquares


class TestStats:
    def test_geomean_basic(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geomean_single(self):
        assert geomean([3.0]) == pytest.approx(3.0)

    def test_geomean_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_geomean_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even(self):
        assert median([4, 1, 2, 3]) == 2.5

    def test_median_empty_rejected(self):
        with pytest.raises(ValueError):
            median([])

    def test_speedup(self):
        assert speedup(2.0, 1.0) == 2.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)


class TestHardwareMetrics:
    def run(self, mode):
        bench = create_benchmark(
            "ml", 200_000, iterations=2, execute=False
        )
        return bench.run(GTX1660_SUPER, mode)

    def test_throughputs_positive(self):
        result = self.run(Mode.PARALLEL)
        hw = compute_hardware_metrics(result.timeline, GTX1660_SUPER)
        assert hw.dram_throughput_gbs > 0
        assert hw.l2_throughput_gbs > 0
        assert hw.ipc > 0
        assert hw.gflops > 0

    def test_counters_schedule_invariant(self):
        # "The amount of bytes read/written ... mostly depends on the
        # kernel itself": totals equal across schedulers.
        hw_s = compute_hardware_metrics(
            self.run(Mode.SERIAL).timeline, GTX1660_SUPER
        )
        hw_p = compute_hardware_metrics(
            self.run(Mode.PARALLEL).timeline, GTX1660_SUPER
        )
        assert hw_s.total_dram_bytes == pytest.approx(
            hw_p.total_dram_bytes
        )
        assert hw_s.total_instructions == pytest.approx(
            hw_p.total_instructions
        )

    def test_parallel_raises_throughput(self):
        # Fig. 12: benchmarks with compute overlap show higher device
        # throughput under parallel scheduling (same work, less time).
        hw_s = compute_hardware_metrics(
            self.run(Mode.SERIAL).timeline, GTX1660_SUPER
        )
        hw_p = compute_hardware_metrics(
            self.run(Mode.PARALLEL).timeline, GTX1660_SUPER
        )
        assert hw_p.dram_throughput_gbs > hw_s.dram_throughput_gbs
        assert hw_p.ipc > hw_s.ipc

    def test_ipc_below_peak(self):
        result = self.run(Mode.PARALLEL)
        hw = compute_hardware_metrics(result.timeline, GTX1660_SUPER)
        assert hw.ipc < GTX1660_SUPER.ipc_peak

    def test_empty_timeline(self):
        from repro.gpusim.timeline import Timeline

        hw = compute_hardware_metrics(Timeline(), GTX1660_SUPER)
        assert hw.dram_throughput_gbs == 0.0


class TestContentionFreeBound:
    @pytest.mark.parametrize(
        "name, scale",
        [("vec", 20_000_000), ("b&s", 2_000_000), ("img", 1_600)],
    )
    def test_bound_is_a_lower_bound(self, name, scale):
        bench = create_benchmark(name, scale, iterations=2, execute=False)
        result = bench.run("1660", Mode.PARALLEL)
        bound = contention_free_time(bench, "1660")
        assert 0 < bound <= result.elapsed * 1.02  # tiny numeric slack

    def test_ratio_in_unit_interval(self):
        bench = create_benchmark(
            "img", 1_600, iterations=2, execute=False
        )
        result = bench.run("1660", Mode.PARALLEL)
        ratio = contention_free_time(bench, "1660") / result.elapsed
        assert 0 < ratio <= 1.02

    def test_bs_far_from_bound(self):
        # Section V-E: "B&S ... achieves around 15-20% of its
        # contention-free peak performance" — ten chains collapse to a
        # one-chain critical path in the bound but serialize on the
        # shared FP64/PCIe resources in reality.
        bench = create_benchmark(
            "b&s", 8_000_000, iterations=2, execute=False
        )
        result = bench.run("1660", Mode.PARALLEL)
        ratio = contention_free_time(bench, "1660") / result.elapsed
        assert ratio < 0.45

    def test_vec_closer_to_bound(self):
        bench = create_benchmark(
            "vec", 20_000_000, iterations=2, execute=False
        )
        result = bench.run("1660", Mode.PARALLEL)
        ratio = contention_free_time(bench, "1660") / result.elapsed
        assert ratio > 0.4

    def test_invalid_price_fails_naming_the_kernel(self):
        """The bound binds each launch through its kernel, so a cost
        model that prices a launch invalidly fails it as a run does."""

        class NegativeSquare(VectorSquares):
            def graph(self):
                graph = super().graph()
                graph.kernels = tuple(
                    replace(k, cost=LinearCostModel(flops_per_item=-1.0))
                    if k.name == "square"
                    else k
                    for k in graph.kernels
                )
                return graph

        bench = NegativeSquare(100_000, iterations=2, execute=False)
        with pytest.raises(LaunchError, match="^square: .*flops"):
            bench.run("1660", Mode.PARALLEL)
        with pytest.raises(LaunchError, match="^square: .*flops"):
            contention_free_time(bench, "1660")

    def test_bound_scales_with_iterations(self):
        b2 = create_benchmark("vec", 1_000_000, iterations=2, execute=False)
        b4 = create_benchmark("vec", 1_000_000, iterations=4, execute=False)
        t2 = contention_free_time(b2, "1660")
        t4 = contention_free_time(b4, "1660")
        assert t4 > t2
