"""Functional correctness of every benchmark under every execution mode.

The key metamorphic property: all five schedulers must compute the exact
same results, and those results must match an independent numpy
reference.  Any dependency-inference bug breaks this.
"""

import pytest

from repro.workloads import Mode, create_benchmark
from tests.workloads.conftest import TEST_SCALES


def run_mode(name, mode, gpu="1660", iterations=2, **kw):
    bench = create_benchmark(
        name, TEST_SCALES[name], iterations=iterations, **kw
    )
    result = bench.run(gpu, mode)
    return bench, result


class TestAgainstReference:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_matches_reference(self, bench_name, mode):
        bench, result = run_mode(bench_name, mode)
        expected = [bench.reference(i) for i in range(bench.iterations)]
        for got, want in zip(result.results, expected):
            assert got == pytest.approx(want, rel=1e-4, abs=1e-5), (
                f"{bench_name} under {mode.value}"
            )

    @pytest.mark.parametrize("iteration", [0, 1])
    def test_reference_of_a_fresh_instance(self, bench_name, iteration):
        """``reference`` regenerates its inputs from the seed: it needs
        no earlier run of the same instance."""
        want = create_benchmark(
            bench_name, TEST_SCALES[bench_name], iterations=2, seed=11
        ).reference(iteration)
        _, result = run_mode(bench_name, Mode.SERIAL, seed=11)
        assert result.results[iteration] == pytest.approx(
            want, rel=1e-4, abs=1e-5
        )

    def test_all_modes_agree_exactly(self, bench_name):
        outcomes = {}
        for mode in Mode:
            _, result = run_mode(bench_name, mode)
            outcomes[mode] = tuple(result.results)
        baseline = outcomes[Mode.SERIAL]
        for mode, values in outcomes.items():
            assert values == baseline, f"{mode.value} diverged"


class TestAcrossGPUs:
    @pytest.mark.parametrize("gpu", ["960", "1660", "P100"])
    def test_results_gpu_independent(self, bench_name, gpu):
        bench, result = run_mode(bench_name, Mode.PARALLEL, gpu=gpu)
        expected = [bench.reference(i) for i in range(bench.iterations)]
        for got, want in zip(result.results, expected):
            assert got == pytest.approx(want, rel=1e-4, abs=1e-5)


class TestDeterminism:
    def test_same_seed_same_results(self, bench_name):
        _, r1 = run_mode(bench_name, Mode.PARALLEL)
        _, r2 = run_mode(bench_name, Mode.PARALLEL)
        assert r1.results == r2.results
        assert r1.elapsed == r2.elapsed  # virtual time is deterministic

    def test_different_seed_different_inputs(self, bench_name):
        _, r1 = run_mode(bench_name, Mode.PARALLEL, seed=1)
        _, r2 = run_mode(bench_name, Mode.PARALLEL, seed=2)
        assert r1.results != r2.results
