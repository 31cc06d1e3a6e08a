"""Ablations of the scheduler's design choices (section IV-C).

* **Parent-stream policy** — DISJOINT (first child inherits, others get
  fresh streams) vs SAME_AS_PARENT (everything on the parent's stream):
  the simpler policy loses concurrency on branchy DAGs.
* **New-stream policy** — FIFO reuse vs ALWAYS_NEW: reuse keeps the
  stream count bounded with no performance cost.
* **Prefetching** — the parallel scheduler's default eager prefetch vs
  PAGE_FAULT movement: without prefetch, concurrent kernels
  bottleneck on the page-fault controller ("disabling automatic
  prefetching is not recommended", section V-C).
"""

import pytest

from repro import (
    ExecutionPolicy,
    MovementPolicy,
    NewStreamPolicy,
    ParentStreamPolicy,
    SchedulerConfig,
)
from repro.workloads import Mode, create_benchmark
from repro.workloads.base import Benchmark


def run_with_config(name, scale, config, iterations=3):
    bench = create_benchmark(
        name, scale, iterations=iterations, execute=False
    )
    original = Benchmark._build_session

    def patched(self, gpu, execution, movement=None, **session_knobs):
        from repro.session import Session

        return Session(gpu=gpu, config=config)

    Benchmark._build_session = patched
    try:
        return bench.run("GTX 1660 Super", Mode.PARALLEL)
    finally:
        Benchmark._build_session = original


class TestParentStreamPolicy:
    def test_same_as_parent_slower_on_branchy_dag(self, benchmark):
        disjoint = run_with_config(
            "img",
            3_200,
            SchedulerConfig(parent_stream=ParentStreamPolicy.DISJOINT),
        )

        def run_simple():
            return run_with_config(
                "img",
                3_200,
                SchedulerConfig(
                    parent_stream=ParentStreamPolicy.SAME_AS_PARENT
                ),
            )

        simple = benchmark.pedantic(run_simple, rounds=1, iterations=1)
        ratio = simple.elapsed / disjoint.elapsed
        print(
            f"\nIMG: SAME_AS_PARENT/DISJOINT time ratio = {ratio:.2f}x"
            f" (disjoint streams: {disjoint.stream_count},"
            f" simple: {simple.stream_count})"
        )
        assert ratio >= 1.0  # simpler policy never wins on time
        assert simple.stream_count <= disjoint.stream_count

    def test_same_as_parent_equal_on_chain_dag(self, benchmark):
        # VEC's join means only the two squares can overlap; the simple
        # policy still keeps the independent roots apart.
        disjoint = benchmark.pedantic(
            run_with_config,
            args=(
                "vec",
                20_000_000,
                SchedulerConfig(
                    parent_stream=ParentStreamPolicy.DISJOINT
                ),
            ),
            rounds=1,
            iterations=1,
        )
        simple = run_with_config(
            "vec", 20_000_000,
            SchedulerConfig(
                parent_stream=ParentStreamPolicy.SAME_AS_PARENT
            ),
        )
        assert simple.elapsed == pytest.approx(
            disjoint.elapsed, rel=0.15
        )


class TestNewStreamPolicy:
    def test_fifo_reuse_bounds_stream_count(self, benchmark):
        fifo = benchmark.pedantic(
            run_with_config,
            args=(
                "hits",
                4_000_000,
                SchedulerConfig(new_stream=NewStreamPolicy.FIFO),
            ),
            rounds=1,
            iterations=1,
        )
        fresh = run_with_config(
            "hits", 4_000_000,
            SchedulerConfig(new_stream=NewStreamPolicy.ALWAYS_NEW),
        )
        print(
            f"\nHITS streams: FIFO {fifo.stream_count},"
            f" ALWAYS_NEW {fresh.stream_count}"
        )
        assert fifo.stream_count <= fresh.stream_count
        # ...at no performance cost.
        assert fifo.elapsed == pytest.approx(fresh.elapsed, rel=0.1)


class TestPrefetchAblation:
    def test_pagefault_controller_bottleneck(self, benchmark):
        auto = benchmark.pedantic(
            run_with_config,
            args=(
                "b&s",
                8_000_000,
                SchedulerConfig(),
            ),
            rounds=1,
            iterations=1,
        )
        none = run_with_config(
            "b&s", 8_000_000,
            SchedulerConfig(movement=MovementPolicy.PAGE_FAULT),
        )
        slowdown = none.elapsed / auto.elapsed
        print(f"\nB&S without prefetch: {slowdown:.2f}x slower")
        assert slowdown > 1.3

    def test_unprefetched_parallel_still_beats_serial(self, benchmark):
        # "While still faster than the serial baseline, disabling
        # automatic prefetching is not recommended."
        none = benchmark.pedantic(
            run_with_config,
            args=(
                "vec",
                20_000_000,
                SchedulerConfig(movement=MovementPolicy.PAGE_FAULT),
            ),
            rounds=1,
            iterations=1,
        )
        serial = run_with_config(
            "vec", 20_000_000,
            SchedulerConfig(execution=ExecutionPolicy.SERIAL),
        )
        assert none.elapsed < serial.elapsed
