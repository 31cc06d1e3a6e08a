#!/usr/bin/env python3
"""Scheduling-policy tour — every knob of section IV-C on one workload.

Runs the HITS benchmark under each policy combination and shows how the
choices the paper discusses (stream reuse, parent-stream inheritance,
prefetching) move the execution time and the stream count.

Run:  python examples/scheduling_policies.py
"""

from repro import (
    ExecutionPolicy,
    MovementPolicy,
    NewStreamPolicy,
    ParentStreamPolicy,
    SchedulerConfig,
)
from repro import Session
from repro.workloads import Mode, create_benchmark
from repro.workloads.base import Benchmark

SCALE = 2_000_000
GPU = "GTX 1660 Super"


def run_config(label: str, config: SchedulerConfig):
    bench = create_benchmark("hits", SCALE, iterations=3, execute=False)
    original = Benchmark._build_session
    Benchmark._build_session = (
        lambda self, gpu, *args, **knobs: Session(gpu=gpu, config=config)
    )
    try:
        result = bench.run(GPU, Mode.PARALLEL)
    finally:
        Benchmark._build_session = original
    print(
        f"  {label:44s} {result.elapsed * 1e3:8.1f} ms"
        f"   streams={result.stream_count}"
    )
    return result


def main() -> None:
    print(f"HITS ({SCALE:,} vertices) on a simulated {GPU}\n")

    print("execution policy:")
    serial = run_config(
        "SERIAL (original GrCUDA)",
        SchedulerConfig(execution=ExecutionPolicy.SERIAL),
    )
    parallel = run_config(
        "PARALLEL (this paper)",
        SchedulerConfig(execution=ExecutionPolicy.PARALLEL),
    )
    print(f"  -> speedup {serial.elapsed / parallel.elapsed:.2f}x\n")

    print("parent-stream policy (parallel scheduler):")
    run_config(
        "DISJOINT (first child inherits)",
        SchedulerConfig(parent_stream=ParentStreamPolicy.DISJOINT),
    )
    run_config(
        "SAME_AS_PARENT (all children on one stream)",
        SchedulerConfig(parent_stream=ParentStreamPolicy.SAME_AS_PARENT),
    )

    print("\nnew-stream policy:")
    run_config(
        "FIFO (reuse free streams)",
        SchedulerConfig(new_stream=NewStreamPolicy.FIFO),
    )
    run_config(
        "ALWAYS_NEW",
        SchedulerConfig(new_stream=NewStreamPolicy.ALWAYS_NEW),
    )

    print("\nmovement policy:")
    run_config(
        "default (scheduler prefetches, recommended)",
        SchedulerConfig(),
    )
    run_config(
        "PAGE_FAULT (the paper advises against)",
        SchedulerConfig(movement=MovementPolicy.PAGE_FAULT),
    )


if __name__ == "__main__":
    main()
