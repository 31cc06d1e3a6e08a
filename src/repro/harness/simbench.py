"""Simulator-substrate micro-benchmarks (``python -m repro sim-bench``).

Every figure, serving replay and movement sweep in this repository is
bottlenecked on the discrete-event engine, so this harness measures the
engine itself at several scales and *asserts* the two properties the
event-heap refactor establishes:

* **near-linear scaling** — growing the op count by K× may grow the
  wall-clock by at most ``2.5 * K`` (the pre-refactor engine was
  quadratic in ops × streams);
* **repricings grow with running-set changes, not steps** — rates are
  piecewise-constant, so an engine step that changes nothing must not
  re-price the running set;
* **throughput is flat in stream count** — the contention-class engine
  prices one rate per *class* rather than per op, so ops/sec from 8 to
  256 live streams may degrade at most 2× (the pre-class engine lost
  ~20× over the same span);
* **disabled tracing is free** — the observability layer's promise:
  running the same churn with a ``Tracer(enabled=False)`` instead of
  the default null tracer must cost under 5% extra wall-clock (the hot
  paths are guarded by a single ``tracer.enabled`` attribute read).

Each grid cell reports the **min wall-clock of five runs**, with the
repeats interleaved across the whole grid so that machine-load drift
hits every cell equally instead of biasing whichever cell ran while the
box was busy (single runs made the 200-op/64-stream cell look ~12%
slower than steady state purely from warm-up and scheduler noise).
Every timed grid run starts from a collected heap and no cell keeps
its engine, so a run never pays collector passes over other cells'
garbage.

Results are written to ``BENCH_simulator.json`` so the perf trajectory
of the substrate is recorded alongside the paper figures, with the
machine that measured it (core count, Python and numpy versions).
"""

from __future__ import annotations

import gc
import os
import platform
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.gpusim.device import Device
from repro.gpusim.engine import SimEngine
from repro.gpusim.ops import (
    KernelOp,
    KernelResourceRequest,
    TransferDirection,
    TransferOp,
)
from repro.gpusim.specs import gpu_by_name
from repro.harness.runner import write_json
from repro.obs.trace import Tracer

#: Wall-clock may grow at most this factor beyond linear in op count.
NEAR_LINEAR_FACTOR = 2.5

#: Default measurement grid (ops x streams).
DEFAULT_OPS_GRID = (200, 1000, 5000)
DEFAULT_STREAMS_GRID = (8, 64, 256)

#: Interleaved repeats each grid cell takes its min wall-clock over.
CELL_REPEATS = 5

#: ops/sec at the largest op count may degrade at most this factor from
#: the smallest to the largest stream count.
STREAMS_FLAT_LIMIT = 2.0

#: Disabled tracing may cost at most this relative wall-clock overhead.
DISABLED_OVERHEAD_LIMIT = 1.05
#: Absolute slack for the overhead comparison (timer jitter at small
#: op counts would otherwise dominate the 5% relative budget).
DISABLED_OVERHEAD_EPS_S = 2e-3
#: Interleaved repeats the overhead pair takes the per-variant min over
#: (more than the grid's: its two gated variants run the same code, so
#: only host noise separates their mins).
OVERHEAD_REPEATS = 20


@dataclass(frozen=True)
class SimBenchCell:
    """One engine micro-benchmark measurement.

    ``wall_s`` (and the derived ``ops_per_sec``) is the min over
    ``repeats`` interleaved runs; the simulation counters are from the
    last run — the churn is deterministic, so they are identical across
    repeats.
    """

    ops: int
    streams: int
    repeats: int
    wall_s: float
    sim_makespan_s: float
    steps: int
    repricings: int
    running_set_changes: int
    timeline_records: int
    classes: int
    class_repricings: int
    heap_stale_drops: int
    ops_per_sec: float


def _churn_run(
    num_ops: int,
    num_streams: int,
    gpu: str,
    tracer: Tracer | None = None,
) -> SimEngine:
    """Submit ``num_ops`` operations round-robin over ``num_streams``
    streams: a mix of kernels, transfers, cross-stream event waits and
    per-launch host-time charges — the same step pattern the scheduler
    and the serving layer impose on the engine."""
    engine = SimEngine(Device(gpu_by_name(gpu)), tracer=tracer)
    streams = [
        engine.create_stream(label=f"bench-{i}") for i in range(num_streams)
    ]
    last_event = None
    for i in range(num_ops):
        stream = streams[i % num_streams]
        if i % 11 == 7:
            engine.submit(
                stream,
                TransferOp(
                    label=f"t{i}",
                    direction=(
                        TransferDirection.HOST_TO_DEVICE
                        if i % 2
                        else TransferDirection.DEVICE_TO_HOST
                    ),
                    nbytes=float(1 << 18),
                ),
            )
        else:
            if last_event is not None and i % 7 == 3:
                # Cross-stream ordering: exercises the parked-head /
                # event-wakeup path (always acyclic: the record is
                # already submitted).
                engine.wait_event(stream, last_event)
            engine.submit(
                stream,
                KernelOp(
                    label=f"k{i}",
                    resources=KernelResourceRequest(
                        flops=1e8 + (i % 7) * 3e7,
                        fp64=False,
                        dram_bytes=float(1 << 16),
                        l2_bytes=0.0,
                        instructions=0.0,
                        threads_total=4096 * (1 + i % 4),
                    ),
                ),
            )
            if i % 13 == 5:
                last_event = engine.record_event(stream)
        # The scheduler charges host overhead per launch; this is what
        # produced the reprice-per-step pathology in the legacy engine.
        engine.charge_host_time(2e-7)
    engine.sync_all()
    return engine


def _measure_grid(
    ops_grid: tuple[int, ...],
    streams_grid: tuple[int, ...],
    gpu: str,
    repeats: int = CELL_REPEATS,
) -> list[SimBenchCell]:
    """Measure the full ops × streams grid, ``repeats`` times through,
    taking each cell's min wall-clock.  The repeats are interleaved —
    run the whole grid, then run it again — so a load spike degrades
    one pass of every cell rather than every pass of one cell."""
    keys = [
        (num_ops, num_streams)
        for num_streams in streams_grid
        for num_ops in ops_grid
    ]
    walls: dict[tuple[int, int], list[float]] = {key: [] for key in keys}
    summaries: dict[tuple[int, int], dict] = {}
    for _ in range(repeats):
        for key in keys:
            num_ops, num_streams = key
            # Start every timed run from a collected heap: no earlier
            # run's garbage is left for this run's collections to walk.
            gc.collect()
            t0 = time.perf_counter()
            engine = _churn_run(num_ops, num_streams, gpu)
            walls[key].append(time.perf_counter() - t0)
            summaries[key] = _summary(engine)
            del engine
    cells = []
    for key in keys:
        num_ops, num_streams = key
        wall = min(walls[key])
        cells.append(
            SimBenchCell(
                ops=num_ops,
                streams=num_streams,
                repeats=repeats,
                wall_s=wall,
                ops_per_sec=num_ops / wall if wall > 0 else float("inf"),
                **summaries[key],
            )
        )
    return cells


def _summary(engine: SimEngine) -> dict:
    """The simulation counters a :class:`SimBenchCell` reports: kept
    instead of the engine, so no cell's engine outlives its run."""
    counters = engine.counters
    return {
        "sim_makespan_s": engine.timeline.makespan,
        "steps": engine.steps,
        "repricings": engine.repricings,
        "running_set_changes": engine.running_set_changes,
        "timeline_records": len(engine.timeline),
        "classes": int(counters.get("engine.classes")),
        "class_repricings": int(counters.get("engine.class_repricings")),
        "heap_stale_drops": int(counters.get("engine.heap_stale_drops")),
    }


def _measure_overhead(
    num_ops: int,
    num_streams: int,
    gpu: str,
    repeats: int = OVERHEAD_REPEATS,
) -> dict:
    """The tracer-overhead cell pair: the same churn under the default
    null tracer (baseline), a constructed-but-disabled tracer, and a
    recording tracer.  Repeats are interleaved (so drift hits every
    variant equally), every timed run starts from a collected heap (so
    no collection of an earlier run's garbage lands in one variant's
    runs) and each variant reports its min wall-clock — the run least
    polluted by scheduler noise.

    The gated pair runs the same code: ``tracer=None`` resolves through
    ``current_tracer()`` to ``NULL_TRACER``, itself a
    ``Tracer(enabled=False)``, so "disabled" differs from "baseline"
    only in which instance it reads.  The gate therefore measures host
    noise between two mins of identical runs, and a failure is noise;
    more repeats per variant bring both mins closer to the floor."""
    walls: dict[str, list[float]] = {
        "baseline": [], "disabled": [], "enabled": []
    }
    span_count = 0
    for _ in range(repeats):
        for variant in walls:
            if variant == "baseline":
                tracer = None
            elif variant == "disabled":
                tracer = Tracer(enabled=False)
            else:
                tracer = Tracer()
            gc.collect()
            t0 = time.perf_counter()
            _churn_run(num_ops, num_streams, gpu, tracer=tracer)
            walls[variant].append(time.perf_counter() - t0)
            if variant == "enabled" and tracer is not None:
                span_count = len(tracer)
    baseline = min(walls["baseline"])
    disabled = min(walls["disabled"])
    enabled = min(walls["enabled"])
    limit = baseline * DISABLED_OVERHEAD_LIMIT + DISABLED_OVERHEAD_EPS_S
    return {
        "ops": num_ops,
        "streams": num_streams,
        "repeats": repeats,
        "baseline_wall_s": baseline,
        "disabled_wall_s": disabled,
        "enabled_wall_s": enabled,
        "disabled_ratio": disabled / max(baseline, 1e-9),
        "enabled_ratio": enabled / max(baseline, 1e-9),
        "enabled_events": span_count,
        "limit_ratio": DISABLED_OVERHEAD_LIMIT,
        "limit_wall_s": limit,
        "ok": disabled <= limit,
    }


def sim_bench(
    render: bool = True,
    gpu: str = "GTX 1660 Super",
    ops_grid: tuple[int, ...] = DEFAULT_OPS_GRID,
    streams_grid: tuple[int, ...] = DEFAULT_STREAMS_GRID,
    out_path: str | None = "BENCH_simulator.json",
    trace_out: str | None = None,
) -> dict:
    """Run the engine micro-benchmark grid and check its asymptotics.

    Raises ``AssertionError`` if scaling in op count regresses, if
    throughput degrades more than 2× from the smallest to the largest
    stream count, or if a disabled tracer costs more than 5% wall-clock
    over the untraced baseline;
    returns (and optionally writes) the structured results.
    ``trace_out`` additionally records one traced churn run and writes
    it as a Chrome-trace JSON.
    """
    if len(ops_grid) < 2 or len(set(ops_grid)) != len(ops_grid):
        raise ValueError(
            "ops_grid needs at least two distinct op counts to assert"
            f" scaling, got {ops_grid!r}"
        )
    if not streams_grid:
        raise ValueError("streams_grid must not be empty")
    ops_grid = tuple(sorted(ops_grid))
    # Warm-up: import costs, allocator pools, dict resizes.
    _churn_run(64, 4, gpu)

    cells = _measure_grid(ops_grid, streams_grid, gpu)

    near_linear = []
    for num_streams in streams_grid:
        group = {c.ops: c for c in cells if c.streams == num_streams}
        lo, hi = ops_grid[-2], ops_grid[-1]
        ops_ratio = hi / lo
        wall_ratio = group[hi].wall_s / max(group[lo].wall_s, 1e-9)
        near_linear.append(
            {
                "streams": num_streams,
                "ops_lo": lo,
                "ops_hi": hi,
                "ops_ratio": ops_ratio,
                "wall_ratio": wall_ratio,
                "limit": NEAR_LINEAR_FACTOR * ops_ratio,
                "ok": wall_ratio < NEAR_LINEAR_FACTOR * ops_ratio,
            }
        )

    repricings_bounded = [
        {
            "ops": c.ops,
            "streams": c.streams,
            "steps": c.steps,
            "repricings": c.repricings,
            "running_set_changes": c.running_set_changes,
            "ok": c.repricings <= c.running_set_changes + 1,
        }
        for c in cells
    ]

    # Streams-flatness: at the largest op count, ops/sec from the
    # smallest to the largest stream count.  The contention-class engine
    # prices per class, so the span must stay within STREAMS_FLAT_LIMIT.
    lo_streams, hi_streams = min(streams_grid), max(streams_grid)
    top_ops = ops_grid[-1]
    by_streams = {c.streams: c for c in cells if c.ops == top_ops}
    flat_ratio = by_streams[lo_streams].ops_per_sec / max(
        by_streams[hi_streams].ops_per_sec, 1e-9
    )
    streams_flatness = {
        "ops": top_ops,
        "streams_lo": lo_streams,
        "streams_hi": hi_streams,
        "ops_per_sec_lo": by_streams[lo_streams].ops_per_sec,
        "ops_per_sec_hi": by_streams[hi_streams].ops_per_sec,
        "ratio": flat_ratio,
        "limit": STREAMS_FLAT_LIMIT,
        "ok": lo_streams == hi_streams
        or flat_ratio <= STREAMS_FLAT_LIMIT,
    }

    # The tracer-overhead pair at the mid-grid scale: large enough that
    # per-op costs dominate timer jitter, small enough to stay cheap.
    overhead = _measure_overhead(ops_grid[-2], streams_grid[0], gpu)

    results = {
        # Artifact-format version: CI smoke jobs validate the required
        # keys against this before reading any numbers.
        "schema_version": 1,
        "benchmark": "sim-bench",
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "gpu": gpu,
        "near_linear_factor": NEAR_LINEAR_FACTOR,
        "cells": [asdict(c) for c in cells],
        "overhead": overhead,
        "assertions": {
            "near_linear": near_linear,
            "repricings_bounded": repricings_bounded,
            "streams_flatness": streams_flatness,
            "disabled_overhead": overhead,
        },
    }

    if render:
        print("sim-bench: engine micro-benchmarks", f"({gpu})")
        header = (
            f"{'ops':>6} {'streams':>7} {'wall [ms]':>10}"
            f" {'ops/s':>10} {'steps':>8} {'repricings':>10}"
            f" {'changes':>8} {'classes':>8}"
        )
        print(header)
        for c in cells:
            print(
                f"{c.ops:>6} {c.streams:>7} {c.wall_s * 1e3:>10.2f}"
                f" {c.ops_per_sec:>10.0f} {c.steps:>8}"
                f" {c.repricings:>10} {c.running_set_changes:>8}"
                f" {c.classes:>8}"
            )
        for check in near_linear:
            print(
                f"scaling @{check['streams']} streams:"
                f" {check['ops_lo']} -> {check['ops_hi']} ops,"
                f" wall x{check['wall_ratio']:.2f}"
                f" (limit x{check['limit']:.1f})"
                f" {'OK' if check['ok'] else 'FAIL'}"
            )
        print(
            f"streams flatness @{top_ops} ops:"
            f" {lo_streams} -> {hi_streams} streams,"
            f" ops/s x{1.0 / max(flat_ratio, 1e-9):.2f}"
            f" (ratio {flat_ratio:.2f}, limit"
            f" {STREAMS_FLAT_LIMIT:.1f})"
            f" {'OK' if streams_flatness['ok'] else 'FAIL'}"
        )
        print(
            f"tracer overhead @{overhead['ops']} ops"
            f" /{overhead['streams']} streams:"
            f" disabled x{overhead['disabled_ratio']:.3f}"
            f" enabled x{overhead['enabled_ratio']:.3f}"
            f" ({overhead['enabled_events']} events)"
            f" {'OK' if overhead['ok'] else 'FAIL'}"
        )

    if trace_out:
        from repro.obs.export import write_chrome_trace

        tracer = Tracer()
        _churn_run(ops_grid[0], streams_grid[0], gpu, tracer=tracer)
        write_chrome_trace(
            trace_out,
            tracer,
            other={
                "benchmark": "sim-bench",
                "gpu": gpu,
                "ops": ops_grid[0],
                "streams": streams_grid[0],
            },
        )
        if render:
            print(f"wrote {trace_out}")

    if out_path:
        write_json(out_path, results, render)

    for check in near_linear:
        assert check["ok"], (
            f"engine scaling regressed at {check['streams']} streams:"
            f" {check['ops_lo']}->{check['ops_hi']} ops grew wall-clock"
            f" {check['wall_ratio']:.2f}x (limit {check['limit']:.1f}x)"
        )
    assert streams_flatness["ok"], (
        f"engine throughput is not flat in stream count:"
        f" {lo_streams} -> {hi_streams} streams at {top_ops} ops"
        f" degraded ops/sec {flat_ratio:.2f}x"
        f" (limit {STREAMS_FLAT_LIMIT:.1f}x)"
    )
    for check in repricings_bounded:
        assert check["ok"], (
            f"repricings ({check['repricings']}) exceeded running-set"
            f" changes ({check['running_set_changes']}) at"
            f" {check['ops']} ops / {check['streams']} streams:"
            " the engine re-prices without a set change"
        )
    assert overhead["ok"], (
        f"disabled tracer overhead regressed:"
        f" {overhead['disabled_wall_s']:.4f}s vs"
        f" {overhead['baseline_wall_s']:.4f}s baseline"
        f" (x{overhead['disabled_ratio']:.3f}, limit"
        f" x{DISABLED_OVERHEAD_LIMIT} + {DISABLED_OVERHEAD_EPS_S}s)"
    )
    return results
