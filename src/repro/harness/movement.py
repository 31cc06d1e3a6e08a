"""Movement-policy sweep: the benchmark axis the coherence engine opens.

``python -m repro movement-bench`` runs each suite workload under every
:class:`~repro.memory.coherence.MovementPolicy` on the parallel
scheduler and prints a comparison table: device makespan, bytes moved by
engine-issued migrations (and, across GPUs, by peer mirrors), bytes left
to the page-fault engine, and the number of transfer operations (BATCHED
coalescing shows up here).  The BATCHED policy runs twice — per-acquire
(``window=0``) and with the cross-acquire submission window.

One sweep covers every GPU count: a multi-GPU session runs every
:class:`~repro.core.policies.DevicePlacementPolicy`, a single GPU (the
one-device case of the same session) its one default placement.  Per
workload and placement the sweep *asserts* the dominance relations —
eager prefetch is at least as fast as page faults on makespan (faults
serialize migration into the kernels; prefetch overlaps it), and the
op-count chain

    ``batched+window HtoD ops <= batched HtoD ops <= eager HtoD ops``

A serving grid covers the *serving* axes: execution policy {serial,
parallel} × admission {fifo, priority, fair-share} over both serving
traffic mixes (:data:`repro.serve.workloads.TRAFFIC_MIXES`), asserting
every request's outputs against private serial execution.

Functional invariant, asserted on every sweep: all policies produce
bit-identical workload results — they only decide *when*, *where* and
*in how many pieces* bytes move, never *which values* are computed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.policies import (
    AdmissionPolicy,
    DevicePlacementPolicy,
    ExecutionPolicy,
    SchedulerConfig,
)
from repro.harness.serving import drive
from repro.memory.coherence import MovementPolicy
from repro.serve.request import execute_serial
from repro.serve.service import ServeConfig
from repro.serve.workloads import traffic_mix_graphs
from repro.workloads import Mode
from repro.workloads.suite import create_benchmark, default_scales

DEFAULT_BENCHMARKS = ("vec", "b&s", "img", "ml")
#: makespans are simulated, not measured, so the dominance assertion
#: needs no statistical slack — only float-comparison headroom
DOMINANCE_RTOL = 1e-9
#: cross-acquire coalescing window the windowed-BATCHED cells run with
DEFAULT_WINDOW = 4


def _policy_variants(
    window: int,
) -> list[tuple[str, MovementPolicy, int]]:
    """(label, policy, movement_window) cells one sweep runs: the three
    policies per-acquire, plus windowed BATCHED when ``window > 0``."""
    variants = [(p.value, p, 0) for p in MovementPolicy]
    if window > 0:
        variants.append(
            (f"batched+w{window}", MovementPolicy.BATCHED, window)
        )
    return variants


@dataclass(frozen=True)
class MovementCell:
    """One (workload, placement, movement policy) measurement on
    ``gpus`` GPUs; the tallies are the run's ``coherence.*`` counters."""

    benchmark: str
    scale: int
    gpus: int
    placement: DevicePlacementPolicy
    policy: MovementPolicy
    elapsed: float
    #: engine-issued HtoD migration bytes
    moved_bytes: float
    #: device-to-device peer-mirror bytes
    d2d_bytes: float
    #: bytes left to the page-fault engine
    fault_bytes: float
    #: host-readback (DtoH) bytes
    dtoh_bytes: float
    #: engine-issued HtoD migration submissions
    htod_ops: int
    results: tuple[float, ...]
    #: display label (distinguishes windowed BATCHED from per-acquire)
    label: str
    #: cross-acquire coalescing window the cell ran with (0 = per-acquire)
    window: int


def sweep_movement_policies(
    benchmarks=DEFAULT_BENCHMARKS,
    gpu: str = "GTX 1660 Super",
    gpus: int = 1,
    iterations: int = 4,
    scale_index: int = 0,
    execute: bool = True,
    window: int = DEFAULT_WINDOW,
) -> list[MovementCell]:
    """Run ``benchmarks`` under every movement policy on a ``gpus``-GPU
    session of ``gpu``: every placement policy when ``gpus > 1``, the
    session's default placement on one GPU.

    Asserts, per (workload, placement):

    * all movement policies produce bit-identical results (and, across
      placements, the same results);
    * eager prefetch's makespan is no worse than page faults' (faults
      serialize the same bytes into the kernels, so overlap can only
      help);
    * the HtoD op-count chain — windowed batched <= batched <= eager.
    """
    placements = (
        list(DevicePlacementPolicy)
        if gpus > 1
        else [SchedulerConfig().resolve_placement()]
    )
    cells: list[MovementCell] = []
    for name in benchmarks:
        scales = default_scales(name, gpu)
        scale = scales[min(scale_index, len(scales) - 1)]
        reference: tuple[float, ...] | None = None
        for placement in placements:
            scope = f"{name}/{placement.value}"
            by_label: dict[str, MovementCell] = {}
            for label, policy, cell_window in _policy_variants(window):
                bench = create_benchmark(
                    name, scale, iterations=iterations, execute=execute
                )
                run = bench.run(
                    gpu, Mode.PARALLEL, movement=policy,
                    gpus=gpus, placement=placement,
                    movement_window=cell_window,
                )
                counters = run.counters
                cell = MovementCell(
                    benchmark=name,
                    scale=scale,
                    gpus=gpus,
                    placement=placement,
                    policy=policy,
                    elapsed=run.elapsed,
                    moved_bytes=float(counters["coherence.htod_bytes"]),
                    d2d_bytes=float(counters["coherence.d2d_bytes"]),
                    fault_bytes=float(counters["coherence.fault_bytes"]),
                    dtoh_bytes=float(counters["coherence.dtoh_bytes"]),
                    htod_ops=int(counters["coherence.htod_ops"]),
                    results=tuple(run.results),
                    label=label,
                    window=cell_window,
                )
                if reference is None:
                    reference = cell.results
                elif execute and cell.results != reference:
                    raise AssertionError(
                        f"{scope}: {label} results diverged across the"
                        " movement grid"
                    )
                by_label[label] = cell
                cells.append(cell)
            eager = by_label[MovementPolicy.EAGER_PREFETCH.value]
            fault = by_label[MovementPolicy.PAGE_FAULT.value]
            if eager.elapsed > fault.elapsed * (1 + DOMINANCE_RTOL):
                raise AssertionError(
                    f"{scope}: dominance violated —"
                    f" eager {eager.elapsed:.6e}s >"
                    f" fault {fault.elapsed:.6e}s"
                )
            batched = by_label[MovementPolicy.BATCHED.value]
            if batched.htod_ops > eager.htod_ops:
                raise AssertionError(
                    f"{scope}: batched issued {batched.htod_ops} HtoD ops"
                    f" > eager's {eager.htod_ops} — coalescing must never"
                    " add submissions"
                )
            windowed = by_label.get(f"batched+w{window}", batched)
            if windowed.htod_ops > batched.htod_ops:
                raise AssertionError(
                    f"{scope}: batched+w{window} issued"
                    f" {windowed.htod_ops} HtoD ops > per-acquire"
                    f" batched's {batched.htod_ops} — the submission"
                    " window must never split transfers"
                )
    return cells


@dataclass(frozen=True)
class ServingAxisCell:
    """One (traffic mix, execution policy, admission policy) serving
    measurement — every request validated against serial execution."""

    mix: str
    execution: ExecutionPolicy
    admission: AdmissionPolicy
    requests: int
    makespan: float
    throughput_rps: float
    p50: float
    p99: float
    batches: int
    capture_hits: int


def sweep_serving_axes(
    requests: int = 12,
    tenants: int = 3,
    fleet_size: int = 2,
    gpu: str = "GTX 1660 Super",
    mixes: tuple[str, ...] = ("uniform", "skewed"),
    seed: int = 11,
) -> list[ServingAxisCell]:
    """The serving grid: execution {serial, parallel} × admission
    {fifo, priority, fair-share} over the named traffic mixes.

    Every cell's per-request outputs are asserted equal to executing the
    same graph alone on a private serial runtime — scheduling and
    admission order must never change results.
    """
    cells: list[ServingAxisCell] = []
    for mix in mixes:
        graphs = traffic_mix_graphs(requests, mix=mix, seed=seed)
        arrivals = [i * 1e-4 for i in range(len(graphs))]
        references = [execute_serial(g, gpu=gpu) for g in graphs]
        for execution in (ExecutionPolicy.SERIAL, ExecutionPolicy.PARALLEL):
            for admission in AdmissionPolicy:
                report = drive(
                    graphs,
                    arrivals,
                    ServeConfig(
                        admission=admission,
                        scheduler=SchedulerConfig(execution=execution),
                    ),
                    topology=[1] * fleet_size,
                    gpu=gpu,
                    tenants=tenants,
                    validate=True,
                    references=references,
                ).report
                m = report.metrics
                cells.append(
                    ServingAxisCell(
                        mix=mix,
                        execution=execution,
                        admission=admission,
                        requests=m.completed,
                        makespan=m.makespan,
                        throughput_rps=m.throughput_rps,
                        p50=m.latency.p50,
                        p99=m.latency.p99,
                        batches=m.batches,
                        capture_hits=m.capture_hits,
                    )
                )
    return cells


def render_serving_table(cells: list[ServingAxisCell]) -> str:
    lines = [
        "Serving axes grid (execution x admission, per traffic mix)",
        "==========================================================",
        f"{'mix':<9} {'execution':<10} {'admission':<11} {'req':>4}"
        f" {'makespan ms':>12} {'req/s':>9} {'p50 ms':>8} {'p99 ms':>8}"
        f" {'batches':>8} {'hits':>5}",
    ]
    for cell in cells:
        lines.append(
            f"{cell.mix:<9} {cell.execution.value:<10}"
            f" {cell.admission.value:<11} {cell.requests:>4}"
            f" {cell.makespan * 1e3:>12.3f}"
            f" {cell.throughput_rps:>9.1f}"
            f" {cell.p50 * 1e3:>8.3f} {cell.p99 * 1e3:>8.3f}"
            f" {cell.batches:>8} {cell.capture_hits:>5}"
        )
    lines.append("")
    lines.append(
        "asserted per cell: every request's outputs equal private"
        " serial execution"
    )
    return "\n".join(lines)


def render_movement_table(cells: list[MovementCell]) -> str:
    gpus = cells[0].gpus if cells else 1
    # peer mirrors (D2D) only exist across GPUs
    d2d = gpus > 1
    lines = [
        f"Movement grid (placement x movement, {gpus} GPU"
        f"{'s' if gpus > 1 else ''})",
        "=================================================",
        f"{'benchmark':<10} {'placement':<14} {'policy':<16}"
        f" {'time ms':>10} {'moved MB':>9}"
        + (f" {'D2D MB':>8}" if d2d else "")
        + f" {'fault MB':>9} {'HtoD ops':>9}",
    ]
    for cell in cells:
        lines.append(
            f"{cell.benchmark:<10} {cell.placement.value:<14}"
            f" {cell.label:<16}"
            f" {cell.elapsed * 1e3:>10.3f}"
            f" {cell.moved_bytes / 1e6:>9.1f}"
            + (f" {cell.d2d_bytes / 1e6:>8.1f}" if d2d else "")
            + f" {cell.fault_bytes / 1e6:>9.1f}"
            f" {cell.htod_ops:>9}"
        )
    lines.append("")
    lines.append(
        "asserted per placement: results bit-identical across policies,"
        " eager makespan <= fault makespan,"
        " batched+window <= batched <= eager HtoD ops"
    )
    return "\n".join(lines)


def movement_bench(
    benchmarks=DEFAULT_BENCHMARKS,
    gpu: str = "GTX 1660 Super",
    iterations: int = 4,
    scale_index: int = 0,
    execute: bool = True,
    render: bool = False,
    fleet_gpus: int = 2,
    window: int = DEFAULT_WINDOW,
    serving_axes: bool = True,
    serving_requests: int = 12,
    trace_out: str | None = None,
) -> tuple[list[list[MovementCell]], list[ServingAxisCell]]:
    """The ``movement-bench`` experiment entry point: the movement sweep
    on one GPU and on ``fleet_gpus`` GPUs (``fleet_gpus`` below 2 skips
    the second), then the serving execution × admission grid over both
    traffic mixes (``serving_axes=False`` skips it).  Returns the cells
    of each sweep and of the serving grid.  ``trace_out`` additionally
    records one windowed-BATCHED run of the first workload with the span
    tracer installed and writes it as Chrome-trace JSON — the
    acquire/flush-window spans are the point of this trace."""
    sweeps = []
    for gpus in (1, fleet_gpus) if fleet_gpus > 1 else (1,):
        cells = sweep_movement_policies(
            benchmarks,
            gpu=gpu,
            gpus=gpus,
            iterations=iterations,
            scale_index=scale_index,
            execute=execute,
            window=window,
        )
        sweeps.append(cells)
        if render:
            print(render_movement_table(cells), end="\n\n")
    serving_cells: list[ServingAxisCell] = []
    if serving_axes:
        serving_cells = sweep_serving_axes(
            requests=serving_requests, gpu=gpu
        )
        if render:
            print(render_serving_table(serving_cells), end="\n\n")
    if trace_out:
        from repro.obs.export import write_chrome_trace
        from repro.obs.trace import Tracer, use_tracer

        name = benchmarks[0]
        scales = default_scales(name, gpu)
        scale = scales[min(scale_index, len(scales) - 1)]
        tracer = Tracer()
        bench = create_benchmark(
            name, scale, iterations=iterations, execute=execute
        )
        with use_tracer(tracer):
            bench.run(
                gpu, Mode.PARALLEL,
                movement=MovementPolicy.BATCHED,
                movement_window=window,
            )
        write_chrome_trace(
            trace_out,
            tracer,
            other={
                "benchmark": "movement-bench",
                "workload": name,
                "gpu": gpu,
                "movement": MovementPolicy.BATCHED.value,
                "movement_window": window,
            },
        )
        if render:
            print(f"wrote {trace_out}")
    return sweeps, serving_cells
