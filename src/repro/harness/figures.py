"""Reproduction of every table and figure in the paper's evaluation.

Each function runs the necessary grid, returns structured data and — with
``render=True`` — prints rows shaped like the paper's plots.  Absolute
times come from the simulator, so the numbers to compare are the shapes:
who wins, by what factor, and where the crossovers are (see
EXPERIMENTS.md for paper-vs-measured).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.gpusim.specs import ALL_GPUS, GTX1660_SUPER
from repro.metrics import (
    compute_hardware_metrics,
    compute_overlaps,
    contention_free_time,
    geomean,
)
from repro.harness.runner import DEFAULT_ITERATIONS, run_cell
from repro.workloads import Mode, create_benchmark
from repro.workloads.suite import BENCHMARKS, default_scales

BENCH_ORDER = ["vec", "b&s", "img", "ml", "hits", "dl"]
GPU_NAMES = ["GTX 960", "GTX 1660 Super", "Tesla P100"]


@dataclass
class FigureData:
    """Result of one figure reproduction."""

    name: str
    rows: list[dict[str, Any]]
    summary: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        if not self.rows:
            return f"== {self.name}: no data =="
        cols = list(self.rows[0].keys())
        widths = {
            c: max(len(c), *(len(_fmt(r[c])) for r in self.rows))
            for c in cols
        }
        lines = [f"== {self.name} =="]
        lines.append("  ".join(c.ljust(widths[c]) for c in cols))
        for r in self.rows:
            lines.append(
                "  ".join(_fmt(r[c]).ljust(widths[c]) for c in cols)
            )
        for key, value in self.summary.items():
            lines.append(f"{key}: {_fmt(value)}")
        return "\n".join(lines)


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.3g}" if abs(v) < 1000 else f"{v:.4g}"
    return str(v)


def _mid_scale(name: str, gpu: str) -> int:
    scales = default_scales(name, gpu)
    return scales[min(1, len(scales) - 1)]


# ---------------------------------------------------------------------------
# Fig. 1 — achievable hand-tuned speedup (motivation)
# ---------------------------------------------------------------------------

def figure1(
    gpus: tuple[str, ...] = ("GTX 1660 Super", "Tesla P100"),
    iterations: int = DEFAULT_ITERATIONS,
    render: bool = False,
) -> FigureData:
    """Hand-tuned multi-stream CUDA speedup over serial execution.

    Paper: geomean 1.51x on the GTX 1660 Super, 1.62x on the P100.
    """
    rows = []
    per_gpu: dict[str, list[float]] = {g: [] for g in gpus}
    for name in BENCH_ORDER:
        row: dict[str, Any] = {"benchmark": name}
        for gpu in gpus:
            scale = _mid_scale(name, gpu)
            serial = run_cell(name, gpu, scale, Mode.SERIAL, iterations)
            tuned = run_cell(name, gpu, scale, Mode.HANDTUNED, iterations)
            sp = serial.elapsed / tuned.elapsed
            row[gpu] = sp
            per_gpu[gpu].append(sp)
        rows.append(row)
    data = FigureData(
        name="Figure 1: hand-tuned CUDA speedup vs serial",
        rows=rows,
        summary={
            f"geomean {g}": geomean(v) for g, v in per_gpu.items()
        },
    )
    if render:
        print(data.render())
    return data


# ---------------------------------------------------------------------------
# Table I — memory footprints
# ---------------------------------------------------------------------------

def table1(render: bool = False) -> FigureData:
    """Device-memory footprint ranges per benchmark per GPU."""
    rows = []
    for name in BENCH_ORDER:
        row: dict[str, Any] = {"benchmark": name}
        for spec in ALL_GPUS:
            scales = default_scales(name, spec)
            lo = BENCHMARKS[name](scales[0], execute=False)
            hi = BENCHMARKS[name](scales[-1], execute=False)
            row[spec.name] = (
                f"{lo.memory_footprint_bytes() / 1e9:.1f}-"
                f"{hi.memory_footprint_bytes() / 1e9:.1f} GB"
            )
        rows.append(row)
    rows.append(
        {
            "benchmark": "GPU memory",
            **{
                s.name: f"{s.device_memory_gb:.1f} GB" for s in ALL_GPUS
            },
        }
    )
    data = FigureData(name="Table I: memory footprints", rows=rows)
    if render:
        print(data.render())
    return data


# ---------------------------------------------------------------------------
# Figs. 2 & 6 — benchmark DAG structures with stream assignment
# ---------------------------------------------------------------------------

def figure2(
    benchmark: str = "ml",
    gpu: str = "GTX 1660 Super",
    render: bool = False,
) -> FigureData:
    """The computation DAG a benchmark induces, with the scheduler's
    stream assignment — Fig. 2's ML pipeline (and, for the other
    benchmark names, the corresponding panel of Fig. 6).

    The DAG is *inferred at run time* from argument usage; this function
    replays one iteration through the parallel scheduler and reports
    each kernel's stream plus the dependency edges with the array that
    caused them (Fig. 2's edge labels).
    """
    from repro.core.policies import SchedulerConfig
    from repro.session import Session

    bench = create_benchmark(benchmark, _mid_scale(benchmark, gpu),
                             iterations=1, execute=False)
    graph = bench.graph()
    rt = Session(gpu=gpu, config=SchedulerConfig())
    arrays = {
        name: rt.array(
            decl.shape, dtype=decl.dtype, name=name, materialize=False
        )
        for name, decl in graph.arrays.items()
    }
    kernels = {
        k.name: rt.build_kernel(lambda *a: None, k.name, k.signature, k.cost)
        for k in graph.kernels
    }
    bench.refresh(arrays, 0)
    for launch in graph.launches:
        kernels[launch.kernel](launch.grid, launch.block)(
            *launch.resolve(arrays)
        )
    rt.sync()
    rows = []
    kernel_elems = [v for v in rt.dag.vertices if v.is_kernel]
    for i, elem in enumerate(kernel_elems):
        parents = [
            (e.parent.label, e.array.name)
            for e in rt.dag.edges
            if e.child is elem and e.parent.is_kernel
        ]
        rows.append(
            {
                "#": i,
                "kernel": elem.label,
                "stream": (
                    elem.stream.label if elem.stream is not None else "-"
                ),
                "depends on": (
                    ", ".join(f"{p}({a})" for p, a in parents) or "-"
                ),
            }
        )
    data = FigureData(
        name=(
            f"Figure 2/6: inferred DAG and stream assignment"
            f" ({benchmark} on {gpu})"
        ),
        rows=rows,
        summary={
            "vertices": rt.dag.num_vertices,
            "edges": rt.dag.num_edges,
            "streams": len(
                {r["stream"] for r in rows if r["stream"] != "-"}
            ),
        },
    )
    if render:
        print(data.render())
    return data


# ---------------------------------------------------------------------------
# Fig. 7 — parallel vs serial GrCUDA scheduling
# ---------------------------------------------------------------------------

def figure7(
    scales_per_gpu: int | None = None,
    block_sizes: tuple[int, ...] = (256,),
    iterations: int = DEFAULT_ITERATIONS,
    render: bool = False,
) -> FigureData:
    """Parallel-scheduler speedup over the serial GrCUDA scheduler.

    Paper: geomean 44 % across the three GPUs (960: 25 %, P100: 61 %),
    "speedups are mostly independent of the input data size".
    """
    rows = []
    per_gpu: dict[str, list[float]] = {g: [] for g in GPU_NAMES}
    for name in BENCH_ORDER:
        for gpu in GPU_NAMES:
            scales = default_scales(name, gpu)
            if scales_per_gpu is not None:
                scales = scales[:scales_per_gpu]
            for scale in scales:
                for block in block_sizes:
                    serial = run_cell(
                        name, gpu, scale, Mode.SERIAL, iterations,
                        block_size=block,
                    )
                    par = run_cell(
                        name, gpu, scale, Mode.PARALLEL, iterations,
                        block_size=block,
                    )
                    sp = serial.elapsed / par.elapsed
                    per_gpu[gpu].append(sp)
                    rows.append(
                        {
                            "benchmark": name,
                            "gpu": gpu,
                            "scale": scale,
                            "block": block,
                            "serial_ms": serial.elapsed * 1e3,
                            "parallel_ms": par.elapsed * 1e3,
                            "speedup": sp,
                        }
                    )
    summary = {
        f"geomean {g}": geomean(v) for g, v in per_gpu.items() if v
    }
    summary["geomean all"] = geomean(
        [v for vs in per_gpu.values() for v in vs]
    )
    data = FigureData(
        name="Figure 7: parallel vs serial GrCUDA speedup",
        rows=rows,
        summary=summary,
    )
    if render:
        print(data.render())
    return data


# ---------------------------------------------------------------------------
# Fig. 8 — GrCUDA vs CUDA Graphs baselines
# ---------------------------------------------------------------------------

def figure8(
    scales_per_gpu: int | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    render: bool = False,
) -> FigureData:
    """GrCUDA parallel scheduler vs the three hand-optimized baselines.

    Paper: "never significantly slower than any of the CUDA Graphs
    baselines and often faster"; gaps vs the graph modes come from
    automatic prefetching, parity vs hand-tuned events.
    """
    baselines = [Mode.GRAPH_MANUAL, Mode.GRAPH_CAPTURE, Mode.HANDTUNED]
    rows = []
    per_baseline: dict[str, list[float]] = {m.value: [] for m in baselines}
    for name in BENCH_ORDER:
        for gpu in GPU_NAMES:
            scales = default_scales(name, gpu)
            if scales_per_gpu is not None:
                scales = scales[:scales_per_gpu]
            for scale in scales:
                grcuda = run_cell(
                    name, gpu, scale, Mode.PARALLEL, iterations
                )
                row: dict[str, Any] = {
                    "benchmark": name,
                    "gpu": gpu,
                    "scale": scale,
                    "grcuda_ms": grcuda.elapsed * 1e3,
                }
                for mode in baselines:
                    base = run_cell(name, gpu, scale, mode, iterations)
                    sp = base.elapsed / grcuda.elapsed
                    row[f"vs {mode.value}"] = sp
                    per_baseline[mode.value].append(sp)
                rows.append(row)
    data = FigureData(
        name="Figure 8: GrCUDA vs CUDA Graphs baselines"
        " (speedup of GrCUDA, >1 = GrCUDA faster)",
        rows=rows,
        summary={
            f"geomean vs {m}": geomean(v)
            for m, v in per_baseline.items()
        },
    )
    if render:
        print(data.render())
    return data


# ---------------------------------------------------------------------------
# Fig. 9 — contention-free bound
# ---------------------------------------------------------------------------

def figure9(
    scales_per_gpu: int | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    render: bool = False,
) -> FigureData:
    """Parallel execution relative to the contention-free bound.

    Paper: "relative execution time ... often around 70% of the
    contention-free performance bound"; B&S around 15-20 %.
    """
    rows = []
    ratios: dict[str, list[float]] = {b: [] for b in BENCH_ORDER}
    for name in BENCH_ORDER:
        for gpu in GPU_NAMES:
            scales = default_scales(name, gpu)
            if scales_per_gpu is not None:
                scales = scales[:scales_per_gpu]
            for scale in scales:
                bench = create_benchmark(
                    name, scale, iterations=iterations, execute=False
                )
                result = bench.run(gpu, Mode.PARALLEL)
                bound = contention_free_time(bench, gpu)
                ratio = bound / result.elapsed
                ratios[name].append(ratio)
                rows.append(
                    {
                        "benchmark": name,
                        "gpu": gpu,
                        "scale": scale,
                        "bound_ms": bound * 1e3,
                        "parallel_ms": result.elapsed * 1e3,
                        "ratio": ratio,
                    }
                )
    data = FigureData(
        name="Figure 9: fraction of contention-free peak (1.0 = no"
        " contention loss)",
        rows=rows,
        summary={
            f"mean {b}": sum(v) / len(v)
            for b, v in ratios.items()
            if v
        },
    )
    if render:
        print(data.render())
    return data


# ---------------------------------------------------------------------------
# Fig. 10 — example ML timeline
# ---------------------------------------------------------------------------

def figure10(
    gpu: str = "GTX 1660 Super",
    scale: int | None = None,
    iterations: int = 2,
    render: bool = False,
) -> FigureData:
    """One ML-ensemble execution timeline with its overlap metrics.

    Needs at least two iterations: the transfer/compute overlaps of the
    paper's timeline happen between a batch's upload and the previous
    batch's kernels.
    """
    scale = scale or _mid_scale("ml", gpu)
    bench = create_benchmark(
        "ml", scale, iterations=iterations, execute=False
    )
    result = bench.run(gpu, Mode.PARALLEL)
    overlaps = compute_overlaps(result.timeline)
    art = result.timeline.render_ascii(width=100)
    data = FigureData(
        name="Figure 10: ML execution timeline",
        rows=[
            {"metric": k, "percent": v}
            for k, v in overlaps.as_percentages().items()
        ],
        summary={"timeline": "\n" + art},
    )
    if render:
        print(data.render())
    return data


# ---------------------------------------------------------------------------
# Fig. 11 — overlap fractions
# ---------------------------------------------------------------------------

def figure11(
    iterations: int = DEFAULT_ITERATIONS,
    render: bool = False,
) -> FigureData:
    """CT/TC/CC/TOT overlap per benchmark per GPU, with the speedup."""
    rows = []
    for gpu in GPU_NAMES:
        for name in BENCH_ORDER:
            scale = _mid_scale(name, gpu)
            serial = run_cell(name, gpu, scale, Mode.SERIAL, iterations)
            par = run_cell(name, gpu, scale, Mode.PARALLEL, iterations)
            m = compute_overlaps(par.result.timeline)
            pct = m.as_percentages()
            rows.append(
                {
                    "gpu": gpu,
                    "benchmark": name,
                    "CT%": pct["CT"],
                    "TC%": pct["TC"],
                    "CC%": pct["CC"],
                    "TOT%": pct["TOT"],
                    "speedup": serial.elapsed / par.elapsed,
                }
            )
    data = FigureData(
        name="Figure 11: transfer/computation overlap per benchmark",
        rows=rows,
    )
    if render:
        print(data.render())
    return data


# ---------------------------------------------------------------------------
# Fig. 12 — hardware metrics
# ---------------------------------------------------------------------------

def figure12(
    gpu: str = "GTX 1660 Super",
    iterations: int = DEFAULT_ITERATIONS,
    render: bool = False,
) -> FigureData:
    """Device throughput / IPC / GFLOPS, serial vs parallel, on the GPU
    the paper had root access to (the GTX 1660 Super)."""
    spec = GTX1660_SUPER if gpu == "GTX 1660 Super" else None
    from repro.gpusim.specs import gpu_by_name

    spec = spec or gpu_by_name(gpu)
    rows = []
    for name in BENCH_ORDER:
        scale = _mid_scale(name, gpu)
        serial = run_cell(name, gpu, scale, Mode.SERIAL, iterations)
        par = run_cell(name, gpu, scale, Mode.PARALLEL, iterations)
        hw_s = compute_hardware_metrics(serial.result.timeline, spec)
        hw_p = compute_hardware_metrics(par.result.timeline, spec)
        rows.append(
            {
                "benchmark": name,
                "dram_serial_GB/s": hw_s.dram_throughput_gbs,
                "dram_parallel_GB/s": hw_p.dram_throughput_gbs,
                "l2_serial_GB/s": hw_s.l2_throughput_gbs,
                "l2_parallel_GB/s": hw_p.l2_throughput_gbs,
                "ipc_serial": hw_s.ipc,
                "ipc_parallel": hw_p.ipc,
                "gflops_serial": hw_s.gflops,
                "gflops_parallel": hw_p.gflops,
            }
        )
    data = FigureData(
        name=f"Figure 12: hardware metrics on the {spec.name}",
        rows=rows,
    )
    if render:
        print(data.render())
    return data
