"""Grid runner for the evaluation experiments."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.gpusim.specs import GPUSpec, gpu_by_name
from repro.workloads import Mode, RunResult, create_benchmark
from repro.workloads.suite import BENCHMARKS, default_scales

#: Iterations per execution; the paper uses 30 repetitions on real
#: hardware, where run-to-run variance exists.  The simulator is
#: deterministic, so a handful of iterations (which *do* matter — they
#: amortize one-time uploads) suffices.
DEFAULT_ITERATIONS = 4


@dataclass(frozen=True)
class ExperimentCell:
    """One (benchmark, gpu, scale, mode) measurement."""

    benchmark: str
    gpu: str
    scale: int
    mode: Mode
    block_size: int
    elapsed: float
    iterations: int
    stream_count: int
    result: RunResult = field(compare=False, repr=False)


def run_cell(
    benchmark: str,
    gpu: str | GPUSpec,
    scale: int,
    mode: Mode,
    iterations: int = DEFAULT_ITERATIONS,
    block_size: int = 256,
    execute: bool = False,
) -> ExperimentCell:
    """Execute one grid cell (timing-only by default)."""
    bench = create_benchmark(
        benchmark,
        scale,
        iterations=iterations,
        block_size=block_size,
        execute=execute,
    )
    result = bench.run(gpu, mode)
    spec = gpu_by_name(gpu) if isinstance(gpu, str) else gpu
    return ExperimentCell(
        benchmark=benchmark,
        gpu=spec.name,
        scale=scale,
        mode=mode,
        block_size=block_size,
        elapsed=result.elapsed,
        iterations=iterations,
        stream_count=result.stream_count,
        result=result,
    )


def sweep_cells(
    benchmarks: list[str] | None = None,
    gpus: list[str] | None = None,
    modes: list[Mode] | None = None,
    scales_per_gpu: int | None = None,
    iterations: int = DEFAULT_ITERATIONS,
    block_size: int = 256,
) -> list[ExperimentCell]:
    """Run the full (or truncated) benchmark grid.

    ``scales_per_gpu`` limits how many of the paper's scale points run
    per GPU (None = all that fit, per Table I).
    """
    benchmarks = benchmarks or sorted(BENCHMARKS)
    gpus = gpus or ["GTX 960", "GTX 1660 Super", "Tesla P100"]
    modes = modes or [Mode.SERIAL, Mode.PARALLEL]
    cells: list[ExperimentCell] = []
    for name in benchmarks:
        for gpu in gpus:
            scales = default_scales(name, gpu)
            if scales_per_gpu is not None:
                scales = scales[:scales_per_gpu]
            for scale in scales:
                for mode in modes:
                    cells.append(
                        run_cell(
                            name,
                            gpu,
                            scale,
                            mode,
                            iterations=iterations,
                            block_size=block_size,
                        )
                    )
    return cells


def write_json(path: str, payload: dict, render: bool = False) -> None:
    """Write one benchmark artifact as indented JSON, replacing the file
    (and say so when rendering)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    if render:
        print(f"wrote {path}")
