"""Command-line entry point: regenerate paper experiments.

Usage::

    python -m repro list
    python -m repro figure7 --scales 2 --iterations 3
    python -m repro table1
    python -m repro all --scales 1
    python -m repro serve-bench --tenants 4 --requests 100 \
        --fleet-size 2 --admission fair-share --placement least-loaded
    python -m repro serve-bench --cluster "2,1|2" --cluster-policy \
        spread --validate --serve-out BENCH_cluster.json
    python -m repro movement-bench --gpu "GTX 1660 Super" \
        --iterations 4 --fleet-gpus 2
    python -m repro serve-bench --trace-out trace.json
    python -m repro sim-bench --trace
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import (
    figure1,
    figure2,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    movement_bench,
    parallel_bench,
    serve_bench,
    sim_bench,
    table1,
)

_SCALED = {"figure7", "figure8", "figure9"}
_ITERATED = {
    "figure1", "figure7", "figure8", "figure9", "figure10",
    "figure11", "figure12",
}

EXPERIMENTS = {
    "figure1": (figure1, "hand-tuned CUDA speedup vs serial (motivation)"),
    "figure2": (figure2, "inferred DAG + stream assignment (ML pipeline)"),
    "table1": (table1, "memory footprints per benchmark per GPU"),
    "figure7": (figure7, "parallel vs serial GrCUDA speedup (headline)"),
    "figure8": (figure8, "GrCUDA vs CUDA Graphs baselines"),
    "figure9": (figure9, "fraction of contention-free peak"),
    "figure10": (figure10, "ML execution timeline with overlaps"),
    "figure11": (figure11, "CT/TC/CC/TOT overlap fractions"),
    "figure12": (figure12, "hardware metrics, serial vs parallel"),
    "serve-bench": (
        serve_bench,
        "multi-tenant serving throughput over a simulated GPU fleet",
    ),
    "movement-bench": (
        movement_bench,
        "data-movement x placement policy grid over the workloads"
        " (single GPU + fleet)",
    ),
    "sim-bench": (
        sim_bench,
        "engine micro-benchmarks: near-linear scaling + repricing bounds",
    ),
    "parallel-bench": (
        parallel_bench,
        "data-plane pool: fingerprint equality + speedup of"
        " --workers threads over one thread",
    ),
}

#: experiments that can run under the span tracer; ``--trace`` or
#: ``--trace-out`` on any other experiment is a usage error
TRACEABLE = ("serve-bench", "sim-bench", "movement-bench")

#: per-experiment default Chrome-trace artifact paths (bare ``--trace``;
#: serve-bench picks its own, TRACE_serving.json or TRACE_cluster.json)
DEFAULT_TRACE_PATHS = {
    "sim-bench": "TRACE_simulator.json",
    "movement-bench": "TRACE_movement.json",
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate the tables and figures of 'DAG-based Scheduling"
            " with Resource Sharing for Multi-task Applications in a"
            " Polyglot GPU Runtime' (IPDPS 2021) on the simulator."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "list"],
        help="which experiment to run ('list' to enumerate)",
    )
    parser.add_argument(
        "--scales",
        type=_positive_int,
        default=2,
        metavar="N",
        help="paper scale points per GPU for the sweep figures"
        " (default 2; the paper uses up to 5)",
    )
    parser.add_argument(
        "--iterations",
        type=_positive_int,
        default=3,
        metavar="N",
        help="iterations per benchmark execution (default 3)",
    )
    parser.add_argument(
        "--gpu",
        default="GTX 1660 Super",
        help="GPU model for the serving fleet / movement-policy sweep"
        " (default 'GTX 1660 Super')",
    )
    serving = parser.add_argument_group(
        "serve-bench options",
        "only used by the serve-bench experiment",
    )
    serving.add_argument(
        "--tenants",
        type=_positive_int,
        default=4,
        metavar="N",
        help="number of logical tenants (default 4)",
    )
    serving.add_argument(
        "--requests",
        type=_positive_int,
        default=100,
        metavar="N",
        help="task graphs submitted across all tenants (default 100)",
    )
    serving.add_argument(
        "--fleet-size",
        type=_positive_int,
        default=2,
        metavar="N",
        help="fleet slots, one GPU each (default 2; see --fleet for"
        " multi-GPU slots)",
    )
    serving.add_argument(
        "--fleet",
        default=None,
        metavar="SPEC",
        help="fleet topology as GPUs-per-slot, e.g. '2,2,1,1'"
        " (overrides --fleet-size; a slot's graphs span its GPUs)",
    )
    serving.add_argument(
        "--traffic",
        choices=["uniform", "skewed"],
        default="uniform",
        help="serving traffic mix (default uniform)",
    )
    serving.add_argument(
        "--movement-window",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="cross-acquire BATCHED coalescing window for every serving"
        " slot, on a fleet or a cluster (default 0 = per-acquire)",
    )
    serving.add_argument(
        "--serve-out",
        default=None,
        metavar="PATH",
        help="write the serving report summary as JSON (e.g."
        " BENCH_serving.json)",
    )
    serving.add_argument(
        "--admission",
        choices=["fifo", "priority", "fair-share"],
        default="fair-share",
        help="admission-control policy (default fair-share)",
    )
    serving.add_argument(
        "--placement",
        choices=["round-robin", "min-transfer", "least-loaded"],
        default="least-loaded",
        help="fleet placement policy (default least-loaded)",
    )
    serving.add_argument(
        "--validate",
        action="store_true",
        help="check every completed request's results against serial"
        " execution",
    )
    fault_plan = serving.add_mutually_exclusive_group()
    fault_plan.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="inject a deterministic fault plan, e.g."
        " 'crash:slot=1,at=2e-3;restart:slot=1,at=4e-3,warmup=5e-4'"
        " (kinds: crash, drain, restart, degrade, transfer-fault)",
    )
    fault_plan.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="generate a seeded random fault plan over the arrival"
        " horizon (mutually exclusive with --faults)",
    )
    serving.add_argument(
        "--deadline-us",
        type=float,
        default=None,
        metavar="US",
        help="per-request deadline, microseconds after arrival"
        " (default: no deadlines)",
    )
    serving.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="threads that compute the completed requests' kernels"
        " once the timing-only simulation drains (default: cpu_count;"
        " 1 runs one request after another); every width yields the"
        " same fingerprint",
    )
    serving.add_argument(
        "--chaos-grid",
        action="store_true",
        help="run the fault-tolerance chaos grid instead of a single"
        " serving run: every scenario twice (bit-identical reports"
        " asserted), completed requests validated against serial",
    )
    cluster = parser.add_argument_group(
        "cluster options",
        "multi-node serving: serve-bench with --cluster runs the"
        " cluster benchmark (global admission, node placement, priced"
        " host-to-host staging/readback)",
    )
    cluster.add_argument(
        "--cluster",
        default=None,
        metavar="SPEC",
        help="cluster topology as |-separated per-node fleet specs,"
        " e.g. '2,2,1,1|4|2,2' (turns serve-bench into the cluster"
        " benchmark; --faults takes node= scope, e.g."
        " 'crash:node=1,at=2e-3')",
    )
    cluster.add_argument(
        "--cluster-policy",
        choices=["bin-pack", "spread", "affinity"],
        default="spread",
        help="node-placement policy (default spread)",
    )
    cluster.add_argument(
        "--interconnect",
        choices=[
            "ethernet-10g", "ethernet-100g", "infiniband-hdr",
            "loopback",
        ],
        default="ethernet-100g",
        help="host-to-host link model pricing cross-node staging and"
        " readback (default ethernet-100g)",
    )
    cluster.add_argument(
        "--cluster-runs",
        type=_positive_int,
        default=2,
        metavar="N",
        help="replays per cluster benchmark; fingerprints must match"
        " across all of them (default 2)",
    )
    movement = parser.add_argument_group(
        "movement-bench options",
        "only used by the movement-bench experiment",
    )
    movement.add_argument(
        "--fleet-gpus",
        type=_nonnegative_int,
        default=2,
        metavar="N",
        help="GPUs in the fleet axis of the movement grid"
        " (default 2; 0 skips the fleet sweep)",
    )
    movement.add_argument(
        "--window",
        type=_nonnegative_int,
        default=4,
        metavar="N",
        help="cross-acquire BATCHED coalescing window for the windowed"
        " grid cells (default 4; 0 skips them)",
    )
    movement.add_argument(
        "--no-serving-axes",
        action="store_true",
        help="skip the serving execution x admission grid",
    )
    simbench = parser.add_argument_group(
        "sim-bench options",
        "only used by the sim-bench experiment",
    )
    simbench.add_argument(
        "--bench-out",
        default="BENCH_simulator.json",
        metavar="PATH",
        help="where to write the engine micro-benchmark results"
        " (default BENCH_simulator.json)",
    )
    obs = parser.add_argument_group(
        "observability options",
        "span tracing for serve-bench, sim-bench and movement-bench",
    )
    obs.add_argument(
        "--trace",
        action="store_true",
        help="record spans and write a Chrome-trace/Perfetto JSON next"
        " to the benchmark output (TRACE_<experiment>.json)",
    )
    obs.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="Chrome-trace output path (implies --trace)",
    )
    return parser


def run_experiment(name: str, args: argparse.Namespace) -> None:
    fn, _ = EXPERIMENTS[name]
    kwargs: dict = {"render": True}
    # --trace-out implies tracing; bare --trace picks the per-experiment
    # default artifact path.
    tracing = bool(
        getattr(args, "trace", False) or getattr(args, "trace_out", None)
    )
    trace_out = getattr(args, "trace_out", None) or (
        DEFAULT_TRACE_PATHS.get(name) if tracing else None
    )
    if name == "movement-bench":
        kwargs.update(
            gpu=args.gpu,
            iterations=args.iterations,
            fleet_gpus=args.fleet_gpus,
            window=args.window,
            serving_axes=not args.no_serving_axes,
            trace_out=trace_out,
        )
    if name == "sim-bench":
        kwargs.update(
            gpu=args.gpu, out_path=args.bench_out, trace_out=trace_out
        )
    if name == "serve-bench":
        if args.chaos_grid:
            from repro.harness.serving import chaos_grid

            chaos_grid(
                requests=args.requests,
                tenants=args.tenants,
                fleet=args.fleet or "1,1,1,1,1,1",
                gpu=args.gpu,
                deadline_us=args.deadline_us,
                render=True,
                bench_out=args.serve_out,
            )
            return
        kwargs.update(
            tenants=args.tenants,
            requests=args.requests,
            fleet_size=args.fleet_size,
            fleet=args.fleet,
            admission=args.admission,
            placement=args.placement,
            gpu=args.gpu,
            traffic=args.traffic,
            movement_window=args.movement_window,
            faults=args.faults,
            fault_seed=args.fault_seed,
            deadline_us=args.deadline_us,
            workers=args.workers,
            cluster=args.cluster,
            cluster_policy=args.cluster_policy,
            interconnect=args.interconnect,
            runs=args.cluster_runs if args.cluster else 1,
            validate=args.validate,
            bench_out=args.serve_out,
            trace=tracing,
            trace_out=trace_out,
        )
    if name == "parallel-bench":
        kwargs.update(
            requests=args.requests,
            tenants=args.tenants,
            fleet=args.fleet or "2,2,1,1",
            gpu=args.gpu,
            traffic=args.traffic,
            workers=args.workers,
            bench_out=args.serve_out,
        )
    if name in _SCALED:
        kwargs["scales_per_gpu"] = args.scales
    if name in _ITERATED:
        kwargs["iterations"] = args.iterations
    fn(**kwargs)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.chaos_grid and args.cluster:
        parser.error(
            "--chaos-grid runs the fleet chaos scenarios; it does not"
            " take --cluster"
        )
    if (args.trace or args.trace_out) and (
        args.experiment not in TRACEABLE or args.chaos_grid
    ):
        parser.error(
            "--trace/--trace-out record spans only for"
            f" {', '.join(TRACEABLE)} (not with --chaos-grid);"
            f" got {args.experiment!r}"
        )
    if args.experiment == "list":
        width = max(len(n) for n in EXPERIMENTS)
        for name, (_, desc) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {desc}")
        return 0
    if args.experiment == "all":
        # "all" means the paper's figures and tables; every benchmark
        # is opt-in.
        names = [
            n for n in EXPERIMENTS if n.startswith(("figure", "table"))
        ]
    else:
        names = [args.experiment]
    for name in names:
        run_experiment(name, args)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
