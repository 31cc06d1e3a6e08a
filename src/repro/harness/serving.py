"""The ``serve-bench`` experiment: serving throughput under mixed load.

Not a paper figure — the serving-layer counterpart of the evaluation:
``tenants`` logical clients submit ``requests`` mixed task graphs (the
suite's workloads at serving scales) against a simulated GPU fleet, and
the report carries the service-level indicators a serving system is
judged on: p50/p95/p99 latency, sustained throughput, fleet utilization,
batching and capture-cache effectiveness.

The fleet is a **topology spec** — ``fleet="2,2,1,1"`` builds four
slots holding 2, 2, 1 and 1 GPUs: each slot is a real multi-GPU
session, so admitted graphs span the slot's devices under the in-slot
placement policy while the service-level policy picks slots.  A
``cluster`` spec (``"2,1|2"``) serves the same traffic on a multi-node
:class:`~repro.cluster.Cluster` instead: requests are admitted once
globally and placed across the nodes over a priced interconnect.
``bench_out`` writes the headline numbers to a JSON file (the CI
``serve-smoke`` and ``cluster-smoke`` artifacts).

Every serving scenario of the harness — serve-bench, the chaos grid,
parallel-bench and movement-bench's serving grid — runs through one
function, :func:`drive`.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster import (
    Cluster,
    ClusterConfig,
    ClusterReport,
    parse_cluster_spec,
)
from repro.core.policies import (
    AdmissionPolicy,
    DevicePlacementPolicy,
    SchedulerConfig,
)
from repro.faults import FaultPlan
from repro.harness.runner import write_json
from repro.memory.coherence import MovementPolicy
from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer
from repro.serve.fleet import parse_fleet_spec
from repro.serve.request import TaskGraph, execute_serial
from repro.serve.service import SchedulerService, ServeConfig, ServiceReport
from repro.serve.workloads import traffic_mix_graphs

#: default Chrome-trace artifact path when ``--trace`` is given bare
DEFAULT_TRACE_PATH = "TRACE_serving.json"
#: the same for a cluster run
CLUSTER_TRACE_PATH = "TRACE_cluster.json"


def _coerce(value, enum_cls):
    if isinstance(value, enum_cls):
        return value
    for member in enum_cls:
        if member.value == value or member.name.lower() == str(value).lower():
            return member
    raise ValueError(
        f"unknown {enum_cls.__name__} {value!r}; choose from"
        f" {[m.value for m in enum_cls]}"
    )


def report_summary(report: ServiceReport | ClusterReport) -> dict:
    """The headline numbers of one serving run as JSON-ready data."""
    m = report.metrics
    summary = {
        "requests": m.completed,
        "tenants": m.tenants,
        "makespan_s": m.makespan,
        "throughput_rps": m.throughput_rps,
        "latency_ms": {
            "p50": m.latency.p50 * 1e3,
            "p95": m.latency.p95 * 1e3,
            "p99": m.latency.p99 * 1e3,
            "worst": m.latency.worst * 1e3,
        },
        "shed": m.shed,
        "timed_out": m.timed_out,
        "failed": m.failed,
        "terminal": m.terminal,
        # The canonical replay-determinism digest: CI reads this one
        # field instead of recomputing digests ad hoc.
        "fingerprint": report.fingerprint(),
        "counters": dict(report.counters),
    }
    if isinstance(report, ClusterReport):
        link = report.config.interconnect
        return {
            "nodes": report.nodes,
            "policy": report.config.policy.value,
            "interconnect": link if isinstance(link, str) else link.name,
            **summary,
            "network": {
                "ops": report.counters.get("cluster.net_ops", 0),
                "bytes": report.counters.get("cluster.net_bytes", 0),
                "stage_bytes": report.counters.get(
                    "cluster.net_stage_bytes", 0
                ),
                "readback_bytes": report.counters.get(
                    "cluster.net_readback_bytes", 0
                ),
                "retries": report.counters.get("cluster.net_retries", 0),
            },
            "placements": report.counters.get("cluster.placements", 0),
            "replacements": report.counters.get("cluster.replacements", 0),
            "node_faults_injected": report.counters.get(
                "cluster.node_faults_injected", 0
            ),
            "per_node": {
                str(index): {
                    "requests": len(node_report.results),
                    "completed": node_report.metrics.completed,
                    "shed": node_report.metrics.shed,
                    "failed": node_report.metrics.failed,
                    "batches": node_report.metrics.batches,
                    "capture_hits": node_report.metrics.capture_hits,
                }
                for index, node_report in sorted(report.per_node.items())
            },
        }
    models = report.fleet.gpu_models()
    return {
        "fleet": report.fleet.topology,
        "total_gpus": report.fleet.total_gpus,
        "gpu": models[0] if len(models) == 1 else " + ".join(models),
        "slot_models": [
            [spec.name for spec in slot.session.specs]
            for slot in report.fleet.slots
        ],
        "admission": report.config.admission.value,
        "placement": report.fleet.policy.value,
        "parallel": report.config.parallel,
        "movement_window": report.config.scheduler.movement_window,
        **summary,
        "queue_wait_ms": {
            "p50": m.queue_wait.p50 * 1e3,
            "p95": m.queue_wait.p95 * 1e3,
        },
        "slot_utilization": list(m.device_utilization),
        "mean_utilization": m.mean_utilization,
        "batches": m.batches,
        "batched_requests": m.batched_requests,
        "capture_hits": m.capture_hits,
        "capture_misses": m.capture_misses,
        "window_flushes": report.counters.get(
            "coherence.window_flushes", 0
        ),
        "window_flush_causes": {
            name.rsplit(".", 1)[-1]: value
            for name, value in report.counters.items()
            if name.startswith("coherence.window_flush.")
        },
        "kernels_per_slot": report.fleet.kernel_counts(),
        # Contention-class engine health: serving workloads are many
        # short streams, so the class count staying far below the live
        # stream count is the end-to-end win of class-based pricing.
        # ``engine.classes`` is a per-engine high-watermark; the merge
        # sums it across fleet slots.
        "engine_classes_peak": report.counters.get("engine.classes", 0),
        "engine_repricings": report.counters.get("engine.repricings", 0),
        "engine_class_repricings": report.counters.get(
            "engine.class_repricings", 0
        ),
        "engine_heap_stale_drops": report.counters.get(
            "engine.heap_stale_drops", 0
        ),
    }


def poisson_traffic(
    requests: int, traffic: str, seed: int, mean_interarrival_us: float
) -> tuple[list[TaskGraph], list[float]]:
    """The standard serving traffic: ``requests`` graphs of the named mix
    and their seeded Poisson arrival times."""
    graphs = traffic_mix_graphs(requests, mix=traffic, seed=seed)
    rng = np.random.default_rng(seed)
    arrivals = itertools.accumulate(
        float(rng.exponential(mean_interarrival_us * 1e-6)) for _ in graphs
    )
    return graphs, list(arrivals)


@dataclass
class Served:
    """The reported replay of one driven serving scenario."""

    report: ServiceReport | ClusterReport
    #: the replay's own tracer (None when untraced)
    tracer: Tracer | None
    #: wall-clock seconds of the replay's ``run()`` (drain + report)
    wall_s: float


def drive(
    graphs: list[TaskGraph],
    arrivals: list[float],
    config: ServeConfig | ClusterConfig,
    *,
    topology: str | list,
    gpu: str = "GTX 1660 Super",
    tenants: int = 4,
    deadline_us: float | None = None,
    runs: int = 1,
    validate: bool = False,
    references: list[dict] | None = None,
    trace: bool = False,
) -> Served:
    """Serve ``graphs`` at ``arrivals`` and return the last replay.

    The front end is a :class:`~repro.cluster.Cluster` over the
    per-node ``topology`` for a :class:`ClusterConfig`, else a fleet
    :class:`SchedulerService` over the per-slot ``topology``.
    ``tenants`` clients (descending priorities) submit the graphs round
    robin; ``deadline_us`` gives every request an arrival-relative
    deadline.  The scenario runs ``runs`` times, each on a fresh front
    end with its own tracer, and the report fingerprints must be equal
    — a nondeterministic replay is a failed benchmark.  Every
    submission must reach a terminal status (asserted unconditionally).
    ``validate=True`` checks each completed request of the reported
    replay against executing its graph alone on a private serial
    runtime (or against ``references``, the serial outputs per graph,
    when a caller serves the same graphs repeatedly); the equal
    fingerprints cover the other replays' outputs.
    """
    if runs <= 0:
        raise ValueError("runs must be positive")
    served: Served | None = None
    for _ in range(runs):
        tracer = Tracer() if trace else None
        if isinstance(config, ClusterConfig):
            front = Cluster(topology, gpu=gpu, config=config, tracer=tracer)
        else:
            front = SchedulerService(
                fleet_topology=topology, gpu=gpu, config=config,
                tracer=tracer,
            )
        # Tenants with descending priorities: under the priority policy
        # tenant0 is the premium client, the rest queue behind it.
        for t in range(tenants):
            front.register_tenant(f"tenant{t}", priority=tenants - 1 - t)
        submitted = [
            (
                front.submit(
                    f"tenant{i % tenants}",
                    graph,
                    arrival_time=arrival,
                    deadline=(
                        arrival + deadline_us * 1e-6
                        if deadline_us is not None
                        else None
                    ),
                ),
                graph,
            )
            for i, (graph, arrival) in enumerate(zip(graphs, arrivals))
        ]
        t0 = time.perf_counter()
        report = front.run()
        wall = time.perf_counter() - t0
        if served is not None:
            expected, got = served.report.fingerprint(), report.fingerprint()
            if got != expected:
                raise AssertionError(
                    f"serving run is not deterministic:"
                    f" {expected[:16]} != {got[:16]}"
                )
        served = Served(report, tracer, wall)

    # The no-hang invariant: every submission reached a terminal status.
    by_id = {r.request_id: r for r in served.report.results}
    missing = [rid for rid, _ in submitted if rid not in by_id]
    if missing:
        raise AssertionError(
            f"{len(missing)} request(s) never reached a terminal"
            f" status: {missing[:10]}"
        )

    if validate:
        for i, (request_id, graph) in enumerate(submitted):
            result = by_id[request_id]
            if not result.ok:
                continue  # shed/timed-out/failed: nothing was delivered
            reference = (
                references[i]
                if references is not None
                else execute_serial(graph, gpu=gpu)
            )
            for name, expected in reference.items():
                if not np.array_equal(result.outputs[name], expected):
                    raise AssertionError(
                        f"request {request_id} ({graph.name}) output"
                        f" {name!r} diverges from serial execution"
                    )
    return served


def serve_bench(
    tenants: int = 4,
    requests: int = 100,
    fleet_size: int = 2,
    fleet: str | list[int] | None = None,
    admission: AdmissionPolicy | str = AdmissionPolicy.FAIR_SHARE,
    placement: DevicePlacementPolicy | str = (
        DevicePlacementPolicy.LEAST_LOADED
    ),
    gpu: str = "GTX 1660 Super",
    seed: int = 7,
    mean_interarrival_us: float = 120.0,
    traffic: str = "uniform",
    movement_window: int = 0,
    faults: str | FaultPlan | None = None,
    fault_seed: int | None = None,
    deadline_us: float | None = None,
    width_normalized: bool = True,
    parallel: str = "sequential",
    workers: int | None = None,
    cluster: str | list[list[int]] | None = None,
    cluster_policy: str = "spread",
    interconnect: str = "ethernet-100g",
    runs: int = 1,
    validate: bool = False,
    render: bool = False,
    bench_out: str | None = None,
    trace: bool = False,
    trace_out: str | None = None,
) -> ServiceReport | ClusterReport:
    """Run one serving benchmark (``runs`` replays, fingerprints
    asserted equal) and return its report.

    ``fleet`` is a topology spec — ``"2,2,1,1"`` or ``[2, 2, 1, 1]``
    GPUs per slot — overriding the flat ``fleet_size`` (which builds
    1-GPU slots); ``traffic`` names a serving mix from
    :data:`repro.serve.workloads.TRAFFIC_MIXES`; ``movement_window``
    sizes the coherence engine's cross-acquire BATCHED coalescing
    window.  ``validate=True`` re-executes every completed request's
    graph alone on a private serial runtime and asserts numerical
    equality — slow, but the ground-truth check the acceptance tests
    rely on.

    ``cluster`` is a ``|``-separated per-node topology spec
    (``"2,1|2"`` = node0 with slots of 2 and 1 GPUs, node1 with one
    2-GPU slot) and serves on a multi-node cluster instead of one
    fleet: ``cluster_policy`` picks the node scheduler (bin-pack /
    spread / affinity) and ``interconnect`` prices cross-node staging
    and readback.  Each node serves with ``admission`` and
    ``placement``; the fleet-only knobs (``movement_window``,
    ``width_normalized``) do not apply.

    ``trace`` (or a ``trace_out`` path, which implies it) records every
    span the service, fleet, coherence and engine layers emit and writes
    a Chrome-trace/Perfetto JSON next to the benchmark output: one
    process per fleet-slot device, one per-tenant request track, plus
    the raw tracer tracks.  The tracer is passed explicitly to the
    front end — never installed globally — so ``validate``'s private
    serial runtimes stay out of the trace, and only the reported
    replay's spans are written.

    ``faults`` injects a deterministic fault plan (a
    :class:`~repro.faults.FaultPlan` or its DSL string, e.g.
    ``"crash:slot=1,at=2e-3;restart:slot=1,at=4e-3"``, or
    ``"crash:node=1,at=2e-3"`` on a cluster); ``fault_seed`` instead
    *generates* a seeded chaos plan over the expected arrival horizon.
    ``deadline_us`` gives every request an arrival-relative deadline.
    Under faults, ``validate`` checks the *completed* requests against
    serial execution — shed / timed-out / failed requests have no
    outputs to check, but every submission must still reach a terminal
    status (asserted unconditionally).

    ``parallel`` selects where completed requests' kernels run
    (``sequential``: in-process; ``process``: a forked pool of
    ``workers``, default one per core), on a fleet or a cluster; every
    strategy produces the same fingerprint (see README "Parallel
    execution").
    """
    if tenants <= 0 or requests <= 0 or fleet_size <= 0:
        raise ValueError("tenants, requests and fleet_size must be positive")
    if faults is not None and fault_seed is not None:
        raise ValueError("pass either faults or fault_seed, not both")
    admission = _coerce(admission, AdmissionPolicy)
    placement = _coerce(placement, DevicePlacementPolicy)
    # An unknown traffic mix raises inside traffic_mix_graphs below.
    if isinstance(cluster, str):
        cluster = parse_cluster_spec(cluster)
    if isinstance(fleet, str):
        fleet = parse_fleet_spec(fleet)
    if fleet is None:
        fleet = [1] * fleet_size
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    if fault_seed is not None:
        # Horizon = the expected span of the arrival process, so seeded
        # faults actually land while the queue is live.
        horizon = requests * mean_interarrival_us * 1e-6
        faults = (
            FaultPlan.random(fault_seed, slots=len(fleet), horizon=horizon)
            if cluster is None
            else FaultPlan.random_nodes(
                fault_seed, nodes=len(cluster), horizon=horizon
            )
        )

    if cluster is None:
        # The window only has meaning under BATCHED movement: asking
        # for a coalescing window implies the policy, otherwise the
        # knob would be a silent no-op under the default eager
        # prefetcher.
        movement = MovementPolicy.BATCHED if movement_window > 0 else None
        config = ServeConfig(
            admission=admission,
            placement=placement,
            faults=faults,
            width_normalized=width_normalized,
            parallel=parallel,
            workers=workers,
            scheduler=SchedulerConfig(
                movement=movement, movement_window=movement_window
            ),
        )
    else:
        config = ClusterConfig(
            policy=cluster_policy,
            interconnect=interconnect,
            faults=faults,
            serve=ServeConfig(
                admission=admission,
                placement=placement,
                parallel=parallel,
                workers=workers,
            ),
        )
    graphs, arrivals = poisson_traffic(
        requests, traffic, seed, mean_interarrival_us
    )
    served = drive(
        graphs,
        arrivals,
        config,
        topology=fleet if cluster is None else cluster,
        gpu=gpu,
        tenants=tenants,
        deadline_us=deadline_us,
        runs=runs,
        validate=validate,
        trace=bool(trace or trace_out),
    )
    report = served.report

    if render:
        print(report.render())
        if runs > 1:
            print(
                f"\ndeterministic: {runs} runs fingerprint-equal"
                f" ({report.fingerprint()[:16]}...)"
            )
        if validate:
            done = sum(1 for r in report.results if r.ok)
            print(
                f"\nvalidated: all {done} completed requests match"
                " serial single-runtime execution"
                + (
                    f" ({requests - done} shed/timed-out/failed)"
                    if done < requests
                    else ""
                )
            )

    if bench_out:
        m = report.metrics
        summary = report_summary(report)
        summary.update(
            traffic=traffic,
            runs=runs,
            deterministic=True,
            hung_requests=0,
            validated=bool(validate),
        )
        if faults is not None:
            summary["faults"] = {
                "plan": faults.describe(),
                "seed": faults.seed,
                "shed": m.shed,
                "timed_out": m.timed_out,
                "failed": m.failed,
                "terminal": m.terminal,
                "submitted": requests,
                "injected": report.counters.get("faults.injected", 0),
                "retries": report.counters.get("faults.retries", 0),
                "replacements": report.counters.get(
                    "faults.replacements", 0
                ),
            }
        write_json(bench_out, summary, render)

    if served.tracer is not None:
        trace_path = trace_out or (
            DEFAULT_TRACE_PATH if cluster is None else CLUSTER_TRACE_PATH
        )
        write_chrome_trace(
            trace_path,
            served.tracer,
            results=report.results,
            other={
                "benchmark": "serve-bench",
                **(
                    {"fleet": report.fleet.topology}
                    if cluster is None
                    else {
                        "cluster": report.nodes,
                        "policy": report.config.policy.value,
                    }
                ),
                "gpu": gpu,
                "traffic": traffic,
                "requests": report.metrics.completed,
            },
        )
        if render:
            print(f"wrote {trace_path}")
    return report


#: the chaos-grid scenarios: deterministic fault plans over a 6-slot
#: fleet, written against the default serve-bench arrival process
#: (~60 requests x 120 us mean interarrival ~= a 7 ms horizon)
CHAOS_SCENARIOS: dict[str, str] = {
    # the acceptance scenario: 2 of 6 slots crash mid-run, no recovery
    "crash-2of6": "crash:slot=1,at=2e-3;crash:slot=4,at=3e-3",
    # node-drain protocol: in-flight work finishes, slot comes back
    "drain-restart": (
        "drain:slot=2,at=1.5e-3;restart:slot=2,at=3e-3,warmup=5e-4"
    ),
    # slow devices: two slots throttle mid-run
    "degrade": (
        "degrade:slot=0,at=1e-3,factor=2.5;"
        "degrade:slot=3,at=2e-3,factor=1.8"
    ),
    # transient transfer errors: three one-shot flakes, retried in place
    "transfer-flakes": (
        "transfer-fault:slot=0,at=1e-3;transfer-fault:slot=2,at=2e-3;"
        "transfer-fault:slot=5,at=3e-3"
    ),
    # total permanent blackout mid-run: the tail must shed, never hang
    "blackout-shed": ";".join(
        f"crash:slot={s},at=2.5e-3" for s in range(6)
    ),
}


def chaos_grid(
    requests: int = 60,
    tenants: int = 4,
    fleet: str = "1,1,1,1,1,1",
    gpu: str = "GTX 1660 Super",
    seed: int = 7,
    mean_interarrival_us: float = 120.0,
    deadline_us: float | None = None,
    render: bool = False,
    bench_out: str | None = None,
) -> dict:
    """The fault-tolerance acceptance grid: every chaos scenario runs
    **twice** (bit-identical reports asserted via
    :meth:`~repro.serve.service.ServiceReport.fingerprint`), every
    completed request validates against serial execution, and every
    submission must reach a terminal status.  Returns the grid summary
    and optionally writes it as ``{"chaos": grid}`` to ``bench_out``
    (replacing whatever the file held).
    """
    scenarios = {}
    for name, plan in CHAOS_SCENARIOS.items():
        report = serve_bench(
            tenants=tenants,
            requests=requests,
            fleet=fleet,
            gpu=gpu,
            seed=seed,
            mean_interarrival_us=mean_interarrival_us,
            faults=plan,
            deadline_us=deadline_us,
            runs=2,
            validate=True,
        )
        m = report.metrics
        scenarios[name] = {
            "plan": plan,
            "completed": m.completed,
            "shed": m.shed,
            "timed_out": m.timed_out,
            "failed": m.failed,
            "terminal": m.terminal,
            "injected": report.counters.get("faults.injected", 0),
            "retries": report.counters.get("faults.retries", 0),
            "replacements": report.counters.get("faults.replacements", 0),
            "fingerprint": report.fingerprint(),
            "deterministic": True,
            "validated": True,
        }
        if render:
            print(
                f"chaos {name:<16} completed={m.completed:>3}"
                f"  shed={m.shed:>3}  timed-out={m.timed_out:>3}"
                f"  failed={m.failed:>3}  (deterministic, validated)"
            )
    grid = {
        "requests": requests,
        "fleet": parse_fleet_spec(fleet),
        "seed": seed,
        "hung_requests": 0,
        "scenarios": scenarios,
    }
    if bench_out:
        write_json(bench_out, {"chaos": grid}, render)
    return grid
