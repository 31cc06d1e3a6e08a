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
placement policy while the service-level policy picks slots.
``bench_out`` writes the headline numbers to a JSON file (the CI
``serve-smoke`` artifact).
"""

from __future__ import annotations

import json

import numpy as np

from repro.faults import FaultPlan
from repro.multigpu.scheduler import DevicePlacementPolicy
from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer
from repro.serve.admission import AdmissionPolicy
from repro.serve.fleet import parse_fleet_spec
from repro.serve.request import execute_serial, reset_request_ids
from repro.serve.service import SchedulerService, ServeConfig, ServiceReport
from repro.serve.workloads import traffic_mix_graphs

#: default Chrome-trace artifact path when ``--trace`` is given bare
DEFAULT_TRACE_PATH = "TRACE_serving.json"


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


def report_summary(report: ServiceReport) -> dict:
    """The headline numbers of one serving run as JSON-ready data."""
    m = report.metrics
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
        # The canonical replay-determinism digest: CI reads this one
        # field instead of recomputing digests ad hoc.
        "fingerprint": report.fingerprint(),
        "counters": dict(report.counters),
    }


def report_fingerprint(report: ServiceReport) -> str:
    """Deprecated alias for :meth:`ServiceReport.fingerprint` (the
    digest moved into :mod:`repro.serve.service` so serving, chaos and
    cluster checks share one canonical implementation)."""
    return report.fingerprint()


def _submit_traffic(
    service: SchedulerService,
    *,
    tenants: int,
    requests: int,
    traffic: str,
    seed: int,
    mean_interarrival_us: float,
    deadline_us: float | None = None,
) -> list[tuple[int, object]]:
    """Register ``tenants`` clients and submit the standard serving
    traffic: the named mix under seeded Poisson arrivals.  Returns the
    ``(request_id, graph)`` pairs in submission order — the shared
    arrival process of serve-bench, chaos-grid and parallel-bench.
    """
    # Tenants with descending priorities: under the priority policy
    # tenant0 is the premium client, the rest queue behind it.
    for t in range(tenants):
        service.register_tenant(f"tenant{t}", priority=tenants - 1 - t)

    graphs = traffic_mix_graphs(requests, mix=traffic, seed=seed)
    rng = np.random.default_rng(seed)
    arrival = 0.0
    submitted = []
    for i, graph in enumerate(graphs):
        arrival += float(
            rng.exponential(mean_interarrival_us * 1e-6)
        )
        submitted.append(
            (
                service.submit(
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
        )
    return submitted


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
    validate: bool = False,
    render: bool = False,
    bench_out: str | None = None,
    trace: bool = False,
    trace_out: str | None = None,
) -> ServiceReport:
    """Run one serving benchmark and return its report.

    ``fleet`` is a topology spec — ``"2,2,1,1"`` or ``[2, 2, 1, 1]``
    GPUs per slot — overriding the flat ``fleet_size`` (which builds
    1-GPU slots); ``traffic`` names a serving mix from
    :data:`repro.serve.workloads.TRAFFIC_MIXES`; ``movement_window``
    sizes the coherence engine's cross-acquire BATCHED coalescing
    window.  ``validate=True`` re-executes every request's graph alone
    on a private serial runtime and asserts numerical equality — slow,
    but the ground-truth check the acceptance tests rely on.

    ``trace`` (or a ``trace_out`` path, which implies it) records every
    span the service, fleet, coherence and engine layers emit and writes
    a Chrome-trace/Perfetto JSON next to the benchmark output: one
    process per fleet-slot device, one per-tenant request track, plus
    the raw tracer tracks.  The tracer is passed explicitly to the
    service — never installed globally — so ``validate``'s private
    serial runtimes stay out of the trace.

    ``faults`` injects a deterministic fault plan (a
    :class:`~repro.faults.FaultPlan` or its DSL string, e.g.
    ``"crash:slot=1,at=2e-3;restart:slot=1,at=4e-3"``);
    ``fault_seed`` instead *generates* a seeded chaos plan over the
    expected arrival horizon.  ``deadline_us`` gives every request an
    arrival-relative deadline.  Under faults, ``validate`` checks the
    *completed* requests against serial execution — shed / timed-out /
    failed requests have no outputs to check, but every submission must
    still reach a terminal status (asserted unconditionally).

    ``parallel`` selects the execution strategy for per-slot simulation
    (``sequential`` / ``process``) and ``workers`` caps
    the worker pool; every strategy produces the same fingerprint (see
    README "Parallel execution").
    """
    if tenants <= 0 or requests <= 0 or fleet_size <= 0:
        raise ValueError("tenants, requests and fleet_size must be positive")
    if faults is not None and fault_seed is not None:
        raise ValueError("pass either faults or fault_seed, not both")
    admission = _coerce(admission, AdmissionPolicy)
    placement = _coerce(placement, DevicePlacementPolicy)
    # An unknown traffic mix raises inside traffic_mix_graphs below.
    if isinstance(fleet, str):
        fleet = parse_fleet_spec(fleet)
    slot_count = len(fleet) if fleet is not None else fleet_size
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)
    if fault_seed is not None:
        # Horizon = the expected span of the arrival process, so seeded
        # faults actually land while the queue is live.
        faults = FaultPlan.random(
            fault_seed,
            slots=slot_count,
            horizon=requests * mean_interarrival_us * 1e-6,
        )

    from repro.core.policies import SchedulerConfig
    from repro.memory.coherence import MovementPolicy

    # The window only has meaning under BATCHED movement: asking for a
    # coalescing window implies the policy, otherwise the knob would be
    # a silent no-op under the default eager prefetcher.
    movement = MovementPolicy.BATCHED if movement_window > 0 else None
    tracer = Tracer() if (trace or trace_out) else None
    service = SchedulerService(
        fleet_size=fleet_size,
        fleet_topology=fleet,
        gpu=gpu,
        config=ServeConfig(
            admission=admission,
            placement=placement,
            faults=faults,
            width_normalized=width_normalized,
            parallel=parallel,
            workers=workers,
            scheduler=SchedulerConfig(
                movement=movement, movement_window=movement_window
            ),
        ),
        tracer=tracer,
    )
    submitted = _submit_traffic(
        service,
        tenants=tenants,
        requests=requests,
        traffic=traffic,
        seed=seed,
        mean_interarrival_us=mean_interarrival_us,
        deadline_us=deadline_us,
    )

    report = service.run()

    # The no-hang invariant: every submission reached a terminal status.
    by_id = {r.request_id: r for r in report.results}
    missing = [rid for rid, _ in submitted if rid not in by_id]
    if missing:
        raise AssertionError(
            f"{len(missing)} request(s) never reached a terminal"
            f" status: {missing[:10]}"
        )

    if validate:
        for request_id, graph in submitted:
            result = by_id[request_id]
            if not result.ok:
                continue  # shed/timed-out/failed: nothing was delivered
            reference = execute_serial(graph, gpu=gpu)
            for name, expected in reference.items():
                got = result.outputs[name]
                if not np.array_equal(got, expected):
                    raise AssertionError(
                        f"request {request_id} ({graph.name}) output"
                        f" {name!r} diverges from serial execution"
                    )

    if bench_out:
        summary = report_summary(report)
        summary["traffic"] = traffic
        summary["validated"] = bool(validate)
        if faults is not None:
            m = report.metrics
            summary["faults"] = {
                "plan": faults.describe(),
                "seed": faults.seed,
                "shed": m.shed,
                "timed_out": m.timed_out,
                "failed": m.failed,
                "terminal": m.terminal,
                "submitted": len(submitted),
                "injected": report.counters.get("faults.injected", 0),
                "retries": report.counters.get("faults.retries", 0),
                "replacements": report.counters.get(
                    "faults.replacements", 0
                ),
            }
        with open(bench_out, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

    trace_path: str | None = None
    if tracer is not None:
        trace_path = trace_out or DEFAULT_TRACE_PATH
        write_chrome_trace(
            trace_path,
            tracer,
            results=report.results,
            other={
                "benchmark": "serve-bench",
                "fleet": report.fleet.topology,
                "gpu": gpu,
                "traffic": traffic,
                "requests": report.metrics.completed,
            },
        )

    if render:
        print(report.render())
        if validate:
            done = sum(1 for r in report.results if r.ok)
            print(
                f"\nvalidated: all {done} completed requests match"
                " serial single-runtime execution"
                + (
                    f" ({len(submitted) - done} shed/timed-out/failed)"
                    if done < len(submitted)
                    else ""
                )
            )
        if bench_out:
            print(f"wrote {bench_out}")
        if trace_path:
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
    :func:`report_fingerprint`), every completed request validates
    against serial execution, and every submission must reach a
    terminal status.  Returns (and optionally writes) the grid summary.
    """
    scenarios = {}
    for name, plan in CHAOS_SCENARIOS.items():
        runs = []
        for _ in range(2):
            # Request ids are process-global; reset so the two runs
            # (and the grid's scenarios) compare bit-identical.
            reset_request_ids()
            report = serve_bench(
                tenants=tenants,
                requests=requests,
                fleet=fleet,
                gpu=gpu,
                seed=seed,
                mean_interarrival_us=mean_interarrival_us,
                faults=plan,
                deadline_us=deadline_us,
                validate=True,
                render=False,
            )
            runs.append(report)
        fingerprints = [r.fingerprint() for r in runs]
        if fingerprints[0] != fingerprints[1]:
            raise AssertionError(
                f"chaos scenario {name!r} is not deterministic:"
                f" {fingerprints[0][:16]} != {fingerprints[1][:16]}"
            )
        m = runs[0].metrics
        if m.terminal != requests:
            raise AssertionError(
                f"chaos scenario {name!r} hung"
                f" {requests - m.terminal} request(s)"
            )
        scenarios[name] = {
            "plan": plan,
            "completed": m.completed,
            "shed": m.shed,
            "timed_out": m.timed_out,
            "failed": m.failed,
            "terminal": m.terminal,
            "injected": runs[0].counters.get("faults.injected", 0),
            "retries": runs[0].counters.get("faults.retries", 0),
            "replacements": runs[0].counters.get(
                "faults.replacements", 0
            ),
            "fingerprint": fingerprints[0],
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
        # Merge into an existing serve-bench artifact when present so
        # CI uploads one BENCH_serving.json with both sections.
        payload: dict = {}
        try:
            with open(bench_out) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            payload = {}
        payload["chaos"] = grid
        with open(bench_out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        if render:
            print(f"wrote {bench_out}")
    return grid
