"""The benchmark's three workloads.

Each scenario turns a seed into inputs (``inputs``), names the short
warm-up that ends set-up (``warmup_inputs``), runs one pass over a set of
inputs (``run_pass``), reduces a pass to the numbers the benchmark
reports (``summarize``) and checks the outputs outside the timed region
(``check``).  Every scenario drives the program only through public entry
points: ``SchedulerService``, ``Cluster``, ``traffic_mix_graphs``,
``harness.runner.run_cell`` and ``workloads.create_benchmark``.

Arrivals are an open loop in virtual time: seeded Poisson arrival times
are generated once, before any pass, and every request is submitted with
its due time before ``run()``.  Latency therefore counts from the due
time and the generator is never late.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

# repro.serve must be imported before repro.parallel: importing
# repro.parallel first hits the parallel -> serve -> parallel import cycle.
import repro.serve  # noqa: F401
from repro.cluster import Cluster, ClusterConfig
from repro.core.race import check_no_races
from repro.errors import DataRaceError
from repro.harness.figures import BENCH_ORDER, GPU_NAMES
from repro.harness.runner import run_cell
from repro.metrics import geomean
from repro.metrics.service import LatencyStats
from repro.serve import (
    AdmissionPolicy,
    DevicePlacementPolicy,
    SchedulerService,
    ServeConfig,
    execute_serial,
)
from repro.serve.workloads import traffic_mix_graphs
from repro.workloads import Mode, create_benchmark
from repro.workloads.suite import default_scales

TENANTS = 4
FLEET = "2,2,1,1"
#: traffic mix of every serving/cluster workload: vec / b&s / ml in turn
MIX = "uniform"
#: mean gap between arrivals, in µs
INTERARRIVAL_US = 120.0
#: requests per serving/cluster workload in a ``--smoke`` run
SMOKE_REQUESTS = 12
#: leading requests served by the set-up warm-up
WARMUP_REQUESTS = 24
#: requests per serving/cluster workload whose outputs are compared with
#: serial execution after the timed passes
CHECK_SAMPLE = 40
#: per-benchmark scales of the grid's functional check (the scales of
#: tests/workloads/conftest.py)
CHECK_SCALES = {
    "vec": 50_000,
    "b&s": 10_000,
    "img": 96,
    "ml": 1_000,
    "hits": 2_000,
    "dl": 64,
}


@dataclass
class Summary:
    """One pass reduced to what the benchmark reports about it."""

    #: requests submitted (serving) or grid cells run
    units: int
    #: units that completed
    completed: int
    #: units that reached any terminal status
    terminal: int
    #: simulated kernel launches
    kernels: int
    fingerprint: str
    #: simulated (virtual-time) results; deterministic for a seed
    sim: dict
    #: the program's own counters, rolled up over the pass
    counters: dict


# ---------------------------------------------------------------------------
# serving and cluster workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeScenario:
    name: str
    requests: int
    #: seconds one pass takes at the reference speed (README); a run of
    #: ``--seconds`` times ``max(1, round(seconds / pass_s))`` passes, so
    #: the pass count never depends on how busy the host is
    pass_s: float
    #: ``|``-separated per-node topologies; None serves from one fleet
    cluster: str | None = None
    faults: str | None = None
    #: full passes run untimed before the timed ones.  A process's first
    #: full pass grows its heap to the size every later pass reuses:
    #: about 200k page faults and a tenth of the pass in the kernel,
    #: which would time the host's memory, not the program.
    settle_passes = 1

    def inputs(self, seed: int, smoke: bool = False) -> list:
        """``(graph, arrival_time)`` per request, from the seed alone.

        Arrivals are Poisson conditioned on their span: exponential gaps
        rescaled so the last request arrives at ``count`` mean
        interarrivals.  The offered load is then the same for every seed,
        and only the arrival pattern varies."""
        count = SMOKE_REQUESTS if smoke else self.requests
        graphs = traffic_mix_graphs(count, mix=MIX, seed=seed)
        gaps = np.random.default_rng(seed).exponential(size=count)
        span = count * INTERARRIVAL_US * 1e-6
        arrivals = np.cumsum(gaps) * (span / gaps.sum())
        return list(zip(graphs, arrivals.tolist()))

    def run_pass(self, inputs: list):
        """Serve every request on a freshly built fleet or cluster under
        the ``sequential`` strategy; returns ``(front end, report)``."""
        serve = ServeConfig(
            admission=AdmissionPolicy.FAIR_SHARE,
            placement=DevicePlacementPolicy.LEAST_LOADED,
            parallel="sequential",
        )
        if self.cluster is not None:
            front = Cluster(
                self.cluster,
                config=ClusterConfig(
                    policy="spread",
                    interconnect="ethernet-100g",
                    faults=self.faults,
                    serve=serve,
                ),
            )
        else:
            front = SchedulerService(fleet_topology=FLEET, config=serve)
        for t in range(TENANTS):
            front.register_tenant(f"tenant{t}", priority=TENANTS - 1 - t)
        for i, (graph, arrival) in enumerate(inputs):
            front.submit(f"tenant{i % TENANTS}", graph, arrival_time=arrival)
        return front, front.run()

    def warmup_inputs(self, inputs: list) -> list:
        return inputs[:WARMUP_REQUESTS]

    def summarize(self, inputs: list, out) -> Summary:
        front, report = out
        fleets = (
            [node.fleet for node in front.nodes]
            if self.cluster is not None
            else [front.fleet]
        )
        m = report.metrics
        return Summary(
            units=len(inputs),
            completed=m.completed,
            terminal=m.terminal,
            kernels=sum(sum(f.kernel_counts()) for f in fleets),
            fingerprint=report.fingerprint(),
            sim={
                "p50_ms": m.latency.p50 * 1e3,
                "p95_ms": m.latency.p95 * 1e3,
                "samples": m.latency.count,
                "throughput_rps": m.throughput_rps,
                "queue_wait_p50_ms": m.queue_wait.p50 * 1e3,
                "batch_width": (
                    m.completed / m.batches if m.batches else 0.0
                ),
                "capture_hit_ratio": (
                    m.capture_hits / (m.capture_hits + m.capture_misses)
                    if m.capture_hits + m.capture_misses
                    else 0.0
                ),
            },
            counters=dict(report.counters),
        )

    def check(self, inputs: list, out, seed: int, smoke: bool) -> tuple:
        """Compare a seeded sample of completed requests with serial
        execution; returns ``(checked, failures)``."""
        _, report = out
        by_id = {r.request_id: r for r in report.results}
        # Request ids are allocated 1.. in submission order.
        completed = sorted(rid for rid, r in by_id.items() if r.ok)
        sample = random.Random(seed).sample(
            completed, min(len(completed), 4 if smoke else CHECK_SAMPLE)
        )
        failures = []
        for rid in sorted(sample):
            graph = inputs[rid - 1][0]
            expected = execute_serial(graph)
            got = by_id[rid].outputs
            if set(got) != set(expected) or not all(
                np.array_equal(got[k], v) for k, v in expected.items()
            ):
                failures.append(f"request {rid} ({graph.name}) != serial")
        return len(sample), failures


# ---------------------------------------------------------------------------
# the paper's Fig. 7/8 grid
# ---------------------------------------------------------------------------

GRID_MODES = (
    Mode.SERIAL,
    Mode.PARALLEL,
    Mode.GRAPH_CAPTURE,
    Mode.HANDTUNED,
)


@dataclass(frozen=True)
class GridScenario:
    name: str
    iterations: int
    #: as :attr:`ServeScenario.pass_s`
    pass_s: float
    #: the grid is small in memory, and its warm-up (every cell at one
    #: iteration) already brings the first full pass to the speed of
    #: later ones
    settle_passes = 0

    def inputs(self, seed: int, smoke: bool = False) -> list:
        """Grid cells ``(benchmark, gpu, scale, mode, iterations)``; the
        smoke grid is the first row at one iteration.  The grid is
        timing-only, so the seed reaches only the functional check."""
        if smoke:
            scale = default_scales(BENCH_ORDER[0], GPU_NAMES[0])[0]
            return [
                (BENCH_ORDER[0], GPU_NAMES[0], scale, mode, 1)
                for mode in GRID_MODES
            ]
        return [
            (bench, gpu, scale, mode, self.iterations)
            for bench in BENCH_ORDER
            for gpu in GPU_NAMES
            for scale in default_scales(bench, gpu)
            for mode in GRID_MODES
        ]

    def run_pass(self, inputs: list):
        return [
            run_cell(bench, gpu, scale, mode, iterations=iterations)
            for bench, gpu, scale, mode, iterations in inputs
        ]

    def warmup_inputs(self, inputs: list) -> list:
        """Every cell at one iteration: about a tenth of a pass."""
        return [cell[:4] + (1,) for cell in inputs]

    def summarize(self, inputs: list, out) -> Summary:
        elapsed = {
            (c.benchmark, c.gpu, c.scale, c.mode): c.elapsed for c in out
        }
        speedups: dict[Mode, list[float]] = {m: [] for m in GRID_MODES}
        for (bench, gpu, scale, mode), t in elapsed.items():
            parallel = elapsed.get((bench, gpu, scale, Mode.PARALLEL))
            if parallel:
                speedups[mode].append(t / parallel)
        latency = LatencyStats.from_values(c.elapsed for c in out)
        h = hashlib.sha256()
        counters: dict = {}
        for c in out:
            h.update(
                f"{c.benchmark}|{c.gpu}|{c.scale}|{c.mode.value}|"
                f"{c.elapsed.hex()}|{c.result.host_clock.hex()}".encode()
            )
            for key, value in sorted(c.result.counters.items()):
                h.update(f"{key}={value}".encode())
                counters[key] = counters.get(key, 0) + value
        return Summary(
            units=len(inputs),
            completed=len(out),
            terminal=len(out),
            kernels=sum(len(c.result.timeline.kernels()) for c in out),
            fingerprint=h.hexdigest(),
            sim={
                "p50_ms": latency.p50 * 1e3,
                "p95_ms": latency.p95 * 1e3,
                "samples": latency.count,
                "throughput_rps": len(out) / sum(c.elapsed for c in out),
                "speedup_vs_serial": geomean(speedups[Mode.SERIAL]),
                "speedup_vs_cudagraph": geomean(
                    speedups[Mode.GRAPH_CAPTURE]
                ),
                "speedup_vs_handtuned": geomean(speedups[Mode.HANDTUNED]),
            },
            counters=counters,
        )

    def check(self, inputs: list, out, seed: int, smoke: bool) -> tuple:
        """Race-check every grcuda-parallel timeline of the pass, then run
        each benchmark under every mode at a small scale with functional
        execution and compare with its numpy reference."""
        failures = []
        checked = 0
        for c in out:
            if c.mode is Mode.PARALLEL:
                checked += 1
                try:
                    check_no_races(c.result.timeline)
                except DataRaceError as exc:
                    failures.append(
                        f"{c.benchmark}/{c.gpu}/{c.scale}: {exc}"
                    )
        names = sorted({cell[0] for cell in inputs}) if smoke else BENCH_ORDER
        for name in names:
            for mode in Mode:
                bench = create_benchmark(
                    name, CHECK_SCALES[name], iterations=2, seed=seed
                )
                result = bench.run("GTX 1660 Super", mode)
                checked += 1
                for i, got in enumerate(result.results):
                    want = bench.reference(i)
                    if not np.isclose(got, want, rtol=1e-4, atol=1e-5):
                        failures.append(
                            f"{name} under {mode.value} iteration {i}:"
                            f" {got!r} != reference {want!r}"
                        )
        return checked, failures


SCENARIOS = {
    s.name: s
    for s in (
        GridScenario("paper-grid", iterations=10, pass_s=11.5),
        ServeScenario("serve-uniform", requests=400, pass_s=7.2),
        ServeScenario(
            "cluster-crash", requests=300, pass_s=5.5,
            cluster="2,1|1,1", faults="crash:node=1,at=1.5e-2",
        ),
    )
}
