"""The ``parallel-bench`` experiment: the execution-strategy matrix.

Runs the same serving workload under every :data:`STRATEGIES` entry and
checks the substrate's whole contract in one sweep:

- **determinism** — report fingerprints, counter snapshots and the
  canonical Chrome trace (wall-clock fields stripped) are bit-identical
  across ``sequential`` / ``process``;
- **speed** — per-strategy wall-clock time of ``run()`` (timing-only
  simulation, then the data plane in-process or in a forked pool) and
  speedup over the sequential baseline, written to ``BENCH_parallel.json``
  (the CI ``parallel-smoke`` artifact; the speedup gate lives in CI,
  where runners actually have cores — ``cpu_count`` is recorded so a
  1-core box reporting ~1x is interpretable).

Equality is asserted at a trace-friendly scale (tracing every span at
thousands of requests is needless weight), timing at full scale with
fingerprints still compared — so both halves of the contract are
exercised on every run.
"""

from __future__ import annotations

import os

from repro.harness.runner import write_json
from repro.harness.serving import drive, poisson_traffic
from repro.obs.export import canonical_trace
from repro.parallel import STRATEGIES
from repro.serve.fleet import parse_fleet_spec
from repro.serve.service import ServeConfig

#: the strategy-matrix scenarios: the fault-free baseline plus a fault
#: plan mixing a permanent crash (retry/re-placement path: the voided
#: attempts compute nothing) with a degrade (per-slot slowdown)
PARALLEL_SCENARIOS: dict[str, str | None] = {
    "fault-free": None,
    "crash-degrade": (
        "crash:slot=1,at=2e-3;degrade:slot=0,at=1e-3,factor=2.0"
    ),
}


def parallel_bench(
    requests: int = 1000,
    tenants: int = 4,
    fleet: str | list[int] = "2,2,1,1",
    gpu: str = "GTX 1660 Super",
    seed: int = 7,
    mean_interarrival_us: float = 120.0,
    traffic: str = "uniform",
    workers: int | None = None,
    equality_requests: int | None = None,
    render: bool = False,
    bench_out: str | None = None,
) -> dict:
    """Run the strategy matrix and return (optionally write) the sweep.

    Raises :class:`AssertionError` the moment any strategy diverges from
    the sequential reference — fingerprint, counters or canonical trace
    at the equality scale, fingerprint at the timing scale.
    """
    if isinstance(fleet, str):
        fleet = parse_fleet_spec(fleet)
    if equality_requests is None:
        equality_requests = min(requests, 120)

    def serve(strategy: str, plan: str | None, count: int, trace: bool):
        graphs, arrivals = poisson_traffic(
            count, traffic, seed, mean_interarrival_us
        )
        return drive(
            graphs,
            arrivals,
            ServeConfig(faults=plan, parallel=strategy, workers=workers),
            topology=fleet,
            gpu=gpu,
            tenants=tenants,
            trace=trace,
        )

    scenarios: dict[str, dict] = {}
    for name, plan in PARALLEL_SCENARIOS.items():
        # -- equality pass: traced, at the trace-friendly scale --------
        reference = None
        equality: dict[str, dict] = {}
        for strategy in STRATEGIES:
            served = serve(strategy, plan, equality_requests, trace=True)
            report = served.report
            state = (
                report.fingerprint(),
                report.counters,
                canonical_trace(served.tracer, results=report.results),
            )
            if reference is None:
                reference = state
            checks = {
                "fingerprint_equal": state[0] == reference[0],
                "counters_equal": state[1] == reference[1],
                "trace_equal": state[2] == reference[2],
            }
            equality[strategy] = checks
            for check, ok in checks.items():
                if not ok:
                    raise AssertionError(
                        f"parallel-bench scenario {name!r}: strategy"
                        f" {strategy!r} failed {check} vs sequential"
                    )

        # -- timing pass: untraced, at full scale ----------------------
        timing: dict[str, dict] = {}
        base_fingerprint = None
        base_wall = None
        for strategy in STRATEGIES:
            served = serve(strategy, plan, requests, trace=False)
            wall = served.wall_s
            fingerprint = served.report.fingerprint()
            if base_fingerprint is None:
                base_fingerprint = fingerprint
                base_wall = wall
            if fingerprint != base_fingerprint:
                raise AssertionError(
                    f"parallel-bench scenario {name!r}: strategy"
                    f" {strategy!r} fingerprint diverges at timing scale"
                )
            timing[strategy] = {
                "wall_s": wall,
                "speedup_vs_sequential": base_wall / wall if wall else 0.0,
                "fingerprint_equal": True,
            }
            if render:
                print(
                    f"parallel {name:<14} {strategy:<10}"
                    f" wall={wall:8.3f}s"
                    f"  speedup={timing[strategy]['speedup_vs_sequential']:5.2f}x"
                )
        scenarios[name] = {
            "plan": plan,
            "fingerprint": base_fingerprint,
            "equality": equality,
            "timing": timing,
        }

    sweep = {
        "schema_version": 1,
        "benchmark": "parallel-bench",
        "fleet": fleet,
        "requests": requests,
        "equality_requests": equality_requests,
        "tenants": tenants,
        "seed": seed,
        "traffic": traffic,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "strategies": list(STRATEGIES),
        "scenarios": scenarios,
    }
    if bench_out:
        write_json(bench_out, sweep, render)
    return sweep
