"""One workload in one process: set up, measure, check, report.

``bench/run.py`` starts this file several times per workload, each in a
fresh interpreter, so imports and input generation count toward set-up
time and peak memory stays per workload.  Set-up (import, input
generation, a short warm-up pass) is timed from the parent's launch.
Host times are rescaled to the reference speed of ``bench/hostspeed.py``.
The result is one JSON line on standard output.

Modes:

* ``setup``   — set up and stop: one more sample of the set-up time;
* ``measure`` — set up, run the scenario's untimed settling passes, time
  ``max(1, round(seconds / pass_s))`` passes, then check the outputs;
  tracing is off;
* ``trace``   — set up, settle, time input generation plus one pass
  untraced, then both again with every layer wrapped; reports the
  per-layer metrics and writes ``TRACE_<workload>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(scenario, inputs):
    """One pass; returns ``(output, wall seconds, reference seconds)``."""
    gc.collect()
    with HostSpeed() as speed:
        begin = time.perf_counter()
        out = scenario.run_pass(inputs)
        wall = time.perf_counter() - begin
    return out, wall, speed.reference_seconds(wall)


def timed_passes(seconds: float, pass_s: float) -> int:
    return max(1, round(seconds / pass_s))


def run(
    workload: str,
    seed: int,
    seconds: float,
    mode: str,
    started: float | None = None,
    smoke: bool = False,
    out_dir: str | None = None,
) -> dict:
    """Run ``workload`` in this process in ``mode``.  ``started`` is the
    monotonic time the process was launched (defaults to now).  Host
    times are reported at the reference speed (``bench/hostspeed.py``),
    with the measured ones under ``*_wall``."""
    started = time.monotonic() if started is None else started
    with HostSpeed() as speed:
        from scenarios import SCENARIOS

        scenario = SCENARIOS[workload]
        inputs = scenario.inputs(seed, smoke)
        warm = scenario.warmup_inputs(inputs)
        warm_out = scenario.run_pass(warm)
        warm_print = scenario.summarize(warm, warm_out).fingerprint
        del warm_out
        setup_wall = time.monotonic() - started
    result: dict = {
        "workload": workload,
        "seed": seed,
        "setup_s": speed.reference_seconds(setup_wall),
        "setup_wall": setup_wall,
        "warmup_fingerprint": warm_print,
    }
    if mode == "setup":
        return result | {"peak_rss_mb": peak_rss_mb()}
    if mode == "trace":
        for _ in range(scenario.settle_passes):
            scenario.run_pass(inputs)
        # Free the inputs before _trace generates them again.
        del inputs
        return result | _trace(scenario, seed, smoke, out_dir)

    settle = scenario.settle_passes
    passes = settle + timed_passes(seconds, scenario.pass_s)
    walls: list[float] = []
    seconds_ref: list[float] = []
    rates: list[float] = []
    fingerprints: set[str] = set()
    incomplete = 0
    for i in range(passes):
        out, wall, ref = _timed_pass(scenario, inputs)
        summary = scenario.summarize(inputs, out)
        walls.append(wall)
        seconds_ref.append(ref)
        rates.append(summary.kernels / ref)
        fingerprints.add(summary.fingerprint)
        incomplete += summary.units - summary.completed
        if i < passes - 1:
            del out
    rss = peak_rss_mb()
    checked, failures = _checks(scenario, inputs, out, summary, seed, smoke)
    if len(fingerprints) != 1:
        failures.append(f"{len(fingerprints)} fingerprints over the passes")
    failed = incomplete + len(failures)
    if incomplete:
        failures.append(
            f"{incomplete} unit(s) over {passes} pass(es) did not complete"
        )
    return result | {
        "failures": failures,
        "attempted": summary.units * passes + checked,
        "failed": failed,
        "settle": seconds_ref[:settle],
        "passes": seconds_ref[settle:],
        "passes_wall": walls[settle:],
        "kernels_per_s": rates[settle:],
        "peak_rss_mb": rss,
        "fingerprint": summary.fingerprint,
        "sim": summary.sim,
    }


def _checks(scenario, inputs, out, summary, seed, smoke):
    """Every submission terminal, plus the scenario's output checks;
    returns ``(units checked, failures)``."""
    checked, failures = scenario.check(inputs, out, seed, smoke)
    if summary.terminal != summary.units:
        failures.append(
            f"{summary.units - summary.terminal} submission(s)"
            " never reached a terminal status"
        )
    return checked, failures


def _trace(scenario, seed, smoke, out_dir) -> dict:
    """Time input generation plus one pass untraced, then again with
    every layer wrapped; the two passes must fingerprint equal."""
    from layers import Recorder, installed

    gc.collect()
    begin = time.perf_counter()
    inputs = scenario.inputs(seed, smoke)
    out = scenario.run_pass(inputs)
    untraced = time.perf_counter() - begin
    reference = scenario.summarize(inputs, out).fingerprint
    del out, inputs
    gc.collect()

    recorder = Recorder()
    with installed(recorder):
        begin = time.perf_counter()
        inputs = scenario.inputs(seed, smoke)
        out = scenario.run_pass(inputs)
        traced = time.perf_counter() - begin
    summary = scenario.summarize(inputs, out)
    checked, failures = _checks(scenario, inputs, out, summary, seed, smoke)
    if summary.fingerprint != reference:
        failures.append("traced pass fingerprint != untraced pass")
    incomplete = summary.units - summary.completed
    failed = incomplete + len(failures)
    if incomplete:
        failures.append(f"{incomplete} unit(s) did not complete")

    metrics: dict = {}
    attributed = 0.0
    for layer, (self_s, calls) in recorder.layer_times().items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / traced
        metrics[f"{layer}.calls"] = calls
        attributed += self_s
    counters = summary.counters
    sim = summary.sim
    rounds = recorder.count("SequentialStrategy.execute")
    works = recorder.attr_sum("SequentialStrategy.execute", "works")
    metrics |= {
        "parallel.rounds": rounds,
        "parallel.works_per_round": works / rounds if rounds else 0.0,
        "gpusim.steps": counters.get("engine.steps", 0),
        "gpusim.repricings": counters.get("engine.repricings", 0),
        "memory.htod_bytes": counters.get("coherence.htod_bytes", 0),
        "memory.dtoh_bytes": counters.get("coherence.dtoh_bytes", 0),
        "memory.transfer_ops": counters.get("coherence.transfer_ops", 0),
        "serve.batch_width": sim.get("batch_width", 0.0),
        "serve.capture_hit_ratio": sim.get("capture_hit_ratio", 0.0),
        "serve.queue_wait_p50_ms": sim.get("queue_wait_p50_ms", 0.0),
        "faults.retries": counters.get("faults.retries", 0),
        "faults.replacements": counters.get("faults.replacements", 0),
        "cluster.net_bytes": counters.get("cluster.net_bytes", 0),
        "cluster.replacements": counters.get("cluster.replacements", 0),
        "sim.p50_ms": sim["p50_ms"],
        "sim.p95_ms": sim["p95_ms"],
        "sim.samples": sim["samples"],
        "sim.speedup_vs_serial": sim.get("speedup_vs_serial", 0.0),
        "sim.speedup_vs_cudagraph": sim.get("speedup_vs_cudagraph", 0.0),
        "sim.speedup_vs_handtuned": sim.get("speedup_vs_handtuned", 0.0),
        "other.share": 1.0 - attributed / traced,
        "trace.overhead": traced / untraced,
    }
    path = os.path.join(
        out_dir or os.path.join(ROOT, "bench", "out"),
        f"TRACE_{scenario.name}.json",
    )
    recorder.write_chrome_trace(
        path,
        begin,
        {"workload": scenario.name, "seed": seed, "traced_wall_s": traced},
    )
    return {
        "failures": failures,
        "attempted": summary.units + checked,
        "failed": failed,
        "fingerprint": summary.fingerprint,
        "sim": summary.sim,
        "trace_path": os.path.relpath(path, ROOT),
        "metrics": metrics,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("setup", "measure", "trace"), required=True
    )
    parser.add_argument(
        "--started", type=float, required=True,
        help="time.monotonic() when the parent launched this process",
    )
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    result = run(
        args.workload, args.seed, args.seconds, args.mode,
        started=args.started, smoke=args.smoke,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
