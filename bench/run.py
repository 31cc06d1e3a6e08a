"""The end-to-end benchmark's one command.

    python3 bench/run.py [--workload NAME]... [--seed N] [--seconds S]
                         [--trace [0|1]] [--repeat K] [--json PATH] [--smoke]

Each workload runs in fresh interpreters, one at a time (see
``bench/child.py``): three processes each set up from scratch, and the
last one also settles, times the run's passes and checks the outputs;
``setup_s`` is the median set-up and ``wall_s`` the median pass, both
at the reference host speed of ``bench/hostspeed.py``.  One
``workload metric value unit`` line is printed per metric, then, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace`` the metrics
are the per-layer ones of ``BENCHMARK.json``, from one traced pass;
without it, the end-to-end ones, with tracing off.

The exit code is 0 when every output check passed, 1 when one failed and
2 when the program or ``BENCHMARK.json`` cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: processes per run, each set up from scratch; the median set-up time
#: is reported and the last process also measures
SETUP_SAMPLES = 3
#: wall-clock limit of one workload run, every process included
RUN_LIMIT_S = 170.0
SCHEMA_VERSION = 1
#: One thread per process.  The serving workloads' matrix products are
#: too small for a threaded BLAS to speed up, but its idle threads spin
#: on the second core, doubling CPU time and adding run-to-run noise.
SINGLE_THREADED = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"the program's sources are missing under {ROOT}/src")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


def launch(workload, seed, seconds, mode, smoke, deadline):
    """Run ``bench/child.py`` once and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} run")
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
        "--started", repr(time.monotonic()),
    ] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=os.environ | SINGLE_THREADED,
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} run timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{workload}: {mode} run exited with {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, smoke) -> dict:
    """One run: a traced child, or ``SETUP_SAMPLES - 1`` children that
    only set up followed by one that also measures and checks."""
    deadline = time.monotonic() + RUN_LIMIT_S
    if trace:
        result = launch(workload, seed, seconds, "trace", smoke, deadline)
        return result | {"correct": not result["failures"]}
    probes = 0 if smoke else SETUP_SAMPLES - 1
    children = [
        launch(workload, seed, seconds, "setup", smoke, deadline)
        for _ in range(probes)
    ]
    measured = launch(workload, seed, seconds, "measure", smoke, deadline)
    children.append(measured)
    failures = list(measured["failures"])
    warmups = {c["warmup_fingerprint"] for c in children}
    if len(warmups) != 1:
        failures.append(
            f"{len(warmups)} warm-up fingerprints over the processes"
        )
    attempted = measured["attempted"]
    failed = measured["failed"] + (len(warmups) != 1)
    setups = [c["setup_s"] for c in children]
    return {
        "workload": workload,
        "seed": seed,
        "correct": not failures,
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "fingerprint": measured["fingerprint"],
        "sim": measured["sim"],
        "setup_samples": setups,
        "setup_samples_wall": [c["setup_wall"] for c in children],
        "settle": measured["settle"],
        "passes": measured["passes"],
        "passes_wall": measured["passes_wall"],
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(measured["passes"]),
            "kernels_per_s": statistics.median(measured["kernels_per_s"]),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
            "completed_frac": (attempted - failed) / attempted,
            "sim_throughput_rps": measured["sim"]["throughput_rps"],
        },
    }


def print_run(result: dict, metrics: list) -> None:
    name = result["workload"]
    for m in metrics:
        print(f"{name} {m['name']} {result['metrics'][m['name']]:.6g} {m['unit']}")
    sim = result["sim"]
    print(
        f"# {name} seed={result['seed']} fingerprint={result['fingerprint'][:16]}"
        f" sim p50={sim['p50_ms']:.4f} ms p95={sim['p95_ms']:.4f} ms"
        f" (n={sim['samples']})"
    )
    if "passes_wall" in result:
        walls = " ".join(f"{w:.4g}" for w in result["passes_wall"])
        setups = " ".join(f"{w:.4g}" for w in result["setup_samples_wall"])
        print(f"# {name} measured wall: passes {walls} s, set-ups {setups} s")
    for failure in result["failures"]:
        print(f"# {name} CHECK FAILED: {failure}")


def print_stability(runs: list, metrics: list) -> None:
    """Median, quartiles and interquartile spread per metric, flagging a
    spread wider than the metric's bound."""
    print("# workload metric median q1 q3 spread bound")
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        for m in metrics:
            values = [r["metrics"][m["name"]] for r in mine]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else 0.0
            bound = m.get("bound")
            flag = " WIDER-THAN-BOUND" if bound and spread > bound else ""
            print(
                f"# {workload} {m['name']} {median:.6g} {q1:.6g} {q3:.6g}"
                f" {spread:.4f} {bound if bound is not None else '-'}{flag}"
            )


def summary_line(runs: list, metrics: list) -> dict:
    """The contract's last line: one run reports its metrics by name;
    several report each workload's medians as ``workload/metric``."""
    single = len(runs) == 1
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        for m in metrics:
            value = statistics.median(r["metrics"][m["name"]] for r in mine)
            key = m["name"] if single else f"{workload}/{m['name']}"
            out[key] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": out,
    }


def write_json(path: str, args, runs: list) -> None:
    """Write (or update) the run envelope at ``path``: the untraced and
    traced runs are kept side by side."""
    import numpy

    doc: dict = {}
    if os.path.isfile(path):
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("schema_version") != SCHEMA_VERSION:
            doc = {}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    doc |= {
        "schema_version": SCHEMA_VERSION,
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
    }
    doc["traced" if args.trace else "untraced"] = runs
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see bench/README.md)."
    )
    parser.add_argument(
        "--workload", action="append",
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per run (default: BENCHMARK.json run_seconds;"
        " 0 with --smoke, which times one pass)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload, all with the same seed; K>1 also prints"
        " each metric's quartiles",
    )
    parser.add_argument("--json", help="write every run's details here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="a few requests, one grid row, one process per run",
    )
    args = parser.parse_args()
    try:
        spec = load_spec()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {known}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.seconds is None:
        args.seconds = 0 if args.smoke else spec["run_seconds"]
    metrics = spec["per_layer" if args.trace else "end_to_end"]

    runs = []
    try:
        for workload in workloads:
            for _ in range(args.repeat):
                result = run_workload(
                    workload, args.seed, args.seconds, bool(args.trace),
                    args.smoke,
                )
                print_run(result, metrics)
                runs.append(result)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if args.repeat > 1:
        print_stability(runs, metrics)
    if args.json:
        write_json(args.json, args, runs)
    line = summary_line(runs, metrics)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
