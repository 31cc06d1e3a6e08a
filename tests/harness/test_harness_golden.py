"""Frozen results of the harness's serving scenarios and movement sweeps.

The golden was generated with the harness entry points that preceded
``repro.harness.serving.drive`` and the single movement sweep (a separate
cluster bench, and separate one-GPU and fleet movement sweeps), so it
pins that the current entry points reproduce them exactly:

* the report fingerprints of serve-bench on a fleet and on a cluster
  under a node crash (two replays), of every chaos scenario and of both
  parallel-bench scenarios;
* every movement cell on one and two GPUs (timing-only): virtual
  makespan (``float.hex``), moved / fault / D2D / DtoH bytes, HtoD ops;
* every cell of movement-bench's serving grid;
* the keys each CI job reads back from the artifact its bench wrote.

Regenerate (only on a commit whose harness results are the reference)::

    PYTHONPATH=src python tests/harness/test_harness_golden.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.harness.movement import sweep_movement_policies, sweep_serving_axes
from repro.harness.parallel import parallel_bench
from repro.harness.serving import chaos_grid, serve_bench
from repro.harness.simbench import sim_bench

GOLDEN = pathlib.Path(__file__).with_name("harness_golden.json")

#: the key paths each CI heredoc reads from its artifact (``*`` = every
#: entry of a mapping)
CI_KEYS = {
    "BENCH_serving.json": [
        "chaos.hung_requests", "chaos.requests",
        "chaos.scenarios.*.completed", "chaos.scenarios.*.shed",
        "chaos.scenarios.*.timed_out", "chaos.scenarios.*.failed",
        "chaos.scenarios.*.injected", "chaos.scenarios.*.deterministic",
        "chaos.scenarios.*.validated", "chaos.scenarios.*.terminal",
    ],
    "BENCH_cluster.json": [
        "nodes", "policy", "terminal", "replacements", "network.ops",
        "network.bytes", "hung_requests", "deterministic", "validated",
        "fingerprint",
    ],
    "BENCH_parallel.json": [
        "schema_version", "cpu_count", "fleet", "requests",
        "scenarios.*.equality.*.*",
        "scenarios.*.timing.*.wall_s",
        "scenarios.*.timing.*.speedup_vs_sequential",
        "scenarios.*.timing.*.fingerprint_equal",
        "scenarios.*.timing.process.speedup_vs_sequential",
    ],
    "BENCH_simulator.json": [
        "schema_version", "benchmark", "cells", "assertions",
        "assertions.streams_flatness.streams_lo",
        "assertions.streams_flatness.streams_hi",
        "assertions.streams_flatness.ops",
        "assertions.streams_flatness.ops_per_sec_lo",
        "assertions.streams_flatness.ops_per_sec_hi",
        "assertions.streams_flatness.ratio",
        "assertions.streams_flatness.limit",
    ],
}


def _assert_ci_keys(path: pathlib.Path) -> None:
    doc = json.loads(path.read_text())
    for key in CI_KEYS[path.name]:
        nodes = [doc]
        for part in key.split("."):
            if part == "*":
                assert all(nodes), f"{path.name}: {key} is empty"
                nodes = [v for node in nodes for v in node.values()]
            else:
                assert all(part in node for node in nodes), (
                    f"{path.name} lacks {key}"
                )
                nodes = [node[part] for node in nodes]


def _serve_fleet() -> str:
    return serve_bench(fleet="2,1", requests=16, validate=True).fingerprint()


def _serve_cluster(out: pathlib.Path) -> str:
    return serve_bench(
        cluster="2,1|1",
        requests=16,
        faults="crash:node=1,at=1e-3",
        runs=2,
        validate=True,
        bench_out=str(out / "BENCH_cluster.json"),
    ).fingerprint()


def _chaos(out: pathlib.Path) -> dict:
    grid = chaos_grid(
        requests=16, bench_out=str(out / "BENCH_serving.json")
    )
    return {n: s["fingerprint"] for n, s in grid["scenarios"].items()}


def _parallel(out: pathlib.Path) -> dict:
    sweep = parallel_bench(
        requests=24, bench_out=str(out / "BENCH_parallel.json")
    )
    return {n: s["fingerprint"] for n, s in sweep["scenarios"].items()}


def _sim(out: pathlib.Path) -> None:
    sim_bench(
        render=False,
        ops_grid=(100, 200),
        streams_grid=(4,),
        out_path=str(out / "BENCH_simulator.json"),
    )


def _movement(gpus: int) -> list[dict]:
    return [
        {
            "benchmark": c.benchmark,
            "label": c.label,
            "placement": c.placement.value,
            "elapsed": c.elapsed.hex(),
            "moved_bytes": c.moved_bytes,
            "fault_bytes": c.fault_bytes,
            "d2d_bytes": c.d2d_bytes,
            "dtoh_bytes": c.dtoh_bytes,
            "htod_ops": c.htod_ops,
        }
        for c in sweep_movement_policies(
            gpus=gpus, iterations=2, execute=False
        )
    ]


def _serving_grid() -> list[dict]:
    return [
        {
            "mix": c.mix,
            "execution": c.execution.value,
            "admission": c.admission.value,
            "requests": c.requests,
            "makespan": c.makespan.hex(),
            "throughput_rps": c.throughput_rps.hex(),
            "p50": c.p50.hex(),
            "p99": c.p99.hex(),
            "batches": c.batches,
            "capture_hits": c.capture_hits,
        }
        for c in sweep_serving_axes()
    ]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_ci_keys_match_golden(golden):
    assert golden["ci_keys"] == CI_KEYS


def test_serve_bench_fleet(golden):
    assert _serve_fleet() == golden["serve_fleet"]


def test_serve_bench_cluster(golden, tmp_path):
    assert _serve_cluster(tmp_path) == golden["serve_cluster"]
    _assert_ci_keys(tmp_path / "BENCH_cluster.json")


def test_chaos_grid(golden, tmp_path):
    assert _chaos(tmp_path) == golden["chaos"]
    _assert_ci_keys(tmp_path / "BENCH_serving.json")


def test_parallel_bench(golden, tmp_path):
    assert _parallel(tmp_path) == golden["parallel"]
    _assert_ci_keys(tmp_path / "BENCH_parallel.json")


def test_sim_bench_artifact_keys(tmp_path):
    _sim(tmp_path)
    _assert_ci_keys(tmp_path / "BENCH_simulator.json")


@pytest.mark.parametrize("gpus", [1, 2])
def test_movement_sweep(golden, gpus):
    assert _movement(gpus) == golden["movement"][str(gpus)]


def test_serving_grid(golden):
    assert _serving_grid() == golden["serving_grid"]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    out = pathlib.Path(tempfile.mkdtemp())
    golden = {
        "serve_fleet": _serve_fleet(),
        "serve_cluster": _serve_cluster(out),
        "chaos": _chaos(out),
        "parallel": _parallel(out),
        "movement": {str(g): _movement(g) for g in (1, 2)},
        "serving_grid": _serving_grid(),
        "ci_keys": CI_KEYS,
    }
    _sim(out)
    for name in CI_KEYS:
        _assert_ci_keys(out / name)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
