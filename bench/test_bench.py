"""Smoke test of the end-to-end benchmark (``bench/run.py --smoke``)."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import child  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
from scenarios import SCENARIOS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def test_every_metric_is_printed_with_its_unit():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    units = {
        (fields[0], fields[1]): fields[3]
        for fields in (line.split() for line in lines[:-1])
        if fields and fields[0] != "#"
    }
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            key = (workload["name"], metric["name"])
            assert units.get(key) == metric["unit"], key
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1


def test_workloads_match_the_spec():
    assert sorted(SCENARIOS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(SCENARIOS))
def test_simulated_results_repeat_exactly(workload):
    first, second = (
        child.run(workload, 7, 0, "measure", smoke=True) for _ in range(2)
    )
    assert not first["failures"]
    assert first["sim"] == second["sim"]
    assert first["fingerprint"] == second["fingerprint"]


def test_host_speed_samples_and_puts_the_alarm_back():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as speed:
        begin = time.perf_counter()
        while time.perf_counter() - begin < 4 * hostspeed.INTERVAL_S:
            pass
        wall = time.perf_counter() - begin
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.units) >= 2 and 0 < speed.spent < wall
    assert speed.factor > 0


def _identities(points):
    return [(id(point[2]), point[3], id(point[4])) for point in points]


def test_trace_reports_every_layer_and_restores_the_program(tmp_path):
    before = layers.patch_points()
    result = child.run(
        "serve-uniform", 7, 0, "trace", smoke=True, out_dir=str(tmp_path)
    )
    # ``before`` keeps every original alive, so equal ids mean the same
    # objects: each namespace holds its original again.
    assert _identities(layers.patch_points()) == _identities(before)
    assert layers.leaks() == []
    assert not result["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for layer in layers.LAYERS:
        assert f"{layer}.self_s" in result["metrics"]
    assert result["metrics"]["numerics.calls"] > 0
    with open(tmp_path / "TRACE_serve-uniform.json") as fh:
        events = json.load(fh)["traceEvents"]
    assert len(events) == sum(
        result["metrics"][f"{layer}.calls"] for layer in layers.LAYERS
    )
