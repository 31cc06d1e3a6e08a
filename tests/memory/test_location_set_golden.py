"""Frozen one-device behaviour of the location-set memory model.

Every benchmark at the workload tests' small scales runs two
iterations over two grids:

* every execution mode the paper compares (serial, parallel, graph
  capture, hand-tuned) on three GPU generations;
* the parallel scheduler on one GPU model under every movement policy,
  on one GPU and on two GPUs with both data-aware and naive placement
  (plus BATCHED with a coalescing window of 4).

For each run the golden keeps the exact virtual times (``float.hex``),
the per-iteration results and the ``repr`` of every counter, so an int
that turns into a float shows.  One serving report fingerprint covers
the 1-GPU and 2-GPU replay and context paths.

``runs`` and ``serving`` were generated before single-GPU arrays,
coherence and contexts became the one-device case of the multi-GPU
location-set model.  ``amended`` holds the cells that model change
moved on purpose, each with its values and its reason; every other
cell, and the serving fingerprint, must not move.  Regenerate (only for
a deliberate behaviour change, which then drops ``amended``) with::

    PYTHONPATH=src python tests/memory/test_location_set_golden.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.core.policies import DevicePlacementPolicy
from repro.memory.coherence import MovementPolicy
from repro.workloads import Mode, create_benchmark

GOLDEN = pathlib.Path(__file__).with_name("location_set_golden.json")

#: the small scales of ``tests/workloads/conftest.py``
SCALES = {
    "vec": 50_000,
    "b&s": 10_000,
    "img": 96,
    "ml": 1_000,
    "hits": 2_000,
    "dl": 64,
}
ITERATIONS = 2
GPUS = ("GTX 960", "GTX 1660 Super", "Tesla P100")
MODES = (Mode.SERIAL, Mode.PARALLEL, Mode.GRAPH_CAPTURE, Mode.HANDTUNED)
FLEETS = {
    "1gpu": {"gpus": 1},
    "2gpu-min-transfer": {
        "gpus": 2, "placement": DevicePlacementPolicy.MIN_TRANSFER,
    },
    "2gpu-round-robin": {
        "gpus": 2, "placement": DevicePlacementPolicy.ROUND_ROBIN,
    },
}


def _cells() -> dict[str, tuple[str, str, dict]]:
    """Run key -> (benchmark, gpu, ``Benchmark.run`` keyword arguments)."""
    cells: dict[str, tuple[str, str, dict]] = {}
    for name in sorted(SCALES):
        for gpu in GPUS:
            for mode in MODES:
                cells[f"{name}|{gpu}|{mode.value}"] = (
                    name, gpu, {"mode": mode},
                )
        gpu = "GTX 1660 Super"
        movements = [(p.value, p, 0) for p in MovementPolicy]
        movements.append(("batched-w4", MovementPolicy.BATCHED, 4))
        for label, policy, window in movements:
            for fleet, kwargs in FLEETS.items():
                cells[f"{name}|{gpu}|parallel|{label}|{fleet}"] = (
                    name,
                    gpu,
                    {
                        "mode": Mode.PARALLEL,
                        "movement": policy,
                        "movement_window": window,
                        **kwargs,
                    },
                )
    return cells


def _run(name: str, gpu: str, kwargs: dict) -> dict:
    bench = create_benchmark(name, SCALES[name], iterations=ITERATIONS)
    result = bench.run(gpu, **kwargs)
    return {
        "elapsed": result.elapsed.hex(),
        "host_clock": result.host_clock.hex(),
        "results": [float(r).hex() for r in result.results],
        "counters": {k: repr(v) for k, v in sorted(result.counters.items())},
    }


def _serving_fingerprint() -> str:
    from repro.harness.serving import serve_bench

    report = serve_bench(
        tenants=4, requests=24, fleet="2,1,1", traffic="uniform", seed=7
    )
    return report.fingerprint()


def _collect() -> dict:
    return {
        "runs": {key: _run(*cell) for key, cell in _cells().items()},
        "serving": _serving_fingerprint(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_grid_covers_every_cell(golden):
    assert sorted(golden["runs"]) == sorted(_cells())
    assert len(golden["runs"]) == 144
    assert set(golden.get("amended", {})) <= set(golden["runs"])


#: the one amendment that moves virtual time: the former single-GPU
#: window path lost GPU writes, so this run now writes its results back
WINDOW_FIX = "hits|GTX 1660 Super|parallel|batched-w4|1gpu"


def test_amendments_keep_times_results_and_movement(golden):
    for key, amendment in golden.get("amended", {}).items():
        before, after = golden["runs"][key], amendment["run"]
        assert amendment["reason"], key
        if key == WINDOW_FIX:
            continue
        for field in ("elapsed", "host_clock", "results"):
            assert before[field] == after[field], (key, field)
        for name, value in before["counters"].items():
            if name.startswith("coherence."):
                assert float(after["counters"][name]) == float(value)


@pytest.mark.parametrize("key", sorted(_cells()))
def test_run_matches_golden(golden, key):
    amendment = golden.get("amended", {}).get(key)
    expected = amendment["run"] if amendment else golden["runs"][key]
    assert _run(*_cells()[key]) == expected


def test_serving_fingerprint_matches_golden(golden):
    assert _serving_fingerprint() == golden["serving"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_collect(), indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
