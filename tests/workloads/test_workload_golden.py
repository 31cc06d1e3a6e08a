"""Frozen behaviour of the benchmark suite's declarations and executors.

Pins, for all six benchmarks:

* every execution mode with functional execution on (test scales, two
  iterations, seed 5, GTX 1660 Super): per-iteration results, virtual
  makespan and host clock (``float.hex``), stream count and counters,
  plus ``reference()`` of both iterations;
* every mode timing-only at the first paper scale point;
* the contention-free bound on each GPU, at the first paper scale
  (timing-only) and at the test scale;
* ``figure2``'s rows and summary;
* the task graph ``graph_from_benchmark`` builds for iterations 0 and 1:
  per array its shape, dtype, zero-block and writeable flags and the
  sha256 of its ``init``; the outputs, kernels and launches; and the
  steps of ``derive_plan``.

Regenerate (only on a commit whose workload results are the reference)::

    PYTHONPATH=src python tests/workloads/test_workload_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.harness.figures import figure2
from repro.memory.array import is_zero_block
from repro.metrics.contention_free import contention_free_time
from repro.serve.capture import derive_plan
from repro.serve.workloads import graph_from_benchmark
from repro.workloads import Mode, create_benchmark
from repro.workloads.suite import PAPER_SCALES

# The scales of tests/workloads/conftest.py, repeated so that the module
# also runs as a script.
TEST_SCALES = {
    "vec": 50_000,
    "b&s": 10_000,
    "img": 96,
    "ml": 1_000,
    "hits": 2_000,
    "dl": 64,
}
NAMES = sorted(TEST_SCALES)
GPU = "GTX 1660 Super"
GPUS = ("GTX 960", "GTX 1660 Super", "Tesla P100")
SEED = 5
ITERATIONS = 2

GOLDEN = pathlib.Path(__file__).with_name("workload_golden.json")


def _plain(value):
    """``value`` as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def _modes(name: str, execute: bool) -> dict:
    scale = TEST_SCALES[name] if execute else PAPER_SCALES[name][0]
    cells = {}
    for mode in Mode:
        bench = create_benchmark(
            name, scale, iterations=ITERATIONS, seed=SEED, execute=execute
        )
        result = bench.run(GPU, mode)
        cell = {
            "elapsed": result.elapsed.hex(),
            "host_clock": result.host_clock.hex(),
            "stream_count": result.stream_count,
            "counters": result.counters,
        }
        if execute:
            cell["results"] = [r.hex() for r in result.results]
        cells[mode.value] = cell
    return _plain(cells)


def _reference(name: str) -> list[str]:
    bench = create_benchmark(
        name, TEST_SCALES[name], iterations=ITERATIONS, seed=SEED
    )
    bench.run(GPU, Mode.SERIAL)
    return [bench.reference(i).hex() for i in range(ITERATIONS)]


def _contention_free(name: str) -> dict:
    paper = create_benchmark(
        name, PAPER_SCALES[name][0], iterations=ITERATIONS, execute=False
    )
    test = create_benchmark(
        name, TEST_SCALES[name], iterations=ITERATIONS, seed=SEED
    )
    return {
        gpu: [
            contention_free_time(paper, gpu).hex(),
            contention_free_time(test, gpu).hex(),
        ]
        for gpu in GPUS
    }


def _figure2(name: str) -> dict:
    data = figure2(name)
    return _plain({"rows": data.rows, "summary": data.summary})


def _shape(shape) -> list[int]:
    return [shape] if isinstance(shape, int) else list(shape)


def _graph(name: str, iteration: int) -> dict:
    bench = create_benchmark(
        name, TEST_SCALES[name], iterations=ITERATIONS, seed=SEED
    )
    graph = graph_from_benchmark(bench, iteration)
    plan = derive_plan(graph)
    return _plain(
        {
            "name": graph.name,
            "arrays": {
                array: {
                    "shape": _shape(decl.shape),
                    "dtype": str(np.dtype(decl.dtype)),
                    "zero_block": is_zero_block(decl.init),
                    "writeable": decl.init.flags.writeable,
                    "init_shape": list(decl.init.shape),
                    "sha256": hashlib.sha256(
                        np.ascontiguousarray(decl.init).tobytes()
                    ).hexdigest(),
                }
                for array, decl in graph.arrays.items()
            },
            "array_order": list(graph.arrays),
            "outputs": list(graph.outputs),
            "kernels": [[k.name, k.signature] for k in graph.kernels],
            "launches": [
                [d.kernel, d.grid, d.block, list(d.args)]
                for d in graph.launches
            ],
            "bytes": [
                graph.total_bytes, graph.input_bytes, graph.output_bytes
            ],
            "plan": [
                [s.index, s.stream, list(s.waits), s.record_event]
                for s in plan.steps
            ],
            "stream_count": plan.stream_count,
            "captured_nodes": len(plan.captured.nodes),
        }
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_modes_with_execution(golden, name):
    assert _modes(name, execute=True) == golden["execute"][name]


@pytest.mark.parametrize("name", NAMES)
def test_modes_timing_only_at_paper_scale(golden, name):
    assert _modes(name, execute=False) == golden["timing"][name]


@pytest.mark.parametrize("name", NAMES)
def test_reference(golden, name):
    assert _reference(name) == golden["reference"][name]


@pytest.mark.parametrize("name", NAMES)
def test_contention_free_bound(golden, name):
    assert _contention_free(name) == golden["contention_free"][name]


@pytest.mark.parametrize("name", NAMES)
def test_figure2(golden, name):
    assert _figure2(name) == golden["figure2"][name]


@pytest.mark.parametrize("iteration", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_task_graph(golden, name, iteration):
    assert _graph(name, iteration) == golden["graphs"][name][str(iteration)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    golden = {
        "execute": {n: _modes(n, execute=True) for n in NAMES},
        "timing": {n: _modes(n, execute=False) for n in NAMES},
        "reference": {n: _reference(n) for n in NAMES},
        "contention_free": {n: _contention_free(n) for n in NAMES},
        "figure2": {n: _figure2(n) for n in NAMES},
        "graphs": {
            n: {str(i): _graph(n, i) for i in (0, 1)} for n in NAMES
        },
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
