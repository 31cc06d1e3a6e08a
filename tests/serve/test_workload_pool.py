"""The thread pool of ``mixed_workload_graphs``.

Every graph is bit for bit the graph built on its own with
``graph_from_benchmark(create_benchmark(...))``, the graphs come back in
request order, the benchmarks are constructed in the calling thread, and
no pool thread is alive once the call returns or raises.
"""

from __future__ import annotations

import hashlib
import os
import threading

import numpy as np
import pytest

from repro.serve import workloads
from repro.serve.workloads import (
    SERVING_SCALES,
    TRAFFIC_MIXES,
    graph_from_benchmark,
    mixed_workload_graphs,
    traffic_mix_graphs,
)
from repro.workloads.bs import BlackScholes
from repro.workloads.suite import create_benchmark

#: more graphs than the pool has threads, so every thread draws several
COUNT = (os.cpu_count() or 1) + 3
SEED = 7
#: small enough to keep the test light, large enough that every input
#: spans more than one ``fill_uniform`` chunk
SCALES = {"vec": 40_000, "b&s": 40_000, "ml": 200}


def _digest(graphs) -> list:
    return [
        (
            graph.name,
            [
                (
                    name,
                    hashlib.sha256(
                        np.ascontiguousarray(decl.init).tobytes()
                    ).hexdigest(),
                    str(decl.init.dtype),
                    decl.init.shape,
                    decl.init.flags.writeable,
                )
                for name, decl in graph.arrays.items()
            ],
        )
        for graph in graphs
    ]


@pytest.mark.parametrize("mix", sorted(TRAFFIC_MIXES))
def test_pool_equals_one_graph_at_a_time(mix):
    names = TRAFFIC_MIXES[mix]
    alone = []
    for i in range(COUNT):
        name = names[i % len(names)]
        bench = create_benchmark(
            name, SCALES[name], seed=SEED + i, iterations=1
        )
        alone.append(graph_from_benchmark(bench))
    pooled = traffic_mix_graphs(COUNT, mix, seed=SEED, scales=SCALES)
    assert _digest(pooled) == _digest(alone)


def test_benchmarks_are_constructed_in_the_calling_thread(monkeypatch):
    made = []

    def recording(name, scale, **kwargs):
        made.append((threading.get_ident(), name, kwargs["seed"]))
        return create_benchmark(name, scale, **kwargs)

    monkeypatch.setattr(workloads, "create_benchmark", recording)
    mixed_workload_graphs(COUNT, seed=SEED, scales=SCALES)
    names = list(SERVING_SCALES)
    assert made == [
        (threading.get_ident(), names[i % len(names)], SEED + i)
        for i in range(COUNT)
    ]


def test_no_pool_thread_outlives_the_call():
    before = set(threading.enumerate())
    graphs = mixed_workload_graphs(COUNT, seed=SEED, scales=SCALES)
    assert len(graphs) == COUNT
    assert set(threading.enumerate()) == before


def test_a_failing_generator_raises_and_leaves_no_thread(monkeypatch):
    inputs = BlackScholes.inputs
    failing_seed = SEED + 4  # the second B&S graph of the cycle

    def failing(self, iteration):
        writes = inputs(self, iteration)
        if self.seed != failing_seed:
            return writes

        def fail():
            raise RuntimeError(f"generator of seed {self.seed} failed")

        return {name: fail for name in writes}

    monkeypatch.setattr(BlackScholes, "inputs", failing)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=f"seed {failing_seed} failed"):
        mixed_workload_graphs(COUNT, seed=SEED, scales=SCALES)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize(
    "generate", [mixed_workload_graphs, traffic_mix_graphs]
)
def test_negative_count_is_rejected(generate):
    with pytest.raises(ValueError, match="-3"):
        generate(-3)
    assert generate(0) == []
