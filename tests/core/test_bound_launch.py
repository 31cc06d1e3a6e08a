"""A bound launch dispatched many times: the same schedule as fresh
binds, launch facts built once per device, and nothing kept alive.

A host program's loop may bind its launches once and dispatch each on
every iteration (``Benchmark.run`` does).  What a submission derives
from the launch alone — the race detector's tokens, the history record's
data bytes — lives on the launch, not in any table of an engine,
coherence engine or context.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import (
    DevicePlacementPolicy,
    ExecutionPolicy,
    SchedulerConfig,
    Session,
)
from repro.core.context import submit_kernel
from repro.core.element import KernelElement
from repro.gpusim import GTX1660_SUPER, Device, SimEngine
from repro.graphs import HandTunedScheduler
from repro.kernels import LinearCostModel, build_kernel
from repro.kernels.kernel import timing_only
from repro.memory import CoherenceEngine, DeviceArray

N = 1 << 12
ITERATIONS = 4
COST = LinearCostModel(
    flops_per_item=200.0,
    dram_bytes_per_item=8.0,
    instructions_per_item=20.0,
)


def axpy(x, y, n):
    y[:n] += 2.0 * x[:n]


def scale(y, n):
    y[:n] *= 0.5


def _program(sess, bound):
    """Two launches per iteration, with host writes and a read between
    iterations; ``bound`` binds each launch once, otherwise every
    iteration binds afresh.  Returns the arrays, the results read and
    the kernels."""
    x = sess.array(N, name="x")
    y = sess.array(N, name="y")
    k_axpy = sess.build_kernel(axpy, "axpy", "const ptr, ptr, sint32", COST)
    k_scale = sess.build_kernel(scale, "scale", "ptr, sint32", COST)
    launches = [k_axpy(16, 128).bind(x, y, N), k_scale(16, 128).bind(y, N)]
    results = []
    for it in range(ITERATIONS):
        x.copy_from_host(np.full(N, float(it + 1), dtype=np.float32))
        if bound:
            for launch in launches:
                launch.dispatch()
        else:
            k_axpy(16, 128)(x, y, N)
            k_scale(16, 128)(y, N)
        results.append(float(y[0]))
    sess.sync()
    return (x, y), results, (k_axpy, k_scale)


def _rows(sess, arrays):
    """The timeline's records without op ids, each race token replaced
    by its (array name, device): the two sessions' arrays differ."""
    token = {(id(a), "host"): (a.name, "host") for a in arrays}
    token.update(
        (key, (a.name, d)) for a in arrays for d, key in enumerate(a.copy_keys)
    )

    def norm(value):
        if isinstance(value, tuple):
            if value in token:
                return token[value]
            return tuple(norm(v) for v in value)
        return value

    return [
        (r.label, r.kind, r.stream_id, r.start, r.end, r.nbytes,
         [(k, norm(v)) for k, v in r.meta.items()])
        for r in sess.timeline()
    ]


@pytest.mark.parametrize(
    "execution", [ExecutionPolicy.SERIAL, ExecutionPolicy.PARALLEL]
)
def test_redispatch_matches_fresh_binds(execution):
    config = SchedulerConfig(execution=execution)
    fresh, bound = Session(config=config), Session(config=config)
    fresh_arrays, fresh_results, _ = _program(fresh, bound=False)
    bound_arrays, bound_results, _ = _program(bound, bound=True)
    assert bound_results == fresh_results
    assert _rows(bound, bound_arrays) == _rows(fresh, fresh_arrays)
    assert bound.counters() == fresh.counters()
    assert bound.metrics().kernels_launched == 2 * ITERATIONS
    for name in ("axpy", "scale"):
        assert bound.history.executions(name) == fresh.history.executions(
            name
        )
    assert len(bound.timeline().kernels()) == 2 * ITERATIONS


def test_kernel_counts_every_dispatch_of_a_bound_launch():
    _, _, kernels = _program(Session(), bound=True)
    assert [k.launch_count for k in kernels] == [ITERATIONS, ITERATIONS]


def test_resubmissions_share_the_annotation_tuples():
    sess = Session()
    (x, y), _, (k_axpy, _) = _program(sess, bound=True)
    rows = [r for r in sess.timeline().kernels() if r.label == "axpy"]
    assert len(rows) == ITERATIONS
    first = rows[0].meta
    assert first["reads"] == (x.copy_keys[0], y.copy_keys[0])
    assert first["writes"] == (y.copy_keys[0],)
    for row in rows[1:]:
        for key in ("reads", "writes", "array_names"):
            assert row.meta[key] is first[key]


def test_each_device_gets_its_own_tokens():
    sess = Session(
        gpus=2,
        config=SchedulerConfig(placement=DevicePlacementPolicy.ROUND_ROBIN),
    )
    x = sess.array(N, name="x")
    k = sess.build_kernel(scale, "scale", "ptr, sint32", COST)
    launch = k(16, 128).bind(x, N)
    for _ in range(3):
        launch.dispatch()
    sess.sync()
    rows = sess.timeline().kernels()
    assert [r.meta["device"] for r in rows] == [0, 1, 0]
    on_0, on_1, again_0 = (r.meta for r in rows)
    assert on_0["writes"] == (x.copy_keys[0],)
    assert on_1["writes"] == (x.copy_keys[1],)
    assert on_1["array_names"] == ((x.copy_keys[1], "x"),)
    for key in ("reads", "writes", "array_names"):
        assert again_0[key] is on_0[key]
        assert on_1[key] is not on_0[key]
    assert (on_1["reads"], on_1["writes"], on_1["array_names"]) == (
        launch.tokens(1)
    )


def test_long_lived_coherence_engine_keeps_no_launch_alive():
    """A hand-tuned scheduler's coherence engine outlives every launch
    it submits; once the op completed and the caller dropped the
    launch, the launch's array is freed on its last reference."""
    engine = SimEngine(Device(GTX1660_SUPER))
    ht = HandTunedScheduler(engine)
    stream = ht.stream()
    k = build_kernel(scale, "scale", "ptr, sint32", cost_model=COST)
    x = DeviceArray(N, name="x")
    launch = k(16, 128).bind(x, N)
    ht.launch(stream, launch)
    ht.launch(stream, launch)
    ht.sync()
    assert len(engine.timeline.kernels()) == 2
    ref = weakref.ref(x)
    gc.disable()
    try:
        del launch, x
        assert ref() is None
    finally:
        gc.enable()


def test_a_timing_only_launch_submits_no_compute_body():
    engine = SimEngine(Device(GTX1660_SUPER))
    coherence = CoherenceEngine(engine)
    y = DeviceArray(N, devices=engine.devices, name="y")
    body = build_kernel(scale, "scale", "ptr, sint32", COST)
    timed = build_kernel(timing_only, "scale", "ptr, sint32", COST)
    y.kernel_view[:] = 2.0
    op, _ = submit_kernel(
        coherence, engine.default_stream, timed(16, 128).bind(y, N)
    )
    assert op.compute_fn is None
    op, _ = submit_kernel(
        coherence, engine.default_stream, body(16, 128).bind(y, N)
    )
    assert op.compute_fn is not None
    engine.sync_all()
    assert np.all(y.kernel_view == 1.0)  # scaled once, by the body


def test_each_element_gets_its_own_dependency_set():
    k = build_kernel(axpy, "axpy", "const ptr, ptr, sint32", COST)
    x, y = DeviceArray(N), DeviceArray(N)
    launch = k(16, 128).bind(x, y, N)
    first, second = KernelElement(launch), KernelElement(launch)
    first.remove_from_set(y)
    assert second.dependency_set == launch.access_kinds()
    assert len(launch.access_kinds()) == 2 and first.uses(y) is None
