"""Simulator micro-benchmarks (the one place wall-clock time matters).

These measure the discrete-event engine and the scheduler themselves,
so regressions in the substrate's algorithmic complexity (rate
repricing, dependency-set updates, frontier pruning) show up here.
"""


from repro import Session
from repro.gpusim import Device, SimEngine
from repro.gpusim.ops import KernelOp, KernelResourceRequest
from repro.gpusim.specs import gpu_by_name
from repro.kernels import LinearCostModel

COST = LinearCostModel(
    flops_per_item=100.0, dram_bytes_per_item=8.0
)


def many_kernel_run(num_kernels: int = 200) -> float:
    rt = Session(gpu="GTX 1660 Super")
    n = 1 << 16
    k = rt.build_kernel(lambda x, m: None, "k", "ptr, sint32", COST)
    arrays = [rt.array(n, materialize=False) for _ in range(8)]
    for i in range(num_kernels):
        k(64, 256)(arrays[i % len(arrays)], n)
    rt.sync()
    return rt.elapsed()


def wide_fanout_run(width: int = 64) -> float:
    rt = Session(gpu="Tesla P100")
    n = 1 << 16
    k = rt.build_kernel(lambda x, m: None, "k", "const ptr, sint32", COST)
    w = rt.build_kernel(lambda x, m: None, "w", "ptr, sint32", COST)
    shared = rt.array(n, materialize=False, name="shared")
    w(64, 256)(shared, n)
    for _ in range(width):  # all read-only: full fan-out
        k(64, 256)(shared, n)
    rt.sync()
    return rt.elapsed()


def many_streams_run(
    num_streams: int = 256, ops_per_stream: int = 4
) -> SimEngine:
    """Round-robin submission over many live streams.

    This regresses the O(streams)-per-step scan specifically: the
    pre-PR-3 engine re-scanned every stream per step in
    ``_drain_instantaneous`` and in the ``sync_all`` predicate, so
    long-lived engines with hundreds of streams paid O(streams) per
    step even when one stream had work.  The indexed engine visits only
    ready streams and keeps a busy-stream counter.
    """
    engine = SimEngine(Device(gpu_by_name("Tesla P100")))
    streams = [
        engine.create_stream(label=f"rr-{i}") for i in range(num_streams)
    ]
    for round_idx in range(ops_per_stream):
        for i, stream in enumerate(streams):
            engine.submit(
                stream,
                KernelOp(
                    label=f"k{round_idx}-{i}",
                    resources=KernelResourceRequest(
                        flops=1e8 + (i % 5) * 2e7,
                        fp64=False,
                        dram_bytes=float(1 << 14),
                        l2_bytes=0.0,
                        instructions=0.0,
                        threads_total=2048,
                    ),
                ),
            )
        engine.charge_host_time(1e-6)
    engine.sync_all()
    return engine


def test_engine_throughput_sequential(benchmark):
    elapsed = benchmark(many_kernel_run)
    assert elapsed > 0


def test_engine_throughput_many_streams(benchmark):
    engine = benchmark(many_streams_run)
    assert len(engine.timeline) == 256 * 4
    # Repricing tracks running-set changes (2 per op), never steps.
    assert engine.repricings <= engine.running_set_changes + 1


def test_engine_throughput_fanout(benchmark):
    elapsed = benchmark(wide_fanout_run)
    assert elapsed > 0


def test_dependency_inference_cost(benchmark):
    """Scheduling overhead of dependency-set updates on a long chain."""

    def chained(num_kernels: int = 300) -> int:
        rt = Session(gpu="GTX 1660 Super")
        n = 1 << 12
        k = rt.build_kernel(
            lambda x, y, m: None, "k", "const ptr, ptr, sint32", COST
        )
        a = rt.array(n, materialize=False)
        b = rt.array(n, materialize=False)
        for i in range(num_kernels):
            if i % 2 == 0:
                k(16, 128)(a, b, n)
            else:
                k(16, 128)(b, a, n)
        rt.sync()
        return rt.dag.num_edges

    edges = benchmark(chained)
    assert edges >= 299
