"""Multi-GPU extension benchmarks (section-VI future work).

Not a paper figure — the paper leaves multi-GPU as future work — but the
design requirement it states ("compute data location and migration costs
at run time") is measurable: locality-aware placement must beat naive
round-robin on dependent work, and independent work must scale with the
GPU count.
"""

from repro import DevicePlacementPolicy, SchedulerConfig, Session
from repro.gpusim.timeline import IntervalKind
from repro.kernels import LinearCostModel

N = 1 << 22
COST = LinearCostModel(
    flops_per_item=800.0,
    dram_bytes_per_item=8.0,
    instructions_per_item=150.0,
)


def run_independent(n_gpus, policy=DevicePlacementPolicy.MIN_TRANSFER):
    sched = Session(
        gpus=n_gpus, gpu="1660", config=SchedulerConfig(placement=policy)
    )
    k = sched.build_kernel(lambda x, n: None, "w", "ptr, sint32", COST)
    arrays = [
        sched.array(N, name=f"b{i}", materialize=False) for i in range(8)
    ]
    for a in arrays:
        a.touch_write_full()
    for _ in range(2):
        for a in arrays:
            k(512, 256)(a, N)
    sched.sync()
    return sched


def run_chain(policy):
    sched = Session(
        gpus=2, gpu="1660", config=SchedulerConfig(placement=policy)
    )
    k = sched.build_kernel(lambda x, n: None, "s", "ptr, sint32", COST)
    a = sched.array(N, name="c", materialize=False)
    a.touch_write_full()
    for _ in range(8):
        k(512, 256)(a, N)
    sched.sync()
    return sched


def test_multigpu_strong_scaling(benchmark):
    sched2 = benchmark.pedantic(
        run_independent, args=(2,), rounds=1, iterations=1
    )
    sched1 = run_independent(1)
    sched4 = run_independent(4)
    t1, t2, t4 = (s.elapsed() for s in (sched1, sched2, sched4))
    print(
        f"\n8 independent pipelines: 1 GPU {t1 * 1e3:.1f} ms,"
        f" 2 GPUs {t2 * 1e3:.1f} ms, 4 GPUs {t4 * 1e3:.1f} ms"
    )
    assert t2 < 0.75 * t1
    assert t4 < t2
    # Work spread across all devices.
    assert all(c > 0 for c in sched2.context.device_kernel_counts())


def test_locality_beats_round_robin(benchmark):
    tuned = benchmark.pedantic(
        run_chain,
        args=(DevicePlacementPolicy.MIN_TRANSFER,),
        rounds=1,
        iterations=1,
    )
    naive = run_chain(DevicePlacementPolicy.ROUND_ROBIN)
    d2d_naive = sum(
        1
        for r in naive.engine.timeline
        if r.kind is IntervalKind.TRANSFER_D2D
    )
    d2d_tuned = sum(
        1
        for r in tuned.engine.timeline
        if r.kind is IntervalKind.TRANSFER_D2D
    )
    print(
        f"\ndependent chain: round-robin {naive.elapsed() * 1e3:.1f} ms"
        f" ({d2d_naive} D2D copies), min-transfer"
        f" {tuned.elapsed() * 1e3:.1f} ms ({d2d_tuned} D2D copies)"
    )
    assert tuned.elapsed() < naive.elapsed()
    assert d2d_tuned == 0
    assert d2d_naive >= 3
