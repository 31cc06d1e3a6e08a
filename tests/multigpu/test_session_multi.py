"""Multi-GPU sessions behind the unified API: transparent polyglot
programs, movement policies on the fleet, and completion-applied
location-set transitions."""

import numpy as np
import pytest

from repro import DevicePlacementPolicy, SchedulerConfig, Session
from repro.core.race import check_no_races
from repro.gpusim.timeline import IntervalKind
from repro.kernels import LinearCostModel
from repro.lang import Polyglot
from repro.memory.coherence import MovementPolicy
from repro.workloads import Mode
from repro.workloads.suite import BENCHMARKS, create_benchmark, default_scales

COST = LinearCostModel(
    flops_per_item=500.0,
    dram_bytes_per_item=8.0,
    instructions_per_item=100.0,
)

N = 1 << 18


def run_polyglot_program(gpus: int) -> tuple[float, np.ndarray]:
    """The paper's Fig. 4 program, written once, device count as
    configuration."""
    sess = Session(gpus=gpus, gpu="GTX 1660 Super")
    poly = Polyglot(sess)
    buildkernel = poly.eval("grcuda", "buildkernel")

    def square(x, n):
        np.square(x[:n], out=x[:n])

    def diff_sum(x, y, z, n):
        z[0] = float(np.sum(x[:n] - y[:n], dtype=np.float64))

    k1 = buildkernel(square, "square", "ptr, sint32", COST)
    k2 = buildkernel(
        diff_sum, "sum", "const ptr, const ptr, ptr, sint32", COST
    )
    n = 4096
    x = poly.eval("grcuda", f"float[{n}]")
    y = poly.eval("grcuda", f"float[{n}]")
    z = poly.eval("grcuda", "float[1]")
    x.copy_from_host(np.full(n, 2.0, dtype=np.float32))
    y.copy_from_host(np.full(n, 3.0, dtype=np.float32))
    k1(64, 64)(x, n)
    k1(64, 64)(y, n)
    k2(64, 64)(x, y, z, n)
    result = z[0]
    sess.sync()
    return result, x.to_numpy()


class TestPolyglotTransparency:
    def test_dsl_program_bit_identical_across_device_counts(self):
        res1, x1 = run_polyglot_program(1)
        res2, x2 = run_polyglot_program(2)
        assert res1 == res2  # bit-identical scalar result
        assert np.array_equal(x1, x2)
        assert res1 == 4096 * (4.0 - 9.0)

    def test_polyglot_arrays_are_fleet_arrays(self):
        from repro.memory import DeviceArray

        sess = Session(gpus=2)
        arr = Polyglot(sess).eval("grcuda", "float[16]")
        assert isinstance(arr, DeviceArray)
        assert arr.devices == sess.devices
        arr[3] = 5.0
        assert arr[3] == 5.0


class TestWorkloadsOnFleet:
    """The six suite workloads run unchanged on a 2-GPU session with
    results identical to single-GPU execution (and therefore to the
    pre-refactor MultiGpuScheduler, which shared the single-GPU
    kernels)."""

    @pytest.mark.parametrize("name", sorted(BENCHMARKS))
    def test_results_match_single_gpu(self, name):
        scale = default_scales(name, "GTX 1660 Super")[0]

        def run(gpus):
            bench = create_benchmark(name, scale, iterations=2)
            res = bench.run(
                "GTX 1660 Super", Mode.PARALLEL,
                movement=MovementPolicy.PAGE_FAULT, gpus=gpus,
            )
            return res.results

        assert run(2) == run(1)

    @pytest.mark.parametrize(
        "placement",
        [DevicePlacementPolicy.ROUND_ROBIN,
         DevicePlacementPolicy.LEAST_LOADED],
    )
    def test_vec_race_free_on_fleet(self, placement):
        scale = default_scales("vec", "GTX 1660 Super")[0]
        bench = create_benchmark("vec", scale, iterations=2)
        res = bench.run(
            "GTX 1660 Super", Mode.PARALLEL,
            gpus=2, placement=placement,
        )
        check_no_races(res.timeline)


def chain_session(policy: MovementPolicy, placement=None):
    """A 6-kernel chain over one array on two GPUs — the shape where the
    movement policy decides whether peer mirrors happen at all."""
    sess = Session(
        gpus=2,
        config=SchedulerConfig(
            movement=policy,
            placement=placement or DevicePlacementPolicy.ROUND_ROBIN,
        ),
    )
    k = sess.build_kernel(lambda x, n: None, "step", "ptr, sint32", COST)
    a = sess.array(N, name="chain", materialize=False)
    a.touch_write_full()
    for _ in range(6):
        k(512, 256)(a, N)
    sess.sync()
    return sess


def d2d_bytes(sess) -> float:
    return sum(
        r.nbytes
        for r in sess.timeline()
        if r.kind is IntervalKind.TRANSFER_D2D
    )


class TestFleetMovementPolicies:
    def test_page_fault_issues_no_peer_mirrors(self):
        """Regression: multi-GPU ``acquire`` must respect PAGE_FAULT — the
        old path mirrored eagerly whatever the policy said."""
        fault = chain_session(MovementPolicy.PAGE_FAULT)
        assert d2d_bytes(fault) == 0.0
        m = fault.metrics()
        assert m.fault_bytes > 0
        assert m.migrated_bytes == 0.0

    def test_fault_moves_fewer_d2d_bytes_than_eager(self):
        fault = chain_session(MovementPolicy.PAGE_FAULT)
        eager = chain_session(MovementPolicy.EAGER_PREFETCH)
        assert d2d_bytes(fault) < d2d_bytes(eager)
        assert d2d_bytes(eager) > 0  # the ping-pong really mirrors

    def test_eager_at_least_as_fast_as_fault(self):
        """The ROADMAP dominance relation, fleet-wide."""
        fault = chain_session(MovementPolicy.PAGE_FAULT)
        eager = chain_session(MovementPolicy.EAGER_PREFETCH)
        assert eager.elapsed() <= fault.elapsed() * (1 + 1e-9)

    def test_batched_coalesces_multi_input_acquires(self):
        sess = Session(
            gpus=2,
            config=SchedulerConfig(
                movement=MovementPolicy.BATCHED,
                placement=DevicePlacementPolicy.ROUND_ROBIN,
            ),
        )
        k = sess.build_kernel(
            lambda x, y, o, n: None, "join",
            "const ptr, const ptr, ptr, sint32", COST,
        )
        x = sess.array(N, name="x", materialize=False)
        y = sess.array(N, name="y", materialize=False)
        o = sess.array(N, name="o", materialize=False)
        x.touch_write_full()
        y.touch_write_full()
        k(512, 256)(x, y, o, N)
        sess.sync()
        assert sess.metrics().coalesced_transfers >= 1


class TestFleetMovementHarness:
    def test_sweep_asserts_dominance_per_placement(self):
        """The movement-bench fleet grid runs end-to-end and enforces
        eager <= fault on makespan for every placement policy."""
        from repro.harness.movement import (
            render_movement_table,
            sweep_movement_policies,
        )

        cells = sweep_movement_policies(
            benchmarks=("vec",), gpus=2, iterations=2, execute=False
        )
        # placements x (movement policies + windowed BATCHED), one
        # workload
        assert len(cells) == 3 * (len(MovementPolicy) + 1)
        by_key = {
            (c.placement, c.policy): c for c in cells if c.window == 0
        }
        for placement in DevicePlacementPolicy:
            eager = by_key[(placement, MovementPolicy.EAGER_PREFETCH)]
            fault = by_key[(placement, MovementPolicy.PAGE_FAULT)]
            assert eager.elapsed <= fault.elapsed * (1 + 1e-9)
            assert fault.fault_bytes > 0
            assert fault.moved_bytes == 0.0
        table = render_movement_table(cells)
        assert "placement" in table and "page-fault" in table


class TestMixedPolicyFleetOrdering:
    def test_peer_copy_waits_for_faulting_kernel(self):
        """A fault-materialized replica does not exist until its kernel
        completes: a consumer on a fault-less device that peer-copies
        from it must be ordered behind the kernel's finish event."""
        sess = Session(
            gpus=2,
            gpu=["Tesla P100", "GTX 960"],  # 960: no fault engine
            config=SchedulerConfig(
                movement=MovementPolicy.PAGE_FAULT,
                placement=DevicePlacementPolicy.ROUND_ROBIN,
            ),
        )
        k = sess.build_kernel(
            lambda x, o, n: None, "r", "const ptr, ptr, sint32", COST
        )
        a = sess.array(N, name="a", materialize=False)
        o1 = sess.array(N, name="o1", materialize=False)
        o2 = sess.array(N, name="o2", materialize=False)
        a.touch_write_full()
        k(512, 256)(a, o1, N)  # gpu0 (P100): faults `a` in
        k(512, 256)(a, o2, N)  # gpu1 (960): eager peer copy from gpu0
        sess.sync()
        kernels = sorted(sess.timeline().kernels(), key=lambda r: r.start)
        d2d = [
            r for r in sess.timeline()
            if r.kind is IntervalKind.TRANSFER_D2D
        ]
        assert d2d, "the 960 must mirror from the P100's replica"
        faulting_kernel_end = kernels[0].end
        assert d2d[0].start >= faulting_kernel_end
        check_no_races(sess.timeline())


class TestCompletionAppliedTransitions:
    def test_location_set_commits_at_completion_not_submission(self):
        """The planned/committed split covers location sets: the
        committed location set moves only when the migration (or the
        faulting kernel) completes on the simulated device."""
        sess = Session(
            gpus=2,
            config=SchedulerConfig(
                movement=MovementPolicy.EAGER_PREFETCH,
                placement=DevicePlacementPolicy.ROUND_ROBIN,
            ),
        )
        k = sess.build_kernel(lambda x, n: None, "w", "ptr, sint32", COST)
        a = sess.array(N, name="a", materialize=False)
        a.touch_write_full()
        k(512, 256)(a, N)  # round-robin -> gpu0, write
        committed_after_submit = set(a.valid_on)
        host_after_submit = a.host_valid
        # Submission must not have committed the GPU write: the host
        # copy is still the only valid one until the kernel completes.
        assert committed_after_submit == set()
        assert host_after_submit
        # The planned overlay already sees the in-flight write.
        assert sess.context.coherence.resident(a, 0)
        assert not sess.context.coherence.host_valid(a)
        sess.sync()
        assert a.valid_on == {0}
        assert not a.host_valid

    def test_placement_prices_planned_residency(self):
        """Min-transfer keeps a dependent chain on one device because
        pricing reads the planned overlay (committed state still lags
        at submission time)."""
        sess = chain_session(
            MovementPolicy.EAGER_PREFETCH,
            placement=DevicePlacementPolicy.MIN_TRANSFER,
        )
        counts = sess.context.device_kernel_counts()
        assert sorted(counts) == [0, 6]
        assert d2d_bytes(sess) == 0.0

    def test_host_write_kills_in_flight_migration(self):
        """A full host overwrite supersedes an in-flight mirror: when
        the dead migration lands it must not resurrect the replica."""
        sess = Session(
            gpus=2,
            config=SchedulerConfig(
                movement=MovementPolicy.EAGER_PREFETCH,
                placement=DevicePlacementPolicy.ROUND_ROBIN,
            ),
        )
        k = sess.build_kernel(lambda x, n: None, "r", "const ptr, sint32",
                              COST)
        a = sess.array(N, name="a", materialize=False)
        a.touch_write_full()
        k(512, 256)(a, N)       # mirrors host -> gpu0 (in flight)
        a.touch_write_full()    # full overwrite: syncs, invalidates
        assert a.host_valid
        assert a.valid_on == set()
        sess.sync()
        # The superseded migration's completion did not mark gpu0 valid.
        assert a.valid_on == set()
        assert a.host_valid
