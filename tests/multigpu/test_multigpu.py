"""Tests for the multi-GPU extension (section-VI future work)."""

import numpy as np
import pytest

from repro import DevicePlacementPolicy, SchedulerConfig, Session
from repro.core.race import check_no_races
from repro.gpusim.specs import GTX1660_SUPER
from repro.gpusim.timeline import IntervalKind
from repro.kernels import LinearCostModel

COST = LinearCostModel(
    flops_per_item=500.0,
    dram_bytes_per_item=8.0,
    instructions_per_item=100.0,
)

N = 1 << 20


def make_scheduler(n_gpus=2, policy=DevicePlacementPolicy.MIN_TRANSFER):
    return Session(
        gpus=n_gpus, gpu="1660", config=SchedulerConfig(placement=policy)
    )


class TestMultiGpuArray:
    def test_fresh_array_valid_everywhere(self):
        sched = make_scheduler()
        a = sched.array(100, name="a")
        assert a.host_valid
        assert a.resident_on(0) and a.resident_on(1)
        assert a.migration_source(0) is None

    def test_cpu_write_invalidates_devices(self):
        sched = make_scheduler()
        a = sched.array(100)
        a.mark_cpu_write()
        assert not a.resident_on(0)
        assert a.migration_source(0) == -1  # host upload

    def test_device_write_invalidates_peers_and_host(self):
        sched = make_scheduler()
        a = sched.array(100)
        a.mark_write(0)
        assert a.resident_on(0)
        assert not a.resident_on(1)
        assert not a.host_valid
        assert a.migration_source(1) == 0  # peer-to-peer

    def test_migration_bytes(self):
        sched = make_scheduler()
        a = sched.array(100)
        a.mark_cpu_write()
        assert a.migration_bytes(0) == a.nbytes
        a.mark_read(0)
        assert a.migration_bytes(0) == 0

    def test_allocation_accounted_on_all_devices(self):
        sched = make_scheduler()
        a = sched.array(1000)
        for dev in sched.devices:
            assert dev.allocated_bytes == a.nbytes

    def test_copy_from_host_shape_check(self):
        sched = make_scheduler()
        a = sched.array(4)
        with pytest.raises(ValueError):
            a.copy_from_host(np.zeros(5))


class TestPlacement:
    def run_independent(self, policy, chains=4):
        sched = make_scheduler(2, policy)
        k = sched.build_kernel(
            lambda x, n: None, "k", "ptr, sint32", COST
        )
        arrays = [
            sched.array(N, name=f"x{i}", materialize=False)
            for i in range(chains)
        ]
        for a in arrays:
            a.touch_write_full()
        for a in arrays:
            k(512, 256)(a, N)
        sched.sync()
        return sched

    def test_round_robin_alternates(self):
        sched = self.run_independent(DevicePlacementPolicy.ROUND_ROBIN)
        assert sched.context.device_kernel_counts() == [2, 2]

    def test_min_transfer_balances_fresh_inputs(self):
        # Host-fresh inputs cost the same everywhere; the load tiebreak
        # spreads them.
        sched = self.run_independent(DevicePlacementPolicy.MIN_TRANSFER)
        assert sched.context.device_kernel_counts() == [2, 2]

    def test_least_loaded_balances_independent_work(self):
        sched = self.run_independent(DevicePlacementPolicy.LEAST_LOADED)
        assert sched.context.device_kernel_counts() == [2, 2]

    def test_least_loaded_ignores_data_location(self):
        # A dependent chain: locality would keep it on one GPU, but
        # least-loaded chases the idle device and pays peer transfers.
        sched = make_scheduler(2, DevicePlacementPolicy.LEAST_LOADED)
        k = sched.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        a = sched.array(N, name="a", materialize=False)
        a.touch_write_full()
        for _ in range(4):
            k(512, 256)(a, N)
        sched.sync()
        counts = sched.context.device_kernel_counts()
        assert all(c > 0 for c in counts)  # chain spread across GPUs
        d2d = [
            r for r in sched.engine.timeline
            if r.kind is IntervalKind.TRANSFER_D2D
        ]
        assert d2d  # the price: peer migrations min-transfer avoids

    def test_min_transfer_follows_data(self):
        # A chain on one array: after the first kernel the data lives on
        # one GPU; locality keeps the rest of the chain there.
        sched = make_scheduler(2, DevicePlacementPolicy.MIN_TRANSFER)
        k = sched.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        a = sched.array(N, name="a", materialize=False)
        a.touch_write_full()
        for _ in range(4):
            k(512, 256)(a, N)
        sched.sync()
        counts = sched.context.device_kernel_counts()
        assert sorted(counts) == [0, 4]  # the whole chain on one GPU
        d2d = [
            r for r in sched.engine.timeline
            if r.kind is IntervalKind.TRANSFER_D2D
        ]
        assert d2d == []  # no peer traffic: locality preserved

    def test_round_robin_pays_peer_transfers(self):
        sched = make_scheduler(2, DevicePlacementPolicy.ROUND_ROBIN)
        k = sched.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        a = sched.array(N, name="a", materialize=False)
        a.touch_write_full()
        for _ in range(4):
            k(512, 256)(a, N)
        sched.sync()
        d2d = [
            r for r in sched.engine.timeline
            if r.kind is IntervalKind.TRANSFER_D2D
        ]
        assert len(d2d) >= 3  # the chain ping-pongs between GPUs

    def test_min_transfer_beats_round_robin_on_chains(self):
        def run(policy):
            sched = make_scheduler(2, policy)
            k = sched.build_kernel(
                lambda x, n: None, "k", "ptr, sint32", COST
            )
            a = sched.array(N, name="a", materialize=False)
            a.touch_write_full()
            for _ in range(6):
                k(512, 256)(a, N)
            sched.sync()
            return sched.elapsed()

        assert run(DevicePlacementPolicy.MIN_TRANSFER) < run(
            DevicePlacementPolicy.ROUND_ROBIN
        )


class TestScaling:
    def independent_chains_time(self, n_gpus, chains=8):
        sched = make_scheduler(n_gpus)
        k = sched.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        arrays = [
            sched.array(N, name=f"x{i}", materialize=False)
            for i in range(chains)
        ]
        for a in arrays:
            a.touch_write_full()
        for _ in range(2):
            for a in arrays:
                k(512, 256)(a, N)
        sched.sync()
        return sched.elapsed()

    def test_two_gpus_faster_than_one(self):
        t1 = self.independent_chains_time(1)
        t2 = self.independent_chains_time(2)
        assert t2 < t1 * 0.75

    def test_four_gpus_faster_than_two(self):
        t2 = self.independent_chains_time(2)
        t4 = self.independent_chains_time(4)
        assert t4 < t2


class TestCorrectness:
    def test_functional_execution_across_gpus(self):
        sched = make_scheduler(2)
        n = 1024

        def double(x, m):
            x[:m] *= 2.0

        k = sched.build_kernel(double, "double", "ptr, sint32", COST)
        a = sched.array(n, name="a")
        a.copy_from_host(np.ones(n, dtype=np.float32))
        for _ in range(3):
            k(64, 128)(a, n)
        out = a.to_numpy()
        assert np.all(out == 8.0)

    def test_dependencies_respected_across_gpus(self):
        sched = make_scheduler(2, DevicePlacementPolicy.ROUND_ROBIN)
        k = sched.build_kernel(
            lambda x, y, n: None, "k", "const ptr, ptr, sint32", COST
        )
        a = sched.array(N, name="a", materialize=False)
        b = sched.array(N, name="b", materialize=False)
        c = sched.array(N, name="c", materialize=False)
        a.touch_write_full()
        k(512, 256)(a, b, N)   # gpu0
        k(512, 256)(b, c, N)   # gpu1: must wait for gpu0's kernel
        sched.sync()
        kernels = sorted(
            sched.engine.timeline.kernels(), key=lambda r: r.start
        )
        assert kernels[1].start >= kernels[0].end
        check_no_races(sched.engine.timeline)

    def test_no_races_with_round_robin_fanout(self):
        sched = make_scheduler(2, DevicePlacementPolicy.ROUND_ROBIN)
        reader = sched.build_kernel(
            lambda x, o, n: None, "r", "const ptr, ptr, sint32", COST
        )
        shared = sched.array(N, name="s", materialize=False)
        outs = [
            sched.array(N, name=f"o{i}", materialize=False)
            for i in range(4)
        ]
        shared.touch_write_full()
        for o in outs:
            reader(512, 256)(shared, o, N)
        sched.sync()
        check_no_races(sched.engine.timeline)


class TestEngineMultiDevice:
    def test_streams_pinned_to_devices(self):
        sched = make_scheduler(2)
        k = sched.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        a = sched.array(N, name="a", materialize=False)
        b = sched.array(N, name="b", materialize=False)
        a.touch_write_full()
        b.touch_write_full()
        k(512, 256)(a, N)
        k(512, 256)(b, N)
        sched.sync()
        indices = {
            s.device_index for s in sched.engine.streams if s.completed_count
        }
        assert indices == {0, 1}

    def test_device_contention_is_independent(self):
        # Two full-device kernels on two GPUs run at full speed each;
        # on one GPU they halve.
        from repro.gpusim import Device, SimEngine
        from repro.gpusim.ops import KernelOp, KernelResourceRequest

        def kernel():
            return KernelOp(
                label="k",
                resources=KernelResourceRequest(
                    flops=3.8e12, fp64=False, dram_bytes=0, l2_bytes=0,
                    instructions=0,
                    threads_total=GTX1660_SUPER.max_resident_threads,
                ),
            )

        dual = SimEngine([Device(GTX1660_SUPER), Device(GTX1660_SUPER)])
        s0 = dual.create_stream(device_index=0)
        s1 = dual.create_stream(device_index=1)
        dual.submit(s0, kernel())
        dual.submit(s1, kernel())
        dual.sync_all()
        assert dual.clock == pytest.approx(1.0, rel=1e-6)

        single = SimEngine(Device(GTX1660_SUPER))
        sa = single.create_stream()
        sb = single.create_stream()
        single.submit(sa, kernel())
        single.submit(sb, kernel())
        single.sync_all()
        assert single.clock == pytest.approx(2.0, rel=1e-6)

    def test_bad_device_index_rejected(self):
        from repro.errors import InvalidStateError
        from repro.gpusim import Device, SimEngine

        engine = SimEngine(Device(GTX1660_SUPER))
        with pytest.raises(InvalidStateError):
            engine.create_stream(device_index=1)
