"""Tests for the unified coherence & data-movement engine.

Covers the three scenarios the refactor consolidates:

* the cross-stream shared-input migration hazard (previously handled by
  per-executor ``MigrationTracker`` copies);
* partial-vs-full CPU-write invalidation through the completion-applied
  transition path;
* movement-policy equivalence: all three policies produce bit-identical
  workload outputs, with EAGER_PREFETCH strictly reducing simulated
  page-fault bytes.
"""

import numpy as np
import pytest

from repro.gpusim import Device, GTX960, GTX1660_SUPER, SimEngine
from repro.gpusim.ops import (
    KernelOp,
    KernelResourceRequest,
    OpState,
    TransferDirection,
)
from repro.gpusim.timeline import IntervalKind
from repro.memory import (
    AccessKind,
    CoherenceEngine,
    DeviceArray,
    MovementPolicy,
    PAGE_SIZE_BYTES,
)

SHARED = (True, {0})
HOST_ONLY = (True, set())
DEVICE_ONLY = (False, {0})


def location(a):
    """An array's committed location set: (host valid, devices)."""
    return a.host_valid, a.valid_on


def make_engine(spec=GTX1660_SUPER):
    return SimEngine(Device(spec))


def host_dirty_array(n=1 << 20, name="a"):
    arr = DeviceArray(n, name=name)
    arr.mark_cpu_write()  # device copy now stale
    return arr


def kernel_op(label="k"):
    return KernelOp(
        label=label,
        resources=KernelResourceRequest(
            flops=1e9, fp64=False, dram_bytes=1e6, l2_bytes=0,
            instructions=1e6, threads_total=1 << 16,
        ),
    )


class TestCrossStreamMigrationHazard:
    """The MigrationTracker scenario: stream A issues the copy of a
    shared input; a kernel on stream B reading it must wait."""

    def test_other_stream_waits_on_inflight_migration(self):
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = host_dirty_array(name="x")
        s1 = engine.create_stream("s1")
        s2 = engine.create_stream("s2")

        plan1 = coherence.acquire([(x, AccessKind.READ)], s1, label="k1")
        op1 = kernel_op("k1")
        coherence.release(plan1, op1)
        engine.submit(s1, op1)

        plan2 = coherence.acquire([(x, AccessKind.READ)], s2, label="k2")
        op2 = kernel_op("k2")
        coherence.release(plan2, op2)
        engine.submit(s2, op2)

        # Only one migration planned: the second acquire rides the
        # in-flight copy instead of duplicating it.
        engine.sync_all()
        htod = [
            r for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert len(htod) == 1
        # And the waiting kernel started only after the migration landed.
        k2 = next(r for r in engine.timeline.kernels() if r.label == "k2")
        assert k2.start >= htod[0].end

    def test_same_stream_rides_fifo_without_event_wait(self):
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = host_dirty_array(name="x")
        s1 = engine.create_stream("s1")
        coherence.release(
            coherence.acquire([(x, AccessKind.READ)], s1), kernel_op("k1")
        )
        before = len(s1.pending)
        coherence.acquire([(x, AccessKind.READ)], s1)
        # No new waits or transfers were queued for the same stream.
        assert len(s1.pending) == before

    def test_transitions_commit_on_completion_not_submission(self):
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = host_dirty_array(name="x")
        s1 = engine.create_stream("s1")
        coherence.acquire([(x, AccessKind.READ)], s1)
        # Submitted but not yet executed: committed state is untouched,
        # while the planned view already sees the copy in flight.
        assert location(x) == HOST_ONLY
        assert coherence.resident(x, 0)
        engine.sync_all()
        assert location(x) == SHARED

    def test_write_marks_commit_at_kernel_completion(self):
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = DeviceArray(1 << 20, name="x")  # SHARED: fresh UM memory
        s1 = engine.create_stream("s1")
        plan = coherence.acquire([(x, AccessKind.WRITE)], s1)
        op = kernel_op("w")
        coherence.release(plan, op)
        engine.submit(s1, op)
        assert location(x) == SHARED
        assert not coherence.host_valid(x)
        engine.sync_all()
        assert location(x) == DEVICE_ONLY


class TestCpuWriteInvalidation:
    """Partial vs full CPU-write handling through the shared path."""

    def test_partial_write_migrates_touched_pages(self):
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = DeviceArray(4 * PAGE_SIZE_BYTES, dtype=np.uint8, name="x")
        x.mark_write(0)  # host copy stale
        coherence.cpu_access(x, AccessKind.WRITE, 8)
        dtoh = [
            r for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_DTOH
        ]
        assert len(dtoh) == 1
        assert dtoh[0].nbytes == PAGE_SIZE_BYTES  # page-granular RMW
        assert location(x) == HOST_ONLY

    def test_full_write_invalidates_without_migration(self):
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = DeviceArray(1 << 20, name="x")
        x.mark_write(0)
        coherence.cpu_access(x, AccessKind.WRITE, x.nbytes)
        assert engine.timeline.transfers() == []
        assert location(x) == HOST_ONLY

    def test_full_write_cancels_inflight_migration_plan(self):
        """The half-updated-state regression: a full host overwrite
        during an in-flight HtoD migration must leave the engine
        planning a *fresh* upload — the dead migration's event may no
        longer vouch for the device copy."""
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = host_dirty_array(name="x")
        s1 = engine.create_stream("s1")
        coherence.acquire([(x, AccessKind.READ)], s1)
        assert coherence.resident(x, 0)  # migration in flight
        # Host fully overwrites the array before the copy lands.
        coherence.cpu_access(x, AccessKind.WRITE, x.nbytes)
        assert not coherence.resident(x, 0)
        assert coherence.host_valid(x)
        # A consumer on another stream replans the upload (2 HtoD total)
        # and does not ride the dead event.
        s2 = engine.create_stream("s2")
        coherence.acquire([(x, AccessKind.READ)], s2)
        engine.sync_all()
        htod = [
            r for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert len(htod) == 2

    def test_dead_migration_completion_cannot_revalidate_device_copy(self):
        """The other interleaving of the full-write hazard: the dead
        migration *completes* (engine drains) after the invalidation but
        before the next consumer plans — its completion callback must
        not re-validate the device copy."""
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = host_dirty_array(name="x")
        s1 = engine.create_stream("s1")
        coherence.acquire([(x, AccessKind.READ)], s1)
        coherence.cpu_access(x, AccessKind.WRITE, x.nbytes)  # invalidate
        engine.sync_all()  # dead migration lands now
        assert location(x) == HOST_ONLY
        assert not coherence.resident(x, 0)
        s2 = engine.create_stream("s2")
        plan = coherence.acquire([(x, AccessKind.READ)], s2)
        coherence.release(plan, None)
        engine.sync_all()
        htod = [
            r for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert len(htod) == 2  # the upload was re-planned, not skipped

    def test_read_then_write_ends_host_only(self):
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = DeviceArray(1 << 20, name="x")
        x.mark_write(0)
        coherence.cpu_access(x, AccessKind.READ_WRITE, 64)
        assert location(x) == HOST_ONLY


class TestMovementPolicies:
    def run_policy(self, policy, spec=GTX1660_SUPER):
        engine = make_engine(spec)
        coherence = CoherenceEngine(engine, policy=policy)
        a = host_dirty_array(name="a")
        b = host_dirty_array(name="b")
        s = engine.create_stream("s")
        plan = coherence.acquire(
            [(a, AccessKind.READ), (b, AccessKind.READ)], s, label="k"
        )
        op = kernel_op("k")
        coherence.release(plan, op)
        engine.submit(s, op)
        engine.sync_all()
        return engine, coherence, plan

    def test_page_fault_issues_no_transfers(self):
        engine, coherence, plan = self.run_policy(MovementPolicy.PAGE_FAULT)
        assert engine.timeline.transfers() == []
        assert plan.fault_bytes == 2 * (1 << 20) * 4
        assert coherence.fault_bytes_total == plan.fault_bytes

    def test_eager_prefetch_issues_one_transfer_per_array(self):
        engine, coherence, plan = self.run_policy(
            MovementPolicy.EAGER_PREFETCH
        )
        assert plan.fault_bytes == 0
        htod = [
            r for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert len(htod) == 2

    def test_batched_coalesces_adjacent_copies(self):
        engine, coherence, plan = self.run_policy(MovementPolicy.BATCHED)
        htod = [
            r for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert len(htod) == 1
        assert htod[0].nbytes == 2 * (1 << 20) * 4
        assert coherence.coalesced_transfers == 1

    def test_page_fault_degrades_to_eager_without_fault_support(self):
        engine, coherence, plan = self.run_policy(
            MovementPolicy.PAGE_FAULT, spec=GTX960
        )
        assert plan.fault_bytes == 0
        assert len(engine.timeline.transfers()) == 2


class TestPolicyEquivalenceOnWorkloads:
    """All three movement policies must be functionally identical on the
    benchmark suite, and eager prefetch must strictly reduce the bytes
    charged to the page-fault engine."""

    WORKLOADS = [("vec", 100_000), ("ml", 20_000), ("b&s", 50_000)]

    @pytest.mark.parametrize("name,scale", WORKLOADS)
    def test_policies_bit_identical(self, name, scale):
        from repro.workloads import Mode, create_benchmark

        results = {}
        for policy in MovementPolicy:
            bench = create_benchmark(name, scale, iterations=2)
            run = bench.run("GTX 1660 Super", Mode.PARALLEL,
                            movement=policy)
            results[policy] = run.results
        baseline = results[MovementPolicy.PAGE_FAULT]
        for policy, outs in results.items():
            assert outs == baseline, f"{policy} diverged"

    @pytest.mark.parametrize("name,scale", WORKLOADS[:2])
    def test_eager_prefetch_strictly_reduces_fault_bytes(self, name, scale):
        from repro.workloads import Mode, create_benchmark

        faulting = create_benchmark(name, scale, iterations=2).run(
            "GTX 1660 Super", Mode.PARALLEL,
            movement=MovementPolicy.PAGE_FAULT,
        )
        eager = create_benchmark(name, scale, iterations=2).run(
            "GTX 1660 Super", Mode.PARALLEL,
            movement=MovementPolicy.EAGER_PREFETCH,
        )
        lazy_faults = faulting.counters["coherence.fault_bytes"]
        eager_faults = eager.counters["coherence.fault_bytes"]
        assert lazy_faults > 0
        assert eager_faults < lazy_faults

    def test_movement_bench_sweep_asserts_equivalence(self):
        from repro.harness.movement import (
            render_movement_table,
            sweep_movement_policies,
        )

        cells = sweep_movement_policies(
            benchmarks=("vec",), iterations=2, execute=True
        )
        # the three policies plus the windowed-BATCHED variant
        assert len(cells) == len(MovementPolicy) + 1
        table = render_movement_table(cells)
        assert "page-fault" in table and "batched" in table
        by_label = {c.label: c for c in cells}
        windowed = by_label["batched+w4"]
        batched = by_label["batched"]
        eager = by_label["eager-prefetch"]
        assert windowed.htod_ops <= batched.htod_ops <= eager.htod_ops


class TestSubmissionWindow:
    """The cross-acquire BATCHED coalescer: a window of adjacent
    acquires merges their stale inputs into one DMA submission on a
    dedicated stream, flushed on window-full / sync / policy
    boundaries."""

    def acquire_n(self, coherence, engine, count, arrays_per=2):
        ops = []
        for i in range(count):
            arrays = [
                host_dirty_array(name=f"a{i}_{j}")
                for j in range(arrays_per)
            ]
            s = engine.create_stream(f"s{i}")
            plan = coherence.acquire(
                [(a, AccessKind.READ) for a in arrays], s, label=f"k{i}"
            )
            op = kernel_op(f"k{i}")
            coherence.release(plan, op)
            engine.submit(s, op)
            ops.append(op)
        return ops

    def htod(self, engine):
        return [
            r for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]

    def test_window_merges_adjacent_acquires(self):
        engine = make_engine()
        coherence = CoherenceEngine(
            engine, policy=MovementPolicy.BATCHED, window=4
        )
        self.acquire_n(coherence, engine, 3)
        engine.sync_all()  # pre-sync hook flushes the open window
        transfers = self.htod(engine)
        assert len(transfers) == 1
        assert transfers[0].nbytes == 6 * (1 << 20) * 4
        # 6 arrays over 3 acquires rode one submission: 5 saved.
        assert coherence.coalesced_transfers == 5

    def test_window_full_flushes_mid_stream(self):
        engine = make_engine()
        coherence = CoherenceEngine(
            engine, policy=MovementPolicy.BATCHED, window=2
        )
        self.acquire_n(coherence, engine, 3)
        engine.sync_all()
        # Two acquires filled the first window; the third flushed on
        # sync: 2 transfer submissions total.
        assert len(self.htod(engine)) == 2

    def test_window_zero_is_per_acquire(self):
        engine = make_engine()
        coherence = CoherenceEngine(
            engine, policy=MovementPolicy.BATCHED, window=0
        )
        self.acquire_n(coherence, engine, 3)
        engine.sync_all()
        assert len(self.htod(engine)) == 3

    def test_kernels_wait_for_the_merged_transfer(self):
        engine = make_engine()
        coherence = CoherenceEngine(
            engine, policy=MovementPolicy.BATCHED, window=4
        )
        self.acquire_n(coherence, engine, 3)
        engine.sync_all()
        transfer = self.htod(engine)[0]
        for record in engine.timeline.kernels():
            assert record.start >= transfer.end

    def test_cpu_access_flushes_window(self):
        engine = make_engine()
        coherence = CoherenceEngine(
            engine, policy=MovementPolicy.BATCHED, window=8
        )
        x = host_dirty_array(name="x")
        s = engine.create_stream("s")
        plan = coherence.acquire([(x, AccessKind.READ)], s)
        op = kernel_op("k")
        coherence.release(plan, op)
        engine.submit(s, op)
        y = DeviceArray(1 << 20, name="y")
        y.mark_write(0)
        # Host readback of an unrelated array closes the window first
        # (and its internal sync would deadlock otherwise).
        coherence.cpu_access(y, AccessKind.READ, y.nbytes)
        assert len(self.htod(engine)) == 1

    def test_policy_boundary_flushes_window(self):
        engine = make_engine()
        coherence = CoherenceEngine(
            engine, policy=MovementPolicy.BATCHED, window=8
        )
        x = host_dirty_array(name="x")
        s = engine.create_stream("s")
        coherence.release(
            coherence.acquire([(x, AccessKind.READ)], s), kernel_op("k1")
        )
        z = host_dirty_array(name="z")
        s2 = engine.create_stream("s2")
        # An eager-policy acquire is a policy boundary: the pending
        # window must flush before the eager migration submits.
        coherence.acquire(
            [(z, AccessKind.READ)], s2,
            policy=MovementPolicy.EAGER_PREFETCH,
        )
        engine.sync_all()
        labels = [r.label for r in self.htod(engine)]
        assert any("window" in lab for lab in labels)
        assert len(labels) == 2

    def test_window_results_identical_on_workload(self):
        from repro.workloads import Mode, create_benchmark

        runs = {}
        for window in (0, 4):
            bench = create_benchmark("ml", 20_000, iterations=2)
            runs[window] = bench.run(
                "GTX 1660 Super", Mode.PARALLEL,
                movement=MovementPolicy.BATCHED, movement_window=window,
            )
        assert runs[0].results == runs[4].results

    def test_window_keeps_later_gpu_writes(self):
        """Regression: a window flushed after a later acquire that
        writes one of its arrays must not cancel that write.  HITS
        reads and then rewrites ``auth``/``hub`` on the GPU, so reading
        the results writes them back under every policy, windowed
        BATCHED included (once per vector and iteration)."""
        from repro.workloads import Mode, create_benchmark

        for window in (0, 4):
            bench = create_benchmark("hits", 2_000, iterations=2)
            run = bench.run(
                "GTX 1660 Super", Mode.PARALLEL,
                movement=MovementPolicy.BATCHED, movement_window=window,
            )
            assert run.counters["coherence.dtoh_ops"] == 4, window

    def test_window_zero_never_engages_the_coalescer(self):
        """Regression: window=0 must stay on the per-acquire BATCHED
        path — no deferral, no dedicated coalescing stream, no merged
        window transfer, no pre-sync hook — so it is bit-identical to
        the pre-window implementation by construction."""
        engine = make_engine()
        coherence = CoherenceEngine(
            engine, policy=MovementPolicy.BATCHED, window=0
        )
        x = host_dirty_array(name="x")
        y = host_dirty_array(name="y")
        s = engine.create_stream("s")
        plan = coherence.acquire(
            [(x, AccessKind.READ), (y, AccessKind.READ)], s, label="k"
        )
        op = kernel_op("k")
        coherence.release(plan, op)
        engine.submit(s, op)
        # The transfer was submitted immediately on the consumer stream
        # (per-acquire), not deferred behind a window event.
        assert coherence._win_groups == {}
        assert coherence.take_owned_streams() == ()
        assert not engine._pre_sync_hooks
        assert all(
            "coalesce" not in stream.label for stream in engine.streams
        )
        engine.sync_all()
        htod = [
            r for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert len(htod) == 1
        assert "window[" not in htod[0].label  # per-acquire batch label


class TestHostReadback:
    def test_cpu_read_charges_writeback_and_syncs(self):
        engine = make_engine()
        coherence = CoherenceEngine(engine)
        x = DeviceArray(1 << 20, name="x")
        x.mark_write(0)
        op = coherence.cpu_access(x, AccessKind.READ, x.nbytes)
        assert op is not None
        assert op.direction is TransferDirection.DEVICE_TO_HOST
        assert op.state is OpState.COMPLETE  # sync=True drained it
        assert location(x) == SHARED
