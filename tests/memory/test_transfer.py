"""Tests for transfer *planning* from coherence misses.

Planning now lives inside :class:`repro.memory.coherence.CoherenceEngine`
(the old stateless ``TransferPlanner`` is gone — one implementation, one
set of rules); these tests pin the planning rules themselves: what moves,
how many bytes, in which direction, and when the state transition lands.
"""

import numpy as np

from repro.gpusim import Device, GTX1660_SUPER, SimEngine
from repro.gpusim.ops import TransferDirection, TransferKind
from repro.gpusim.timeline import IntervalKind
from repro.memory import AccessKind, CoherenceEngine, DeviceArray, MovementPolicy
from repro.memory.pages import PAGE_SIZE_BYTES


def make_coherence(policy=MovementPolicy.EAGER_PREFETCH):
    engine = SimEngine(Device(GTX1660_SUPER))
    return engine, CoherenceEngine(engine, policy=policy)


def host_dirty_array(n=1000, name="a"):
    a = DeviceArray(n, name=name)
    a.mark_cpu_write()  # device copy now stale
    return a


def htod_records(engine):
    return [
        r for r in engine.timeline.transfers()
        if r.kind is IntervalKind.TRANSFER_HTOD
    ]


class TestHtoDPlanning:
    def test_no_transfer_when_resident(self):
        engine, coherence = make_coherence()
        a = DeviceArray(10)
        s = engine.create_stream("s")
        coherence.acquire([(a, AccessKind.READ)], s)
        engine.sync_all()
        assert htod_records(engine) == []

    def test_transfer_for_stale_read(self):
        engine, coherence = make_coherence()
        a = host_dirty_array()
        s = engine.create_stream("s")
        coherence.acquire([(a, AccessKind.READ)], s)
        engine.sync_all()
        [rec] = htod_records(engine)
        assert rec.nbytes == a.nbytes
        assert rec.meta["kind"] is TransferKind.PREFETCH

    def test_write_only_args_skip_transfer(self):
        engine, coherence = make_coherence()
        a = host_dirty_array()
        s = engine.create_stream("s")
        plan = coherence.acquire(
            [(a, AccessKind.WRITE)], s, kind=TransferKind.EAGER
        )
        engine.sync_all()
        assert htod_records(engine) == []
        assert plan.fault_bytes == 0

    def test_read_write_args_transfer(self):
        engine, coherence = make_coherence()
        a = host_dirty_array()
        s = engine.create_stream("s")
        coherence.acquire([(a, AccessKind.READ_WRITE)], s)
        engine.sync_all()
        assert len(htod_records(engine)) == 1

    def test_coherence_updates_on_completion(self):
        engine, coherence = make_coherence()
        a = host_dirty_array()
        s = engine.create_stream("s")
        coherence.acquire([(a, AccessKind.READ)], s)
        assert a.migration_bytes(0) > 0  # committed state untouched
        engine.sync_all()
        assert a.migration_bytes(0) == 0

    def test_duplicate_and_resident_arrays_planned_once(self):
        engine, coherence = make_coherence()
        a, b = host_dirty_array(name="a"), DeviceArray(10, name="b")
        s = engine.create_stream("s")
        coherence.acquire(
            [(a, AccessKind.READ), (a, AccessKind.READ),
             (b, AccessKind.READ)],
            s,
        )
        engine.sync_all()
        assert len(htod_records(engine)) == 1  # only the stale one, once


class TestFaultPlanning:
    def test_fault_bytes_counted_for_stale_reads(self):
        engine, coherence = make_coherence(MovementPolicy.PAGE_FAULT)
        a, b = host_dirty_array(1000, "a"), host_dirty_array(500, "b")
        s = engine.create_stream("s")
        plan = coherence.acquire(
            [(a, AccessKind.READ), (b, AccessKind.READ_WRITE)], s
        )
        assert plan.fault_bytes == a.nbytes + b.nbytes
        assert htod_records(engine) == []  # nothing moved eagerly

    def test_fault_bytes_zero_when_resident(self):
        engine, coherence = make_coherence(MovementPolicy.PAGE_FAULT)
        a = DeviceArray(10)
        s = engine.create_stream("s")
        plan = coherence.acquire([(a, AccessKind.READ)], s)
        assert plan.fault_bytes == 0.0

    def test_write_only_not_faulted(self):
        engine, coherence = make_coherence(MovementPolicy.PAGE_FAULT)
        a = host_dirty_array()
        s = engine.create_stream("s")
        plan = coherence.acquire([(a, AccessKind.WRITE)], s)
        assert plan.fault_bytes == 0.0


class TestDtoHPlanning:
    def test_none_when_host_valid(self):
        engine, coherence = make_coherence()
        a = DeviceArray(10)
        assert coherence.cpu_access(a, AccessKind.READ, 4) is None

    def test_page_granular_writeback(self):
        engine, coherence = make_coherence()
        a = DeviceArray(PAGE_SIZE_BYTES, dtype=np.uint8)
        a.mark_write(0)
        op = coherence.cpu_access(a, AccessKind.READ, 4)
        assert op is not None
        assert op.nbytes == PAGE_SIZE_BYTES
        assert op.direction is TransferDirection.DEVICE_TO_HOST
        assert op.kind is TransferKind.WRITEBACK

    def test_writeback_capped_at_array_size(self):
        engine, coherence = make_coherence()
        a = DeviceArray(16)
        a.mark_write(0)
        op = coherence.cpu_access(a, AccessKind.READ, 4)
        assert op is not None
        assert op.nbytes == a.nbytes  # page rounds up, cap wins

    def test_access_marks_host_valid(self):
        engine, coherence = make_coherence()
        a = DeviceArray(16)
        a.mark_write(0)
        coherence.cpu_access(a, AccessKind.READ, 4)
        assert a.host_valid
