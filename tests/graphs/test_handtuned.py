"""Tests for the hand-tuned CUDA-events baseline."""

import numpy as np
import pytest

from repro.core.race import check_no_races
from repro.gpusim import Device, SimEngine, GTX1660_SUPER
from repro.gpusim.ops import TransferKind
from repro.graphs import HandTunedScheduler
from repro.kernels import LinearCostModel, build_kernel
from repro.memory import DeviceArray

N = 1 << 20
# Compute-heavy enough that kernels outlast the DMA-serialized input
# transfers, so the two towers of the schedule visibly overlap.
COST = LinearCostModel(
    flops_per_item=3000.0,
    dram_bytes_per_item=8.0,
    instructions_per_item=4.0,
)


@pytest.fixture
def engine():
    return SimEngine(Device(GTX1660_SUPER))


def make_kernels():
    square = build_kernel(
        lambda x, n: np.square(x[:n], out=x[:n]), "square", "ptr, sint32",
        cost_model=COST,
    )
    vsum = build_kernel(
        lambda x, y, z, n: z.__setitem__(0, float(np.sum(x[:n] - y[:n]))),
        "sum",
        "const ptr, const ptr, ptr, sint32",
        cost_model=COST,
    )
    return square, vsum


def run_handtuned_vec(engine, prefetch=True):
    square, vsum = make_kernels()
    X, Y, Z = DeviceArray(N, name="X"), DeviceArray(N, name="Y"), DeviceArray(1, name="Z")
    X.kernel_view[:] = 2.0
    Y.kernel_view[:] = 3.0
    X.mark_cpu_write()
    Y.mark_cpu_write()
    ht = HandTunedScheduler(engine)
    s1, s2 = ht.stream(), ht.stream()
    if prefetch:
        ht.prefetch(X, s1)
        ht.prefetch(Y, s2)
    ht.launch(s1, square(256, 256).bind(X, N))
    ht.launch(s2, square(256, 256).bind(Y, N))
    ev = ht.record_event(s2)
    ht.wait_event(s1, ev)
    ht.launch(s1, vsum(256, 256).bind(X, Y, Z, N))
    ht.sync()
    return X, Y, Z


class TestHandTuned:
    def test_functional_result(self, engine):
        _, _, Z = run_handtuned_vec(engine)
        assert Z.kernel_view[0] == pytest.approx(N * (4.0 - 9.0))

    def test_no_races(self, engine):
        run_handtuned_vec(engine)
        check_no_races(engine.timeline)

    def test_prefetch_creates_transfers(self, engine):
        run_handtuned_vec(engine, prefetch=True)
        prefetches = [
            r
            for r in engine.timeline.transfers()
            if r.meta.get("kind") is TransferKind.PREFETCH
        ]
        assert len(prefetches) == 2

    def test_without_prefetch_pays_faults(self, engine):
        run_handtuned_vec(engine, prefetch=False)
        faults = sum(
            r.meta["resources"].fault_bytes
            for r in engine.timeline.kernels()
        )
        assert faults == pytest.approx(2 * N * 4)

    def test_prefetch_faster_than_faults(self):
        e1 = SimEngine(Device(GTX1660_SUPER))
        run_handtuned_vec(e1, prefetch=True)
        e2 = SimEngine(Device(GTX1660_SUPER))
        run_handtuned_vec(e2, prefetch=False)
        assert e1.timeline.makespan < e2.timeline.makespan

    def test_prefetch_noop_when_resident(self, engine):
        ht = HandTunedScheduler(engine)
        s = ht.stream()
        X = DeviceArray(N)
        ht.prefetch(X, s)  # fresh UM array: already SHARED
        assert engine.timeline.transfers() == []

    def test_squares_overlap(self, engine):
        run_handtuned_vec(engine)
        squares = [
            r for r in engine.timeline.kernels() if r.label == "square"
        ]
        assert squares[0].overlaps(squares[1])
