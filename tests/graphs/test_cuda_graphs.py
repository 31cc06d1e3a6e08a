"""Tests for the CUDA Graphs API baseline."""

import numpy as np
import pytest

from repro.errors import GraphError, LaunchError
from repro.core.race import check_no_races
from repro.gpusim import Device, SimEngine, GTX960, GTX1660_SUPER
from repro.gpusim.timeline import IntervalKind
from repro.graphs import CudaGraph, StreamCapture
from repro.kernels import LinearCostModel, build_kernel
from repro.memory import DeviceArray

N = 1 << 20
COST = LinearCostModel(
    flops_per_item=1.0, dram_bytes_per_item=8.0, instructions_per_item=4.0
)


def kernels():
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


def build_vec_graph():
    square, vsum = kernels()
    X, Y, Z = DeviceArray(N, name="X"), DeviceArray(N, name="Y"), DeviceArray(1, name="Z")
    g = CudaGraph("vec")
    n1 = g.add_kernel_node(square, 256, 256, (X, N))
    n2 = g.add_kernel_node(square, 256, 256, (Y, N))
    n3 = g.add_kernel_node(vsum, 256, 256, (X, Y, Z, N), deps=[n1, n2])
    return g, (X, Y, Z), (n1, n2, n3)


class TestGraphConstruction:
    def test_foreign_dependency_rejected(self):
        square, _ = kernels()
        g1, g2 = CudaGraph("a"), CudaGraph("b")
        X = DeviceArray(N)
        n = g1.add_kernel_node(square, 1, 32, (X, N))
        with pytest.raises(GraphError):
            g2.add_kernel_node(square, 1, 32, (X, N), deps=[n])

    def test_empty_graph_not_instantiable(self):
        with pytest.raises(GraphError):
            CudaGraph("e").instantiate()

    def test_empty_node(self):
        square, _ = kernels()
        g = CudaGraph()
        n1 = g.add_kernel_node(square, 1, 32, (DeviceArray(N), N))
        n2 = g.add_empty_node(deps=[n1])
        assert n2.deps == (n1,)

    def test_kernel_node_keeps_the_threads_per_block_limit(self):
        # A node's geometry is checked as a direct launch's, k(4, 2048).
        square, _ = kernels()
        g = CudaGraph()
        with pytest.raises(LaunchError, match="2048 threads per block"):
            g.add_kernel_node(square, 4, 2048, (DeviceArray(8), 8))
        with pytest.raises(LaunchError, match="2048 threads per block"):
            g.add_kernel_node(square, 4, (64, 32), (DeviceArray(8), 8))
        assert g.nodes == []


class TestStreamPlan:
    def test_independent_roots_get_distinct_streams(self):
        g, _, (n1, n2, n3) = build_vec_graph()
        g.instantiate()
        assert n1.stream_index != n2.stream_index

    def test_first_child_inherits_stream(self):
        g, _, (n1, n2, n3) = build_vec_graph()
        g.instantiate()
        assert n3.stream_index == n1.stream_index

    def test_events_flagged_for_cross_stream_edges(self):
        g, _, (n1, n2, n3) = build_vec_graph()
        g.instantiate()
        assert n2.needs_event      # n3 is on n1's stream, waits on n2
        assert not n1.needs_event  # same-stream child: FIFO suffices


class TestGraphLaunch:
    def test_functional_result(self):
        g, (X, Y, Z), _ = build_vec_graph()
        exe = g.instantiate()
        X.kernel_view[:] = 2.0
        Y.kernel_view[:] = 3.0
        X.mark_cpu_write()
        Y.mark_cpu_write()
        engine = SimEngine(Device(GTX1660_SUPER))
        exe.launch(engine)
        engine.sync_all()
        assert Z.kernel_view[0] == pytest.approx(N * (4.0 - 9.0))

    def test_dependencies_respected(self):
        g, arrays, _ = build_vec_graph()
        exe = g.instantiate()
        engine = SimEngine(Device(GTX1660_SUPER))
        exe.launch(engine)
        engine.sync_all()
        recs = {r.label: r for r in engine.timeline.kernels()}
        assert recs["sum"].start >= max(
            r.end for k, r in recs.items() if k == "square"
        )
        check_no_races(engine.timeline)

    def test_squares_overlap(self):
        g, arrays, _ = build_vec_graph()
        exe = g.instantiate()
        engine = SimEngine(Device(GTX1660_SUPER))
        exe.launch(engine)
        engine.sync_all()
        squares = [
            r for r in engine.timeline.kernels() if r.label == "square"
        ]
        assert squares[0].overlaps(squares[1])

    def test_repeated_launches(self):
        g, arrays, _ = build_vec_graph()
        exe = g.instantiate()
        engine = SimEngine(Device(GTX1660_SUPER))
        for _ in range(3):
            exe.launch(engine)
        engine.sync_all()
        assert exe.launch_count == 3
        assert len(engine.timeline.kernels()) == 9

    def test_no_prefetch_on_pascal_uses_faults(self):
        g, (X, Y, Z), _ = build_vec_graph()
        exe = g.instantiate()
        X.mark_cpu_write()
        engine = SimEngine(Device(GTX1660_SUPER))
        exe.launch(engine)
        engine.sync_all()
        htod = [
            r
            for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert htod == []  # no prefetch: page faults instead
        faults = sum(
            r.meta["resources"].fault_bytes
            for r in engine.timeline.kernels()
        )
        assert faults == pytest.approx(X.nbytes)

    def test_maxwell_inserts_eager_copies(self):
        g, (X, Y, Z), _ = build_vec_graph()
        exe = g.instantiate()
        X.mark_cpu_write()
        engine = SimEngine(Device(GTX960))
        exe.launch(engine)
        engine.sync_all()
        htod = [
            r
            for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert len(htod) == 1
        assert htod[0].nbytes == X.nbytes


class TestStreamCapture:
    def capture_vec(self):
        square, vsum = kernels()
        X, Y, Z = DeviceArray(N, name="X"), DeviceArray(N, name="Y"), DeviceArray(1, name="Z")
        cap = StreamCapture("vec-cap")
        s1, s2 = cap.stream(), cap.stream()
        cap.launch(s1, square, 256, 256, (X, N))
        cap.launch(s2, square, 256, 256, (Y, N))
        ev = cap.record_event(s2)
        cap.wait_event(s1, ev)
        cap.launch(s1, vsum, 256, 256, (X, Y, Z, N))
        return cap.end_capture(), (X, Y, Z)

    def test_capture_builds_equivalent_graph(self):
        g, _ = self.capture_vec()
        assert len(g.nodes) == 3
        n3 = g.nodes[2]
        assert {d.label for d in n3.deps} == {"square"}
        assert len(n3.deps) == 2

    def test_captured_graph_runs(self):
        g, (X, Y, Z) = self.capture_vec()
        exe = g.instantiate()
        X.kernel_view[:] = 2.0
        Y.kernel_view[:] = 3.0
        engine = SimEngine(Device(GTX1660_SUPER))
        exe.launch(engine)
        engine.sync_all()
        assert Z.kernel_view[0] == pytest.approx(N * (4.0 - 9.0))
        check_no_races(engine.timeline)

    def test_capture_after_end_rejected(self):
        g, _ = self.capture_vec()
        square, _ = kernels()

    def test_double_end_rejected(self):
        square, vsum = kernels()
        cap = StreamCapture()
        s = cap.stream()
        cap.launch(s, square, 1, 32, (DeviceArray(N), N))
        cap.end_capture()
        with pytest.raises(GraphError):
            cap.end_capture()

    def test_captured_launch_keeps_the_threads_per_block_limit(self):
        square, _ = kernels()
        cap = StreamCapture()
        s = cap.stream()
        with pytest.raises(LaunchError, match="2048 threads per block"):
            cap.launch(s, square, 4, 2048, (DeviceArray(8), 8))
        assert s.last_node is None

    def test_empty_capture_rejected(self):
        cap = StreamCapture()
        cap.stream()
        with pytest.raises(GraphError):
            cap.end_capture()


class TestBackToBackAsyncLaunches:
    def test_no_duplicate_eager_copies_across_async_launches(self):
        """launch() is asynchronous: a second launch submitted before the
        first drains must not re-plan the eager copies the first already
        has in flight (Maxwell path, where movement is eager)."""
        g, (X, Y, Z), _ = build_vec_graph()
        X.mark_cpu_write()
        Y.mark_cpu_write()
        engine = SimEngine(Device(GTX960))
        exe = g.instantiate()
        exe.launch(engine)
        exe.launch(engine)  # no sync in between
        engine.sync_all()
        htod = [
            r for r in engine.timeline.transfers()
            if r.kind is IntervalKind.TRANSFER_HTOD
        ]
        assert len(htod) == 2  # X and Y once each, not per launch
        # (Unsynchronized replays of one graph overlap *kernel* work by
        # design, as on real hardware when the two cudaGraphLaunch calls
        # target different streams — only the movement must not double.)

    def test_no_double_fault_charge_across_async_launches(self):
        g, (X, Y, Z), _ = build_vec_graph()
        X.mark_cpu_write()
        Y.mark_cpu_write()
        engine = SimEngine(Device(GTX1660_SUPER))
        exe = g.instantiate()
        exe.launch(engine)
        exe.launch(engine)
        engine.sync_all()
        fault = sum(
            r.meta["resources"].fault_bytes
            for r in engine.timeline.kernels()
        )
        assert fault == 2 * N * 4  # first launch only
