"""The unified ``repro.Session`` entry point: canonical surface,
configuration validation, and the legacy deprecation shims."""

import numpy as np
import pytest

from repro import (
    AdmissionPolicy,
    ConfigError,
    DevicePlacementPolicy,
    ExecutionPolicy,
    GrCUDARuntime,
    SchedulerConfig,
    Session,
    SessionMetrics,
)
from repro.core.context import (
    ParallelExecutionContext,
    SerialExecutionContext,
)
from repro.kernels import LinearCostModel
from repro.memory.array import DeviceArray
from repro.multigpu import MultiGpuScheduler

COST = LinearCostModel(
    flops_per_item=100.0,
    dram_bytes_per_item=8.0,
    instructions_per_item=20.0,
)


def run_square(sess, n=1 << 16):
    def square(x, m):
        np.square(x[:m], out=x[:m])

    k = sess.build_kernel(square, "square", "ptr, sint32", COST)
    x = sess.array(n, name="x")
    x.copy_from_host(np.full(n, 3.0, dtype=np.float32))
    k(64, 256)(x, n)
    return x


class TestCanonicalSurface:
    def test_single_gpu_default(self):
        sess = Session()
        assert sess.gpus == 1
        assert isinstance(sess.context, ParallelExecutionContext)
        x = run_square(sess)
        assert isinstance(x, DeviceArray)
        assert x[0] == 9.0
        sess.sync()
        assert sess.timeline().makespan > 0

    def test_serial_execution_config(self):
        sess = Session(
            config=SchedulerConfig(execution=ExecutionPolicy.SERIAL)
        )
        assert isinstance(sess.context, SerialExecutionContext)
        assert run_square(sess)[0] == 9.0

    def test_multi_gpu_dispatch(self):
        sess = Session(gpus=2)
        assert isinstance(sess.context, ParallelExecutionContext)
        x = run_square(sess)
        assert isinstance(x, DeviceArray)
        assert x.devices == sess.devices
        assert x[0] == 9.0
        assert len(sess.devices) == 2

    def test_heterogeneous_gpu_list_infers_count(self):
        sess = Session(gpu=["GTX 1660 Super", "Tesla P100"])
        assert sess.gpus == 2
        assert sess.specs[0].name != sess.specs[1].name

    def test_gpu_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Session(gpus=3, gpu=["1660", "1660"])

    def test_same_program_single_and_multi(self):
        """The tentpole promise: identical host code, any device count."""
        values = {}
        for gpus in (1, 2, 4):
            sess = Session(gpus=gpus)
            x = run_square(sess)
            values[gpus] = x.to_numpy()
        assert np.array_equal(values[1], values[2])
        assert np.array_equal(values[1], values[4])

    def test_timeline_both_spellings(self):
        """``sess.timeline()`` (canonical) and ``rt.timeline`` (legacy
        property) resolve to the same object on Session and the shim —
        Session-generic code never branches on which class it holds."""
        sess = Session()
        assert sess.timeline() is sess.timeline
        with pytest.warns(DeprecationWarning):
            rt = GrCUDARuntime()
        assert rt.timeline() is rt.timeline
        assert rt.timeline.makespan == 0.0

    def test_virtual_array_slicing_parity(self):
        """The shared host surface guarantees identical indexing
        behaviour at any device count, including virtual arrays."""
        for gpus in (1, 2):
            sess = Session(gpus=gpus)
            x = sess.array(1024, name="x", materialize=False)
            assert x[0:10].shape == (10,)
            assert x[5] == 0.0
            assert len(x) == 1024

    def test_metrics(self):
        sess = Session(gpus=2)
        run_square(sess)
        sess.sync()
        m = sess.metrics()
        assert isinstance(m, SessionMetrics)
        assert m.gpus == 2
        assert m.kernels_launched == 1
        assert sum(m.device_kernel_counts) == 1
        assert m.makespan > 0
        assert m.host_clock >= m.makespan

    def test_library_call_single_gpu(self):
        from repro.memory.array import AccessKind

        sess = Session()
        x = sess.array(128, name="x")
        sess.library_call(
            lambda: None, [(x, AccessKind.WRITE)],
            label="lib", cost_seconds=1e-5,
        )
        sess.sync()
        assert any(
            r.label == "lib" for r in sess.timeline().kernels()
        )

    def test_library_call_multi_gpu(self):
        from repro.memory.array import AccessKind

        sess = Session(gpus=2)
        x = sess.array(128, name="x")
        sess.library_call(
            lambda: None, [(x, AccessKind.WRITE)],
            label="lib", cost_seconds=1e-5,
        )
        sess.sync()
        assert any(
            r.label == "lib" for r in sess.timeline().kernels()
        )


class TestConfigValidation:
    def test_negative_gpus_rejected(self):
        with pytest.raises(ConfigError):
            Session(gpus=-1)

    def test_zero_gpus_rejected(self):
        with pytest.raises(ConfigError):
            Session(gpus=0)

    def test_non_integer_gpus_rejected(self):
        with pytest.raises(ConfigError):
            Session(gpus=2.5)

    def test_admission_on_compute_session_rejected(self):
        """Serving knobs on a non-serving session are configuration
        errors, not silently ignored settings."""
        with pytest.raises(ConfigError):
            Session(config=SchedulerConfig(admission=AdmissionPolicy.FIFO))

    def test_admission_allowed_on_serving_session(self):
        sess = Session(
            config=SchedulerConfig(admission=AdmissionPolicy.PRIORITY),
            serving=True,
        )
        assert sess.config.admission is AdmissionPolicy.PRIORITY

    def test_serial_multi_gpu_rejected(self):
        with pytest.raises(ConfigError):
            Session(
                gpus=2,
                config=SchedulerConfig(execution=ExecutionPolicy.SERIAL),
            )

    def test_negative_overhead_rejected(self):
        with pytest.raises(ConfigError):
            SchedulerConfig(scheduling_overhead_us=-1.0).validate()

    def test_placement_resolution(self):
        cfg = SchedulerConfig()
        assert (
            cfg.resolve_placement()
            is DevicePlacementPolicy.MIN_TRANSFER
        )
        assert (
            cfg.resolve_placement(serving=True)
            is DevicePlacementPolicy.LEAST_LOADED
        )
        explicit = SchedulerConfig(
            placement=DevicePlacementPolicy.ROUND_ROBIN
        )
        assert (
            explicit.resolve_placement(serving=True)
            is DevicePlacementPolicy.ROUND_ROBIN
        )


class TestDeprecationShims:
    def test_grcuda_runtime_warns_and_works(self):
        with pytest.warns(DeprecationWarning, match="GrCUDARuntime"):
            rt = GrCUDARuntime(gpu="GTX 1660 Super")
        x = run_square(rt)
        assert x[0] == 9.0
        # The legacy property spelling still works on the shim.
        assert rt.timeline.makespan > 0
        assert isinstance(rt, Session)

    def test_multigpu_scheduler_warns_and_works(self):
        with pytest.warns(DeprecationWarning, match="MultiGpuScheduler"):
            sched = MultiGpuScheduler(["1660", "1660"])
        k = sched.build_kernel(
            lambda x, n: np.multiply(x[:n], 2.0, out=x[:n]),
            "double", "ptr, sint32", COST,
        )
        a = sched.array(256, name="a")
        sched.write_input(a, np.ones(256, dtype=np.float32))
        k(4, 64)(a, 256)
        out = sched.read_result(a)
        assert np.all(out == 2.0)
        assert sched.elapsed > 0

    def test_session_does_not_warn(self, recwarn):
        Session(gpus=2)
        assert not [
            w for w in recwarn if w.category is DeprecationWarning
        ]
