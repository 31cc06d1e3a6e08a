"""The unified ``repro.Session`` entry point: canonical surface and
configuration validation."""

import gc
import weakref

import numpy as np
import pytest

from repro import (
    ConfigError,
    DevicePlacementPolicy,
    ExecutionPolicy,
    SchedulerConfig,
    Session,
    SessionMetrics,
)
from repro.core.context import (
    ParallelExecutionContext,
    SerialExecutionContext,
)
from repro.errors import LaunchError
from repro.kernels import LinearCostModel
from repro.memory.array import DeviceArray
from repro.serve import ServeConfig

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


class TestClose:
    def test_close_syncs_and_detaches(self):
        sess = Session()
        x = run_square(sess)
        k = sess.build_kernel(lambda a, m: None, "k", "ptr, sint32", COST)
        sess.close()
        assert sess.engine.idle
        assert x._on_cpu_access is None and k.launch_handler is None
        assert x[0] == 9.0  # the transition applies directly
        with pytest.raises(LaunchError, match="not attached"):
            k(1, 32)(x, 4)

    def test_closed_session_is_freed_by_reference_counting(self):
        sess = Session()
        x = run_square(sess)
        assert sess.dag.num_vertices > 0
        sess.close()
        ref = weakref.ref(sess)
        gc.disable()
        try:
            del sess
            assert ref() is None
        finally:
            gc.enable()
        assert x[0] == 9.0


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

    def test_serial_multi_gpu_rejected(self):
        with pytest.raises(ConfigError):
            Session(
                gpus=2,
                config=SchedulerConfig(execution=ExecutionPolicy.SERIAL),
            )

    def test_placement_resolution(self):
        assert (
            SchedulerConfig().placement
            is DevicePlacementPolicy.MIN_TRANSFER
        )
        assert ServeConfig().placement is DevicePlacementPolicy.LEAST_LOADED
        # The levels are independent: an in-slot policy leaves the slot
        # policy at its own default.
        serving = ServeConfig(
            scheduler=SchedulerConfig(
                placement=DevicePlacementPolicy.ROUND_ROBIN
            )
        )
        assert serving.placement is DevicePlacementPolicy.LEAST_LOADED

