"""Tests for the single-GPU ``Session`` runtime surface: construction,
arrays, execution, kernel registries and the one execution context."""

import numpy as np
import pytest

from repro import (
    AccessKind,
    ExecutionPolicy,
    SchedulerConfig,
    Session,
    TESLA_P100,
)
from repro.kernels import LinearCostModel

COST = LinearCostModel(flops_per_item=100.0, dram_bytes_per_item=8.0)


class TestConstruction:
    def test_gpu_by_string(self):
        rt = Session(gpu="p100")
        assert rt.spec is TESLA_P100

    def test_gpu_by_spec(self):
        rt = Session(gpu=TESLA_P100)
        assert rt.spec is TESLA_P100

    def test_default_is_parallel(self):
        rt = Session()
        assert rt.config.execution is ExecutionPolicy.PARALLEL

    def test_serial_config(self):
        rt = Session(
            config=SchedulerConfig(execution=ExecutionPolicy.SERIAL)
        )
        from repro.core.context import SerialExecutionContext

        assert isinstance(rt.context, SerialExecutionContext)

    def test_repr(self):
        assert "GTX 1660 Super" in repr(Session())


class TestArrays:
    def test_array_attached_and_accounted(self):
        rt = Session()
        a = rt.array(1000, name="a")
        assert rt.device.allocated_bytes == a.nbytes
        a[0] = 1.0  # hook active: no error, coherence handled

    def test_free_arrays(self):
        rt = Session()
        rt.array(1000)
        rt.array(2000, dtype=np.float64)
        rt.free_arrays()
        assert rt.device.allocated_bytes == 0

    def test_virtual_array(self):
        rt = Session()
        a = rt.array(10**9, materialize=False)
        assert a.nbytes == 4 * 10**9 > 0
        assert not a.materialized


class TestExecution:
    def test_elapsed_and_clock(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        x = rt.array(1 << 20)
        k(512, 256)(x, 1 << 20)
        rt.sync()
        assert rt.elapsed() > 0
        assert rt.clock >= rt.elapsed()

    def test_reset_measurement(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        x = rt.array(1 << 20)
        k(512, 256)(x, 1 << 20)
        rt.reset_measurement()
        assert rt.elapsed() == 0.0
        k(512, 256)(x, 1 << 20)
        rt.sync()
        assert rt.elapsed() > 0

    def test_library_call_serial_context(self):
        rt = Session(
            config=SchedulerConfig(execution=ExecutionPolicy.SERIAL)
        )
        x = rt.array(100)
        calls = []
        rt.library_call(
            lambda: calls.append(1),
            [(x, AccessKind.READ_WRITE)],
            cost_seconds=1e-3,
        )
        assert calls == [1]
        assert rt.clock >= 1e-3

    def test_dag_exposed(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        x = rt.array(1 << 16)
        k(64, 256)(x, 1 << 16)
        rt.sync()
        assert rt.dag.num_vertices == 1

    def test_history_exposed(self):
        rt = Session()
        k = rt.build_kernel(lambda x, n: None, "k", "ptr, sint32", COST)
        x = rt.array(1 << 16)
        k(64, 256)(x, 1 << 16)
        rt.sync()
        assert rt.history.execution_count("k") == 1


class TestRegistryIntegration:
    def test_runtime_with_custom_registry(self):
        from repro.kernels.registry import KernelRegistry

        reg = KernelRegistry()
        reg.register("scale2", lambda x, n: None, COST)
        rt = Session(registry=reg)
        k = rt.build_kernel("scale2", "scale2", "ptr, sint32")
        x = rt.array(1 << 16)
        k(64, 256)(x, 1 << 16)
        rt.sync()
        assert rt.elapsed() > 0


class TestOneContextForLife:
    """A session is one host program's runtime: one execution context
    for its whole life.  Serving builds a context per request on a
    fleet slot's engine instead (``tests/serve/test_service.py::
    TestRequestsOwnTheirState``)."""

    def test_arrays_and_kernels_bind_the_one_context(self):
        rt = Session()
        ctx = rt.context
        k = rt.build_kernel(
            lambda x, n: np.square(x[:n], out=x[:n]),
            "square", "ptr, sint32", COST,
        )
        x = rt.array(1024, name="x")
        x.copy_from_host(np.full(1024, 3.0, dtype=np.float32))
        for _ in range(3):
            k(8, 128)(x, 1024)
            rt.sync()
        assert rt.context is ctx
        assert k.launch_handler == ctx.launch
        assert x._on_cpu_access == ctx._on_cpu_access
        assert rt.history.execution_count("square") == 3
        assert x[0] == pytest.approx(6561.0)

    def test_serial_scheduler_rejects_several_gpus(self):
        """The session and a fleet slot share one check."""
        from repro.errors import ConfigError
        from repro.serve import GpuFleet

        serial = SchedulerConfig(execution=ExecutionPolicy.SERIAL)
        with pytest.raises(ConfigError, match="single-GPU"):
            Session(gpus=2, config=serial)
        with pytest.raises(ConfigError, match="single-GPU"):
            GpuFleet([1, 2], config=serial)
