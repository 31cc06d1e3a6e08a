"""Tests for DeviceArray: values, location-set marks, hooks, allocation."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryError
from repro.gpusim import Device, GTX960, SimEngine
from repro.memory import AccessKind, CoherenceEngine, DeviceArray
from repro.memory.pages import PAGE_SIZE_BYTES


def writeback(a, touched):
    """Bytes a host read of ``touched`` bytes writes back."""
    op = CoherenceEngine(SimEngine(Device(GTX960))).cpu_access(
        a, AccessKind.READ, touched
    )
    return op.nbytes


class TestBasics:
    def test_zero_initialized(self):
        a = DeviceArray(8)
        assert np.all(a.kernel_view == 0)
        assert a.host_valid and a.valid_on == {0}

    def test_shape_dtype(self):
        a = DeviceArray((4, 5), dtype=np.float64)
        assert a.shape == (4, 5)
        assert a.dtype == np.float64
        assert a.nbytes == 4 * 5 * 8
        assert a.size == 20
        assert len(a) == 4

    def test_getset_roundtrip(self):
        a = DeviceArray(4)
        a[2] = 7.5
        assert a[2] == 7.5

    def test_fill(self):
        a = DeviceArray(10)
        a.fill(3.0)
        assert np.all(a.to_numpy() == 3.0)

    def test_copy_from_host_shape_check(self):
        a = DeviceArray(4)
        with pytest.raises(ValueError):
            a.copy_from_host(np.zeros(5))

    def test_copy_from_host_values(self):
        a = DeviceArray(3)
        a.copy_from_host(np.array([1.0, 2.0, 3.0]))
        assert list(a.to_numpy()) == [1.0, 2.0, 3.0]

    def test_to_numpy_is_copy(self):
        a = DeviceArray(3)
        out = a.to_numpy()
        out[0] = 99
        assert a[0] == 0


class TestCoherenceMarks:
    def test_gpu_write_invalidates_host(self):
        a = DeviceArray(4)
        a.mark_write(0)
        assert not a.host_valid and a.valid_on == {0}
        assert writeback(a, a.nbytes) == a.nbytes

    def test_cpu_write_invalidates_device(self):
        a = DeviceArray(4)
        a.mark_cpu_write()
        assert a.host_valid and a.valid_on == set()
        assert a.migration_bytes(0) == a.nbytes

    def test_stale_bytes_zero_when_shared(self):
        a = DeviceArray(4)
        assert a.migration_bytes(0) == 0
        assert a.host_valid

    def test_stale_host_bytes_page_rounded(self):
        n = (3 * PAGE_SIZE_BYTES) // 4  # < 1 page of float32s
        a = DeviceArray(n, dtype=np.uint8)
        a.mark_write(0)
        # Touch 1 byte: one page migrates, capped at the array size.
        assert writeback(a, 1) == min(a.nbytes, PAGE_SIZE_BYTES)

    def test_stale_host_bytes_multi_page(self):
        a = DeviceArray(3 * PAGE_SIZE_BYTES, dtype=np.uint8)
        a.mark_write(0)
        assert writeback(a, PAGE_SIZE_BYTES + 1) == 2 * PAGE_SIZE_BYTES

    def test_gpu_read_after_cpu_write_shares(self):
        a = DeviceArray(4)
        a.mark_cpu_write()
        a.mark_read(0)
        assert a.host_valid and a.valid_on == {0}


class TestAccessHook:
    def test_read_hook_called(self):
        a = DeviceArray(4)
        calls = []
        a.set_access_hook(lambda arr, kind, nb: calls.append((kind, nb)))
        _ = a[1]
        assert calls == [(AccessKind.READ, a.itemsize)]

    def test_write_hook_called(self):
        a = DeviceArray(4)
        calls = []
        a.set_access_hook(lambda arr, kind, nb: calls.append((kind, nb)))
        a[0] = 1.0
        assert calls == [(AccessKind.WRITE, a.itemsize)]

    def test_slice_touches_proportional_bytes(self):
        a = DeviceArray(100)
        sizes = []
        a.set_access_hook(lambda arr, kind, nb: sizes.append(nb))
        _ = a[10:20]
        assert sizes == [10 * a.itemsize]

    def test_bulk_ops_touch_everything(self):
        a = DeviceArray(100)
        sizes = []
        a.set_access_hook(lambda arr, kind, nb: sizes.append(nb))
        a.fill(1.0)
        _ = a.to_numpy()
        assert sizes == [a.nbytes, a.nbytes]

    def test_kernel_view_bypasses_hook(self):
        a = DeviceArray(4)
        calls = []
        a.set_access_hook(lambda *args: calls.append(args))
        _ = a.kernel_view[0]
        a.kernel_view[1] = 2.0
        assert calls == []

    def test_hook_removal(self):
        a = DeviceArray(4)
        calls = []
        a.set_access_hook(lambda *args: calls.append(args))
        a.set_access_hook(None)
        _ = a[0]
        assert calls == []


class TestDeviceAllocation:
    def test_allocation_accounted(self):
        dev = Device(GTX960)
        a = DeviceArray(1000, dtype=np.float32, devices=(dev,))
        assert dev.allocated_bytes == a.nbytes

    def test_free_releases(self):
        dev = Device(GTX960)
        a = DeviceArray(1000, devices=(dev,))
        a.free()
        assert dev.allocated_bytes == 0

    def test_free_idempotent(self):
        dev = Device(GTX960)
        a = DeviceArray(1000, devices=(dev,))
        a.free()
        a.free()
        assert dev.allocated_bytes == 0

    def test_use_after_free_rejected(self):
        a = DeviceArray(4)
        a.free()
        with pytest.raises(ValueError):
            _ = a[0]

    def test_oom(self):
        dev = Device(GTX960)  # 2 GB
        with pytest.raises(OutOfMemoryError):
            DeviceArray(int(3e9), dtype=np.uint8, devices=(dev,))

    def test_peak_tracking(self):
        dev = Device(GTX960)
        a = DeviceArray(1000, devices=(dev,))
        b = DeviceArray(500, dtype=np.uint8, devices=(dev,))
        a.free()
        assert dev.peak_allocated_bytes == 4000 + 500
        assert dev.allocated_bytes == 500
        b.free()
