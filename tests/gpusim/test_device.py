"""Tests for device memory accounting."""

import pytest

from repro.errors import OutOfMemoryError
from repro.gpusim import Device, GTX960


class TestDeviceAllocation:
    def test_allocate_and_free(self):
        dev = Device(GTX960)
        h = dev.allocate(1000)
        assert dev.allocated_bytes == 1000
        dev.free(h)
        assert dev.allocated_bytes == 0

    def test_oom_at_capacity(self):
        dev = Device(GTX960)
        dev.allocate(int(1.5e9))
        with pytest.raises(OutOfMemoryError):
            dev.allocate(int(0.6e9))

    def test_oom_message_names_device(self):
        dev = Device(GTX960)
        with pytest.raises(OutOfMemoryError, match="GTX 960"):
            dev.allocate(int(3e9))

    def test_free_unknown_handle_rejected(self):
        dev = Device(GTX960)
        with pytest.raises(KeyError):
            dev.free(42)

    def test_double_free_rejected(self):
        dev = Device(GTX960)
        h = dev.allocate(10)
        dev.free(h)
        with pytest.raises(KeyError):
            dev.free(h)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Device(GTX960).allocate(-1)

    def test_zero_size_allowed(self):
        dev = Device(GTX960)
        h = dev.allocate(0)
        dev.free(h)

    def test_peak_tracks_high_water_mark(self):
        dev = Device(GTX960)
        h1 = dev.allocate(1000)
        h2 = dev.allocate(500)
        dev.free(h1)
        dev.allocate(100)
        assert dev.peak_allocated_bytes == 1500
