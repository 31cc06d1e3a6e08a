"""Tests for the unified-memory location-set transitions.

An array's location set holds the host and any subset of its devices
with a valid copy.  A single GPU is the one-device case, where the sets
{host, gpu0}, {host} and {gpu0} are the classic shared, host-only and
device-only states."""

import numpy as np
from hypothesis import given, strategies as st

from repro.gpusim import Device, GTX960
from repro.memory import DeviceArray
from repro.memory.pages import PAGE_SIZE_BYTES, pages_for_bytes

SHARED = (True, {0})
HOST_ONLY = (True, set())
DEVICE_ONLY = (False, {0})


def array_in(host_valid, valid_on, gpus=1):
    a = DeviceArray(
        4, np.float32, devices=[Device(GTX960) for _ in range(gpus)]
    )
    a.host_valid, a.valid_on = host_valid, set(valid_on)
    return a


def location(a):
    return a.host_valid, a.valid_on


class TestStates:
    def test_shared_valid_everywhere(self):
        a = DeviceArray(4)
        assert location(a) == SHARED
        assert a.resident_on(0) and a.migration_source(0) is None

    def test_host_only(self):
        a = array_in(*HOST_ONLY)
        assert a.host_valid and not a.resident_on(0)
        assert a.migration_source(0) == -1

    def test_device_only(self):
        a = array_in(*DEVICE_ONLY)
        assert not a.host_valid and a.resident_on(0)


class TestTransitions:
    def test_gpu_read_migrates(self):
        for before, after in (
            (HOST_ONLY, SHARED), (SHARED, SHARED), (DEVICE_ONLY, DEVICE_ONLY)
        ):
            a = array_in(*before)
            a.mark_read(0)
            assert location(a) == after

    def test_gpu_write_invalidates_host(self):
        for state in (SHARED, HOST_ONLY, DEVICE_ONLY):
            a = array_in(*state)
            a.mark_write(0)
            assert location(a) == DEVICE_ONLY

    def test_cpu_read_migrates_back(self):
        for before, after in (
            (DEVICE_ONLY, SHARED), (HOST_ONLY, HOST_ONLY), (SHARED, SHARED)
        ):
            a = array_in(*before)
            a.mark_cpu_read()
            assert location(a) == after

    def test_cpu_write_invalidates_device(self):
        for state in (SHARED, HOST_ONLY, DEVICE_ONLY):
            a = array_in(*state)
            a.mark_cpu_write()
            assert location(a) == HOST_ONLY


#: every two-device location set holding at least one valid copy
state_strategy = st.tuples(
    st.booleans(), st.sets(st.sampled_from([0, 1]))
).filter(lambda s: s[0] or s[1])
transition_strategy = st.sampled_from(
    [
        ("mark_read", 0), ("mark_read", 1),
        ("mark_write", 0), ("mark_write", 1),
        ("mark_cpu_read",), ("mark_cpu_write",),
    ]
)


def apply(a, transition):
    name, *args = transition
    getattr(a, name)(*args)


class TestCoherenceProperties:
    @given(state_strategy, st.lists(transition_strategy, max_size=20))
    def test_some_copy_always_valid(self, state, transitions):
        a = array_in(*state, gpus=2)
        for t in transitions:
            apply(a, t)
            assert a.host_valid or a.valid_on

    @given(state_strategy, st.sampled_from([0, 1]))
    def test_gpu_read_makes_device_valid(self, state, device):
        a = array_in(*state, gpus=2)
        a.mark_read(device)
        assert a.resident_on(device)

    @given(state_strategy)
    def test_cpu_read_makes_host_valid(self, state):
        a = array_in(*state, gpus=2)
        a.mark_cpu_read()
        assert a.host_valid

    @given(state_strategy, transition_strategy)
    def test_transitions_idempotent(self, state, t):
        once, twice = array_in(*state, gpus=2), array_in(*state, gpus=2)
        apply(once, t)
        apply(twice, t)
        apply(twice, t)
        assert location(twice) == location(once)


class TestPages:
    def test_zero_bytes(self):
        assert pages_for_bytes(0) == 0

    def test_one_byte_is_one_page(self):
        assert pages_for_bytes(1) == 1

    def test_exact_page(self):
        assert pages_for_bytes(PAGE_SIZE_BYTES) == 1

    def test_page_plus_one(self):
        assert pages_for_bytes(PAGE_SIZE_BYTES + 1) == 2
