"""Unit tests for the observability counter/gauge registry."""

from repro.obs.counters import Counter, CounterRegistry


class TestCounter:
    def test_starts_at_integer_zero(self):
        c = Counter("x")
        assert c.value == 0
        assert isinstance(c.value, int)

    def test_inc_and_set(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.set(2)
        assert c.value == 2

    def test_direct_value_writes_are_the_hot_path(self):
        c = Counter("x")
        c.value += 1
        c.value += 1
        assert c.value == 2


class TestCounterRegistry:
    def test_counter_is_create_or_get(self):
        reg = CounterRegistry()
        a = reg.counter("engine.steps")
        b = reg.counter("engine.steps")
        assert a is b
        a.value += 3
        assert reg.get("engine.steps") == 3

    def test_inc_get_defaults(self):
        reg = CounterRegistry()
        assert reg.get("missing") == 0
        assert reg.get("missing", default=-1) == -1
        reg.inc("a")
        reg.inc("a", 2)
        assert reg.get("a") == 3

    def test_set_max_is_a_high_watermark(self):
        reg = CounterRegistry()
        reg.set_max("serve.queue_depth_peak", 3)
        reg.set_max("serve.queue_depth_peak", 1)
        assert reg.get("serve.queue_depth_peak") == 3
        reg.set_max("serve.queue_depth_peak", 9)
        assert reg.get("serve.queue_depth_peak") == 9

    def test_contains_len_iter(self):
        reg = CounterRegistry()
        reg.inc("a.x")
        reg.inc("a.y")
        assert "a.x" in reg
        assert "a.z" not in reg
        assert len(reg) == 2
        assert {c.name for c in reg} == {"a.x", "a.y"}

    def test_names_and_snapshot_are_sorted_and_prefixable(self):
        reg = CounterRegistry()
        reg.inc("coherence.htod_ops", 2)
        reg.inc("engine.steps", 5)
        reg.inc("coherence.dtoh_ops", 1)
        assert reg.names() == [
            "coherence.dtoh_ops", "coherence.htod_ops", "engine.steps",
        ]
        assert reg.names("coherence.") == [
            "coherence.dtoh_ops", "coherence.htod_ops",
        ]
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap == {
            "coherence.dtoh_ops": 1,
            "coherence.htod_ops": 2,
            "engine.steps": 5,
        }
        assert reg.snapshot("engine.") == {"engine.steps": 5}

    def test_merge_accumulates_without_sharing_cells(self):
        a = CounterRegistry()
        b = CounterRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.inc("only_b", 1)
        a.merge(b)
        assert a.get("n") == 5
        assert a.get("only_b") == 1
        # the source registry is untouched, and the cells stay private
        assert b.get("n") == 3
        b.inc("n")
        assert a.get("n") == 5

    def test_merge_with_prefix_renames(self):
        a = CounterRegistry()
        b = CounterRegistry()
        b.inc("steps", 4)
        a.merge(b, prefix="engine.")
        assert a.get("engine.steps") == 4
        assert "steps" not in a

    def test_clear(self):
        reg = CounterRegistry()
        reg.inc("a")
        reg.clear()
        assert len(reg) == 0
        assert reg.get("a") == 0
