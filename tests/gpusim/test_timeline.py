"""Tests for timeline records and the interval algebra helpers."""

import gc

import pytest
from hypothesis import given, strategies as st

from repro.gpusim.ops import TransferKind
from repro.gpusim.timeline import (
    IntervalKind,
    Timeline,
    TimelineRecord,
    intersect_two,
    intervals_measure,
    merge_intervals,
)


def rec(start, end, kind=IntervalKind.KERNEL, stream=0, label="x", nbytes=0.0):
    return TimelineRecord(
        op_id=0,
        label=label,
        kind=kind,
        stream_id=stream,
        start=start,
        end=end,
        nbytes=nbytes,
    )


class TestRecord:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            rec(2.0, 1.0)

    def test_duration(self):
        assert rec(1.0, 3.5).duration == 2.5

    def test_overlaps(self):
        assert rec(0, 2).overlaps(rec(1, 3))
        assert not rec(0, 1).overlaps(rec(1, 2))  # touching is not overlap
        assert not rec(0, 1).overlaps(rec(2, 3))

    def test_transfer_kind_flags(self):
        assert IntervalKind.TRANSFER_HTOD.is_transfer
        assert IntervalKind.TRANSFER_DTOH.is_transfer
        assert not IntervalKind.KERNEL.is_transfer


class TestTimeline:
    def test_empty_makespan_zero(self):
        assert Timeline().makespan == 0.0

    def test_selections(self):
        tl = Timeline()
        tl.add(rec(0, 1, IntervalKind.KERNEL, stream=1))
        tl.add(rec(0, 2, IntervalKind.TRANSFER_HTOD, stream=2))
        tl.add(rec(2, 3, IntervalKind.TRANSFER_DTOH, stream=1))
        assert len(tl.kernels()) == 1
        assert len(tl.transfers()) == 2
        assert len(tl.by_stream(1)) == 2
        assert tl.stream_ids() == [1, 2]

    def test_makespan_ignores_zero_duration_events(self):
        tl = Timeline()
        tl.add(rec(5, 5, IntervalKind.EVENT))
        tl.add(rec(1, 2))
        assert tl.makespan == 1.0
        assert tl.start == 1.0 and tl.end == 2.0

    def test_totals(self):
        tl = Timeline()
        tl.add(rec(0, 1))
        tl.add(rec(0, 2, IntervalKind.TRANSFER_HTOD, nbytes=100.0))
        assert tl.total_kernel_time() == 1.0
        assert tl.total_transfer_time() == 2.0
        assert tl.total_transferred_bytes() == 100.0

    def test_render_ascii_nonempty(self):
        tl = Timeline()
        tl.add(rec(0, 1, IntervalKind.KERNEL, stream=1, label="mmul"))
        tl.add(rec(0.5, 2, IntervalKind.TRANSFER_HTOD, stream=2))
        art = tl.render_ascii(width=40)
        assert "S1" in art and "S2" in art
        assert "m" in art  # label tag rendered

    def test_render_empty(self):
        assert "empty" in Timeline().render_ascii()

    def test_clear(self):
        tl = Timeline()
        tl.add(rec(0, 1))
        tl.clear()
        assert len(tl) == 0

    def test_clear_resets_incremental_aggregates(self):
        tl = Timeline()
        tl.add(rec(1, 2))
        tl.add(rec(0, 3, IntervalKind.TRANSFER_HTOD, stream=2, nbytes=8.0))
        tl.clear()
        assert tl.start == 0.0 and tl.end == 0.0 and tl.makespan == 0.0
        assert tl.total_kernel_time() == 0.0
        assert tl.total_transfer_time() == 0.0
        assert tl.total_transferred_bytes() == 0.0
        assert tl.stream_ids() == []
        assert tl.by_stream(2) == []
        # And the aggregates resume correctly after the reset.
        tl.add(rec(4, 6))
        assert tl.makespan == 2.0
        assert tl.total_kernel_time() == 2.0

    def test_incremental_aggregates_match_scans(self):
        tl = Timeline()
        records = [
            rec(0, 1),
            rec(5, 5, IntervalKind.EVENT),
            rec(0.5, 2, IntervalKind.TRANSFER_HTOD, stream=2, nbytes=16.0),
            rec(3, 4, IntervalKind.TRANSFER_DTOH, stream=1, nbytes=4.0),
            rec(2, 3, IntervalKind.TRANSFER_D2D, stream=3, nbytes=2.0),
        ]
        for r in records:
            tl.add(r)
        assert tl.start == min(r.start for r in records if r.duration > 0)
        assert tl.end == max(r.end for r in records if r.duration > 0)
        assert tl.total_kernel_time() == sum(
            r.duration for r in records if r.kind is IntervalKind.KERNEL
        )
        assert tl.total_transfer_time() == sum(
            r.duration for r in records if r.kind.is_transfer
        )
        assert tl.total_transferred_bytes() == 22.0
        assert tl.by_stream(0) == [records[0], records[1]]
        assert tl.stream_ids() == [0, 1, 2, 3]


class TestRows:
    """Rows appended field by field read back as records."""

    def test_append_rejects_end_before_start(self):
        tl = Timeline()
        with pytest.raises(ValueError, match="end"):
            tl.append(0, "k", IntervalKind.KERNEL, 0, 2.0, 1.0, 0.0, {})
        assert len(tl) == 0

    def test_add_rejects_a_record_built_without_the_check(self):
        bad = TimelineRecord._make(
            (0, "k", IntervalKind.KERNEL, 0, 2.0, 1.0, 0.0, {})
        )
        with pytest.raises(ValueError, match="end"):
            Timeline().add(bad)

    def test_meta_leads_with_the_per_kind_value(self):
        request = object()
        info = {"device": 1, "tenant": "t"}
        tl = Timeline()
        tl.append(0, "k", IntervalKind.KERNEL, 1, 0.0, 1.0, 0.0, info, request)
        tl.append(
            1, "h", IntervalKind.TRANSFER_HTOD, 2, 0.0, 1.0, 8.0, info,
            TransferKind.PREFETCH,
        )
        tl.append(2, "e", IntervalKind.EVENT, 1, 1.0, 1.0, 0.0, info)
        kernel, transfer, event = tl
        assert list(kernel.meta) == ["resources", "device", "tenant"]
        assert kernel.meta["resources"] is request
        assert list(transfer.meta) == ["kind", "device", "tenant"]
        assert transfer.meta["kind"] is TransferKind.PREFETCH
        assert event.meta == info and event.meta is not info

    def test_column_reads_match_the_records(self):
        tl = Timeline()
        tl.add(rec(0, 1, IntervalKind.KERNEL, stream=3))
        tl.add(rec(0.5, 2, IntervalKind.TRANSFER_HTOD, stream=2))
        tl.add(rec(2, 2, IntervalKind.EVENT, stream=4))
        tl.add(rec(1, 3, IntervalKind.KERNEL, stream=1))
        assert tl.kernel_stream_ids() == {r.stream_id for r in tl.kernels()}
        assert tl.spans() == [
            (r.start, r.end)
            for r in tl
            if r.kind is IntervalKind.KERNEL or r.kind.is_transfer
        ]
        assert tl.spans(transfers=False) == [
            (r.start, r.end) for r in tl.kernels()
        ]

    def test_split_by_keeps_row_order_and_annotations(self):
        tl = Timeline()
        tags = ["a", "b", None, "a", "c"]
        for i, tag in enumerate(tags):
            info = {} if tag is None else {"tenant": tag}
            tl.append(i, f"k{i}", IntervalKind.KERNEL, i, i, i + 1.0, 0.0,
                      info, "req")
        into = {"a": Timeline(), "b": Timeline()}
        tl.split_by("tenant", into)
        assert [r.op_id for r in into["a"]] == [0, 3]
        assert [r.op_id for r in into["b"]] == [1]
        assert list(into["a"])[1].meta == {"resources": "req", "tenant": "a"}
        assert into["a"].total_kernel_time() == 2.0


metas = st.dictionaries(
    st.text(max_size=8),
    st.one_of(
        st.integers(),
        st.text(max_size=8),
        st.floats(allow_nan=False),
        st.tuples(st.integers(), st.integers()),
        st.frozensets(st.integers(), max_size=4),
        st.lists(st.integers(), max_size=4),
    ),
    max_size=5,
)
records = st.builds(
    lambda op_id, label, kind, stream, start, length, nbytes, meta: (
        TimelineRecord(
            op_id, label, kind, stream, start, start + length, nbytes, meta
        )
    ),
    st.integers(min_value=0, max_value=10**6),
    st.text(max_size=8),
    st.sampled_from(IntervalKind),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0, max_value=1e3),
    st.floats(min_value=0, max_value=1e3),
    st.floats(min_value=0, max_value=1e9),
    metas,
)


class TestAddReadsBack:
    @given(st.lists(records, max_size=12))
    def test_records_read_back_equal(self, items):
        tl = Timeline()
        for r in items:
            tl.add(r)
        back = list(tl)
        assert back == items and tl.records == tuple(items)
        assert [r.meta for r in back] == [r.meta for r in items]
        assert [list(r.meta) for r in back] == [list(r.meta) for r in items]
        assert tl.kernels() == [
            r for r in items if r.kind is IntervalKind.KERNEL
        ]
        assert tl.transfers() == [r for r in items if r.kind.is_transfer]
        for sid in tl.stream_ids():
            assert tl.by_stream(sid) == [
                r for r in items if r.stream_id == sid
            ]


class TestCollector:
    """A kept timeline costs the collector nothing per row: a row holds
    no object CPython keeps tracking, so a later frozenset, dict or enum
    member put into ``op.info`` fails here."""

    def test_extra_rows_add_no_tracked_objects(self):
        from repro.workloads import Mode, create_benchmark

        def run(iterations):
            bench = create_benchmark(
                "hits", 2_000, iterations=iterations, execute=False
            )
            return bench.run("GTX 1660 Super", Mode.PARALLEL)

        def tracked() -> int:
            gc.collect()
            return len(gc.get_objects())

        run(1)  # warm every cache the runs share
        before = tracked()
        short = run(20)
        middle = tracked()
        long = run(40)
        after = tracked()
        extra_rows = len(long.timeline) - len(short.timeline)
        assert extra_rows > 2000
        extra_objects = (after - middle) - (middle - before)
        assert extra_objects < 0.05 * extra_rows, (extra_objects, extra_rows)


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_kept(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_overlapping_merged(self):
        assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]

    def test_touching_merged(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_zero_length_dropped(self):
        assert merge_intervals([(1, 1), (2, 2)]) == []

    def test_unsorted_input(self):
        assert merge_intervals([(5, 6), (0, 1), (0.5, 2)]) == [(0, 2), (5, 6)]

    def test_measure(self):
        assert intervals_measure([(0, 2), (1, 3), (10, 11)]) == 4.0


class TestIntersect:
    def test_basic(self):
        xs = [(0.0, 2.0), (4.0, 6.0)]
        ys = [(1.0, 5.0)]
        assert intersect_two(xs, ys) == [(1.0, 2.0), (4.0, 5.0)]

    def test_disjoint(self):
        assert intersect_two([(0.0, 1.0)], [(2.0, 3.0)]) == []

    def test_empty(self):
        assert intersect_two([], [(0.0, 1.0)]) == []


finite_interval = st.tuples(
    st.floats(min_value=0, max_value=100, allow_nan=False),
    st.floats(min_value=0, max_value=100, allow_nan=False),
).map(lambda t: (min(t), max(t)))

interval_lists = st.lists(finite_interval, max_size=30)


class TestIntervalProperties:
    @given(interval_lists)
    def test_merge_is_disjoint_and_sorted(self, items):
        merged = merge_intervals(items)
        for (a1, b1), (a2, b2) in zip(merged, merged[1:]):
            assert b1 < a2

    @given(interval_lists)
    def test_merge_idempotent(self, items):
        once = merge_intervals(items)
        assert merge_intervals(once) == once

    @given(interval_lists)
    def test_measure_upper_bound(self, items):
        # Union measure never exceeds the sum of the parts.
        assert intervals_measure(items) <= sum(
            b - a for a, b in items
        ) + 1e-9

    @given(interval_lists, interval_lists)
    def test_intersection_within_both(self, xs, ys):
        mx, my = merge_intervals(xs), merge_intervals(ys)
        inter = intersect_two(mx, my)
        m_inter = intervals_measure(inter)
        assert m_inter <= intervals_measure(mx) + 1e-9
        assert m_inter <= intervals_measure(my) + 1e-9

    @given(interval_lists, interval_lists)
    def test_inclusion_exclusion(self, xs, ys):
        mx, my = merge_intervals(xs), merge_intervals(ys)
        union = intervals_measure(list(mx) + list(my))
        assert union == pytest.approx(
            intervals_measure(mx)
            + intervals_measure(my)
            - intervals_measure(intersect_two(mx, my)),
            abs=1e-6,
        )
