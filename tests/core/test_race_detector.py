"""Tests for the data-race detector used to validate schedules."""

import pytest

from repro.core.race import check_no_races, find_races
from repro.errors import DataRaceError
from repro.gpusim.timeline import IntervalKind, Timeline, TimelineRecord


def krec(label, start, end, reads=(), writes=(), stream=0):
    names = {x: f"a{x}" for x in (*reads, *writes)}
    return TimelineRecord(
        op_id=0,
        label=label,
        kind=IntervalKind.KERNEL,
        stream_id=stream,
        start=start,
        end=end,
        meta={
            "reads": frozenset(reads),
            "writes": frozenset(writes),
            "array_names": names,
        },
    )


def timeline(*records):
    tl = Timeline()
    for r in records:
        tl.add(r)
    return tl


class TestFindRaces:
    def test_empty_timeline(self):
        assert find_races(timeline()) == []

    def test_disjoint_in_time_no_race(self):
        tl = timeline(
            krec("a", 0, 1, writes=[1]), krec("b", 1, 2, reads=[1])
        )
        assert find_races(tl) == []

    def test_write_read_overlap_is_race(self):
        tl = timeline(
            krec("a", 0, 2, writes=[1]), krec("b", 1, 3, reads=[1])
        )
        races = find_races(tl)
        assert len(races) == 1
        assert races[0].array_names == ("a1",)

    def test_write_write_overlap_is_race(self):
        tl = timeline(
            krec("a", 0, 2, writes=[1]), krec("b", 1, 3, writes=[1])
        )
        assert len(find_races(tl)) == 1

    def test_read_read_overlap_is_fine(self):
        tl = timeline(
            krec("a", 0, 2, reads=[1]), krec("b", 1, 3, reads=[1])
        )
        assert find_races(tl) == []

    def test_overlap_on_different_arrays_is_fine(self):
        tl = timeline(
            krec("a", 0, 2, writes=[1]), krec("b", 1, 3, writes=[2])
        )
        assert find_races(tl) == []

    def test_unannotated_kernels_skipped(self):
        tl = timeline(
            TimelineRecord(
                op_id=0, label="x", kind=IntervalKind.KERNEL,
                stream_id=0, start=0, end=2,
            ),
            krec("a", 0, 2, writes=[1]),
        )
        assert find_races(tl) == []

    def test_multiple_races_reported(self):
        tl = timeline(
            krec("a", 0, 10, writes=[1]),
            krec("b", 1, 3, reads=[1]),
            krec("c", 4, 6, writes=[1]),
        )
        assert len(find_races(tl)) >= 2


def trec(label, start, end, reads=(), writes=(), names=()):
    """A kernel record annotated as the executors annotate theirs:
    ``(id(array), device)`` tokens in tuples, names as pairs."""
    return TimelineRecord(
        op_id=0,
        label=label,
        kind=IntervalKind.KERNEL,
        stream_id=0,
        start=start,
        end=end,
        meta={
            "reads": tuple(reads),
            "writes": tuple(writes),
            "array_names": tuple(names),
        },
    )


class TestExecutorTokens:
    def test_tuple_tokens_race_is_named(self):
        token = (0x1234, 0)
        tl = timeline(
            trec("a", 0, 2, writes=[token], names=[(token, "x")]),
            trec("b", 1, 3, reads=[token], names=[(token, "x")]),
        )
        races = find_races(tl)
        assert len(races) == 1 and races[0].array_names == ("x",)

    @pytest.mark.parametrize("form", [tuple, frozenset])
    def test_race_on_a_nameless_copy_token_is_reported(self, form):
        """A token with no ``array_names`` entry is named by its parts
        (formatting the tuple as an int raised ``TypeError``)."""

        def rec(label, start, end, reads=(), writes=()):
            return TimelineRecord(
                0, label, IntervalKind.KERNEL, 0, start, end,
                meta={"reads": form(reads), "writes": form(writes)},
            )

        tl = timeline(
            rec("a", 0, 2, writes=[(0xBEEF, 0)]),
            rec("b", 1, 3, reads=[(0xBEEF, 0)]),
        )
        races = find_races(tl)
        assert len(races) == 1
        assert races[0].array_names == ("array@0xbeef[dev 0]",)

    def test_nameless_int_token_keeps_its_name(self):
        tl = timeline(
            TimelineRecord(
                0, "a", IntervalKind.KERNEL, 0, 0, 2,
                meta={"reads": frozenset(), "writes": frozenset({255})},
            ),
            TimelineRecord(
                1, "b", IntervalKind.KERNEL, 0, 1, 3,
                meta={"reads": frozenset({255}), "writes": frozenset()},
            ),
        )
        assert find_races(tl)[0].array_names == ("array@0xff",)

    def test_tuple_and_set_forms_agree(self):
        token = (7, 1)
        tuple_form = timeline(
            trec("a", 0, 2, writes=[token], names=[(token, "x")]),
            trec("b", 1, 3, writes=[token], names=[(token, "x")]),
        )
        set_form = timeline(
            krec("a", 0, 2, writes=[token]), krec("b", 1, 3, writes=[token])
        )
        assert len(find_races(tuple_form)) == len(find_races(set_form)) == 1


class TestCheckNoRaces:
    def test_raises_with_description(self):
        tl = timeline(
            krec("writer", 0, 2, writes=[7]),
            krec("reader", 1, 3, reads=[7]),
        )
        with pytest.raises(DataRaceError) as exc:
            check_no_races(tl)
        assert "writer" in str(exc.value)
        assert "a7" in str(exc.value)

    def test_passes_clean_timeline(self):
        tl = timeline(
            krec("a", 0, 1, writes=[1]), krec("b", 2, 3, reads=[1])
        )
        check_no_races(tl)
