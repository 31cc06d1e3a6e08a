"""The per-op records are read-only values: immutable fields, keyword
construction, field-wise equality and hashing within one type
(``TimelineRecord`` ignoring ``meta``), and faithful copy and pickle
round trips."""

import copy
import pickle

import pytest

from repro.core.dag import DependencyEdge
from repro.core.element import ArrayAccessElement
from repro.core.history import KernelExecutionRecord
from repro.gpusim.timeline import IntervalKind, TimelineRecord
from repro.memory import AccessKind, DeviceArray


TIMELINE_FIELDS = (
    "op_id", "label", "kind", "stream_id", "start", "end", "nbytes", "meta",
)
HISTORY_FIELDS = (
    "kernel_name", "threads_per_block", "blocks", "data_bytes", "duration",
    "stream_id", "end_time",
)
EDGE_FIELDS = ("parent", "child", "array")


def fields_of(record) -> tuple[str, ...]:
    return {
        TimelineRecord: TIMELINE_FIELDS,
        KernelExecutionRecord: HISTORY_FIELDS,
        DependencyEdge: EDGE_FIELDS,
    }[type(record)]


def values_of(record) -> tuple:
    return tuple(getattr(record, name) for name in fields_of(record))


def timeline_record(end=2.0, **meta):
    return TimelineRecord(
        op_id=3,
        label="k",
        kind=IntervalKind.KERNEL,
        stream_id=1,
        start=0.5,
        end=end,
        nbytes=0.0,
        meta=meta,
    )


def history_record():
    return KernelExecutionRecord(
        kernel_name="k",
        threads_per_block=256,
        blocks=64,
        data_bytes=1e6,
        duration=1e-3,
        stream_id=1,
        end_time=2e-3,
    )


def dependency_edge():
    array = DeviceArray(4)
    return DependencyEdge(
        parent=ArrayAccessElement(array, AccessKind.WRITE, 16),
        child=ArrayAccessElement(array, AccessKind.READ, 16),
        array=array,
    )


RECORDS = [timeline_record, history_record, dependency_edge]


class TestTimelineRecord:
    def test_equality_and_hash_ignore_meta(self):
        a, b = timeline_record(device=0), timeline_record(device=1)
        assert a == b and hash(a) == hash(b)
        assert a != timeline_record(end=3.0, device=0)

    def test_meta_defaults_to_a_fresh_dict(self):
        a = TimelineRecord(0, "e", IntervalKind.EVENT, 0, 1.0, 1.0)
        b = TimelineRecord(0, "e", IntervalKind.EVENT, 0, 1.0, 1.0)
        assert a.meta == {} and a.meta is not b.meta

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError, match="end"):
            TimelineRecord(0, "k", IntervalKind.KERNEL, 0, 2.0, 1.0)

    def test_positional_matches_keyword(self):
        assert TimelineRecord(
            3, "k", IntervalKind.KERNEL, 1, 0.5, 2.0
        ) == timeline_record()


@pytest.mark.parametrize("make", RECORDS)
class TestReadOnlyRecords:
    def test_fields_cannot_be_assigned(self, make):
        record = make()
        for name in fields_of(record):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_equal_fields_are_equal(self, make):
        record = make()
        rebuilt = type(record)(
            **dict(zip(fields_of(record), values_of(record)))
        )
        assert rebuilt == record and hash(rebuilt) == hash(record)

    def test_never_equal_to_a_plain_tuple(self, make):
        record = make()
        assert record != values_of(record) and values_of(record) != record


@pytest.mark.parametrize("make", [timeline_record, history_record])
@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_round_trip(make, clone):
    record = make() if make is history_record else make(device=2)
    back = clone(record)
    assert back == record and type(back) is type(record)
    assert hash(back) == hash(record)
    if make is timeline_record:
        assert back.meta == {"device": 2}
