"""Execution-timeline recording.

Every completed operation leaves a :class:`TimelineRecord`.  The overlap
metrics of section V-F (CT/TC/CC/TOT) are computed from these records by
:mod:`repro.metrics.overlap`; Fig. 10's ML timeline is rendered straight
from a :class:`Timeline`.

The simulator's hot path follows two rules.  Values built per op or per
launch (timeline records, kernel launches, kernel-history records,
dependency edges) are read-only, built like tuples rather than as
frozen dataclasses, and passed positionally where they are built per
op; their equality and hashing stay those of the fields, between
values of one type.  Facts fixed at construction (array sizes, a cost
model's price for one launch size, a kernel's parameter kinds, an
enum's classification) are computed once, not on every use.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, NamedTuple


def same_type_eq(self: tuple, other: object) -> bool:
    """``__eq__`` of a tuple-built record: field-wise, and only between
    values of one type.  Not ``NotImplemented`` for another type: the
    reflected ``tuple.__eq__`` would then equate a record with a plain
    tuple of its fields."""
    return other.__class__ is self.__class__ and tuple.__eq__(self, other)


class IntervalKind(enum.Enum):
    """Coarse classification of a timeline interval."""

    KERNEL = "kernel"
    TRANSFER_HTOD = "htod"
    TRANSFER_DTOH = "dtoh"
    TRANSFER_D2D = "d2d"
    EVENT = "event"

    def __init__(self, value: str) -> None:
        # A member attribute: the timeline asks it once per record.
        self.is_transfer = value in ("htod", "dtoh", "d2d")


class _Interval(NamedTuple):
    op_id: int
    label: str
    kind: IntervalKind
    stream_id: int
    start: float
    end: float
    nbytes: float
    meta: dict


class TimelineRecord(_Interval):
    """One completed operation on the device timeline.

    ``meta`` (a fresh dict when not given) carries free-form
    annotations and takes no part in equality or hashing.
    """

    __slots__ = ()

    def __new__(
        cls,
        op_id: int,
        label: str,
        kind: IntervalKind,
        stream_id: int,
        start: float,
        end: float,
        nbytes: float = 0.0,
        meta: dict | None = None,
    ) -> "TimelineRecord":
        if end < start:
            raise ValueError(f"record {label!r}: end {end} < start {start}")
        return tuple.__new__(
            cls,
            (
                op_id, label, kind, stream_id, start, end, nbytes,
                {} if meta is None else meta,
            ),
        )

    @property
    def duration(self) -> float:
        return self.end - self.start

    def overlaps(self, other: "TimelineRecord") -> bool:
        """True if the two intervals intersect with positive measure."""
        return self.start < other.end and other.start < self.end

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self[:7] == other[:7]

    __ne__ = object.__ne__

    def __hash__(self) -> int:
        return hash(self[:7])


class Timeline:
    """An append-only list of completed-operation records.

    Aggregates (``start``/``end``/``makespan``, per-kind duration and
    byte totals) and the per-stream grouping are maintained
    incrementally in :meth:`add`: metrics and the serving harness query
    them per request, and a full scan per query made long-lived engines
    O(records) per step.  Running sums accumulate in append order, so
    they are bit-identical to the scans they replace.
    """

    def __init__(self) -> None:
        self._records: list[TimelineRecord] = []
        self._kernels: list[TimelineRecord] = []
        self._transfers: list[TimelineRecord] = []
        self._by_stream: dict[int, list[TimelineRecord]] = {}
        self._start: float | None = None
        self._end: float | None = None
        self._kernel_time: float = 0.0
        self._transfer_time: float = 0.0
        self._transfer_bytes: float = 0.0

    def add(self, record: TimelineRecord) -> None:
        self._records.append(record)
        self._by_stream.setdefault(record.stream_id, []).append(record)
        duration = record.duration
        if duration > 0:
            if self._start is None or record.start < self._start:
                self._start = record.start
            if self._end is None or record.end > self._end:
                self._end = record.end
        if record.kind is IntervalKind.KERNEL:
            self._kernels.append(record)
            self._kernel_time += duration
        elif record.kind.is_transfer:
            self._transfers.append(record)
            self._transfer_time += duration
            self._transfer_bytes += record.nbytes

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TimelineRecord]:
        return iter(self._records)

    @property
    def records(self) -> tuple[TimelineRecord, ...]:
        return tuple(self._records)

    def clear(self) -> None:
        self._records.clear()
        self._kernels.clear()
        self._transfers.clear()
        self._by_stream.clear()
        self._start = None
        self._end = None
        self._kernel_time = 0.0
        self._transfer_time = 0.0
        self._transfer_bytes = 0.0

    # -- selections -------------------------------------------------------

    def kernels(self) -> list[TimelineRecord]:
        return list(self._kernels)

    def transfers(self) -> list[TimelineRecord]:
        return list(self._transfers)

    def by_stream(self, stream_id: int) -> list[TimelineRecord]:
        return list(self._by_stream.get(stream_id, ()))

    def stream_ids(self) -> list[int]:
        return sorted(self._by_stream)

    # -- aggregates ---------------------------------------------------------

    @property
    def start(self) -> float:
        """Start of the earliest non-empty interval (0.0 if empty)."""
        return 0.0 if self._start is None else self._start

    @property
    def end(self) -> float:
        return 0.0 if self._end is None else self._end

    @property
    def makespan(self) -> float:
        """Total elapsed device time: first start to last end.

        This matches the paper's definition of execution time ("from the
        first kernel scheduling until the end of execution").
        """
        return self.end - self.start

    def total_kernel_time(self) -> float:
        return self._kernel_time

    def total_transfer_time(self) -> float:
        return self._transfer_time

    def total_transferred_bytes(self) -> float:
        return self._transfer_bytes

    # -- rendering ----------------------------------------------------------

    def render_ascii(self, width: int = 96) -> str:
        """Render the timeline as ASCII art, one row per stream.

        Used by the Fig. 10 bench and the examples; deliberately coarse
        (character resolution) but faithful to interval positions.
        """
        if not self._records or self.makespan <= 0:
            return "(empty timeline)"
        t0, t1 = self.start, self.end
        scale = (width - 1) / (t1 - t0)
        lines = []
        # One pass over the maintained per-stream grouping: the legacy
        # implementation re-scanned every record once per stream.
        for sid in self.stream_ids():
            row = [" "] * width
            for rec in self._by_stream[sid]:
                if rec.duration <= 0:
                    continue
                a = int((rec.start - t0) * scale)
                b = max(a + 1, int((rec.end - t0) * scale))
                if rec.kind is IntervalKind.KERNEL:
                    ch = "#"
                elif rec.kind is IntervalKind.TRANSFER_HTOD:
                    ch = ">"
                elif rec.kind is IntervalKind.TRANSFER_D2D:
                    ch = "="
                else:
                    ch = "<"
                for i in range(a, min(b, width)):
                    row[i] = ch
                # Tag the interval with the first letters of its label.
                tag = (rec.label or "")[: max(0, b - a)]
                for j, c in enumerate(tag):
                    if a + j < width:
                        row[a + j] = c
            lines.append(f"S{sid:<3d} |" + "".join(row))
        header = (
            f"t=[{t0 * 1e3:.3f} ms .. {t1 * 1e3:.3f} ms]   "
            "# kernel   > HtoD   < DtoH"
        )
        return "\n".join([header, *lines])


def merge_intervals(
    intervals: Iterable[tuple[float, float]],
) -> list[tuple[float, float]]:
    """Union of possibly-overlapping intervals as a sorted disjoint list.

    Zero-length intervals are dropped.  Shared helper for the overlap
    metrics (the paper counts each overlapped second once: "we consider
    the union of the overlap intervals").
    """
    items = sorted((a, b) for a, b in intervals if b > a)
    merged: list[tuple[float, float]] = []
    for a, b in items:
        if merged and a <= merged[-1][1]:
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return merged


def intervals_measure(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals`` (0.0 when empty)."""
    return sum((b - a for a, b in merge_intervals(intervals)), 0.0)


def intersect_two(
    xs: list[tuple[float, float]], ys: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Intersection of two disjoint sorted interval lists."""
    out: list[tuple[float, float]] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        a = max(xs[i][0], ys[j][0])
        b = min(xs[i][1], ys[j][1])
        if a < b:
            out.append((a, b))
        if xs[i][1] <= ys[j][1]:
            i += 1
        else:
            j += 1
    return out
