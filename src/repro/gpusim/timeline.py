"""Execution-timeline recording.

Every completed operation leaves a row of a :class:`Timeline`, read
back as a :class:`TimelineRecord`.  The overlap metrics of section V-F
(CT/TC/CC/TOT) are computed from these records by
:mod:`repro.metrics.overlap`; Fig. 10's ML timeline is rendered straight
from a :class:`Timeline`.

The simulator's hot path follows three rules.  Values built per op or
per launch (timeline records, kernel launches, kernel-history records,
dependency edges) are read-only, built like tuples rather than as
frozen dataclasses, and passed positionally where they are built per
op; their equality and hashing stay those of the fields, between
values of one type.  Facts fixed at construction (array sizes, a cost
model's price for one launch size, a kernel's parameter kinds, an
enum's classification) are computed once, not on every use.  And a
stored timeline row holds no object the collector must keep tracking:
its columns hold scalars and shared values, and its annotations hold
only scalars and exact tuples of them.  CPython untracks such a tuple
at its next collection and such a dict at the next full one; a record,
a set or an enum member it never untracks.  A grid pass keeps every
cell's timeline, so a tracked object per row made each full collection
traverse them all.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping, NamedTuple


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
    annotations and takes no part in equality or hashing.  The
    executors' annotations hold the race detector's tokens: ``reads``
    and ``writes`` are tuples of ``(id(array), device)`` tokens and
    ``array_names`` a tuple of ``(token, name)`` pairs
    (:mod:`repro.core.race` also reads sets and dicts).
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


#: Per-kind value of a row whose meta is its annotations alone.
_BARE = object()


class Timeline:
    """An append-only table of completed operations.

    Each row is one operation, stored as columns (op ids, labels, kinds,
    stream ids, starts, ends, byte counts), plus the op's own annotation
    dict and one per-kind value: a kernel's resource request or a
    transfer's kind.  :class:`TimelineRecord` s are built when read, with
    the same fields and the same meta (the per-kind value first, under
    ``"resources"`` or ``"kind"``, then the annotations) in row order.

    Aggregates (``start``/``end``/``makespan``, per-kind duration and
    byte totals) are maintained incrementally in :meth:`append`: metrics
    and the serving harness query them per request, and a full scan per
    query made long-lived engines O(records) per step.  Running sums
    accumulate in append order, so they are bit-identical to the scans
    they replace.
    """

    def __init__(self) -> None:
        self._op_ids: list[int] = []
        self._labels: list[str] = []
        self._kinds: list[IntervalKind] = []
        self._stream_ids: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._nbytes: list[float] = []
        self._infos: list[dict] = []
        self._heads: list[object] = []
        self._start: float | None = None
        self._end: float | None = None
        self._kernel_time: float = 0.0
        self._transfer_time: float = 0.0
        self._transfer_bytes: float = 0.0

    def append(
        self,
        op_id: int,
        label: str,
        kind: IntervalKind,
        stream_id: int,
        start: float,
        end: float,
        nbytes: float,
        info: dict,
        head: object = _BARE,
    ) -> None:
        """Append one row.  ``info`` is kept, not copied; ``head`` is the
        per-kind value a record's meta leads with (none when omitted)."""
        if end < start:
            raise ValueError(f"record {label!r}: end {end} < start {start}")
        self._op_ids.append(op_id)
        self._labels.append(label)
        self._kinds.append(kind)
        self._stream_ids.append(stream_id)
        self._starts.append(start)
        self._ends.append(end)
        self._nbytes.append(nbytes)
        self._infos.append(info)
        self._heads.append(head)
        duration = end - start
        if duration > 0:
            if self._start is None or start < self._start:
                self._start = start
            if self._end is None or end > self._end:
                self._end = end
        if kind is IntervalKind.KERNEL:
            self._kernel_time += duration
        elif kind.is_transfer:
            self._transfer_time += duration
            self._transfer_bytes += nbytes

    def add(self, record: TimelineRecord) -> None:
        """Append ``record``; it reads back equal, with equal meta."""
        self.append(*record[:7], record.meta)

    def _record(self, row: int) -> TimelineRecord:
        kind = self._kinds[row]
        head = self._heads[row]
        info = self._infos[row]
        if head is _BARE:
            meta = dict(info)
        elif kind is IntervalKind.KERNEL:
            meta = {"resources": head, **info}
        else:
            meta = {"kind": head, **info}
        return tuple.__new__(
            TimelineRecord,
            (
                self._op_ids[row], self._labels[row], kind,
                self._stream_ids[row], self._starts[row], self._ends[row],
                self._nbytes[row], meta,
            ),
        )

    def __len__(self) -> int:
        return len(self._op_ids)

    def __iter__(self) -> Iterator[TimelineRecord]:
        return map(self._record, range(len(self._op_ids)))

    @property
    def records(self) -> tuple[TimelineRecord, ...]:
        return tuple(self)

    def clear(self) -> None:
        self.__init__()

    # -- selections -------------------------------------------------------

    def kernels(self) -> list[TimelineRecord]:
        return [
            self._record(row)
            for row, kind in enumerate(self._kinds)
            if kind is IntervalKind.KERNEL
        ]

    def transfers(self) -> list[TimelineRecord]:
        return [
            self._record(row)
            for row, kind in enumerate(self._kinds)
            if kind.is_transfer
        ]

    def by_stream(self, stream_id: int) -> list[TimelineRecord]:
        return [
            self._record(row)
            for row, sid in enumerate(self._stream_ids)
            if sid == stream_id
        ]

    def stream_ids(self) -> list[int]:
        return sorted(set(self._stream_ids))

    # -- column reads (no records built) -------------------------------------

    def kernel_stream_ids(self) -> set[int]:
        """Ids of the streams that ran at least one kernel."""
        return {
            sid
            for sid, kind in zip(self._stream_ids, self._kinds)
            if kind is IntervalKind.KERNEL
        }

    def spans(self, *, transfers: bool = True) -> list[tuple[float, float]]:
        """``(start, end)`` of every kernel row, and of every transfer row
        when ``transfers``, in row order."""
        return [
            (start, end)
            for start, end, kind in zip(self._starts, self._ends, self._kinds)
            if kind is IntervalKind.KERNEL or (transfers and kind.is_transfer)
        ]

    def split_by(self, key: str, into: Mapping[object, "Timeline"]) -> None:
        """Append every row whose annotation ``key`` names a timeline of
        ``into`` to that timeline, in row order.  The rows share their
        annotations and per-kind values with this timeline."""
        for row, info in enumerate(self._infos):
            target = into.get(info.get(key))
            if target is not None:
                target.append(
                    self._op_ids[row], self._labels[row], self._kinds[row],
                    self._stream_ids[row], self._starts[row],
                    self._ends[row], self._nbytes[row], info,
                    self._heads[row],
                )

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
        if not self._op_ids or self.makespan <= 0:
            return "(empty timeline)"
        t0, t1 = self.start, self.end
        scale = (width - 1) / (t1 - t0)
        rows = {sid: [" "] * width for sid in self.stream_ids()}
        # One pass over the rows: each draws on its stream's line.
        for sid, kind, label, start, end in zip(
            self._stream_ids, self._kinds, self._labels, self._starts,
            self._ends,
        ):
            if end - start <= 0:
                continue
            row = rows[sid]
            a = int((start - t0) * scale)
            b = max(a + 1, int((end - t0) * scale))
            if kind is IntervalKind.KERNEL:
                ch = "#"
            elif kind is IntervalKind.TRANSFER_HTOD:
                ch = ">"
            elif kind is IntervalKind.TRANSFER_D2D:
                ch = "="
            else:
                ch = "<"
            for i in range(a, min(b, width)):
                row[i] = ch
            # Tag the interval with the first letters of its label.
            tag = (label or "")[: max(0, b - a)]
            for j, c in enumerate(tag):
                if a + j < width:
                    row[a + j] = c
        lines = [f"S{sid:<3d} |" + "".join(row) for sid, row in rows.items()]
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
