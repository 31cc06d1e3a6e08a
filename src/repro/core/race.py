"""Data-race detector over simulated timelines.

A correct scheduler never lets two operations that conflict on an array
(at least one writes it) overlap in time without an ordering between
them.  Because the simulator records exact start/end times, conflicting
kernels that *overlap* are precisely those the scheduler failed to order
— there is no false positive from "could have overlapped".

This is a verification tool: the parallel scheduler is exercised against
it in the test suite (every benchmark, every policy) to prove the
dependency inference of section IV-A is sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DataRaceError
from repro.gpusim.timeline import IntervalKind, Timeline, TimelineRecord


@dataclass(frozen=True)
class Race:
    """Two overlapping, conflicting kernel executions."""

    first: TimelineRecord
    second: TimelineRecord
    array_names: tuple[str, ...]

    def describe(self) -> str:
        arrays = ", ".join(self.array_names)
        return (
            f"{self.first.label!r} [{self.first.start:.6f},"
            f" {self.first.end:.6f}] overlaps {self.second.label!r}"
            f" [{self.second.start:.6f}, {self.second.end:.6f}]"
            f" conflicting on {arrays}"
        )


def _name(token, names: dict) -> str:
    """``token``'s array name, or its parts when it has none: an
    ``(id(array), device)`` copy token, or a bare int."""
    name = names.get(token)
    if name is not None:
        return name
    if isinstance(token, tuple):
        array, device = token
        return f"array@{array:#x}[dev {device}]"
    return f"array@{token:#x}"


def _names(a: TimelineRecord, b: TimelineRecord, tokens) -> tuple[str, ...]:
    # ``array_names``: (token, name) pairs, or a dict in hand-built records.
    names = {
        **dict(a.meta.get("array_names", ())),
        **dict(b.meta.get("array_names", ())),
    }
    return tuple(sorted(_name(x, names) for x in tokens))


def find_races(timeline: Timeline) -> list[Race]:
    """All pairs of overlapping, conflicting (RW/WR/WW) records.

    Covers kernel-kernel conflicts and kernel-transfer conflicts (a
    host-to-device migration writes the device copy: a kernel touching
    the same array must not overlap it).
    """
    # Token sets per record: the executors store tuples, hand-built
    # records may use sets.
    annotated = [
        (r, frozenset(r.meta["reads"]), frozenset(r.meta.get("writes", ())))
        for r in timeline
        if "reads" in r.meta
        and (r.kind is IntervalKind.KERNEL or r.kind.is_transfer)
    ]
    annotated.sort(key=lambda x: x[0].start)
    races: list[Race] = []
    for i, (a, ra, wa) in enumerate(annotated):
        for b, rb, wb in annotated[i + 1 :]:
            if b.start >= a.end:
                break  # sorted: no later record can overlap a
            if a.overlaps(b):
                conflicting = (wa & (rb | wb)) | (wb & ra)
                if conflicting:
                    races.append(
                        Race(
                            first=a,
                            second=b,
                            array_names=_names(a, b, conflicting),
                        )
                    )
    return races


def check_no_races(timeline: Timeline) -> None:
    """Raise :class:`DataRaceError` if the timeline contains a race."""
    races = find_races(timeline)
    if races:
        detail = "\n  ".join(r.describe() for r in races[:10])
        raise DataRaceError(
            f"{len(races)} data race(s) detected:\n  {detail}"
        )
