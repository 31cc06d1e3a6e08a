"""Kernel execution history and block-size heuristics.

Section IV-A: "We track each kernel's historical performance and
scheduling to allow the creation of heuristics that guide future
scheduling of the same kernel."  Section VI names the first such
heuristic as future work: "estimating the ideal block size based on data
size and previous executions."

Both are implemented here: the execution contexts feed every completed
kernel into a :class:`KernelHistory`, and
:meth:`KernelHistory.recommend_block_size` answers the future-work
question from the accumulated evidence — pick the block size whose past
executions on similarly-sized data ran fastest per byte.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from repro.gpusim.timeline import same_type_eq
from repro.kernels.kernel import size_bucket


class KernelExecutionRecord(NamedTuple):
    """One completed kernel execution (read-only)."""

    kernel_name: str
    threads_per_block: int
    blocks: int
    data_bytes: float       # total size of the array arguments
    duration: float         # seconds on the simulated device
    stream_id: int
    end_time: float

    __eq__ = same_type_eq
    __ne__ = object.__ne__
    __hash__ = tuple.__hash__

    @property
    def seconds_per_byte(self) -> float:
        """Size-normalized cost, comparable across data sizes."""
        return self.duration / max(self.data_bytes, 1.0)


@dataclass
class KernelStats:
    """Aggregate statistics for one (kernel, block-size, size-bucket)."""

    count: int = 0
    total_duration: float = 0.0
    total_seconds_per_byte: float = 0.0
    best_duration: float = math.inf

    def add(self, record: KernelExecutionRecord) -> None:
        self.count += 1
        self.total_duration += record.duration
        self.total_seconds_per_byte += record.seconds_per_byte
        self.best_duration = min(self.best_duration, record.duration)

    @property
    def mean_duration(self) -> float:
        return self.total_duration / self.count


class KernelHistory:
    """Execution history of every kernel scheduled by one runtime."""

    def __init__(self, max_records_per_kernel: int = 10_000) -> None:
        self._records: dict[str, list[KernelExecutionRecord]] = (
            defaultdict(list)
        )
        self._stats: dict[
            tuple[str, int, int], KernelStats
        ] = defaultdict(KernelStats)
        self.max_records_per_kernel = max_records_per_kernel

    # -- recording -------------------------------------------------------

    def record(
        self,
        record: KernelExecutionRecord,
        key: tuple[str, int, int] | None = None,
    ) -> None:
        """File one execution.  ``key`` is its statistics key (kernel
        name, threads per block, size bucket) when the caller keeps it,
        as a bound launch does (``KernelLaunch.history_key``)."""
        records = self._records[record.kernel_name]
        if len(records) < self.max_records_per_kernel:
            records.append(record)
        if key is None:
            key = (
                record.kernel_name,
                record.threads_per_block,
                size_bucket(record.data_bytes),
            )
        self._stats[key].add(record)

    # -- queries -----------------------------------------------------------

    def kernels(self) -> list[str]:
        return sorted(self._records)

    def executions(self, kernel_name: str) -> list[KernelExecutionRecord]:
        return list(self._records.get(kernel_name, ()))

    def execution_count(self, kernel_name: str) -> int:
        return len(self._records.get(kernel_name, ()))

    def mean_duration(
        self, kernel_name: str, threads_per_block: int | None = None
    ) -> float:
        """Mean duration over matching executions.

        Raises
        ------
        KeyError
            If no matching execution exists.
        """
        matches = [
            r
            for r in self._records.get(kernel_name, ())
            if threads_per_block is None
            or r.threads_per_block == threads_per_block
        ]
        if not matches:
            raise KeyError(
                f"no recorded executions of {kernel_name!r}"
                + (
                    f" with block size {threads_per_block}"
                    if threads_per_block is not None
                    else ""
                )
            )
        return sum(r.duration for r in matches) / len(matches)

    # -- the future-work heuristic -----------------------------------------

    def recommend_block_size(
        self,
        kernel_name: str,
        data_bytes: float,
        bucket_radius: int = 1,
    ) -> int | None:
        """Best block size for ``kernel_name`` on inputs of about
        ``data_bytes``, from past executions.

        Searches the data-size bucket of the request plus
        ``bucket_radius`` neighbours and returns the block size with the
        lowest mean size-normalized cost; None when no evidence exists
        (the caller should fall back to its default and thereby produce
        evidence for next time).
        """
        target = size_bucket(data_bytes)
        candidates: dict[int, list[KernelStats]] = defaultdict(list)
        for (name, block, bucket), stats in self._stats.items():
            if name != kernel_name:
                continue
            if abs(bucket - target) <= bucket_radius:
                candidates[block].append(stats)
        if not candidates:
            return None
        def cost(block: int) -> float:
            stats = candidates[block]
            total = sum(s.total_seconds_per_byte for s in stats)
            count = sum(s.count for s in stats)
            return total / count
        return min(candidates, key=cost)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-kernel aggregates for reporting."""
        out: dict[str, dict[str, float]] = {}
        for name, records in self._records.items():
            if not records:
                continue
            durations = [r.duration for r in records]
            out[name] = {
                "executions": float(len(records)),
                "mean_ms": 1e3 * sum(durations) / len(durations),
                "best_ms": 1e3 * min(durations),
                "total_ms": 1e3 * sum(durations),
            }
        return out
