"""Page granularity of unified-memory migrations.

Unified memory keeps one logical copy of each array; physically the host
and any subset of the devices may hold a valid copy (the location set of
:class:`~repro.memory.array.DeviceArray`):

* GPU read on device ``d``: ``d`` joins the set (after migrating the
  stale bytes from the host or a peer);
* GPU write on device ``d``: ``d`` is the only valid copy;
* CPU read: the host joins the set (after migrating back);
* CPU write: the host is the only valid copy.

CPU accesses migrate at page granularity (UM's unit of migration is the
OS page, batched by the driver into ~2 MB chunks); GPU accesses migrate
whole arrays, which matches both prefetching and the fact that the
paper's kernels stream their entire inputs.
"""

from __future__ import annotations

#: Migration granularity for CPU-side accesses.  The CUDA driver batches
#: UM migrations into large chunks; 2 MB (the GPU large-page size) is the
#: customary effective unit.
PAGE_SIZE_BYTES = 2 * 1024 * 1024


def pages_for_bytes(nbytes: int) -> int:
    """Number of migration pages covering ``nbytes``."""
    if nbytes <= 0:
        return 0
    return -(-nbytes // PAGE_SIZE_BYTES)


def writeback_bytes(nbytes: int, touched: int) -> int:
    """Bytes a host access of ``touched`` bytes migrates back from a
    device copy of an ``nbytes`` array: whole pages (at least one),
    capped at the array size."""
    pages = max(1, pages_for_bytes(int(touched)))
    return min(nbytes, pages * PAGE_SIZE_BYTES)
