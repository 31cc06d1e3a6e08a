"""Frozen timelines: what every executor's device timeline reads back.

Pins one digest per cell, over every record in order (label, kind,
stream id, ``float.hex`` of start/end/nbytes, op id relative to the
cell's first op, and the normalized meta in key order), then the
selection orders (``kernels()``, ``transfers()``, ``by_stream()``,
``stream_ids()``), the aggregates and ``render_ascii``.  Meta is
normalized so that it does not depend on object identities or on the
container types of the race-detector tokens: every token becomes an
``(array name, device)`` pair, and a token set becomes the sorted list
of its distinct pairs; ``resources`` becomes its signature, a transfer
kind its value, and any other value its ``repr``.

Cells: the six suite benchmarks under every mode, timing-only at the
scales of ``tests/workloads/conftest.py`` with two iterations on the
GTX 1660 Super, plus one 2-GPU PARALLEL session run of ML (the only one
with peer-to-peer copies).

Regenerate (only on a commit whose timelines are the reference)::

    PYTHONPATH=src python tests/gpusim/test_timeline_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.gpusim.timeline import Timeline
from repro.workloads import Mode, create_benchmark

# The scales of tests/workloads/conftest.py, repeated so that the module
# also runs as a script.
TEST_SCALES = {
    "vec": 50_000,
    "b&s": 10_000,
    "img": 96,
    "ml": 1_000,
    "hits": 2_000,
    "dl": 64,
}
NAMES = sorted(TEST_SCALES)
GPU = "GTX 1660 Super"
ITERATIONS = 2

GOLDEN = pathlib.Path(__file__).with_name("timeline_golden.json")


def _pair(token, names: dict) -> tuple:
    """A race-detector token as ``(array name, device)``."""
    return (names.get(token, "?"), token[1])


def _pairs(tokens, names: dict) -> list:
    return sorted({_pair(t, names) for t in tokens}, key=repr)


def _meta(meta: dict) -> list:
    """``meta`` in key order, free of identities and container types."""
    names = dict(meta.get("array_names", ()))
    out = []
    for key, value in meta.items():
        if key == "resources":
            value = repr(value.signature())
        elif key == "kind":
            value = value.value
        elif key in ("reads", "writes"):
            value = _pairs(value, names)
        elif key == "array_names":
            value = _pairs(names, names)
        else:
            value = repr(value)
        out.append((key, value))
    return out


def digest(timeline: Timeline) -> str:
    """sha256 over every record, the selections and the aggregates."""
    records = list(timeline)
    base = min((r.op_id for r in records), default=0)
    h = hashlib.sha256()

    def put(value) -> None:
        h.update(repr(value).encode())
        h.update(b"\n")

    for r in records:
        put(
            (
                r.label, r.kind.value, r.stream_id, float(r.start).hex(),
                float(r.end).hex(), float(r.nbytes).hex(), r.op_id - base,
                _meta(r.meta),
            )
        )

    def ids(selection) -> list[int]:
        return [r.op_id - base for r in selection]

    put(("len", len(timeline), len(timeline.records)))
    put(("kernels", ids(timeline.kernels())))
    put(("transfers", ids(timeline.transfers())))
    for sid in timeline.stream_ids():
        put(("stream", sid, ids(timeline.by_stream(sid))))
    put(
        (
            "aggregates",
            timeline.start.hex(),
            timeline.end.hex(),
            timeline.makespan.hex(),
            timeline.total_kernel_time().hex(),
            float(timeline.total_transfer_time()).hex(),
            float(timeline.total_transferred_bytes()).hex(),
        )
    )
    put(("ascii", timeline.render_ascii(width=80)))
    return h.hexdigest()


def _cell(name: str, mode: Mode, gpus: int = 1) -> str:
    bench = create_benchmark(
        name, TEST_SCALES[name], iterations=ITERATIONS, execute=False
    )
    return digest(bench.run(GPU, mode, gpus=gpus).timeline)


def _all() -> dict:
    cells = {
        f"{name}/{mode.value}": _cell(name, mode)
        for name in NAMES
        for mode in Mode
    }
    cells["ml/grcuda-parallel/2-gpu"] = _cell("ml", Mode.PARALLEL, gpus=2)
    return cells


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("name", NAMES)
def test_single_gpu_timeline(golden, name, mode):
    assert _cell(name, mode) == golden[f"{name}/{mode.value}"]


def test_two_gpu_session_timeline(golden):
    assert (
        _cell("ml", Mode.PARALLEL, gpus=2)
        == golden["ml/grcuda-parallel/2-gpu"]
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
