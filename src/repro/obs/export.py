"""Trace exporters: Chrome-trace/Perfetto JSON and flat JSONL.

The Chrome Trace Event Format (the JSON understood by
``chrome://tracing`` and https://ui.perfetto.dev) wants complete events
(``ph: "X"``) with µs timestamps and *integer* ``pid``/``tid`` track
ids, plus ``"M"`` metadata events naming them.  The exporter interns
three families of tracks:

* **per-device tracks** — one process per engine (named from
  ``Tracer.attach_engine`` or an explicit ``timelines`` mapping), one
  thread per simulated stream, events straight from
  :class:`~repro.gpusim.timeline.Timeline` records.  Virtual start/end
  convert exactly (µs = seconds × 1e6), so trace timestamps match the
  timeline bit-for-bit after the fixed scale.
* **per-tenant tracks** — one ``tenants`` process, one thread per
  tenant, one event per served request (from serving ``GraphResult``
  rows: arrival → finish with queue/batch/replay attributes).
* **tracer span tracks** — one ``tracer`` process, one thread per span
  track (``admission``, ``coherence``, ``engine0`` …), events from the
  recorded :class:`~repro.obs.trace.TraceEvent` s.

All timestamps in the file are **virtual** µs; wall-clock stamps ride
along in ``args`` so a Perfetto query can still compare simulator cost
to simulated time.  :func:`validate_chrome_trace` is the schema check
the test suite and CI run — it is also a CLI:
``python -m repro.obs.export trace.json``.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from repro.gpusim.timeline import Timeline, TimelineRecord

_SCALE = 1e6  # virtual seconds -> trace µs

_JSON_SCALARS = (str, int, float, bool)


def _clean_args(attrs: Mapping | None) -> dict:
    """Keep only JSON-scalar attributes (op metadata can carry arbitrary
    objects, e.g. array references)."""
    if not attrs:
        return {}
    return {
        str(k): v
        for k, v in attrs.items()
        if isinstance(v, _JSON_SCALARS)
    }


class _TrackInterner:
    """Hands out integer pid/tid pairs and the ``"M"`` metadata events
    that name them."""

    def __init__(self, events: list[dict]) -> None:
        self._events = events
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[int, str], int] = {}
        self._tid_counts: dict[int, int] = {}

    def pid(self, process: str) -> int:
        pid = self._pids.get(process)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[process] = pid
            self._events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": process},
                }
            )
        return pid

    def tid(self, pid: int, thread: str) -> int:
        key = (pid, thread)
        tid = self._tids.get(key)
        if tid is None:
            tid = self._tid_counts.get(pid, 0) + 1
            self._tid_counts[pid] = tid
            self._tids[key] = tid
            self._events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread},
                }
            )
        return tid


def _timeline_events(
    interner: _TrackInterner,
    events: list[dict],
    name: str,
    records: Iterable[TimelineRecord],
) -> None:
    pid = interner.pid(f"device:{name}")
    for rec in records:
        tid = interner.tid(pid, f"stream {rec.stream_id}")
        args = _clean_args(rec.meta)
        if rec.nbytes:
            args["nbytes"] = rec.nbytes
        events.append(
            {
                "ph": "X",
                "name": rec.label or rec.kind.value,
                "cat": rec.kind.value,
                "pid": pid,
                "tid": tid,
                "ts": rec.start * _SCALE,
                "dur": rec.duration * _SCALE,
                "args": args,
            }
        )


def _tenant_events(
    interner: _TrackInterner, events: list[dict], results
) -> None:
    pid = interner.pid("tenants")
    for res in results:
        tid = interner.tid(pid, res.tenant)
        events.append(
            {
                "ph": "X",
                "name": res.graph_name,
                "cat": "request",
                "pid": pid,
                "tid": tid,
                "ts": res.start_time * _SCALE,
                "dur": (res.finish_time - res.start_time) * _SCALE,
                "args": {
                    "request_id": res.request_id,
                    "arrival_vt_us": res.arrival_time * _SCALE,
                    "queue_wait_us": (res.start_time - res.arrival_time)
                    * _SCALE,
                    "batch_id": res.batch_id,
                    "batch_size": res.batch_size,
                    "replayed": res.replayed,
                    "slot": res.device_index,
                },
            }
        )


def _tracer_events(
    interner: _TrackInterner, events: list[dict], tracer
) -> None:
    pid = interner.pid("tracer")
    for ev in tracer.events:
        tid = interner.tid(pid, ev.track)
        args = _clean_args(ev.attrs)
        args["wall_s"] = ev.wall
        if ev.ph == "X":
            args["wall_dur_s"] = ev.wall_dur
        args["depth"] = ev.depth
        out = {
            "ph": ev.ph,
            "name": ev.name,
            "cat": "span" if ev.ph == "X" else "instant",
            "pid": pid,
            "tid": tid,
            "ts": ev.vt * _SCALE,
            "args": args,
        }
        if ev.ph == "X":
            out["dur"] = ev.dur * _SCALE
        else:
            out["s"] = "t"  # instant scope: thread
        events.append(out)


def build_chrome_trace(
    tracer=None,
    *,
    timelines: Mapping[str, Timeline] | None = None,
    results=None,
    other: Mapping | None = None,
) -> dict:
    """Assemble the Chrome-trace document.

    ``tracer`` contributes its span events and the timelines of every
    engine it attached; ``timelines`` adds/overrides named device
    timelines explicitly; ``results`` (serving ``GraphResult`` rows)
    adds per-tenant request tracks; ``other`` lands verbatim in
    ``otherData``.
    """
    events: list[dict] = []
    interner = _TrackInterner(events)

    named: dict[str, Timeline] = {}
    if tracer is not None:
        for engine in getattr(tracer, "engines", ()):
            named[getattr(engine, "_obs_name", f"engine{id(engine)}")] = (
                engine.timeline
            )
    if timelines:
        named.update(timelines)
    for name in sorted(named):
        _timeline_events(interner, events, name, named[name])

    if results:
        _tenant_events(interner, events, results)

    if tracer is not None and getattr(tracer, "events", None):
        _tracer_events(interner, events, tracer)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(other or {}),
    }


def canonical_trace(
    tracer=None,
    *,
    timelines: Mapping[str, Timeline] | None = None,
    results=None,
) -> dict:
    """The Chrome-trace document with its advisory wall-clock stamps
    stripped: two runs of the same virtual-time schedule compare equal
    iff their traces are semantically identical (pid/tid interning is
    first-appearance order, so identical event order ⇒ identical ids).
    This is the determinism-comparison form the pool-width matrix
    asserts on — ``wall_s``/``wall_dur_s`` are real host times and
    legitimately differ between runs and pool widths."""
    doc = build_chrome_trace(tracer, timelines=timelines, results=results)
    for event in doc["traceEvents"]:
        args = event.get("args")
        if args:
            args.pop("wall_s", None)
            args.pop("wall_dur_s", None)
    return doc


def write_chrome_trace(
    path: str,
    tracer=None,
    *,
    timelines: Mapping[str, Timeline] | None = None,
    results=None,
    other: Mapping | None = None,
) -> dict:
    """Build and write the Chrome trace; returns the document."""
    doc = build_chrome_trace(
        tracer, timelines=timelines, results=results, other=other
    )
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return doc


def write_jsonl(path: str, tracer) -> int:
    """Write the tracer's raw event stream as one JSON object per line
    (the grep/jq-friendly flat form); returns the line count."""
    count = 0
    with open(path, "w") as fh:
        for ev in tracer.events:
            fh.write(json.dumps(ev.to_dict()))
            fh.write("\n")
            count += 1
    return count


# -- schema validation -------------------------------------------------------

_PHASES_WITH_DUR = {"X"}
_KNOWN_PHASES = {"X", "i", "I", "M", "B", "E", "b", "e", "C"}


def validate_chrome_trace(doc) -> list[str]:
    """Check ``doc`` against the Chrome Trace Event Format subset the
    exporter emits; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    named_pids: set[int] = set()
    named_tids: set[tuple[int, int]] = set()
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: event must be an object")
            continue
        ph = ev.get("ph")
        if ph not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                errors.append(f"{where}: {key} must be an integer")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}: missing event name")
        if ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or "name" not in args:
                errors.append(f"{where}: metadata event needs args.name")
            elif ev.get("name") == "process_name":
                named_pids.add(ev.get("pid"))
            elif ev.get("name") == "thread_name":
                named_tids.add((ev.get("pid"), ev.get("tid")))
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: ts must be numeric")
        elif ts < 0:
            errors.append(f"{where}: ts must be >= 0, got {ts}")
        if ph in _PHASES_WITH_DUR:
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)):
                errors.append(f"{where}: complete event needs numeric dur")
            elif dur < 0:
                errors.append(f"{where}: dur must be >= 0, got {dur}")
        if isinstance(ev.get("pid"), int) and ev["pid"] not in named_pids:
            errors.append(f"{where}: pid {ev['pid']} has no process_name")
        if (
            isinstance(ev.get("pid"), int)
            and isinstance(ev.get("tid"), int)
            and (ev["pid"], ev["tid"]) not in named_tids
        ):
            errors.append(
                f"{where}: tid {ev['tid']} (pid {ev['pid']})"
                " has no thread_name"
            )
    return errors


def validate_chrome_trace_file(path: str) -> list[str]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{path}: {exc}"]
    return validate_chrome_trace(doc)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.obs.export trace.json`` — the CI schema gate."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Validate a Chrome-trace JSON file.",
    )
    parser.add_argument("paths", nargs="+", help="trace file(s) to check")
    args = parser.parse_args(argv)
    status = 0
    for path in args.paths:
        errors = validate_chrome_trace_file(path)
        if errors:
            status = 1
            for err in errors[:20]:
                print(f"FAIL {path}: {err}")
            if len(errors) > 20:
                print(f"FAIL {path}: ... {len(errors) - 20} more")
        else:
            with open(path) as fh:
                doc = json.load(fh)
            events = doc["traceEvents"]
            pids = {
                e["args"]["name"]
                for e in events
                if e.get("ph") == "M" and e.get("name") == "process_name"
            }
            print(
                f"OK {path}: {len(events)} events,"
                f" {len(pids)} track groups"
                f" ({', '.join(sorted(pids))})"
            )
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())


__all__ = [
    "build_chrome_trace",
    "canonical_trace",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "write_chrome_trace",
    "write_jsonl",
]
