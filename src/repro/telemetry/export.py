"""Span-log exporters: Chrome trace-event JSON and JSONL.

Two interchangeable on-disk forms of one traced run:

* **JSONL span log** — one :class:`~repro.telemetry.Span` dict per
  line, the tracer's own spill format
  (:func:`write_spans_jsonl` / :func:`read_spans_jsonl` /
  :func:`iter_spans_jsonl`). This is the lossless form the
  ``python -m repro.telemetry`` CLI replays.
* **Chrome trace-event JSON** — the ``{"traceEvents": [...]}`` format
  Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` load
  directly (:func:`chrome_trace` / :func:`write_chrome_trace`). Track
  scopes become processes, lanes become threads, complete spans become
  ``"X"`` events and instants ``"i"`` events; ``energy_mj`` and span
  args ride along in ``args`` so the UI shows them on click.

Everything is deterministic: events are emitted in a canonical sort
(timestamp, pid, tid, name), pids/tids are assigned by sorted track
name, and timestamps are exact ``ms * 1000`` microsecond conversions —
the golden-schema test pins the output byte-for-byte on a reference
scenario.
"""

from __future__ import annotations

import json

from repro.errors import TelemetryError
from repro.telemetry.tracer import (Span, Tracer, jsonable_args,
                                    row_from_dict)

#: ``ph`` values this exporter emits (the golden schema test pins them):
#: complete spans, instant events, process/thread-name metadata, and the
#: flow triplet (start / step / finish) linking one request's journey.
CHROME_PHASES = ("X", "i", "M", "s", "t", "f")


def _spans_of(source):
    """Accept a Tracer, an iterable of Spans, or a JSONL path."""
    if isinstance(source, Tracer):
        return source.iter_spans()
    if isinstance(source, str):
        return iter_spans_jsonl(source)
    return iter(source)


def _rows_of(source):
    """Row tuples (:func:`~repro.telemetry.tracer.row_from_dict`) of a
    Tracer, an iterable of Spans, or a JSONL path."""
    if isinstance(source, Tracer):
        return source.iter_rows()
    if isinstance(source, str):
        return iter_rows_jsonl(source)
    return ((s.name, s.cat, s.start_ms, s.dur_ms, s.track, s.energy_mj,
             s.args) for s in source)


# -- JSONL span log ----------------------------------------------------------------


def write_spans_jsonl(source, path):
    """Stream every span of ``source`` to ``path``; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as f:
        for span in _spans_of(source):
            f.write(json.dumps(span.to_dict(), sort_keys=True))
            f.write("\n")
            count += 1
    return count


def iter_rows_jsonl(path):
    """Yield validated row tuples from a JSONL span log, in file order."""
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TelemetryError(
                    f"{path}:{lineno}: not a JSON span row ({exc})")
            yield row_from_dict(row)


def iter_spans_jsonl(path):
    """Yield :class:`Span` rows from a JSONL span log, in file order."""
    for row in iter_rows_jsonl(path):
        yield Span(*row)


def read_spans_jsonl(path):
    """Load a whole JSONL span log into memory."""
    return list(iter_spans_jsonl(path))


# -- Chrome trace-event JSON -------------------------------------------------------


def _journey_ids(args):
    """Request ids a complete span is part of (``rid``/``request``/``rids``)."""
    out = []
    if "rid" in args:
        out.append(args["rid"])
    elif "request" in args:
        out.append(args["request"])
    rids = args.get("rids")
    if rids:
        out.extend(rids)
    return out


def chrome_trace(source):
    """Build the Perfetto-loadable trace dict for ``source``.

    Track names sort into stable pid/tid assignments: each distinct
    scope (the part before the first ``/``) is one process, each full
    track one thread inside it. Metadata events name both, then the
    span events follow in (ts, pid, tid, name) order.

    Complete spans that carry request ids (``rid``, ``request``, or a
    ``rids`` list in their args) additionally anchor **flow events**:
    for every request touching two or more such spans, a ``ph: "s"``
    event opens the flow on the first span, ``"t"`` steps through the
    middle ones, and ``"f"`` (with ``bp: "e"``) closes it on the last —
    so Perfetto draws each request's journey as arrows across the
    batch-former, queue, accelerator, and network tracks.
    """
    spans = list(_spans_of(source))
    tracks = sorted({s.track for s in spans})
    scopes = sorted({t.split("/", 1)[0] for t in tracks})
    pid_of = {scope: i + 1 for i, scope in enumerate(scopes)}
    tid_of = {track: i + 1 for i, track in enumerate(tracks)}

    events = []
    for scope in scopes:
        events.append({"ph": "M", "name": "process_name",
                       "pid": pid_of[scope], "tid": 0,
                       "args": {"name": scope}})
    for track in tracks:
        events.append({"ph": "M", "name": "thread_name",
                       "pid": pid_of[track.split("/", 1)[0]],
                       "tid": tid_of[track], "args": {"name": track}})

    rows = []
    anchors = {}  # request id -> complete-span events on its journey
    for span in spans:
        scope = span.track.split("/", 1)[0]
        args = dict(jsonable_args(span.args)) if span.args else {}
        if span.energy_mj:
            args["energy_mj"] = span.energy_mj
        event = {"name": span.name, "cat": span.cat,
                 "pid": pid_of[scope], "tid": tid_of[span.track],
                 "ts": span.start_ms * 1000.0}
        if span.dur_ms is None:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = span.dur_ms * 1000.0
            for rid in _journey_ids(args):
                anchors.setdefault(rid, []).append(event)
        if args:
            event["args"] = args
        rows.append(event)

    # Flow events: one s -> t... -> f chain per request, anchored on the
    # complete spans that name it. Single-span requests draw no arrow.
    order = ("ts", "pid", "tid", "name")
    for rid, chain in anchors.items():
        if len(chain) < 2:
            continue
        chain.sort(key=lambda e: tuple(e[k] for k in order))
        last = len(chain) - 1
        for i, anchor in enumerate(chain):
            flow = {"ph": "s" if i == 0 else "f" if i == last else "t",
                    "name": "journey", "cat": "journey", "id": str(rid),
                    "pid": anchor["pid"], "tid": anchor["tid"],
                    "ts": anchor["ts"]}
            if i == last:
                flow["bp"] = "e"  # bind to the enclosing slice's end
            rows.append(flow)
    rows.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"],
                             e["ph"], e.get("id", "")))
    return {"traceEvents": events + rows, "displayTimeUnit": "ms"}


def write_chrome_trace(source, path):
    """Write the Perfetto-loadable trace JSON; returns the event count."""
    trace = chrome_trace(source)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(trace, f, sort_keys=True)
    return len(trace["traceEvents"])


def validate_chrome_trace(trace):
    """Schema-check a Chrome trace dict (the export contract).

    Every event must carry the required keys for its phase, phases must
    come from :data:`CHROME_PHASES`, timestamps must be non-negative
    numbers, every (pid, tid) must be named by metadata, and flow
    events (``s``/``t``/``f``) must carry an ``id`` whose chain opens
    with ``s`` and closes with ``f``. Raises
    :class:`~repro.errors.TelemetryError` on the first violation;
    returns the number of span/instant events (flow events link spans,
    they don't add to the count).
    """
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        raise TelemetryError("chrome trace must carry 'traceEvents'")
    named_pids, named_tids = set(), set()
    flows = {}
    count = 0
    for event in trace["traceEvents"]:
        ph = event.get("ph")
        if ph not in CHROME_PHASES:
            raise TelemetryError(f"unexpected phase {ph!r} in {event!r}")
        for key in ("name", "pid", "tid"):
            if key not in event:
                raise TelemetryError(f"event missing {key!r}: {event!r}")
        if ph == "M":
            if event["name"] == "process_name":
                named_pids.add(event["pid"])
            elif event["name"] == "thread_name":
                named_tids.add((event["pid"], event["tid"]))
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise TelemetryError(f"bad timestamp in {event!r}")
        if "cat" not in event:
            raise TelemetryError(f"span event missing cat: {event!r}")
        if ph in ("s", "t", "f"):
            if "id" not in event:
                raise TelemetryError(f"flow event missing id: {event!r}")
            flows.setdefault(event["id"], []).append(ph)
        else:
            count += 1
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TelemetryError(f"bad duration in {event!r}")
        if event["pid"] not in named_pids:
            raise TelemetryError(
                f"pid {event['pid']} has no process_name metadata")
        if (event["pid"], event["tid"]) not in named_tids:
            raise TelemetryError(
                f"tid {event['tid']} has no thread_name metadata")
    for flow_id, phases in flows.items():
        if phases.count("s") != 1 or phases.count("f") != 1 \
                or phases[0] != "s" or phases[-1] != "f":
            raise TelemetryError(
                f"flow {flow_id!r} is not one s..f chain: {phases}")
    return count
