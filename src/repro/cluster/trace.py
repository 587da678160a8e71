"""Trace replay: load timestamped request logs for the simulator.

Synthetic Poisson arrivals (:func:`repro.serving.synthetic_traffic`)
exercise the machinery, but real experiments want measured traffic.
This module loads request traces from the two formats assistants
actually log — CSV and JSON Lines — and writes them back out so
synthetic traces can be frozen into replayable files
(:func:`save_trace` picks the format by extension, as the loaders do).

Both formats carry one request per row/line with the fields

    ``task`` (required), ``sentence`` (required), ``arrival_ms``,
    ``target_ms``, ``request_id``, ``mode``, ``site``

where ``request_id`` defaults to the row's position, ``arrival_ms`` to
0, ``target_ms`` to ``default_target_ms``, ``mode`` to inherit the
simulator's, and ``site`` (a fleet site-affinity pin) to none.

The loaders return a :class:`~repro.serving.RequestTrace`: each row is
parsed into its field values, the rows are checked once as columns (the
first row :class:`~repro.serving.Request` would refuse raises its
error, with the row number) and sorted by (arrival, request id), so
file order is irrelevant and diffs stay stable; no request object is
built until an element is read. ``python -m repro.cluster --trace
FILE`` replays a file end-to-end.

Million-request logs don't fit the load-everything idiom, so the
``iter_trace*`` variants stream :class:`~repro.serving.Request` rows in
*file* order without materializing the log (the simulator sorts by
arrival anyway), and :func:`generate_diurnal_trace` synthesizes a
deterministic day-curve trace of any size, as columns, for replay
benchmarking (``python -m repro.cluster --gen-trace N``).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os

import numpy as np

from repro.errors import ClusterError, ServingError
from repro.serving.request import Request, RequestTrace

#: Recognized extensions per format.
_CSV_EXTENSIONS = (".csv",)
_JSONL_EXTENSIONS = (".jsonl", ".ndjson", ".json")

#: Columns written by the savers (and accepted by the loaders).
TRACE_FIELDS = ("request_id", "task", "sentence", "arrival_ms",
                "target_ms", "mode", "site")


def _fields_of_row(row, index, default_target_ms):
    """The seven :class:`Request` field values of one parsed mapping.

    Parses and converts only; the values are validated where they land
    (``Request`` for a streamed row, the trace's column check for a
    loaded one).
    """
    if not isinstance(row, dict):
        raise ClusterError(
            f"trace row {index} is not a mapping: {row!r}")
    missing = [name for name in ("task", "sentence")
               if row.get(name) in (None, "")]
    if missing:
        raise ClusterError(
            f"trace row {index} is missing required field(s) "
            f"{missing}: {row!r}")
    mode = row.get("mode")
    if mode in ("", None):
        mode = None
    site = row.get("site")
    if site in ("", None):
        site = None

    def value_or(name, default):
        # Explicit absent test: 0 is a legal request_id/arrival_ms (and
        # `or` would coerce it to the default — differently per format,
        # since CSV yields the truthy string "0").
        value = row.get(name)
        return default if value in (None, "") else value

    try:
        return (int(value_or("request_id", index)), str(row["task"]),
                int(row["sentence"]),
                float(value_or("target_ms", default_target_ms)),
                float(value_or("arrival_ms", 0.0)), mode,
                None if site is None else str(site))
    except (TypeError, ValueError) as exc:
        raise ClusterError(
            f"trace row {index} has malformed values: {exc}") from None


def _request_from_row(row, index, default_target_ms):
    """Build one :class:`Request` from a parsed mapping."""
    fields = _fields_of_row(row, index, default_target_ms)
    try:
        return Request(*fields)
    except ServingError as exc:
        # Request's own validation (non-positive target, negative
        # sentence, unknown mode) — keep the row number so a bad line in
        # a large log is findable.
        raise ClusterError(
            f"trace row {index} has malformed values: {exc}") from None


def _trace_of(rows, indices):
    """A :class:`RequestTrace` of parsed field tuples, validated as columns.

    The first row ``Request`` would refuse raises its message with the
    row number, as :func:`_request_from_row` does for a streamed row.
    """
    if not rows:
        return None
    try:
        return RequestTrace.from_columns(*zip(*rows))
    except ServingError as exc:
        raise ClusterError(
            f"trace row {indices[exc.row]} has malformed values: "
            f"{exc}") from None


def _load(path, parsed, default_target_ms, empty_message):
    """Load ``(index, mapping)`` pairs into a trace in arrival order.

    Rows are parsed into field tuples and checked as columns once, with
    no request built. A row that fails to parse raises only after the
    rows before it are checked, so the first bad row in the file is the
    one reported, whichever way it is bad.
    """
    rows = []
    indices = []
    try:
        for index, row in parsed:
            rows.append(_fields_of_row(row, index, default_target_ms))
            indices.append(index)
    except ClusterError:
        _trace_of(rows, indices)
        raise
    trace = _trace_of(rows, indices)
    if trace is None:
        raise ClusterError(f"trace {path!r} {empty_message}")
    # Arrival order, ties by request id (a stable sort keeps file order
    # inside equal pairs).
    return trace.take(np.lexsort((trace.request_id, trace.arrival_ms)))


def _jsonl_rows(path, lines):
    """``(line index, parsed object)`` of each non-blank JSON line."""
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ClusterError(
                f"trace {path!r} line {i + 1} is not valid JSON: "
                f"{exc}") from None
        yield i, parsed


def _csv_rows(path):
    """``(row index, mapping)`` of each CSV data row (header required)."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ClusterError(f"trace {path!r} is empty")
        yield from enumerate(reader)


def _for_format(path, for_csv, for_jsonl):
    """The reader (or writer) matching ``path``'s extension."""
    ext = os.path.splitext(path)[1].lower()
    if ext in _CSV_EXTENSIONS:
        return for_csv
    if ext in _JSONL_EXTENSIONS:
        return for_jsonl
    raise ClusterError(
        f"unknown trace format {ext!r} for {path!r}; expected one of "
        f"{_CSV_EXTENSIONS + _JSONL_EXTENSIONS}")


def load_trace_csv(path, default_target_ms=50.0):
    """Load a CSV request log (header row required) as a trace."""
    return _load(path, _csv_rows(path), default_target_ms,
                 "has a header but no rows")


def load_trace_jsonl(path, default_target_ms=50.0):
    """Load a JSON-Lines request log (one JSON object per line).

    A plain ``.json`` file holding one top-level array of row objects —
    the other shape request logs commonly take — is accepted too.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("["):
        try:
            parsed = enumerate(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ClusterError(
                f"trace {path!r} is not a valid JSON array: "
                f"{exc}") from None
    else:
        parsed = _jsonl_rows(path, text.splitlines())
    return _load(path, parsed, default_target_ms, "has no rows")


def iter_trace_csv(path, default_target_ms=50.0):
    """Stream a CSV request log row by row, in file order.

    The streaming counterpart of :func:`load_trace_csv`: one
    :class:`~repro.serving.Request` is alive per step, so a
    million-request log costs O(1) loader memory on its way into
    ``ClusterSimulator.run`` (which consumes any iterable). No sorting —
    the simulator orders by arrival time itself.
    """
    for i, row in _csv_rows(path):
        yield _request_from_row(row, i, default_target_ms)


def iter_trace_jsonl(path, default_target_ms=50.0):
    """Stream a JSON-Lines request log line by line, in file order.

    The streaming counterpart of :func:`load_trace_jsonl` for true
    JSONL files (one object per line — the only shape that *can*
    stream; a top-level JSON array needs the materializing loader).
    """
    with open(path, encoding="utf-8") as handle:
        first = handle.readline()
        if first.strip().startswith("["):
            raise ClusterError(
                f"trace {path!r} is a JSON array; streaming needs "
                "one object per line (use load_trace_jsonl)")
        for i, parsed in _jsonl_rows(path,
                                     itertools.chain((first,), handle)):
            yield _request_from_row(parsed, i, default_target_ms)


def iter_trace(path, default_target_ms=50.0):
    """Stream a request trace, dispatching on the file extension."""
    return _for_format(path, iter_trace_csv, iter_trace_jsonl)(
        path, default_target_ms)


def generate_diurnal_trace(num_requests, seed=0, tasks=None,
                           targets_ms=(50.0, 75.0, 100.0),
                           n_sentences=64, mean_interarrival_ms=1.0,
                           diurnal_amplitude=0.6, num_epochs=48,
                           modes=(None,)):
    """Synthesize a deterministic diurnal (day-curve) request trace.

    The replay benchmark's workload: ``num_requests`` arrivals whose
    rate follows a sinusoidal day curve — the span is split into
    ``num_epochs`` equal epochs whose expected load is
    ``1 + diurnal_amplitude * sin(...)`` over one full period, and a
    multinomial draw assigns every request to an epoch (so the total is
    exactly ``num_requests``). Within an epoch arrivals are uniform.
    Tasks, sentences, SLO targets and modes are drawn i.i.d. per
    request; ``modes`` entries of None inherit the simulator's mode.
    Same seed, same trace — requests are returned in arrival order with
    ``request_id`` equal to that order's index, as a
    :class:`~repro.serving.RequestTrace` filled from the draws with no
    per-request loop.
    """
    if num_requests < 1:
        raise ClusterError("num_requests must be >= 1")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ClusterError("diurnal_amplitude must be in [0, 1)")
    if num_epochs < 1:
        raise ClusterError("num_epochs must be >= 1")
    # NaN and infinity fail the chained bound.
    if not 0 <= mean_interarrival_ms < math.inf:
        raise ClusterError("mean_interarrival_ms must be finite and >= 0")
    if n_sentences < 1:
        raise ClusterError("n_sentences must be >= 1")
    if tasks is None:
        tasks = ("sst2", "mnli", "qqp", "qnli")
    if not (tasks and targets_ms and modes):
        raise ClusterError("tasks, targets_ms and modes must be non-empty")
    rng = np.random.default_rng(seed)
    span_ms = float(num_requests) * float(mean_interarrival_ms)
    epoch_ms = span_ms / num_epochs
    phase = (np.arange(num_epochs) + 0.5) / num_epochs
    weights = 1.0 + diurnal_amplitude * np.sin(2.0 * math.pi * phase)
    weights /= weights.sum()
    counts = rng.multinomial(num_requests, weights)
    times = np.concatenate([
        np.sort(rng.uniform(e * epoch_ms, (e + 1) * epoch_ms,
                            size=int(count)))
        for e, count in enumerate(counts) if count
    ])
    task_idx = rng.integers(0, len(tasks), size=num_requests)
    sentence = rng.integers(0, int(n_sentences), size=num_requests)
    target_idx = rng.integers(0, len(targets_ms), size=num_requests)
    mode_idx = rng.integers(0, len(modes), size=num_requests)
    return RequestTrace.from_codes(
        np.arange(num_requests), task_idx, tasks, sentence,
        np.array([float(t) for t in targets_ms])[target_idx], times,
        mode_idx, modes)


def load_trace(path, default_target_ms=50.0):
    """Load a request trace, dispatching on the file extension."""
    return _for_format(path, load_trace_csv, load_trace_jsonl)(
        path, default_target_ms)


def _row_of(request):
    return {
        "request_id": request.request_id,
        "task": request.task,
        "sentence": request.sentence,
        "arrival_ms": request.arrival_ms,
        "target_ms": request.target_ms,
        "mode": request.mode,
        "site": request.site,
    }


def save_trace_csv(requests, path):
    """Write requests as a replayable CSV log; returns ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(TRACE_FIELDS))
        writer.writeheader()
        for request in requests:
            row = _row_of(request)
            row["mode"] = "" if row["mode"] is None else row["mode"]
            row["site"] = "" if row["site"] is None else row["site"]
            writer.writerow(row)
    return path


def save_trace_jsonl(requests, path):
    """Write requests as a replayable JSON-Lines log; returns ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        for request in requests:
            handle.write(json.dumps(_row_of(request), sort_keys=True))
            handle.write("\n")
    return path


def save_trace(requests, path):
    """Write requests in the format ``path``'s extension names."""
    return _for_format(path, save_trace_csv, save_trace_jsonl)(
        requests, path)
