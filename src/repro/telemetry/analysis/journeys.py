"""Per-request causal journeys stitched from a span stream.

The tracer (PR 7) records *what happened where*; this module answers
*why a request took as long — and burned as much — as it did*. It
consumes any span source the exporters accept (a live
:class:`~repro.telemetry.Tracer`, an iterable of spans, or a JSONL
span-log path, spilled or written) and rebuilds every request's
ordered **legs**:

``defer → ingress → window → queue/throttle → swap → serial →
compute → egress``

* ``defer``     — fleet front-end shaping delay before routing;
* ``ingress``   — the RTT/2 network leg to the site;
* ``window``    — batch-former wait (member arrival to window close);
* ``queue``     — dispatch wait (window close / requeue to placement);
* ``throttle``  — the slice of the dispatch wait spent under an
  energy-budget throttle (carved out by overlap with the budget
  track's throttle spans);
* ``swap``      — encoder weight residency switch (carries the
  member's equal share of the batch's net swap energy);
* ``serial``    — on-device wait for earlier batch members (sentences
  execute back-to-back);
* ``preempted`` — wall-clock lost to an attempt that was evicted
  before this member's sentence completed (EDF preemption);
* ``compute``   — the member's own sentence (carries its exact priced
  energy);
* ``egress``    — the RTT/2 response leg back to the front-end.

Rail transitions never occupy wall-clock (the device models charge
them as energy-only instants that do not perturb the schedule), so
they carry no leg; their joules surface in the attribution table as
per-scope unattributed ``transition`` energy.

Every leg boundary is anchored on a float the emitting engine itself
produced (window-close = the first dispatch-wait span's start,
swap-end = the compute span's base, completion = the ``finish``
columns), never re-derived by ``start + dur`` arithmetic — which is
what makes the stitched output **bit-identical** whether it was built
from a live tracer, a spilled JSONL log, the per-event engine, or the
vectorized replay engine. Legs therefore tile ``[arrival,
completion]`` exactly: their durations sum to the request's
time-in-system within 1e-9 (:meth:`Journey.critical_path` asserts
it), and :meth:`TraceAnalysis.reconcile` ties the per-category energy
attribution to the run's :class:`~repro.energy.EnergyReport` /
:class:`~repro.fleet.FleetReport` ledgers at the same 1e-9 every
ledger audit in this repo uses.

:func:`analyze` makes one pass over the span rows, then joins them by
request id with array operations into a :class:`JourneyTable`, whose
columns ``len()``, the rollups and the ledger audit read. Journeys are
boxed on first access, as snapshots: editing one changes no rollup.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from math import fsum, nan

import numpy as np

from repro.errors import TelemetryError
from repro.telemetry.export import _rows_of

#: Leg name -> the coarse bucket run-to-run diffs attribute deltas to.
LEG_GROUPS = {
    "defer": "rtt", "ingress": "rtt", "egress": "rtt",
    "window": "queueing", "queue": "queueing", "serial": "queueing",
    "preempted": "queueing",
    "throttle": "throttle",
    "swap": "swap",
    "compute": "compute",
}

#: Bucket order for rendered tables / flame stacks (stable, coarse
#: first-to-last along a journey).
LEG_ORDER = ("defer", "ingress", "window", "queue", "throttle", "swap",
             "serial", "preempted", "compute", "egress")

_LEG_RANK = {name: i for i, name in enumerate(LEG_ORDER)}
(_DEFER, _INGRESS, _WINDOW, _QUEUE, _THROTTLE, _SWAP, _SERIAL,
 _PREEMPTED, _COMPUTE, _EGRESS) = range(len(LEG_ORDER))  # leg codes


@dataclass(slots=True)
class Leg:
    """One contiguous slice of a request's time in the system."""

    name: str
    start_ms: float
    end_ms: float
    energy_mj: float = 0.0

    @property
    def dur_ms(self):
        return self.end_ms - self.start_ms

    @property
    def group(self):
        return LEG_GROUPS[self.name]

    def to_dict(self):
        out = {"name": self.name, "start_ms": self.start_ms,
               "end_ms": self.end_ms}
        if self.energy_mj:
            out["energy_mj"] = self.energy_mj
        return out

    @classmethod
    def from_dict(cls, row):
        return cls(name=row["name"], start_ms=row["start_ms"],
                   end_ms=row["end_ms"],
                   energy_mj=row.get("energy_mj", 0.0))


@dataclass(slots=True)
class Journey:
    """One request's causal path through the fleet/site/device scopes."""

    request_id: object
    site: str
    task: str
    mode: str
    target_ms: float
    arrival_ms: float
    completion_ms: float
    deadline_ms: float
    legs: list
    accel: object = None
    hw: object = None
    batch: object = None
    attempts: int = 1

    @property
    def time_in_system_ms(self):
        return self.completion_ms - self.arrival_ms

    @property
    def violated(self):
        return self.completion_ms > self.deadline_ms + 1e-9

    @property
    def energy_mj(self):
        return fsum(leg.energy_mj for leg in self.legs)

    @property
    def slo_class(self):
        """The per-class ledger key this journey rolls up under."""
        return f"{self.task}|{self.target_ms:g}ms|{self.mode}"

    def by_leg(self):
        """``{leg name: (total_ms, total_mj)}`` in journey order."""
        out = {}
        for leg in self.legs:
            ms, mj = out.get(leg.name, (0.0, 0.0))
            out[leg.name] = (ms + leg.dur_ms, mj + leg.energy_mj)
        return dict(sorted(out.items(),
                           key=lambda kv: _LEG_RANK[kv[0]]))

    def critical_path(self, tol=1e-9):
        """The journey's critical path (it *is* the leg chain).

        A request's path is strictly serial — no leg overlaps another —
        so the critical path is the full ordered chain. Verifies the
        tiling invariant: leg durations sum to time-in-system within
        ``tol`` (raises :class:`~repro.errors.TelemetryError` on any
        gap, which would mean the stitcher lost a causal segment).
        """
        total = fsum(leg.dur_ms for leg in self.legs)
        gap = abs(total - self.time_in_system_ms)
        if gap > tol:
            raise TelemetryError(
                f"journey {self.request_id!r}: legs sum to {total!r} ms "
                f"but time-in-system is {self.time_in_system_ms!r} ms "
                f"(gap {gap:.3e} > tol {tol:g})")
        by_leg = self.by_leg()
        dominant = max(by_leg, key=lambda k: (by_leg[k][0],
                                              -_LEG_RANK[k])) \
            if by_leg else None
        return {
            "request": self.request_id,
            "time_in_system_ms": self.time_in_system_ms,
            "leg_sum_ms": total,
            "dominant": dominant,
            "by_leg": {k: {"ms": ms, "mj": mj}
                       for k, (ms, mj) in by_leg.items()},
        }

    def to_dict(self):
        return {
            "request": self.request_id,
            "site": self.site,
            "task": self.task,
            "mode": self.mode,
            "target_ms": self.target_ms,
            "arrival_ms": self.arrival_ms,
            "completion_ms": self.completion_ms,
            "deadline_ms": self.deadline_ms,
            "violated": self.violated,
            "accel": self.accel,
            "hw": self.hw,
            "batch": self.batch,
            "attempts": self.attempts,
            "energy_mj": self.energy_mj,
            "legs": [leg.to_dict() for leg in self.legs],
        }

    @classmethod
    def from_dict(cls, row):
        return cls(
            request_id=row["request"], site=row["site"],
            task=row["task"], mode=row["mode"],
            target_ms=row["target_ms"], arrival_ms=row["arrival_ms"],
            completion_ms=row["completion_ms"],
            deadline_ms=row["deadline_ms"],
            legs=[Leg.from_dict(r) for r in row["legs"]],
            accel=row.get("accel"), hw=row.get("hw"),
            batch=row.get("batch"),
            attempts=row.get("attempts", 1))


def _leg_columns(rows):
    """``(journey, code, start, end, energy)`` arrays of leg tuples."""
    js, codes, *times = np.array(rows, np.float64).reshape(-1, 5).T
    return (js.astype(np.intp), codes.astype(np.intp), *times)


class JourneyTable(Sequence):
    """The stitched journeys as columns, a read-only sequence.

    Per journey, by request id: ``ids``, ``meta`` (into ``metas``:
    site, task, mode, target), ``run`` (into ``runs``: accel, hw,
    batch), ``arrival``, ``completion``, ``deadline``, ``attempts``.
    Per leg, by journey in chain order: ``leg_journey``, ``leg_code``
    (into :data:`LEG_ORDER`), ``leg_start``, ``leg_end``, ``leg_mj``.
    """

    def __init__(self, ids, meta, metas, run, runs, arrival, completion,
                 deadline, attempts, legs):
        self.ids, self.meta, self.metas, self.run, self.runs = \
            ids, meta, metas, run, runs
        self.arrival, self.completion, self.deadline, self.attempts = \
            arrival, completion, deadline, attempts
        (self.leg_journey, self.leg_code, self.leg_start, self.leg_end,
         self.leg_mj) = legs

    @classmethod
    def of(cls, journeys):
        """Columns of ``Journey`` objects, kept as the boxed cache."""
        metas = {}
        meta = [metas.setdefault((j.site, j.task, j.mode, j.target_ms),
                                 len(metas)) for j in journeys]
        table = cls(
            [j.request_id for j in journeys], np.array(meta, np.intp),
            list(metas), np.arange(len(journeys)),
            [(j.accel, j.hw, j.batch) for j in journeys],
            *(np.array([getattr(j, name) for j in journeys], np.float64)
              for name in ("arrival_ms", "completion_ms", "deadline_ms")),
            np.array([j.attempts for j in journeys], np.int64),
            _leg_columns([(i, _LEG_RANK[leg.name], leg.start_ms,
                           leg.end_ms, leg.energy_mj)
                          for i, j in enumerate(journeys)
                          for leg in j.legs]))
        table.boxed = list(journeys)
        return table

    @cached_property
    def boxed(self):
        """Every journey as a :class:`Journey`, built on first use."""
        legs = list(map(Leg, map(LEG_ORDER.__getitem__,
                                 self.leg_code.tolist()),
                        self.leg_start.tolist(), self.leg_end.tolist(),
                        self.leg_mj.tolist()))
        cuts = np.searchsorted(self.leg_journey,
                               np.arange(len(self.ids) + 1)).tolist()
        metas, runs = self.metas, self.runs
        return [Journey(rid, *metas[m], arrival, completion, deadline,
                        legs[lo:hi], *runs[r], attempts)
                for rid, m, r, arrival, completion, deadline, attempts, lo,
                hi in zip(self.ids, self.meta.tolist(), self.run.tolist(),
                          self.arrival.tolist(), self.completion.tolist(),
                          self.deadline.tolist(), self.attempts.tolist(),
                          cuts, cuts[1:])]

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, index):
        return self.boxed[index]


class TraceAnalysis:
    """Stitched journeys plus the energy no single request owns.

    ``journeys``: a :class:`JourneyTable`, or a list of :class:`Journey`
    objects, columnized and kept as the table's boxed cache.
    """

    def __init__(self, journeys, unattributed):
        #: Journeys sorted by request id (engine-order independent).
        self.journeys = journeys if isinstance(journeys, JourneyTable) \
            else JourneyTable.of(journeys)
        #: ``{scope: {category: mJ}}`` of span energy that belongs to
        #: the run, not to one request: idle leakage, rail transitions,
        #: and preemption-wasted compute.
        self.unattributed = unattributed

    @cached_property
    def by_request(self):
        """``{request id: Journey}`` (boxes the journeys)."""
        return {j.request_id: j for j in self.journeys}

    def __len__(self):
        return len(self.journeys)

    def scopes(self):
        metas = self.journeys.metas
        return sorted({metas[m][0] for m in np.unique(
            self.journeys.meta).tolist()}.union(self.unattributed))

    # -- energy attribution --------------------------------------------------------

    def attribution(self):
        """``{scope: {category: {"attributed", "unattributed", "total"}}}``.

        Attributed = the fsum of journey leg energies (per-request
        compute plus equal swap shares, refunds netted); unattributed =
        idle/transition/wasted-compute span energy. Their sum is what
        :meth:`reconcile` holds against the ledgers.
        """
        table = self.journeys
        site = np.array([m[0] for m in table.metas], str)[
            table.meta[table.leg_journey]]
        out = {}
        for scope in self.scopes():
            extra = self.unattributed.get(scope, {})
            out[scope] = {}
            for cat in ("compute", "swap", "idle", "transition"):
                attributed = fsum(table.leg_mj[
                    (table.leg_mj != 0.0) & (site == scope)
                    & (table.leg_code == _LEG_RANK.get(cat, -1))].tolist())
                unattributed = extra.get(cat, 0.0)
                out[scope][cat] = {
                    "attributed": attributed,
                    "unattributed": unattributed,
                    "total": attributed + unattributed,
                }
        return out


    def reconcile(self, report, tol=1e-9):
        """Audit the attribution against the run's energy ledgers.

        ``report`` is a :class:`~repro.cluster.ClusterReport` (scope
        defaults to the single analyzed scope) or a
        :class:`~repro.fleet.FleetReport` (per-site audit). For every
        scope and every energy category, attributed + unattributed
        span energy must equal the ledger column within ``tol``.
        Raises :class:`~repro.errors.TelemetryError` on any gap.
        """
        attribution = self.attribution()
        if hasattr(report, "sites"):  # FleetReport
            pairs = [(o.site_id, o.report.energy) for o in report.sites]
        else:
            scopes = self.scopes()
            if len(scopes) != 1:
                raise TelemetryError(
                    f"cluster report covers one scope; analysis has "
                    f"{scopes}")
            pairs = [(scopes[0], report.energy)]
        for scope, energy in pairs:
            ledger = {"compute": energy.compute_mj,
                      "swap": energy.swap_mj,
                      "idle": energy.idle_mj,
                      "transition": energy.transition_mj}
            table = attribution.get(scope, {})
            for cat, expected in ledger.items():
                cell = table.get(cat, {"total": 0.0})
                gap = abs(cell["total"] - expected)
                if gap > tol:
                    raise TelemetryError(
                        f"energy attribution gap at {scope}/{cat}: "
                        f"attributed+unattributed {cell['total']!r} mJ "
                        f"vs ledger {expected!r} mJ "
                        f"(gap {gap:.3e} > tol {tol:g})")
        return True

    # -- serialization -------------------------------------------------------------

    def to_dict(self):
        return {
            "journeys": [j.to_dict() for j in self.journeys],
            "unattributed": {
                scope: dict(sorted(cats.items()))
                for scope, cats in sorted(self.unattributed.items())},
        }

    def to_jsonl(self, path):
        """One journey per line (sorted by request id); returns count."""
        with open(path, "w", encoding="utf-8") as f:
            for journey in self.journeys:
                f.write(json.dumps(journey.to_dict(), sort_keys=True))
                f.write("\n")
        return len(self.journeys)


def _ids(columns):
    """Concatenated id columns (ndarrays or lists) as one plain list."""
    return list(chain.from_iterable(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns))


def _floats(columns):
    """Concatenated float columns as one float64 array."""
    if columns and isinstance(columns[0], np.ndarray):
        return np.concatenate(columns, dtype=np.float64)
    return np.fromiter(chain.from_iterable(columns), np.float64)


def _lookup(mapping, keys, n, default=-1, dtype=np.intp):
    """``mapping.get(key, default)`` for ``n`` keys, as an array."""
    return np.fromiter(map(mapping.get, keys, repeat(default)), dtype, n)


def _carve(j, t0, t1, throttles, legs):
    """Split journey ``j``'s dispatch wait into queue/throttle legs."""
    cur = t0
    for a, b in throttles:
        if b <= cur:
            continue
        if a >= t1:
            break
        lo = a if a > cur else cur
        hi = b if b < t1 else t1
        if lo > cur:
            legs.append((j, _QUEUE, cur, lo, 0.0))
        if hi > lo:
            legs.append((j, _THROTTLE, lo, hi, 0.0))
        cur = hi
    if t1 > cur:
        legs.append((j, _QUEUE, cur, t1, 0.0))


def analyze(source):
    """Stitch ``source`` (tracer, span iterable, or JSONL path).

    Returns a :class:`TraceAnalysis`. Spans predating the journey
    plumbing (no ``rids`` on window/queue spans) are not stitchable
    and raise :class:`~repro.errors.TelemetryError`.
    """
    codes = {}       # (scope, batch seq) -> run code
    ready, accel, hw, sizes = {}, {}, {}, {}  # run -> its dispatch span's
    swaps = {}       # run -> (start, dur, energy)
    refunds = {}     # run -> summed refund energy (negative)
    bases = {}       # run -> batch compute start
    preempts = {}    # run -> instant
    metas = {}       # (scope, task, mode, target) -> meta code
    windows = []     # (meta, rids, arrivals)
    tries = []       # (run, rids) per dispatch attempt, emission order
    computes = []    # (run, base, rids, finish, energy)
    routed, fleet_deadline, defers = {}, {}, {}  # by request id
    ingress, egress = {}, {}  # request id -> wire duration
    throttles = {}   # scope -> [(start, end)]
    spilled = {}     # (scope, cat) -> energies no one request owns
    scopes = {}      # track -> scope

    for name, cat, start, dur, track, energy, args in _rows_of(source):
        scope = scopes.get(track)
        if scope is None:
            scope = scopes[track] = track.partition("/")[0]
        if cat == "idle" or cat == "transition":
            spilled.setdefault((scope, cat), []).append(energy)
        elif cat == "window" or cat == "queue":
            rids = args.get("rids") if args else None
            if rids is None:
                continue
            if cat == "window":
                windows.append((metas.setdefault(
                    (scope, args["task"], args["mode"],
                     float(args["target"])), len(metas)),
                    rids, args["arrivals"]))
                continue
            run = codes.setdefault((scope, args["batch"]), len(codes))
            ready[run], sizes[run] = start, len(rids)
            accel[run], hw[run] = args.get("accel"), args.get("hw")
            tries.append((run, rids))
        elif cat == "compute":
            if name != "wasted-compute" and args and "rids" in args:
                # One span per run (both cores) carrying the exact
                # per-member finish/energy columns.
                run = codes.setdefault((scope, args["batch"]), len(codes))
                bases[run] = start
                computes.append((run, start, args["rids"], args["finish"],
                                 args["energy"]))
            elif name == "wasted-compute" or energy:
                spilled.setdefault((scope, cat), []).append(energy)
        elif cat == "swap":
            seq = args.get("batch") if args else None
            if seq is None:
                spilled.setdefault((scope, cat), []).append(energy)
                continue
            run = codes.setdefault((scope, seq), len(codes))
            if name == "swap-refund":
                refunds[run] = refunds.get(run, 0.0) + energy
            else:
                swaps[run] = (start, dur or 0.0, energy)
        elif cat == "preempt" and args and "batch" in args:
            preempts[codes.setdefault((scope, args["batch"]),
                                      len(codes))] = start
        elif cat == "budget" and name == "throttle":
            throttles.setdefault(scope, []).append(
                (start, start + (dur or 0.0)))
        elif cat == "net" and args is not None and "request" in args:
            rid = args["request"]
            if name == "ingress" or name == "egress":
                (ingress if name == "ingress" else egress)[rid] = dur or 0.0
            elif name == "defer":
                if rid not in defers or start < defers[rid]:
                    defers[rid] = start
            elif name.startswith("route:"):
                routed[rid] = start
                fleet_deadline[rid] = float(args.get("deadline", nan))

    if not (windows or tries) and any(len(c[2]) for c in computes):
        raise TelemetryError(
            "span stream carries no request-linkable spans (pre-"
            "journey log?); re-trace the run to analyze it")
    unattributed = {}
    for (scope, cat), values in spilled.items():
        unattributed.setdefault(scope, {})[cat] = fsum(values)
    if not windows:
        return TraceAnalysis([], unattributed)

    # Journeys: one per window member, in request-id order.
    members = _ids([w[1] for w in windows])
    slot = dict(zip(members, range(len(members))))  # rid -> last window
    ids = list(slot)
    ids.sort(key=None if len(set(map(type, ids))) == 1
             else lambda rid: (str(type(rid)), rid))
    n = len(ids)
    slots = _lookup(slot, ids, n)
    journey_of = dict(zip(ids, range(n)))
    metas = list(metas)
    meta = np.repeat([w[0] for w in windows],
                     [len(w[1]) for w in windows])[slots]
    arrival = _floats([w[2] for w in windows])[slots]
    journeys = np.arange(n)

    # Dispatch attempts and the completed run, joined by request id.
    try_run = np.repeat([t[0] for t in tries],
                        [len(t[1]) for t in tries]).astype(np.intp)
    try_j = _lookup(journey_of, _ids([t[1] for t in tries]), len(try_run))
    try_run, try_j = try_run[try_j >= 0], try_j[try_j >= 0]
    attempts = np.bincount(try_j, minlength=n)
    computes = [c for c in computes if len(c[2])]
    done = _ids([c[2] for c in computes])
    member = _lookup(dict(zip(done, range(len(done)))), ids, n)
    lost = (member < 0) | (attempts == 0)
    if lost.any():
        raise TelemetryError(f"request {ids[int(np.argmax(lost))]!r} has a "
                             "window but no completed dispatch in the "
                             "span stream (truncated log?)")
    sizes_c = [len(c[2]) for c in computes]
    finish = _floats([c[3] for c in computes])
    boundary = np.empty_like(finish)
    boundary[1:] = finish[:-1]
    boundary[np.cumsum([0] + sizes_c[:-1], dtype=np.intp)] = \
        [c[1] for c in computes]
    final = np.repeat([c[0] for c in computes], sizes_c)[member]
    boundary, finish = boundary[member], finish[member]
    energy = _floats([c[4] for c in computes])[member]

    parts = []  # leg column tuples, concatenated in chain order

    def add(mask, js, code, start, end, mj=0.0):
        parts.append((js[mask], np.full(np.count_nonzero(mask), code),
                      start[mask], end[mask],
                      np.broadcast_to(mj, mask.shape)[mask]))

    # Fleet prefix: shaping deferral, then the ingress wire leg.
    deadline = arrival + np.array([m[3] for m in metas])[meta]
    front = arrival
    if routed:
        at, limit, first, wire = (_lookup(by_id, ids, n, nan, np.float64)
                                  for by_id in (routed, fleet_deadline,
                                                defers, ingress))
        fleet = ~np.isnan(at)
        deadline = np.where(np.isnan(limit), deadline, limit)
        front = np.where(fleet, np.where(np.isnan(first), at, first),
                         arrival)
        add(fleet & (at > front), journeys, _DEFER, front, at)
        # Ingress ends exactly at the site-local arrival (the admit
        # rewrite uses the same now + rtt/2 float add).
        add(fleet & ~np.isnan(wire), journeys, _INGRESS, at, at + wire)

    # Attempts level by level up to the completed run: window (after a
    # preemption: the stall to the requeue), dispatch wait to the start
    # anchor (swap start, else compute base), swap.
    def per_run(values):
        return _lookup(values, range(len(codes)), len(codes), nan,
                       np.float64)

    r_ready, r_base, r_preempt, r_swap, r_swap_end, r_share = map(
        per_run, (ready, bases, preempts,
                  {r: s[0] for r, s in swaps.items()},
                  {r: s[0] + s[1] for r, s in swaps.items()},
                  {r: (s[2] + refunds.get(r, 0.0)) / (sizes[r] or 1)
                   for r, s in swaps.items() if r in sizes}))
    # Only waits overlapping a throttle span of their scope are carved
    # (over just those spans); any other wait is one queue leg.
    bounds = []
    for scope, spans in throttles.items():
        spans.sort()
        bounds.append((spans, [a for a, _ in spans],
                       np.maximum.accumulate([b for _, b in spans]),
                       np.array([m[0] == scope for m in metas])))
    by_journey = np.argsort(try_j, kind="stable")
    try_j, try_run = try_j[by_journey], try_run[by_journey]
    rank = np.arange(len(try_j)) - np.searchsorted(try_j, try_j)
    cursor = arrival.copy()
    pending = np.ones(n, bool)
    for level in range(int(attempts.max())):
        pick = (rank == level) & pending[try_j]
        js, k = try_j[pick], try_run[pick]
        cur, rdy, base, swap = cursor[js], r_ready[k], r_base[k], r_swap[k]
        add(rdy > cur, js, _PREEMPTED if level else _WINDOW, cur, rdy)
        cur = np.where(rdy > cur, rdy, cur)
        swapped = ~np.isnan(swap)
        started = np.where(swapped, swap,
                           np.where(np.isnan(base), r_preempt[k], base))
        waits = started > cur  # false where no anchor (NaN) exists
        carve = np.zeros(len(js), bool)
        carved = []
        for spans, begins, reach, in_scope in bounds:
            upto = np.searchsorted(begins, started)
            hit = waits & (upto > 0) & (reach[upto - 1] > cur) \
                & in_scope[meta[js]]
            carve |= hit
            for j, t0, t1, lo, hi in zip(
                    js[hit].tolist(), cur[hit].tolist(),
                    started[hit].tolist(),
                    np.searchsorted(reach, cur[hit], "right").tolist(),
                    upto[hit].tolist()):
                _carve(j, t0, t1, spans[lo:hi], carved)
        add(waits & ~carve, js, _QUEUE, cur, started)
        parts.append(_leg_columns(carved))
        cur = np.where(waits, started, cur)
        # A run preempted mid-swap ends its swap at the preemption.
        end = np.maximum(np.where(np.isnan(base), np.fmin(
            r_preempt[k], r_swap_end[k]), base), cur)
        add(swapped & ((end > cur) | (r_share[k] != 0.0)), js, _SWAP,
            cur, end, r_share[k])
        cursor[js] = np.where(swapped, end, cur)
        pending[js[k == final[js]]] = False
    if pending.any():
        raise TelemetryError(f"request {ids[int(np.argmax(pending))]!r}: no "
                             "dispatch attempt reaches its completed run")

    add(boundary > cursor, journeys, _SERIAL, cursor, boundary)
    add(np.ones(n, bool), journeys, _COMPUTE, boundary, finish, energy)
    completion = finish
    if egress:
        # Fleet completion = site completion + rtt/2, the same float
        # add FleetRecord performs.
        wire = _lookup(egress, ids, n, nan, np.float64)
        completion = np.where(np.isnan(wire), finish, finish + wire)
        add(~np.isnan(wire), journeys, _EGRESS, finish, completion)

    js, code, start, end, mj = map(np.concatenate, zip(*parts))
    keep = np.flatnonzero((end - start != 0.0) | (mj != 0.0))
    keep = keep[np.argsort(js[keep], kind="stable")]
    runs = [(accel.get(run), hw.get(run), seq)
            for (_scope, seq), run in codes.items()]  # in code order
    return TraceAnalysis(JourneyTable(
        ids, meta, metas, final, runs, front, completion, deadline,
        attempts, (js[keep], code[keep], start[keep], end[keep],
                   mj[keep])), unattributed)
