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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import fsum

from repro.errors import TelemetryError
from repro.telemetry.export import _spans_of

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


class TraceAnalysis:
    """Stitched journeys plus the energy no single request owns."""

    def __init__(self, journeys, unattributed):
        #: Journeys sorted by request id (engine-order independent).
        self.journeys = journeys
        #: ``{scope: {category: mJ}}`` of span energy that belongs to
        #: the run, not to one request: idle leakage, rail transitions,
        #: and preemption-wasted compute.
        self.unattributed = unattributed
        self.by_request = {j.request_id: j for j in journeys}

    def __len__(self):
        return len(self.journeys)

    def scopes(self):
        seen = {j.site for j in self.journeys}
        seen.update(self.unattributed)
        return sorted(seen)

    # -- energy attribution --------------------------------------------------------

    def attribution(self):
        """``{scope: {category: {"attributed", "unattributed", "total"}}}``.

        Attributed = the fsum of journey leg energies (per-request
        compute plus equal swap shares, refunds netted); unattributed =
        idle/transition/wasted-compute span energy. Their sum is what
        :meth:`reconcile` holds against the ledgers.
        """
        cats = ("compute", "swap", "idle", "transition")
        leg_cat = {"compute": "compute", "swap": "swap"}
        cells = {}  # (scope, cat) -> [values]
        for journey in self.journeys:
            for leg in journey.legs:
                cat = leg_cat.get(leg.name)
                if cat is not None and leg.energy_mj != 0.0:
                    cells.setdefault((journey.site, cat),
                                     []).append(leg.energy_mj)
        out = {}
        for scope in self.scopes():
            extra = self.unattributed.get(scope, {})
            out[scope] = {}
            for cat in cats:
                attributed = fsum(cells.get((scope, cat), ()))
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


def _column(values):
    """A plain list for ``values`` (live spans carry ndarrays)."""
    return values.tolist() if hasattr(values, "tolist") else values


def _carve(t0, t1, throttles, legs):
    """Split a dispatch wait into queue/throttle legs by overlap."""
    cur = t0
    for a, b in throttles:
        if b <= cur:
            continue
        if a >= t1:
            break
        lo = a if a > cur else cur
        hi = b if b < t1 else t1
        if lo > cur:
            legs.append(Leg("queue", cur, lo))
        if hi > lo:
            legs.append(Leg("throttle", lo, hi))
        cur = hi
    if t1 > cur:
        legs.append(Leg("queue", cur, t1))


def analyze(source):
    """Stitch ``source`` (tracer, span iterable, or JSONL path).

    Returns a :class:`TraceAnalysis`. Spans predating the journey
    plumbing (no ``rids`` on window/queue spans) are not stitchable
    and raise :class:`~repro.errors.TelemetryError`.
    """
    wins = {}        # rid -> (scope, arrival, task, mode, target, trigger)
    disp = {}        # (scope, seq) -> (ready, dur, accel, hw, rids)
    attempts = {}    # rid -> [(scope, seq), ...] in emission order
    swaps = {}       # (scope, seq) -> (start, dur, energy)
    refunds = {}     # (scope, seq) -> summed refund energy (negative)
    comp_base = {}   # (scope, seq) -> batch compute start
    comp_req = {}    # rid -> (scope, seq, boundary, finish, energy)
    preempts = {}    # (scope, seq) -> instant
    routes = {}      # rid -> (ts, site, deadline)
    defers = {}      # rid -> first defer instant
    ingress = {}     # rid -> (start, dur)
    egress = {}      # rid -> (start, dur)
    throttles = {}   # scope -> [(start, end)]
    unattributed = {}  # scope -> {cat: [values]}
    linkable = False

    def spill(scope, cat, energy):
        unattributed.setdefault(scope, {}).setdefault(cat,
                                                      []).append(energy)

    for span in _spans_of(source):
        cat = span.cat
        args = span.args
        if cat == "window":
            rids = args.get("rids") if args else None
            if rids is None:
                continue
            linkable = True
            scope = span.scope
            task, mode = args["task"], args["mode"]
            target = float(args["target"])
            trigger = args["trigger"]
            for rid, arr in zip(_column(rids), args["arrivals"]):
                wins[rid] = (scope, float(arr), task, mode, target,
                             trigger)
        elif cat == "queue":
            rids = args.get("rids") if args else None
            if rids is None:
                continue
            linkable = True
            key = (span.scope, args["batch"])
            rids = _column(rids)
            disp[key] = (float(span.start_ms),
                         float(span.dur_ms or 0.0), args.get("accel"),
                         args.get("hw"), rids)
            for rid in rids:
                attempts.setdefault(rid, []).append(key)
        elif cat == "swap":
            seq = args.get("batch") if args else None
            if span.name == "swap-refund":
                if seq is None:
                    spill(span.scope, "swap", float(span.energy_mj))
                else:
                    key = (span.scope, seq)
                    refunds[key] = refunds.get(key, 0.0) \
                        + float(span.energy_mj)
            elif seq is not None:
                swaps[(span.scope, seq)] = (
                    float(span.start_ms), float(span.dur_ms or 0.0),
                    float(span.energy_mj))
            else:
                spill(span.scope, "swap", float(span.energy_mj))
        elif cat == "compute":
            if span.name == "wasted-compute":
                spill(span.scope, "compute", float(span.energy_mj))
            elif args and "rids" in args:
                # One span per run (both cores) carrying the exact
                # per-member finish/energy columns.
                key = (span.scope, args["batch"])
                base = float(span.start_ms)
                comp_base[key] = base
                boundary = base
                for rid, finish, energy in zip(
                        _column(args["rids"]), args["finish"],
                        args["energy"]):
                    comp_req[rid] = (key, boundary, float(finish),
                                     float(energy))
                    boundary = float(finish)
            elif span.energy_mj:
                spill(span.scope, "compute", float(span.energy_mj))
        elif cat == "idle":
            spill(span.scope, "idle", float(span.energy_mj))
        elif cat == "transition":
            spill(span.scope, "transition", float(span.energy_mj))
        elif cat == "preempt":
            if args and "batch" in args:
                preempts[(span.scope, args["batch"])] = \
                    float(span.start_ms)
        elif cat == "budget":
            if span.name == "throttle":
                start = float(span.start_ms)
                throttles.setdefault(span.scope, []).append(
                    (start, start + float(span.dur_ms or 0.0)))
        elif cat == "net":
            if args is None or "request" not in args:
                continue
            rid = args["request"]
            ts = float(span.start_ms)
            if span.name == "ingress":
                ingress[rid] = (ts, float(span.dur_ms or 0.0))
            elif span.name == "egress":
                egress[rid] = (ts, float(span.dur_ms or 0.0))
            elif span.name == "defer":
                if rid not in defers or ts < defers[rid]:
                    defers[rid] = ts
            elif span.name.startswith("route:"):
                routes[rid] = (ts, args["site"],
                               float(args["deadline"])
                               if "deadline" in args else None)

    if not linkable and (wins or disp or comp_req):
        raise TelemetryError(
            "span stream carries no request-linkable spans (pre-"
            "journey log?); re-trace the run to analyze it")

    for scope in throttles:
        throttles[scope].sort()

    journeys = []
    for rid, window in wins.items():
        scope, arrival, task, mode, target, _trigger = window
        final = comp_req.get(rid)
        tries = attempts.get(rid, ())
        if final is None or not tries:
            raise TelemetryError(
                f"request {rid!r} has a window but no completed "
                f"dispatch in the span stream (truncated log?)")
        legs = []
        # Fleet prefix: shaping deferral, then the ingress wire leg.
        route = routes.get(rid)
        deadline = arrival + target
        front_arrival = arrival
        if route is not None:
            routed, _site, fleet_deadline = route
            if fleet_deadline is not None:
                deadline = fleet_deadline
            front_arrival = defers.get(rid, routed)
            if routed > front_arrival:
                legs.append(Leg("defer", front_arrival, routed))
            wire = ingress.get(rid)
            if wire is not None:
                # Ingress ends exactly at the site-local arrival (the
                # admit rewrite uses the same now + rtt/2 float add).
                legs.append(Leg("ingress", routed, routed + wire[1]))
        cursor = arrival
        scope_throttles = throttles.get(scope, ())
        for i, key in enumerate(tries):
            ready, _dur, accel, hw, rids = disp[key]
            if ready > cursor:
                # First attempt: batch-former wait up to the window
                # close (== the dispatch span's own ready instant).
                legs.append(Leg("window" if i == 0 else "preempted",
                                cursor, ready))
                cursor = ready
            swap = swaps.get(key)
            base = comp_base.get(key)
            preempt_at = preempts.get(key)
            # Dispatch wait runs until the engine-emitted start anchor:
            # the swap span's start, else the batch compute base.
            started = swap[0] if swap is not None else base
            if started is None:
                started = preempt_at if preempt_at is not None \
                    else cursor
            if started > cursor:
                _carve(cursor, started, scope_throttles, legs)
                cursor = started
            if swap is not None:
                swap_end = base
                if swap_end is None:
                    swap_end = swap[0] + swap[1]
                    if preempt_at is not None \
                            and preempt_at < swap_end:
                        swap_end = preempt_at  # aborted mid-swap
                net_mj = swap[2] + refunds.get(key, 0.0)
                share = net_mj / len(rids) if rids else net_mj
                if swap_end > cursor or share:
                    legs.append(Leg("swap", cursor,
                                    max(swap_end, cursor),
                                    energy_mj=share))
                    cursor = max(swap_end, cursor)
            if final[0] == key:
                _fkey, boundary, finish, energy = final
                if boundary > cursor:
                    legs.append(Leg("serial", cursor, boundary))
                legs.append(Leg("compute", boundary, finish,
                                energy_mj=energy))
                cursor = finish
                break
            # Preempted before this member's sentence ran: stall until
            # the next attempt's requeue-ready instant.
            next_ready = disp[tries[i + 1]][0]
            if next_ready > cursor:
                legs.append(Leg("preempted", cursor, next_ready))
                cursor = next_ready
        wire = egress.get(rid)
        if wire is not None:
            # Fleet completion = site completion + rtt/2, the same
            # float add FleetRecord performs.
            legs.append(Leg("egress", cursor, cursor + wire[1]))
            cursor = cursor + wire[1]
        final_key = final[0]
        _ready, _dur, accel, hw, _rids = disp[final_key]
        journeys.append(Journey(
            request_id=rid, site=scope, task=task, mode=mode,
            target_ms=target, arrival_ms=front_arrival,
            completion_ms=cursor, deadline_ms=deadline,
            legs=[leg for leg in legs
                  if leg.dur_ms != 0.0 or leg.energy_mj != 0.0],
            accel=accel, hw=hw, batch=final_key[1],
            attempts=len(tries)))

    journeys.sort(key=lambda j: (str(type(j.request_id)),
                                 j.request_id))
    return TraceAnalysis(
        journeys,
        {scope: {cat: fsum(values) for cat, values in cats.items()}
         for scope, cats in unattributed.items()})
