"""Slow, obvious references for journey stitching and its rollups.

* :func:`stitch` is the per-request stitcher that
  :func:`repro.telemetry.analysis.analyze` replaced with column joins:
  one pass collecting dicts keyed by request id and by ``(scope,
  batch)``, then one Python walk per request over its dispatch
  attempts, building :class:`Leg`/:class:`Journey` objects as it goes.
  It returns ``(journeys, unattributed)`` sorted by request id.
* :func:`hot_paths`, :func:`flamegraph_lines` and :func:`attribution`
  roll those journeys up with plain dict loops, summing left to right
  in journey order.

Imported by the telemetry tests (``from journey_reference import ...``).
"""

from math import fsum

from repro.errors import TelemetryError
from repro.telemetry.analysis import LEG_ORDER, Journey, Leg
from repro.telemetry.export import _spans_of

_LEG_RANK = {name: i for i, name in enumerate(LEG_ORDER)}


def _column(values):
    return values.tolist() if hasattr(values, "tolist") else values


def _carve(t0, t1, throttles, legs):
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


def stitch(source):
    """``(journeys, unattributed)`` of ``source``, one request at a time."""
    wins = {}        # rid -> (scope, arrival, task, mode, target)
    disp = {}        # (scope, seq) -> (ready, accel, hw, rids)
    attempts = {}    # rid -> [(scope, seq), ...] in emission order
    swaps = {}       # (scope, seq) -> (start, dur, energy)
    refunds = {}     # (scope, seq) -> summed refund energy (negative)
    comp_base = {}   # (scope, seq) -> batch compute start
    comp_req = {}    # rid -> (key, boundary, finish, energy)
    preempts = {}    # (scope, seq) -> instant
    routes = {}      # rid -> (ts, deadline)
    defers = {}      # rid -> first defer instant
    ingress = {}     # rid -> duration
    egress = {}      # rid -> duration
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
            for rid, arr in zip(_column(rids), args["arrivals"]):
                wins[rid] = (span.scope, float(arr), args["task"],
                             args["mode"], float(args["target"]))
        elif cat == "queue":
            rids = args.get("rids") if args else None
            if rids is None:
                continue
            linkable = True
            key = (span.scope, args["batch"])
            rids = _column(rids)
            disp[key] = (float(span.start_ms), args.get("accel"),
                         args.get("hw"), rids)
            for rid in rids:
                attempts.setdefault(rid, []).append(key)
        elif cat == "swap":
            seq = args.get("batch") if args else None
            if seq is None:
                spill(span.scope, "swap", float(span.energy_mj))
            elif span.name == "swap-refund":
                key = (span.scope, seq)
                refunds[key] = refunds.get(key, 0.0) \
                    + float(span.energy_mj)
            else:
                swaps[(span.scope, seq)] = (
                    float(span.start_ms), float(span.dur_ms or 0.0),
                    float(span.energy_mj))
        elif cat == "compute":
            if span.name == "wasted-compute":
                spill(span.scope, "compute", float(span.energy_mj))
            elif args and "rids" in args:
                key = (span.scope, args["batch"])
                boundary = comp_base[key] = float(span.start_ms)
                for rid, finish, energy in zip(
                        _column(args["rids"]), args["finish"],
                        args["energy"]):
                    comp_req[rid] = (key, boundary, float(finish),
                                     float(energy))
                    boundary = float(finish)
            elif span.energy_mj:
                spill(span.scope, "compute", float(span.energy_mj))
        elif cat in ("idle", "transition"):
            spill(span.scope, cat, float(span.energy_mj))
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
                ingress[rid] = float(span.dur_ms or 0.0)
            elif span.name == "egress":
                egress[rid] = float(span.dur_ms or 0.0)
            elif span.name == "defer":
                if rid not in defers or ts < defers[rid]:
                    defers[rid] = ts
            elif span.name.startswith("route:"):
                routes[rid] = (ts, float(args["deadline"])
                               if "deadline" in args else None)

    if comp_req and not linkable:
        raise TelemetryError("pre-journey span log")
    for spans in throttles.values():
        spans.sort()

    journeys = []
    for rid, (scope, arrival, task, mode, target) in wins.items():
        final = comp_req.get(rid)
        tries = attempts.get(rid, ())
        if final is None or not tries:
            raise TelemetryError(f"request {rid!r}: no completed dispatch")
        legs = []
        deadline = arrival + target
        front_arrival = arrival
        route = routes.get(rid)
        if route is not None:
            routed, fleet_deadline = route
            if fleet_deadline is not None:
                deadline = fleet_deadline
            front_arrival = defers.get(rid, routed)
            if routed > front_arrival:
                legs.append(Leg("defer", front_arrival, routed))
            if rid in ingress:
                legs.append(Leg("ingress", routed, routed + ingress[rid]))
        cursor = arrival
        scope_throttles = throttles.get(scope, ())
        for i, key in enumerate(tries):
            ready, _accel, _hw, rids = disp[key]
            if ready > cursor:
                legs.append(Leg("window" if i == 0 else "preempted",
                                cursor, ready))
                cursor = ready
            swap = swaps.get(key)
            base = comp_base.get(key)
            preempt_at = preempts.get(key)
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
                    if preempt_at is not None and preempt_at < swap_end:
                        swap_end = preempt_at
                net_mj = swap[2] + refunds.get(key, 0.0)
                share = net_mj / len(rids) if rids else net_mj
                if swap_end > cursor or share:
                    legs.append(Leg("swap", cursor,
                                    max(swap_end, cursor),
                                    energy_mj=share))
                    cursor = max(swap_end, cursor)
            if final[0] == key:
                _key, boundary, finish, energy = final
                if boundary > cursor:
                    legs.append(Leg("serial", cursor, boundary))
                legs.append(Leg("compute", boundary, finish,
                                energy_mj=energy))
                cursor = finish
                break
            next_ready = disp[tries[i + 1]][0]
            if next_ready > cursor:
                legs.append(Leg("preempted", cursor, next_ready))
                cursor = next_ready
        if rid in egress:
            legs.append(Leg("egress", cursor, cursor + egress[rid]))
            cursor = cursor + egress[rid]
        _ready, accel, hw, _rids = disp[final[0]]
        journeys.append(Journey(
            request_id=rid, site=scope, task=task, mode=mode,
            target_ms=target, arrival_ms=front_arrival,
            completion_ms=cursor, deadline_ms=deadline,
            legs=[leg for leg in legs
                  if leg.dur_ms != 0.0 or leg.energy_mj != 0.0],
            accel=accel, hw=hw, batch=final[0][1],
            attempts=len(tries)))
    journeys.sort(key=lambda j: (str(type(j.request_id)), j.request_id))
    return journeys, {scope: {cat: fsum(values)
                              for cat, values in cats.items()}
                      for scope, cats in unattributed.items()}


def _class_key(journey):
    hw = "any" if journey.hw is None else journey.hw
    return f"{journey.task}|{journey.target_ms:g}ms|{journey.mode}|hw{hw}"


def hot_paths(journeys):
    """The hot-path table of ``journeys``, summed per class in order."""
    groups = {}
    for journey in journeys:
        cell = groups.setdefault(_class_key(journey), {
            "requests": 0, "violations": 0, "attempts": 0, "tis": [],
            "legs": {}, "energy": {}})
        cell["requests"] += 1
        cell["violations"] += 1 if journey.violated else 0
        cell["attempts"] += journey.attempts
        cell["tis"].append(journey.time_in_system_ms)
        for leg in journey.legs:
            cell["legs"][leg.name] = \
                cell["legs"].get(leg.name, 0.0) + leg.dur_ms
            if leg.name in ("compute", "swap"):
                cell["energy"][leg.name] = \
                    cell["energy"].get(leg.name, 0.0) + leg.energy_mj
    out = {}
    for key, cell in groups.items():
        tis = fsum(cell["tis"])
        out[key] = {
            "requests": cell["requests"],
            "violations": cell["violations"],
            "attempts": cell["attempts"],
            "time_in_system_ms": tis,
            "mean_time_in_system_ms": tis / cell["requests"],
            "legs_ms": {name: cell["legs"][name]
                        for name in sorted(cell["legs"],
                                           key=_LEG_RANK.__getitem__)},
            "energy_mj": dict(sorted(cell["energy"].items())),
        }
    return dict(sorted(out.items(),
                       key=lambda kv: (-kv[1]["time_in_system_ms"],
                                       kv[0])))


def flamegraph_lines(journeys, unattributed, weight="time"):
    """Collapsed ``site;class;leg`` stacks of ``journeys``."""
    cells = {}
    for journey in journeys:
        cls = _class_key(journey)
        for leg in journey.legs:
            value = leg.dur_ms if weight == "time" else leg.energy_mj
            if value != 0.0:
                stack = f"{journey.site};{cls};{leg.name}"
                cells[stack] = cells.get(stack, 0.0) + value
    if weight == "energy":
        for scope, cats in unattributed.items():
            for cat, mj in cats.items():
                if mj != 0.0:
                    stack = f"{scope};(unattributed);{cat}"
                    cells[stack] = cells.get(stack, 0.0) + mj
    lines = []
    for stack in sorted(cells):
        value = int(round(cells[stack] * 1e6))
        if value:
            lines.append(f"{stack} {value}")
    return lines


def attribution(journeys, unattributed):
    """``{scope: {category: {attributed, unattributed, total}}}``."""
    cells = {}
    for journey in journeys:
        for leg in journey.legs:
            if leg.name in ("compute", "swap") and leg.energy_mj != 0.0:
                cells.setdefault((journey.site, leg.name),
                                 []).append(leg.energy_mj)
    scopes = sorted({j.site for j in journeys} | set(unattributed))
    out = {}
    for scope in scopes:
        extra = unattributed.get(scope, {})
        out[scope] = {}
        for cat in ("compute", "swap", "idle", "transition"):
            attributed = fsum(cells.get((scope, cat), ()))
            spilled = extra.get(cat, 0.0)
            out[scope][cat] = {"attributed": attributed,
                               "unattributed": spilled,
                               "total": attributed + spilled}
    return out
