"""Sim-clock span tracing for the serving/cluster/energy/fleet stack.

Every timestamp a :class:`Tracer` records comes off the *simulated*
clock (milliseconds on the event loop), never the wall clock — a traced
run is therefore exactly as deterministic as an untraced one, and two
runs of the same trace produce bit-identical span logs. Tracing is
strictly read-only observation: hooks fire after the simulator has
already committed a state change, so a traced report is bit-identical
to an untraced one (enforced by ``tests/telemetry`` and the
``python -m repro.telemetry --smoke`` gate).

The span model is deliberately flat: a :class:`Span` is one named
interval (or instant, ``dur_ms=None``) on one *track*. Tracks are
``"scope/lane"`` strings — the scope is the cluster or fleet site
(``"cluster"``, ``"edge-a"``, ``"fleet"``), the lane a device, batch
former, queue, budget or network leg within it — and become
process/thread rows in the Chrome trace export
(:mod:`repro.telemetry.export`).

Energy is first-class: any span may carry ``energy_mj``, and the tracer
maintains a compensated (Kahan) per-``(scope, category)`` rollup as it
emits, so :func:`reconcile_cluster` / :func:`reconcile_fleet` can hold
the traced energy against the run's
:class:`~repro.energy.EnergyReport` / fleet ledgers at 1e-9 without
re-reading a single span — turning every traced run into an end-to-end
ledger audit, even after spans have been streamed out to disk.

Memory is bounded for million-request replays: construct the tracer
with ``max_spans`` + ``spill_path`` and every time the in-memory buffer
fills it is flushed to a JSONL span log (the same schema
:func:`repro.telemetry.export.read_spans_jsonl` loads), keeping RSS
flat while :meth:`Tracer.iter_spans` still replays the complete log —
spilled prefix first, live tail after.

The default for every instrumented subsystem is :data:`NULL_TRACER`, a
shared :class:`NullTracer` whose ``enabled`` flag lets hot paths skip
even argument construction (``if tracer.enabled: ...``) — an untraced
run pays one attribute test per hook site and allocates nothing.
"""

from __future__ import annotations

import json

from repro.errors import TelemetryError

#: Span categories whose ``energy_mj`` the ledger reconciliation audits.
#: They mirror the four columns of a
#: :class:`~repro.energy.DeviceEnergyBreakdown`; every other category
#: ("window", "queue", "budget", "route", "net", "scale", ...) is
#: annotation only and never enters the energy identity.
ENERGY_CATEGORIES = ("compute", "swap", "idle", "transition")


def jsonable_args(args):
    """``args`` with any numpy columns converted to plain lists.

    The vector engine attaches its plan columns (member ids, arrival
    and finish instants) to hot-path spans as ndarrays so the traced
    replay never pays per-member scalar boxing; every serialization
    boundary funnels through here instead. Duck-typed on ``tolist`` so
    this module stays numpy-free.
    """
    if any(hasattr(value, "tolist") for value in args.values()):
        return {key: value.tolist() if hasattr(value, "tolist")
                else value for key, value in args.items()}
    return args


def row_from_dict(row):
    """The row tuple of one span dict, validated.

    ``(name, cat, start_ms, dur_ms, track, energy_mj, args)``, the
    tracer's own storage shape; every span-log reader goes through
    here. Raises :class:`~repro.errors.TelemetryError` on a malformed
    row.
    """
    try:
        return (row["name"], row["cat"], float(row["start_ms"]),
                None if row.get("dur_ms") is None
                else float(row["dur_ms"]),
                row["track"], float(row.get("energy_mj", 0.0)),
                row.get("args"))
    except (KeyError, TypeError, ValueError) as exc:
        raise TelemetryError(f"malformed span row {row!r}: {exc}")


class Span:
    """One traced interval (or instant) on one track.

    ``dur_ms=None`` marks an instant event (Chrome phase ``"i"``);
    otherwise the span covers ``[start_ms, start_ms + dur_ms]`` (phase
    ``"X"``). ``energy_mj`` may be negative — refunds (a preemption
    handing back a mid-swap charge) are emitted as negative-energy
    instants so category sums stay exact.
    """

    __slots__ = ("name", "cat", "start_ms", "dur_ms", "track",
                 "energy_mj", "args")

    def __init__(self, name, cat, start_ms, dur_ms, track,
                 energy_mj=0.0, args=None):
        self.name = name
        self.cat = cat
        self.start_ms = start_ms
        self.dur_ms = dur_ms
        self.track = track
        self.energy_mj = energy_mj
        self.args = args

    @property
    def end_ms(self):
        return self.start_ms + (self.dur_ms or 0.0)

    @property
    def scope(self):
        """The track's leading component (cluster / site / fleet)."""
        track = self.track
        slash = track.find("/")
        return track if slash < 0 else track[:slash]

    def to_dict(self):
        row = {"name": self.name, "cat": self.cat,
               "start_ms": self.start_ms, "track": self.track}
        if self.dur_ms is not None:
            row["dur_ms"] = self.dur_ms
        if self.energy_mj:
            row["energy_mj"] = self.energy_mj
        if self.args:
            row["args"] = jsonable_args(self.args)
        return row

    @classmethod
    def from_dict(cls, row):
        return cls(*row_from_dict(row))

    def __repr__(self):
        dur = "i" if self.dur_ms is None else f"{self.dur_ms:.3f}ms"
        return (f"Span({self.cat}/{self.name} @{self.start_ms:.3f} "
                f"{dur} on {self.track})")


class NullTracer:
    """The zero-cost default: every hook is a no-op.

    ``enabled`` is False so instrumented code can skip argument
    construction entirely; the methods still exist so a tracer can be
    passed around without None checks.
    """

    enabled = False

    def span(self, name, cat, start_ms, dur_ms, track,
             energy_mj=0.0, args=None):
        return None

    def instant(self, name, cat, ts_ms, track, energy_mj=0.0, args=None):
        return None

    def extend_rows(self, rows):
        return None

    def flush(self):
        return 0

    def close(self):
        return None


#: The shared do-nothing tracer every subsystem defaults to.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans on the simulated clock, with bounded memory.

    ``max_spans`` caps the in-memory buffer; crossing it streams the
    buffered spans to ``spill_path`` as JSONL and clears the buffer
    (``max_spans`` therefore requires ``spill_path``). The per-(scope,
    category) energy rollup is maintained at emit time with Kahan
    compensation, so it stays exact to ~1 ulp regardless of how many
    million spans flowed through — and survives spilling.
    """

    enabled = True

    def __init__(self, max_spans=None, spill_path=None):
        if max_spans is not None:
            if type(max_spans) is not int or max_spans < 1:
                raise TelemetryError(
                    f"max_spans must be an int >= 1, got {max_spans!r}")
            if spill_path is None:
                raise TelemetryError(
                    "max_spans without spill_path would drop spans; "
                    "give the tracer a JSONL path to stream into")
        self.max_spans = max_spans
        self.spill_path = spill_path
        # Hot-path storage is plain tuples, not Span objects: a traced
        # 100k-request replay emits tens of thousands of spans inside a
        # sub-second simulation, so emission must stay well under a
        # microsecond. Spans materialize lazily on every read path.
        # Row shape: (name, cat, start_ms, dur_ms, track, energy_mj,
        # args), with dur_ms None for instants.
        self._rows = []
        self._spill_file = None
        self.emitted = 0
        self.spilled = 0
        # (scope, cat) -> [sum_mj, kahan_compensation]
        self._rollup = {}
        # track -> scope; memoized so hot emits don't re-split strings.
        self._scopes = {}

    # -- emission -----------------------------------------------------------------

    def span(self, name, cat, start_ms, dur_ms, track,
             energy_mj=0.0, args=None):
        """Record one interval covering ``[start_ms, start_ms+dur_ms]``."""
        if energy_mj:
            energy_mj = float(energy_mj)
            scope = self._scopes.get(track)
            if scope is None:
                slash = track.find("/")
                scope = self._scopes[track] = \
                    track if slash < 0 else track[:slash]
            cell = self._rollup.get((scope, cat))
            if cell is None:
                cell = self._rollup[(scope, cat)] = [0.0, 0.0]
            # Kahan: the compensation keeps a million small terms from
            # drifting the 1e-9 ledger audit.
            y = energy_mj - cell[1]
            t = cell[0] + y
            cell[1] = (t - cell[0]) - y
            cell[0] = t
        self._rows.append((name, cat, float(start_ms), float(dur_ms),
                           track, energy_mj, args))
        self.emitted += 1
        if self.max_spans is not None \
                and len(self._rows) >= self.max_spans:
            self.flush()

    def instant(self, name, cat, ts_ms, track, energy_mj=0.0, args=None):
        """Record one instant event (``dur_ms=None``)."""
        if energy_mj:
            energy_mj = float(energy_mj)
            scope = self._scopes.get(track)
            if scope is None:
                slash = track.find("/")
                scope = self._scopes[track] = \
                    track if slash < 0 else track[:slash]
            cell = self._rollup.get((scope, cat))
            if cell is None:
                cell = self._rollup[(scope, cat)] = [0.0, 0.0]
            y = energy_mj - cell[1]
            t = cell[0] + y
            cell[1] = (t - cell[0]) - y
            cell[0] = t
        self._rows.append((name, cat, float(ts_ms), None, track,
                           energy_mj, args))
        self.emitted += 1
        if self.max_spans is not None \
                and len(self._rows) >= self.max_spans:
            self.flush()

    def extend_rows(self, rows):
        """Bulk emission of pre-built row tuples (the vector-engine path).

        Each row is ``(name, cat, start_ms, dur_ms, track, energy_mj,
        args)`` — exactly what :meth:`span` / :meth:`instant` would
        store, with timestamps already plain floats (the caller's
        responsibility; array-backed engines hand over their own
        float64 scalars). Amortizes the per-call overhead when a replay
        engine reconstructs tens of thousands of batch-granular spans
        from its plan in one pass; the Kahan rollup is maintained
        row-by-row, so reconciliation semantics match per-span emission
        exactly.
        """
        scopes = self._scopes
        rollup = self._rollup
        for row in rows:
            energy_mj = row[5]
            if energy_mj:
                track = row[4]
                cat = row[1]
                scope = scopes.get(track)
                if scope is None:
                    slash = track.find("/")
                    scope = scopes[track] = \
                        track if slash < 0 else track[:slash]
                cell = rollup.get((scope, cat))
                if cell is None:
                    cell = rollup[(scope, cat)] = [0.0, 0.0]
                y = energy_mj - cell[1]
                t = cell[0] + y
                cell[1] = (t - cell[0]) - y
                cell[0] = t
        self._rows.extend(rows)
        self.emitted += len(rows)
        if self.max_spans is not None \
                and len(self._rows) >= self.max_spans:
            self.flush()

    # -- reading back -------------------------------------------------------------

    def spans(self):
        """The in-memory (not yet spilled) spans, emission-ordered.

        Materialized fresh from the tuple store on every call — treat
        the result as a snapshot, not a live view.
        """
        return [Span(name, cat, start_ms, dur_ms, track,
                     energy_mj=energy_mj, args=args)
                for name, cat, start_ms, dur_ms, track, energy_mj, args
                in self._rows]

    def iter_rows(self):
        """Every row emitted so far: spilled prefix, then live tail.

        Rows are ``(name, cat, start_ms, dur_ms, track, energy_mj,
        args)`` tuples. Flushes pending writes first so the spilled
        file is complete, then streams it back line by line — the
        complete log is available without ever holding it in memory at
        once.
        """
        if self._spill_file is not None:
            self._spill_file.flush()
        if self.spill_path is not None and self.spilled:
            with open(self.spill_path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if line:
                        yield row_from_dict(json.loads(line))
        yield from self._rows

    def iter_spans(self):
        """Every span emitted so far, as :class:`Span` objects."""
        for row in self.iter_rows():
            yield Span(*row)

    # -- energy rollup ------------------------------------------------------------

    def energy_mj(self, cat=None, scope=None):
        """Rolled-up span energy, filtered by category and/or scope."""
        total = comp = 0.0
        for (sc, ct), cell in self._rollup.items():
            if cat is not None and ct != cat:
                continue
            if scope is not None and sc != scope:
                continue
            y = cell[0] - comp
            t = total + y
            comp = (t - total) - y
            total = t
        return total

    def rollup(self):
        """``{scope: {category: mJ}}`` over everything emitted so far."""
        out = {}
        for (scope, cat), cell in sorted(self._rollup.items()):
            out.setdefault(scope, {})[cat] = cell[0]
        return out

    # -- spilling -----------------------------------------------------------------

    def flush(self):
        """Stream the in-memory buffer to ``spill_path``; returns count."""
        if not self._rows or self.spill_path is None:
            return 0
        if self._spill_file is None:
            self._spill_file = open(self.spill_path, "w",
                                    encoding="utf-8")
        # Serialized straight from the tuple store (dict keys in fixed
        # insertion order, one buffered write per flush) — the spill is
        # on the traced run's clock, so it gets the same treatment as
        # emission.
        dumps = json.dumps
        lines = []
        for name, cat, start_ms, dur_ms, track, energy_mj, args \
                in self._rows:
            row = {"name": name, "cat": cat, "start_ms": start_ms,
                   "track": track}
            if dur_ms is not None:
                row["dur_ms"] = dur_ms
            if energy_mj:
                row["energy_mj"] = energy_mj
            if args:
                row["args"] = jsonable_args(args)
            lines.append(dumps(row))
        lines.append("")
        self._spill_file.write("\n".join(lines))
        count = len(self._rows)
        self.spilled += count
        self._rows = []
        return count

    def close(self):
        """Flush and close the spill file (idempotent)."""
        self.flush()
        if self._spill_file is not None:
            self._spill_file.close()
            self._spill_file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# -- ledger reconciliation ---------------------------------------------------------


def _check_gap(label, traced, ledger, tol):
    gap = abs(traced - ledger)
    if gap > tol:
        raise TelemetryError(
            f"span energy rollup diverges from the ledger on {label}: "
            f"traced {traced:.9f} mJ vs ledger {ledger:.9f} mJ "
            f"(gap {gap:.3e}, tol {tol:g})")


def reconcile_cluster(tracer, report, scope="cluster", tol=1e-9):
    """Audit a traced cluster run against its energy ledgers.

    The traced compute/swap/idle/transition rollups for ``scope`` must
    match the run's :class:`~repro.energy.EnergyReport` columns — which
    themselves reconcile against the serving aggregates — all within
    ``tol``. Raises :class:`~repro.errors.TelemetryError` on any gap;
    returns True otherwise.
    """
    energy = report.energy
    energy.reconcile(report.serving, tol=tol)
    ledger = {"compute": energy.compute_mj, "swap": energy.swap_mj,
              "idle": energy.idle_mj, "transition": energy.transition_mj}
    for cat in ENERGY_CATEGORIES:
        _check_gap(f"{scope}/{cat}", tracer.energy_mj(cat=cat,
                                                      scope=scope),
                   ledger[cat], tol)
    return True


def reconcile_fleet(tracer, fleet_report, tol=1e-9):
    """Audit a traced fleet run against every ledger level at once.

    Per site: the traced category rollups match the site's cluster
    energy report (:func:`reconcile_cluster` per scope). Fleet-wide:
    the summed traced energy matches ``FleetReport.total_energy_mj``,
    which :meth:`~repro.fleet.FleetReport.reconcile` has already tied
    to the per-site ledgers. Raises on any gap; returns True.
    """
    fleet_report.reconcile(tol=tol)
    traced_total = 0.0
    for outcome in fleet_report.sites:
        reconcile_cluster(tracer, outcome.report, scope=outcome.site_id,
                          tol=tol)
        for cat in ENERGY_CATEGORIES:
            traced_total += tracer.energy_mj(cat=cat,
                                            scope=outcome.site_id)
    _check_gap("fleet total", traced_total, fleet_report.total_energy_mj,
               max(tol, tol * len(fleet_report.sites)))
    return True
