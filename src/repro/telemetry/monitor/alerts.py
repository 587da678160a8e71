"""Typed alerts, incident grouping, and their JSONL round trip.

An :class:`Alert` is one rule or watchdog firing on the simulated
clock: it opens at the first observation instant its condition holds,
closes at the first later instant it stops holding (or at the run
horizon when :meth:`~repro.telemetry.monitor.TelemetryMonitor.finalize`
sweeps it shut), and carries *evidence* — locators that tie the
firing back to the span log that explains it: ``req:42`` names a
violating request, which appears in the ``rids`` of its batch's
compute span, and ``throttle`` points at a budget lane.

An :class:`Incident` groups overlapping alerts on one scope into a
single operational event with open/close instants, the worst member
severity, and a root cause (the earliest-opened member alert and its
evidence). :class:`IncidentReport` is the whole monitoring outcome of
one run — alerts, incidents, health scores — serializable to JSONL
(:meth:`IncidentReport.to_jsonl` / :meth:`IncidentReport.from_jsonl`,
lossless) and renderable on the existing ASCII timeline via
:meth:`IncidentReport.spans` (``alert`` / ``incident`` categories get
their own lanes next to the traced run).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.errors import TelemetryError
from repro.telemetry.tracer import Span

#: Severity ladder, least to most urgent; incidents take their worst
#: member's rung.
SEVERITIES = ("warn", "ticket", "page")

_SEVERITY_RANK = {severity: i for i, severity in enumerate(SEVERITIES)}


def severity_rank(severity):
    """Position on the :data:`SEVERITIES` ladder (raises on unknowns)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise TelemetryError(
            f"unknown severity {severity!r}; expected one of "
            f"{SEVERITIES}") from None


@dataclass
class Alert:
    """One rule/watchdog firing over ``[opened_ms, closed_ms]``.

    ``closed_ms`` is None while the condition still holds; ``value`` /
    ``threshold`` snapshot the measurement that opened it (burn rate,
    event count, queue depth); ``labels`` is a sorted ``(key, value)``
    tuple so alert streams compare canonically; ``evidence`` is a tuple
    of span-locator dicts (``{"span": ..., "track": ..., "t_ms": ...}``)
    resolvable against the run's span log.
    """

    alert_id: int
    rule: str
    kind: str
    severity: str
    scope: str
    opened_ms: float
    closed_ms: float | None = None
    value: float = 0.0
    threshold: float = 0.0
    labels: tuple = ()
    evidence: tuple = ()

    def __post_init__(self):
        severity_rank(self.severity)

    @property
    def active(self):
        return self.closed_ms is None

    def duration_ms(self, end_ms=None):
        closed = self.closed_ms
        if closed is None:
            closed = self.opened_ms if end_ms is None else float(end_ms)
        return max(0.0, closed - self.opened_ms)

    def to_dict(self):
        row = {"alert_id": self.alert_id, "rule": self.rule,
               "kind": self.kind, "severity": self.severity,
               "scope": self.scope, "opened_ms": self.opened_ms,
               "closed_ms": self.closed_ms, "value": self.value,
               "threshold": self.threshold,
               "labels": [list(pair) for pair in self.labels]}
        if self.evidence:
            row["evidence"] = list(self.evidence)
        return row

    @classmethod
    def from_dict(cls, row):
        try:
            return cls(
                alert_id=int(row["alert_id"]), rule=row["rule"],
                kind=row["kind"], severity=row["severity"],
                scope=row["scope"],
                opened_ms=float(row["opened_ms"]),
                closed_ms=None if row.get("closed_ms") is None
                else float(row["closed_ms"]),
                value=float(row.get("value", 0.0)),
                threshold=float(row.get("threshold", 0.0)),
                labels=tuple(tuple(pair) for pair in
                             row.get("labels", ())),
                evidence=tuple(row.get("evidence", ())))
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(f"malformed alert row {row!r}: {exc}")


@dataclass
class Incident:
    """Overlapping alerts on one scope, fused into one event."""

    incident_id: int
    scope: str
    opened_ms: float
    closed_ms: float | None
    severity: str
    alert_ids: tuple
    #: The earliest-opened member — the incident's probable root cause —
    #: as ``{"rule", "alert_id", "evidence"}`` for span linkage.
    root_cause: dict = field(default_factory=dict)

    def duration_ms(self, end_ms=None):
        closed = self.closed_ms
        if closed is None:
            closed = self.opened_ms if end_ms is None else float(end_ms)
        return max(0.0, closed - self.opened_ms)

    def to_dict(self):
        return {"incident_id": self.incident_id, "scope": self.scope,
                "opened_ms": self.opened_ms, "closed_ms": self.closed_ms,
                "severity": self.severity,
                "alert_ids": list(self.alert_ids),
                "root_cause": self.root_cause}

    @classmethod
    def from_dict(cls, row):
        try:
            return cls(
                incident_id=int(row["incident_id"]), scope=row["scope"],
                opened_ms=float(row["opened_ms"]),
                closed_ms=None if row.get("closed_ms") is None
                else float(row["closed_ms"]),
                severity=row["severity"],
                alert_ids=tuple(int(i) for i in row["alert_ids"]),
                root_cause=dict(row.get("root_cause", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise TelemetryError(
                f"malformed incident row {row!r}: {exc}")


def check_join_gap(join_gap_ms):
    """Reject a negative, NaN or infinite incident join gap."""
    if not 0 <= join_gap_ms < math.inf:
        raise TelemetryError(
            f"join_gap_ms must be finite and >= 0, got {join_gap_ms}")


def group_incidents(alerts, join_gap_ms=0.0, end_ms=None):
    """Fuse time-overlapping alerts per scope into incidents.

    Alerts on one scope whose ``[opened, closed]`` intervals overlap
    (or sit within ``join_gap_ms`` of each other) join one incident;
    still-open alerts extend to ``end_ms`` (or to their open instant
    when no horizon is given). Deterministic: scopes in sorted order,
    members by (opened_ms, alert_id), incident ids dense from 0.
    """
    check_join_gap(join_gap_ms)
    by_scope = {}
    for alert in alerts:
        by_scope.setdefault(alert.scope, []).append(alert)

    incidents = []
    for scope in sorted(by_scope):
        members = sorted(by_scope[scope],
                         key=lambda a: (a.opened_ms, a.alert_id))
        current = []
        current_end = None
        for alert in members:
            closed = alert.closed_ms
            if closed is None:
                closed = alert.opened_ms if end_ms is None \
                    else max(float(end_ms), alert.opened_ms)
            if current and alert.opened_ms <= current_end + join_gap_ms:
                current.append(alert)
                current_end = max(current_end, closed)
            else:
                if current:
                    incidents.append((scope, current, current_end))
                current = [alert]
                current_end = closed
        if current:
            incidents.append((scope, current, current_end))

    out = []
    for incident_id, (scope, members, closed) in enumerate(incidents):
        root = members[0]
        still_open = any(a.closed_ms is None for a in members)
        out.append(Incident(
            incident_id=incident_id, scope=scope,
            opened_ms=members[0].opened_ms,
            closed_ms=None if still_open and end_ms is None else closed,
            severity=max((a.severity for a in members),
                         key=severity_rank),
            alert_ids=tuple(a.alert_id for a in members),
            root_cause={"rule": root.rule, "alert_id": root.alert_id,
                        "evidence": list(root.evidence)}))
    return out


@dataclass
class IncidentReport:
    """The monitoring outcome of one run: alerts, incidents, health."""

    alerts: list
    incidents: list
    health: dict = field(default_factory=dict)  # scope -> score
    end_ms: float | None = None

    @property
    def num_alerts(self):
        return len(self.alerts)

    @property
    def num_incidents(self):
        return len(self.incidents)

    def worst_severity(self):
        if not self.alerts:
            return None
        return max((a.severity for a in self.alerts),
                   key=severity_rank)

    def summary(self):
        """JSON-friendly deterministic dump (the canonical stream)."""
        return {
            "end_ms": self.end_ms,
            "health": {scope: self.health[scope]
                       for scope in sorted(self.health)},
            "alerts": [a.to_dict() for a in self.alerts],
            "incidents": [i.to_dict() for i in self.incidents],
        }

    # -- timeline rendering ---------------------------------------------------------

    def spans(self):
        """Alert/incident lanes for :func:`~repro.telemetry.render_timeline`.

        One ``alert``-category span per alert on ``{scope}/alerts`` and
        one ``incident``-category span per incident on
        ``{scope}/incidents`` — concatenate with a traced run's spans
        to see firings lined up against the compute/queue/budget lanes
        that explain them.
        """
        rows = []
        for alert in self.alerts:
            dur = alert.duration_ms(self.end_ms)
            rows.append(Span(
                f"{alert.rule}", "alert", alert.opened_ms,
                dur if dur > 0 else None, f"{alert.scope}/alerts",
                args={"severity": alert.severity,
                      "value": alert.value,
                      "threshold": alert.threshold}))
        for incident in self.incidents:
            dur = incident.duration_ms(self.end_ms)
            rows.append(Span(
                f"incident:{incident.incident_id}", "incident",
                incident.opened_ms, dur if dur > 0 else None,
                f"{incident.scope}/incidents",
                args={"severity": incident.severity,
                      "alerts": len(incident.alert_ids),
                      "root": incident.root_cause.get("rule")}))
        return rows

    # -- JSONL round trip -----------------------------------------------------------

    def to_jsonl(self, path):
        """One typed JSON row per alert/incident (+ a header row).

        The row discriminator key is ``"row"`` — ``"kind"`` belongs to
        the alert payload (the rule kind that fired it).
        """
        with open(path, "w", encoding="utf-8") as f:
            header = {"row": "monitor", "end_ms": self.end_ms,
                      "health": {s: self.health[s]
                                 for s in sorted(self.health)}}
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for alert in self.alerts:
                row = {"row": "alert"}
                row.update(alert.to_dict())
                f.write(json.dumps(row, sort_keys=True) + "\n")
            for incident in self.incidents:
                row = {"row": "incident"}
                row.update(incident.to_dict())
                f.write(json.dumps(row, sort_keys=True) + "\n")
        return 1 + len(self.alerts) + len(self.incidents)

    @classmethod
    def from_jsonl(cls, path):
        alerts, incidents, health, end_ms = [], [], {}, None
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TelemetryError(
                        f"{path}:{lineno}: not a JSON row ({exc})")
                row_kind = row.get("row")
                if row_kind == "monitor":
                    end_ms = row.get("end_ms")
                    health = dict(row.get("health", {}))
                elif row_kind == "alert":
                    alerts.append(Alert.from_dict(row))
                elif row_kind == "incident":
                    incidents.append(Incident.from_dict(row))
                else:
                    raise TelemetryError(
                        f"{path}:{lineno}: unknown row type "
                        f"{row_kind!r}")
        return cls(alerts=alerts, incidents=incidents, health=health,
                   end_ms=end_ms)
