"""Unit + end-to-end tests for repro.telemetry.monitor.

Covers the rule vocabulary (validation, matching, JSON round trip),
each watchdog's open/close state machine fed directly through the
monitor's observation API, incident grouping, health scoring, the
IncidentReport JSONL round trip, and an end-to-end event-engine run
where deliberately hostile traffic fires the SLO rules.
"""

import json
import math

import pytest

from repro.cluster import ClusterSimulator
from repro.errors import TelemetryError
from repro.serving import synthetic_registry, synthetic_traffic
from repro.telemetry import (
    MetricsRegistry,
    TelemetryMonitor,
    default_rules,
    group_incidents,
    render_timeline,
)
from repro.telemetry.monitor import (
    Alert,
    BurnRateRule,
    FlapRule,
    IncidentReport,
    LatencyQuantileRule,
    QueueDepthRule,
    SwapThrashRule,
    ThrottleStormRule,
    parse_rules,
    rule_to_dict,
    severity_rank,
)


class TestRules:
    def test_error_budget(self):
        rule = BurnRateRule("r", slo_target=0.999)
        assert rule.error_budget == pytest.approx(0.001)

    def test_severity_ladder(self):
        assert severity_rank("warn") < severity_rank("ticket") \
            < severity_rank("page")
        with pytest.raises(TelemetryError):
            severity_rank("catastrophe")

    @pytest.mark.parametrize("kwargs", [
        {"slo_target": 0.0},
        {"slo_target": 1.0},
        {"fast_window_ms": 100.0, "slow_window_ms": 50.0},
        {"min_samples": 0},
        {"severity": "nope"},
    ])
    def test_burn_rule_validation(self, kwargs):
        with pytest.raises(TelemetryError):
            BurnRateRule("bad", **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"q": 1.5}, {"threshold_ms": 0.0}, {"window_ms": -1.0},
    ])
    def test_latency_rule_validation(self, kwargs):
        with pytest.raises(TelemetryError):
            LatencyQuantileRule("bad", **kwargs)

    def test_matching_scopes_streams(self):
        rule = BurnRateRule("r", task="sst2", slo_ms=50.0)
        assert rule.matches("cluster", "sst2", 50.0)
        assert not rule.matches("cluster", "mnli", 50.0)
        assert not rule.matches("cluster", "sst2", 75.0)
        wild = ThrottleStormRule("w")
        assert wild.matches("anything")
        pinned = ThrottleStormRule("p", scope="edge-a")
        assert pinned.matches("edge-a") and not pinned.matches("edge-b")

    def test_default_rules_cover_every_kind(self):
        kinds = {r.kind for r in default_rules()}
        assert kinds == {"burn_rate", "latency_quantile",
                         "throttle_storm", "queue_depth", "swap_thrash",
                         "park_wake_flap"}

    def test_parse_roundtrip(self, tmp_path):
        rules = default_rules()
        rows = [rule_to_dict(r) for r in rules]
        assert parse_rules(rows) == rules
        assert parse_rules(json.dumps(rows)) == rules
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(rows))
        assert parse_rules(str(path)) == rules

    @pytest.mark.parametrize("rows,message", [
        ([{"kind": "no_such", "name": "x"}], "unknown rule kind"),
        ([{"kind": "queue_depth", "name": "x", "bogus": 1}],
         "unknown fields"),
        ([{"kind": "queue_depth"}], "needs a name"),
        ([{"kind": "queue_depth", "name": "x"},
          {"kind": "swap_thrash", "name": "x"}], "duplicate rule"),
        ("not json [", "not valid JSON"),
        ('{"rules": [{"kind": "queue_depth"}]}', "JSON array"),
        ([{"kind": "queue_depth", "name": "x", "sustain_ms": math.nan}],
         "sustain_ms must be finite"),
        ([{"kind": "queue_depth", "name": "x", "sustain_ms": math.inf}],
         "sustain_ms must be finite"),
    ])
    def test_parse_errors(self, rows, message):
        with pytest.raises(TelemetryError, match=message):
            parse_rules(rows)

    def test_monitor_rejects_duplicate_names(self):
        with pytest.raises(TelemetryError, match="duplicate"):
            TelemetryMonitor((QueueDepthRule("x"), SwapThrashRule("x")))


class TestBurnRate:
    def rule(self, **kw):
        kw.setdefault("slo_target", 0.9)  # 10% budget: easy to burn
        kw.setdefault("fast_window_ms", 50.0)
        kw.setdefault("slow_window_ms", 200.0)
        kw.setdefault("fast_burn", 2.0)
        kw.setdefault("slow_burn", 1.5)
        kw.setdefault("min_samples", 10)
        return BurnRateRule("burn", **kw)

    def test_fires_only_when_both_windows_burn(self):
        mon = TelemetryMonitor((self.rule(),))
        # Healthy traffic: plenty of samples, no violations.
        for i in range(10):
            mon.observe_completions("c", "sst2", 50.0, float(i), 5, 0,
                                    [1.0] * 5)
        assert mon.num_alerts == 0
        # Sudden 50% violation ratio: fast burn 5.0, slow catches up.
        for i in range(10, 20):
            mon.observe_completions("c", "sst2", 50.0, float(i), 4, 2,
                                    [60.0] * 4, viol_ids=(i, i + 100))
        assert mon.num_alerts == 1
        alert = mon.active_alerts()[0]
        assert alert.kind == "burn_rate"
        assert alert.severity == "page"
        assert alert.value >= 2.0
        assert alert.evidence  # violator request ids as span locators
        assert alert.evidence[0]["span"].startswith("req:")

    def test_recovery_closes_the_alert(self):
        mon = TelemetryMonitor((self.rule(),))
        for i in range(20):
            mon.observe_completions("c", "sst2", 50.0, float(i), 4, 2,
                                    [60.0] * 4)
        assert len(mon.active_alerts()) == 1
        # Clean traffic pushes the fast window back under the burn.
        for i in range(20, 40):
            mon.observe_completions("c", "sst2", 50.0, float(i) * 10,
                                    5, 0, [1.0] * 5)
        assert not mon.active_alerts()
        assert mon.num_alerts == 1  # the episode stays in history
        report = mon.report()
        assert report.alerts[0].closed_ms is not None

    def test_min_samples_gate(self):
        mon = TelemetryMonitor((self.rule(min_samples=100),))
        for i in range(20):
            mon.observe_completions("c", "sst2", 50.0, float(i), 4, 4,
                                    [60.0] * 4)
        assert mon.num_alerts == 0

    def test_streams_are_independent(self):
        mon = TelemetryMonitor((self.rule(),))
        for i in range(20):
            mon.observe_completions("c", "sst2", 50.0, float(i), 4, 2,
                                    [60.0] * 4)
            mon.observe_completions("c", "mnli", 75.0, float(i), 4, 0,
                                    [1.0] * 4)
        alerts = mon.active_alerts()
        assert len(alerts) == 1
        assert ("task", "sst2") in alerts[0].labels


class TestLatencyQuantile:
    def test_fires_and_closes_on_quantile(self):
        rule = LatencyQuantileRule("p99", q=0.99, threshold_ms=50.0,
                                   window_ms=100.0, min_samples=10)
        mon = TelemetryMonitor((rule,))
        for i in range(10):
            mon.observe_completions("c", "sst2", 50.0, float(i), 4, 0,
                                    [200.0, 180.0, 150.0, 120.0])
        alerts = mon.active_alerts()
        assert len(alerts) == 1
        assert alerts[0].kind == "latency_quantile"
        assert alerts[0].value > 50.0
        # Fast traffic far later: old window evicted, quantile drops.
        for i in range(10):
            mon.observe_completions("c", "sst2", 50.0,
                                    1000.0 + i, 4, 0, [1.0] * 4)
        assert not mon.active_alerts()


class TestWatchdogs:
    def test_throttle_storm_opens_at_threshold(self):
        mon = TelemetryMonitor(
            (ThrottleStormRule("storm", window_ms=100.0, threshold=4),))
        for i in range(3):
            mon.observe_throttle("c", float(i))
        assert mon.num_alerts == 0
        mon.observe_throttle("c", 3.0)
        assert len(mon.active_alerts()) == 1
        assert mon.active_alerts()[0].kind == "throttle_storm"
        # A later same-scope observation past the window closes it.
        mon.observe_queue_depth("c", 500.0, 0)
        assert not mon.active_alerts()

    def test_throttle_window_evicts(self):
        mon = TelemetryMonitor(
            (ThrottleStormRule("storm", window_ms=10.0, threshold=3),))
        for t in (0.0, 20.0, 40.0, 60.0):  # never 3 within 10ms
            mon.observe_throttle("c", t)
        assert mon.num_alerts == 0

    def test_queue_depth_needs_sustain(self):
        rule = QueueDepthRule("blow", depth=8, sustain_ms=50.0)
        mon = TelemetryMonitor((rule,))
        mon.observe_queue_depth("c", 0.0, 20)   # above, starts clock
        mon.observe_queue_depth("c", 30.0, 20)  # above, not sustained
        assert mon.num_alerts == 0
        mon.observe_queue_depth("c", 60.0, 20)  # 60ms above: fires
        assert len(mon.active_alerts()) == 1
        alert = mon.active_alerts()[0]
        assert alert.kind == "queue_depth" and alert.value == 20
        mon.observe_queue_depth("c", 70.0, 2)   # drains: closes
        assert not mon.active_alerts()
        # A dip resets the sustain clock entirely.
        mon.observe_queue_depth("c", 80.0, 20)
        mon.observe_queue_depth("c", 200.0, 20)
        assert len(mon.active_alerts()) == 1  # new episode, new alert
        assert mon.num_alerts == 2

    def test_swap_thrash_is_per_device(self):
        mon = TelemetryMonitor(
            (SwapThrashRule("thrash", window_ms=100.0, threshold=3),))
        for i in range(3):
            mon.observe_swap("c", float(i), "sst2", accel_id=0)
            mon.observe_swap("c", float(i), "mnli", accel_id=1)
        alerts = mon.active_alerts()
        assert len(alerts) == 2
        assert {a.labels[0] for a in alerts} == {("accel", 0),
                                                ("accel", 1)}

    def test_flap_rule_counts_parks_and_wakes(self):
        mon = TelemetryMonitor(
            (FlapRule("flap", window_ms=100.0, threshold=4),))
        for i, action in enumerate(("park", "wake", "park", "wake")):
            mon.observe_scale("c", float(i), 0, action)
        assert len(mon.active_alerts()) == 1
        assert mon.active_alerts()[0].kind == "park_wake_flap"


class TestIncidents:
    def alert(self, i, scope, opened, closed, severity="warn"):
        return Alert(alert_id=i, rule=f"r{i}", kind="queue_depth",
                     severity=severity, scope=scope, opened_ms=opened,
                     closed_ms=closed)

    def test_overlap_merges_gap_splits(self):
        alerts = [self.alert(0, "c", 0.0, 10.0),
                  self.alert(1, "c", 5.0, 20.0, "page"),
                  self.alert(2, "c", 40.0, 50.0)]
        incidents = group_incidents(alerts, join_gap_ms=5.0)
        assert [i.alert_ids for i in incidents] == [(0, 1), (2,)]
        assert incidents[0].severity == "page"  # worst member wins
        assert incidents[0].root_cause["alert_id"] == 0
        assert incidents[0].opened_ms == 0.0
        assert incidents[0].closed_ms == 20.0
        assert [i.incident_id for i in incidents] == [0, 1]

    def test_join_gap_fuses_near_misses(self):
        alerts = [self.alert(0, "c", 0.0, 10.0),
                  self.alert(1, "c", 14.0, 20.0)]
        assert len(group_incidents(alerts, join_gap_ms=0.0)) == 2
        assert len(group_incidents(alerts, join_gap_ms=5.0)) == 1

    def test_scopes_never_merge(self):
        alerts = [self.alert(0, "edge-a", 0.0, 10.0),
                  self.alert(1, "edge-b", 5.0, 15.0)]
        incidents = group_incidents(alerts)
        assert len(incidents) == 2
        assert [i.scope for i in incidents] == ["edge-a", "edge-b"]

    def test_negative_gap_rejected(self):
        # NaN would silently keep every alert its own incident.
        for gap in (-1.0, math.nan, math.inf):
            with pytest.raises(TelemetryError, match="join_gap_ms"):
                group_incidents([], join_gap_ms=gap)
            with pytest.raises(TelemetryError, match="join_gap_ms"):
                TelemetryMonitor(join_gap_ms=gap)


class TestHealthAndReport:
    def monitor_with_alerts(self):
        mon = TelemetryMonitor((
            SwapThrashRule("thrash", window_ms=100.0, threshold=2,
                           severity="warn"),
            ThrottleStormRule("storm", window_ms=100.0, threshold=2,
                              severity="page"),
        ), registry=MetricsRegistry())
        mon.observe_swap("c", 0.0, "sst2", accel_id=1)
        mon.observe_swap("c", 1.0, "sst2", accel_id=1)
        mon.observe_throttle("c", 2.0)
        mon.observe_throttle("c", 3.0)
        return mon

    def test_health_penalties(self):
        mon = self.monitor_with_alerts()
        # warn (0.1) + page (0.5) active on the scope.
        assert mon.health("c") == pytest.approx(0.4)
        assert mon.health("elsewhere") == 1.0
        # Device 1 carries the scope-wide page + its own swap warn;
        # device 0 only the scope-wide page.
        assert mon.device_health("c", 1) == pytest.approx(0.4)
        assert mon.device_health("c", 0) == pytest.approx(0.5)

    def test_finalize_snapshots_health_then_closes(self):
        mon = self.monitor_with_alerts()
        report = mon.finalize(end_ms=100.0)
        assert report.health["c"] == pytest.approx(0.4)
        assert all(a.closed_ms == 100.0 for a in report.alerts)
        assert not mon.active_alerts()
        gauge = mon.registry.gauge("health_score", scope="c")
        assert gauge.value == pytest.approx(0.4)
        device = mon.registry.gauge("health_score", scope="c",
                                    accel="accel1")
        assert device.value == pytest.approx(0.4)

    def test_report_auto_finalizes_and_is_frozen(self):
        mon = self.monitor_with_alerts()
        report = mon.report()
        assert report.end_ms == 3.0  # last observation instant
        assert mon.report() is report

    def test_jsonl_roundtrip_lossless(self, tmp_path):
        mon = self.monitor_with_alerts()
        report = mon.finalize(end_ms=50.0)
        path = tmp_path / "alerts.jsonl"
        rows = report.to_jsonl(str(path))
        assert rows == 1 + report.num_alerts + report.num_incidents
        loaded = IncidentReport.from_jsonl(str(path))
        assert json.dumps(loaded.summary(), sort_keys=True) == \
            json.dumps(report.summary(), sort_keys=True)

    def test_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"row": "mystery"}\n')
        with pytest.raises(TelemetryError, match="unknown row"):
            IncidentReport.from_jsonl(str(path))
        path.write_text("not json\n")
        with pytest.raises(TelemetryError, match="not a JSON row"):
            IncidentReport.from_jsonl(str(path))

    def test_timeline_lanes(self):
        mon = self.monitor_with_alerts()
        report = mon.finalize(end_ms=50.0)
        spans = report.spans()
        assert {s.cat for s in spans} == {"alert", "incident"}
        text = render_timeline(spans, width=40)
        assert "c/alerts" in text and "c/incidents" in text


class TestEndToEnd:
    def test_hostile_traffic_fires_slo_rules(self):
        registry = synthetic_registry(("sst2", "mnli"), n=64, seed=1)
        trace = synthetic_traffic(registry, 600, seed=1,
                                  mean_interarrival_ms=0.05,
                                  targets_ms=(5.0,), modes=("base",))
        rules = (
            BurnRateRule("burn", slo_target=0.999, fast_window_ms=50.0,
                         slow_window_ms=250.0, fast_burn=14.0,
                         slow_burn=6.0, min_samples=10),
            LatencyQuantileRule("p99", q=0.99, threshold_ms=5.0,
                                window_ms=250.0, min_samples=10),
        )
        mon = TelemetryMonitor(rules)
        sim = ClusterSimulator(registry, num_accelerators=2,
                               policy="affinity", monitor=mon)
        sim.run_events(trace)
        report = mon.report()
        kinds = {a.kind for a in report.alerts}
        assert "burn_rate" in kinds and "latency_quantile" in kinds
        assert report.num_incidents >= 1
        assert report.incidents[0].root_cause["rule"]

    def test_monitored_report_bit_identical(self):
        registry = synthetic_registry(("sst2", "mnli"), n=64, seed=0)
        trace = synthetic_traffic(registry, 400, seed=0)
        plain = ClusterSimulator(registry, num_accelerators=4,
                                 policy="affinity").run_events(trace)
        mon = TelemetryMonitor()
        watched = ClusterSimulator(registry, num_accelerators=4,
                                   policy="affinity",
                                   monitor=mon).run_events(trace)
        assert json.dumps(watched.summary(), sort_keys=True) == \
            json.dumps(plain.summary(), sort_keys=True)

    def test_smoke_gate_passes(self):
        from repro.telemetry.monitor.__main__ import run_smoke

        streams = run_smoke(num_requests=150, verbose=False)
        assert set(streams) == {"cluster", "overload", "fleet",
                                "openmetrics_lines"}
