"""The monitoring contract: alerting is read-only, engine-invariant.

Three guarantees, all on the reference bursty trace the tracing
invariance suite uses:

* a monitored run's report is bit-identical to an unmonitored one on
  both engines (the monitor observes, it never steers — unless
  ``health_routing`` is explicitly enabled);
* the Alert/Incident stream itself is bit-identical across the event
  and vector engines, with or without a spilling tracer attached —
  the feeds fire at corresponding commit points with identical
  float64 arithmetic;
* traced+monitored runs still reconcile their span energy against the
  ledgers at 1e-9.
"""

import json
import os

import pytest

from repro.cluster import ClusterSimulator, load_trace
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.serving import synthetic_registry
from repro.smoke import reference_fleet, reference_workload
from repro.telemetry import (
    MetricsRegistry,
    TelemetryMonitor,
    Tracer,
    default_rules,
    reconcile_cluster,
    reconcile_fleet,
)
from repro.telemetry.monitor import (
    BurnRateRule,
    LatencyQuantileRule,
    QueueDepthRule,
    SwapThrashRule,
)

REFERENCE_TASKS = ("sst2", "mnli", "qqp", "qnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(REFERENCE_TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def bursty():
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "traces", "reference_bursty.jsonl")
    return load_trace(os.path.abspath(path))


def tight_rules():
    """Rules sensitive enough that the bursty trace actually fires
    them — an empty alert stream would make identity checks vacuous."""
    return (
        BurnRateRule("burn", slo_target=0.999, fast_window_ms=50.0,
                     slow_window_ms=250.0, fast_burn=2.0, slow_burn=1.0,
                     min_samples=5),
        LatencyQuantileRule("p95", q=0.95, threshold_ms=20.0,
                            window_ms=100.0, min_samples=5),
        QueueDepthRule("queue", depth=4, sustain_ms=5.0),
        SwapThrashRule("thrash", window_ms=100.0, threshold=2),
    )


def run_cluster(registry, trace, engine, **kwargs):
    kwargs.setdefault("num_accelerators", 4)
    kwargs.setdefault("policy", "affinity")
    sim = ClusterSimulator(registry, **kwargs)
    report = sim.run(trace) if engine == "vector" else sim.run_events(trace)
    assert report.engine == engine
    return report


def canonical(report):
    return json.dumps(report.summary(), sort_keys=True)


class TestClusterInvariance:
    @pytest.mark.parametrize("engine", ["event", "vector"])
    def test_monitored_report_bit_identical(self, registry, bursty,
                                            engine):
        plain = run_cluster(registry, bursty, engine)
        monitor = TelemetryMonitor(tight_rules())
        watched = run_cluster(registry, bursty, engine, monitor=monitor)
        assert canonical(watched) == canonical(plain)
        assert monitor.num_alerts > 0  # the stream is non-trivial

    def test_alert_stream_identical_across_engines(self, registry,
                                                   bursty):
        streams = {}
        for engine in ("event", "vector"):
            monitor = TelemetryMonitor(tight_rules())
            run_cluster(registry, bursty, engine, monitor=monitor)
            streams[engine] = canonical(monitor.report())
        assert streams["event"] == streams["vector"]

    def test_default_rules_also_engine_invariant(self, registry,
                                                 bursty):
        streams = {}
        for engine in ("event", "vector"):
            monitor = TelemetryMonitor(default_rules())
            run_cluster(registry, bursty, engine, monitor=monitor)
            streams[engine] = canonical(monitor.report())
        assert streams["event"] == streams["vector"]

    @pytest.mark.parametrize("engine", ["event", "vector"])
    def test_spilling_tracer_leaves_stream_unchanged(self, registry,
                                                     bursty, engine,
                                                     tmp_path):
        bare = TelemetryMonitor(tight_rules())
        run_cluster(registry, bursty, engine, monitor=bare)
        spill = str(tmp_path / f"spill_{engine}.jsonl")
        tracer = Tracer(max_spans=64, spill_path=spill)
        spilled = TelemetryMonitor(tight_rules())
        report = run_cluster(registry, bursty, engine, tracer=tracer,
                             monitor=spilled,
                             metrics=MetricsRegistry())
        tracer.close()
        assert canonical(spilled.report()) == canonical(bare.report())
        assert reconcile_cluster(tracer, report, tol=1e-9)


class TestFleetInvariance:
    def run_fleet(self, monitor=None, tracer=None, **kwargs):
        registry, trace = reference_workload(num_requests=200)
        fleet = FleetOrchestrator(
            registry, reference_fleet(), routing="energy",
            autoscaler=FleetAutoscaler(), tracer=tracer,
            monitor=monitor, **kwargs)
        return fleet.run(trace)

    def test_monitored_fleet_bit_identical(self):
        plain = self.run_fleet()
        monitor = TelemetryMonitor(tight_rules())
        watched = self.run_fleet(monitor=monitor)
        assert canonical(watched) == canonical(plain)
        report = monitor.report()
        assert set(report.health) == {"edge-a", "edge-b", "edge-c"}

    def test_monitored_fleet_still_reconciles(self):
        tracer = Tracer()
        monitor = TelemetryMonitor(tight_rules(),
                                   registry=MetricsRegistry())
        report = self.run_fleet(monitor=monitor, tracer=tracer)
        assert reconcile_fleet(tracer, report, tol=1e-9)
        # Health gauges were sampled on the orchestrator tick.
        gauge = monitor.registry.gauge("health_score", scope="edge-a")
        assert gauge.samples > 0

    def test_health_routing_requires_monitor(self):
        from repro.errors import FleetError
        registry, _ = reference_workload(num_requests=10)
        with pytest.raises(FleetError):
            FleetOrchestrator(registry, reference_fleet(),
                              health_routing=True)

    def test_health_routing_runs_and_reconciles(self):
        tracer = Tracer()
        monitor = TelemetryMonitor(tight_rules())
        report = self.run_fleet(monitor=monitor, tracer=tracer,
                                health_routing=True)
        # Feedback may change the schedule — but never the physics:
        # conservation and the span-energy audit still hold.
        assert report.num_requests == 200
        assert reconcile_fleet(tracer, report, tol=1e-9)
