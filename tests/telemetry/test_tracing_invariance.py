"""The observability contract: tracing is read-only observation.

Reports must be bit-identical with tracing on or off — on the event
engine, the vectorized replay engine, and the fleet orchestrator — and
the traced span-energy rollup must reconcile against the run's energy
ledgers at 1e-9 (the same tolerance every ledger audit in this repo
uses). Both cores also observe alike: the same span rows, metric
samples and alert stream."""

import json
import os

import pytest

from repro.cluster import ClusterSimulator, load_trace
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.serving import synthetic_registry
from repro.smoke import reference_fleet, reference_workload
from repro.telemetry import (
    Gauge,
    MetricsRegistry,
    TelemetryMonitor,
    Tracer,
    reconcile_cluster,
    reconcile_fleet,
)
from repro.telemetry.monitor import (
    BurnRateRule,
    LatencyQuantileRule,
    QueueDepthRule,
    SwapThrashRule,
    ThrottleStormRule,
)

REFERENCE_TASKS = ("sst2", "mnli", "qqp", "qnli")

#: Rules tight enough that the bursty trace fires them, so comparing
#: the two cores' alert streams is not vacuous.
TIGHT_RULES = (
    BurnRateRule("burn", slo_target=0.999, fast_window_ms=50.0,
                 slow_window_ms=250.0, fast_burn=2.0, slow_burn=1.0,
                 min_samples=5),
    LatencyQuantileRule("p95", q=0.95, threshold_ms=20.0,
                        window_ms=100.0, min_samples=5),
    QueueDepthRule("queue", depth=4, sustain_ms=5.0),
    SwapThrashRule("thrash", window_ms=100.0, threshold=2),
    ThrottleStormRule("storm", window_ms=100.0, threshold=2),
)

#: Configurations the cross-core identity test runs on both cores.
CORE_SETUPS = {
    "affinity-4": dict(policy="affinity", num_accelerators=4),
    "fifo-8-budget": dict(policy="fifo", num_accelerators=8,
                          energy_budget_mw=150.0,
                          standby_timeout_ms=20.0),
    "fifo-4-deadline": dict(policy="fifo", num_accelerators=4,
                            deadline_aware=True, deadline_sizing=True,
                            adaptive_timeout=True),
}


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(REFERENCE_TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def bursty():
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "traces", "reference_bursty.jsonl")
    return load_trace(os.path.abspath(path))


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
    def test_traced_report_bit_identical(self, registry, bursty, engine):
        untraced = run_cluster(registry, bursty, engine)
        tracer = Tracer()
        traced = run_cluster(registry, bursty, engine, tracer=tracer,
                             metrics=MetricsRegistry())
        assert canonical(traced) == canonical(untraced)
        assert tracer.emitted > 0

    @pytest.mark.parametrize("engine", ["event", "vector"])
    def test_span_energy_reconciles_at_1e9(self, registry, bursty,
                                           engine):
        tracer = Tracer()
        report = run_cluster(registry, bursty, engine, tracer=tracer)
        assert reconcile_cluster(tracer, report, tol=1e-9)
        # Every audited category actually carries traced energy.
        assert tracer.energy_mj(cat="compute", scope="cluster") > 0
        assert tracer.energy_mj(cat="idle", scope="cluster") > 0

    @pytest.mark.parametrize("setup", sorted(CORE_SETUPS))
    def test_cores_observe_identically(self, registry, bursty, setup):
        """Both cores emit the same span rows (one compute span per
        run), sample the same metrics and raise the same alerts."""
        seen = {}
        for engine in ("event", "vector"):
            tracer = Tracer()
            metrics = MetricsRegistry()
            monitor = TelemetryMonitor(TIGHT_RULES)
            run_cluster(registry, bursty, engine, tracer=tracer,
                        metrics=metrics, monitor=monitor,
                        **CORE_SETUPS[setup])
            seen[engine] = {
                "spans": sorted(json.dumps(s.to_dict(), sort_keys=True)
                                for s in tracer.iter_spans()),
                "metrics": metrics.summary(),
                "series": {(name, labels): list(inst.series)
                           for name, labels, inst in metrics.instruments()
                           if isinstance(inst, Gauge)},
                "alerts": monitor.report().summary(),
            }
        vector = seen["vector"]
        cats = {json.loads(row)["cat"] for row in vector["spans"]}
        assert {"window", "queue", "swap", "compute"} <= cats
        assert vector["alerts"]["alerts"]
        for key, observed in seen["event"].items():
            assert observed == vector[key], key

    def test_preempted_runs_span_their_completed_members(self, registry,
                                                         bursty):
        """Under EDF preemption a run's compute span covers only the
        members that completed: each served request sits in exactly
        one span, and span energy still reconciles with the ledgers."""
        tracer = Tracer()
        report = run_cluster(registry, bursty, "event", tracer=tracer,
                             policy="edf")
        assert report.preemptions > 0
        assert reconcile_cluster(tracer, report, tol=1e-9)
        served = []
        for span in tracer.iter_spans():
            args = span.to_dict().get("args", {})
            if span.cat == "compute" and "rids" in args:
                assert args["requests"] == len(args["rids"]) \
                    == len(args["finish"]) == len(args["energy"])
                served.extend(args["rids"])
        assert sorted(served) == sorted(
            rec.request.request_id for rec in report.records)

    def test_event_engine_traces_budget_and_preemption_paths(
            self, registry, bursty):
        tracer = Tracer()
        report = run_cluster(registry, bursty, "event", tracer=tracer,
                             energy_budget_mw=200.0,
                             standby_timeout_ms=20.0)
        assert reconcile_cluster(tracer, report, tol=1e-9)
        cats = {s.cat for s in tracer.iter_spans()}
        assert "budget" in cats
        assert "transition" in cats

    def test_traced_run_is_deterministic(self, registry, bursty):
        def log():
            tracer = Tracer()
            run_cluster(registry, bursty, "event", tracer=tracer)
            return [json.dumps(s.to_dict(), sort_keys=True)
                    for s in tracer.iter_spans()]
        assert log() == log()


class TestFleetInvariance:
    @pytest.fixture(scope="class")
    def workload(self):
        return reference_workload(300, 64, 0)

    def run_fleet(self, workload, **kwargs):
        registry, trace = workload
        fleet = FleetOrchestrator(registry, reference_fleet(),
                                  routing="energy",
                                  autoscaler=FleetAutoscaler(), **kwargs)
        return fleet.run(trace)

    def test_traced_fleet_bit_identical_and_reconciles(self, workload):
        untraced = self.run_fleet(workload)
        tracer = Tracer()
        traced = self.run_fleet(workload, tracer=tracer,
                                metrics=MetricsRegistry())
        assert canonical(traced) == canonical(untraced)
        assert reconcile_fleet(tracer, traced, tol=1e-9)

    def test_fleet_spans_cover_every_site_and_the_frontend(self,
                                                           workload):
        tracer = Tracer()
        report = self.run_fleet(workload, tracer=tracer)
        scopes = {s.scope for s in tracer.iter_spans()}
        assert {o.site_id for o in report.sites} <= scopes
        assert "fleet" in scopes
        tracks = {s.track for s in tracer.iter_spans()}
        assert "fleet/router" in tracks and "fleet/scaler" in tracks
        # RTT legs: every site has ingress and egress network spans.
        for outcome in report.sites:
            net = [s for s in tracer.iter_spans()
                   if s.track == f"{outcome.site_id}/net"]
            assert any(s.name == "ingress" for s in net)
            assert any(s.name == "egress" for s in net)

    def test_per_site_metrics_match_the_report(self, workload):
        metrics = MetricsRegistry()
        report = self.run_fleet(workload, metrics=metrics)
        for outcome in report.sites:
            served = metrics.counter("requests_served",
                                     scope=outcome.site_id)
            assert served.value == len(outcome.report.records)


class TestSpillInvariance:
    def test_spilling_tracer_same_report_and_rollup(self, registry,
                                                    bursty, tmp_path):
        untraced = run_cluster(registry, bursty, "vector")
        full = Tracer()
        run_cluster(registry, bursty, "vector", tracer=full)
        with Tracer(max_spans=128,
                    spill_path=str(tmp_path / "spill.jsonl")) as spiller:
            report = run_cluster(registry, bursty, "vector",
                                 tracer=spiller)
            assert canonical(report) == canonical(untraced)
            assert spiller.spilled > 0
            assert spiller.rollup() == full.rollup()
            assert [s.to_dict() for s in spiller.iter_spans()] \
                == [s.to_dict() for s in full.iter_spans()]
            assert reconcile_cluster(spiller, report, tol=1e-9)
