"""The observability contract: tracing is read-only observation.

Reports must be bit-identical with tracing on or off — on the event
engine, the vectorized replay engine, and the fleet orchestrator — and
the traced span-energy rollup must reconcile against the run's energy
ledgers at 1e-9 (the same tolerance every ledger audit in this repo
uses)."""

import json
import os

import pytest

from repro.cluster import ClusterSimulator, load_trace
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.fleet.__main__ import reference_fleet, reference_workload
from repro.serving import synthetic_registry
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    reconcile_cluster,
    reconcile_fleet,
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

    def test_engines_emit_identical_window_queue_swap_spans(
            self, registry, bursty):
        """Batch-granular spans agree across engines by construction;
        only compute differs (per-request vs per-batch)."""
        logs = {}
        for engine in ("event", "vector"):
            tracer = Tracer()
            run_cluster(registry, bursty, engine, tracer=tracer)
            logs[engine] = sorted(
                (json.dumps(s.to_dict(), sort_keys=True)
                 for s in tracer.iter_spans()
                 if s.cat in ("window", "queue", "swap")))
        assert logs["event"] == logs["vector"]

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
