"""Columnar journey stitching against the per-request reference.

:func:`repro.telemetry.analysis.analyze` joins span columns by request
id and boxes journeys only on access. These tests hold it to the
per-request loop in ``journey_reference.py``: the same journeys field
for field and type for type, and the same hot paths, flamegraphs and
attribution, summed in the same order. They cover both cluster cores,
throttled and EDF-preempted runs, the autoscaled fleet, spilled and
JSONL sources and an empty source, and pin the laziness contract:
``len()``, the rollups and ``reconcile`` box nothing.
"""

import dataclasses
import json
import os

import pytest

import journey_reference as reference
from repro.cluster import ClusterSimulator, load_trace
from repro.errors import TelemetryError
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.serving import synthetic_registry
from repro.smoke import reference_fleet, reference_workload
from repro.telemetry import Tracer, write_spans_jsonl
from repro.telemetry.analysis import (Journey, Leg, TraceAnalysis,
                                      analyze, flamegraph_lines,
                                      hot_paths)
from repro.telemetry.tracer import Span

TASKS = ("sst2", "mnli", "qqp", "qnli")
BURSTY = os.path.join(os.path.dirname(__file__), "..", "..",
                      "benchmarks", "traces", "reference_bursty.jsonl")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def bursty():
    return load_trace(os.path.abspath(BURSTY))


def cluster(registry, trace, engine, tracer=None, **kwargs):
    kwargs.setdefault("num_accelerators", 4)
    kwargs.setdefault("policy", "affinity")
    tracer = Tracer() if tracer is None else tracer
    sim = ClusterSimulator(registry, tracer=tracer, **kwargs)
    report = sim.run(trace) if engine == "vector" \
        else sim.run_events(trace)
    assert report.engine == engine
    return tracer, report


def assert_same_journeys(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(Journey):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if field.name == "legs":
                assert len(x) == len(y)
                for leg_a, leg_b in zip(x, y):
                    for leg_field in dataclasses.fields(Leg):
                        u = getattr(leg_a, leg_field.name)
                        v = getattr(leg_b, leg_field.name)
                        assert type(u) is type(v) and u == v
            else:
                assert type(x) is type(y), field.name
                assert x == y, field.name


def assert_matches_reference(source):
    """analyze(source) equals the reference stitch, rollups included."""
    analysis = analyze(source)
    journeys, unattributed = reference.stitch(source)
    assert_same_journeys(analysis.journeys, journeys)
    oracle = TraceAnalysis(journeys, unattributed)
    assert json.dumps(analysis.to_dict(), sort_keys=True) \
        == json.dumps(oracle.to_dict(), sort_keys=True)
    assert analysis.unattributed == unattributed
    assert json.dumps(hot_paths(analysis)) \
        == json.dumps(reference.hot_paths(journeys))
    for weight in ("time", "energy"):
        assert flamegraph_lines(analysis, weight) \
            == reference.flamegraph_lines(journeys, unattributed, weight)
    assert analysis.attribution() \
        == reference.attribution(journeys, unattributed)
    return analysis, journeys


class TestColumnsMatchReference:
    @pytest.mark.parametrize("engine", ["vector", "event"])
    def test_cluster_cores(self, registry, bursty, engine):
        tracer, report = cluster(registry, bursty, engine)
        analysis, _ = assert_matches_reference(tracer)
        assert analysis.reconcile(report, tol=1e-9)

    @pytest.mark.parametrize("engine", ["vector", "event"])
    def test_throttled_runs(self, registry, bursty, engine):
        tracer, _ = cluster(registry, bursty, engine,
                            energy_budget_mw=50.0)
        _, journeys = assert_matches_reference(tracer)
        assert any(leg.name == "throttle"
                   for j in journeys for leg in j.legs)

    def test_edf_preempted_run(self, registry, bursty):
        tracer, report = cluster(registry, bursty, "event", policy="edf")
        assert report.preemptions > 0
        _, journeys = assert_matches_reference(tracer)
        assert any(j.attempts > 1 for j in journeys)

    def test_autoscaled_fleet(self):
        registry, trace = reference_workload(300, 64, 0)
        tracer = Tracer()
        FleetOrchestrator(registry, reference_fleet(), routing="energy",
                          autoscaler=FleetAutoscaler(),
                          tracer=tracer).run(trace)
        _, journeys = assert_matches_reference(tracer)
        assert any(leg.name == "egress"
                   for j in journeys for leg in j.legs)

    @pytest.mark.parametrize("engine", ["vector", "event"])
    def test_spilled_and_jsonl_sources(self, registry, bursty, engine,
                                       tmp_path):
        spill = str(tmp_path / "spill.jsonl")
        with Tracer(max_spans=128, spill_path=spill) as tracer:
            cluster(registry, bursty, engine, tracer=tracer)
            assert tracer.spilled > 0
            assert_matches_reference(tracer)
            log = str(tmp_path / "spans.jsonl")
            write_spans_jsonl(tracer, log)
        assert_matches_reference(log)

    def test_empty_source(self):
        analysis, _ = assert_matches_reference([])
        assert len(analysis) == 0 and analysis.scopes() == []
        assert hot_paths(analysis) == {}

    def test_window_without_completed_dispatch_raises(self, registry,
                                                      bursty):
        tracer, _ = cluster(registry, bursty, "vector")
        spans = [s for s in tracer.iter_spans() if s.cat != "compute"]
        with pytest.raises(TelemetryError, match="no completed dispatch"):
            analyze(spans)

    def test_pre_journey_log_raises(self, registry, bursty):
        tracer, _ = cluster(registry, bursty, "vector")
        spans = [s for s in tracer.iter_spans()
                 if s.cat not in ("window", "queue")]
        with pytest.raises(TelemetryError, match="pre-journey"):
            analyze(spans)


class TestLazyBoxing:
    @pytest.fixture(scope="class")
    def run(self, registry, bursty):
        return cluster(registry, bursty, "vector", energy_budget_mw=50.0)

    def test_rollups_and_reconcile_box_nothing(self, run, monkeypatch):
        tracer, report = run

        def refuse(self, *args, **kwargs):
            raise AssertionError("boxed a journey or leg")

        monkeypatch.setattr(Journey, "__init__", refuse)
        monkeypatch.setattr(Leg, "__init__", refuse)
        analysis = analyze(tracer)
        assert len(analysis) == len(analysis.journeys) \
            == len(report.records)
        assert hot_paths(analysis)
        assert flamegraph_lines(analysis, "time")
        assert flamegraph_lines(analysis, "energy")
        assert analysis.attribution()
        assert analysis.reconcile(report, tol=1e-9)
        with pytest.raises(AssertionError, match="boxed"):
            analysis.journeys[0]

    def test_first_access_boxes_everything_once(self, run, monkeypatch):
        analysis = analyze(run[0])
        boxed = []
        init = Journey.__init__

        def counting(self, *args, **kwargs):
            boxed.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Journey, "__init__", counting)
        first = analysis.journeys[0]
        assert len(boxed) == len(analysis)
        assert analysis.journeys[0] is first
        assert list(analysis.journeys)[0] is first
        assert analysis.by_request[first.request_id] is first
        assert len(boxed) == len(analysis)

    def test_boxed_journeys_are_snapshots(self, run):
        analysis = analyze(run[0])
        before = json.dumps(hot_paths(analysis))
        analysis.journeys[0].legs[0].end_ms += 1.0
        assert json.dumps(hot_paths(analysis)) == before

    def test_a_journey_list_is_the_boxed_cache(self, run):
        journeys = list(analyze(run[0]).journeys)
        analysis = TraceAnalysis(journeys[:10], {})
        assert analysis.journeys[3] is journeys[3]
        assert len(analysis) == 10

    def test_span_iterables_still_stitch(self, run):
        spans = [Span(*row) for row in run[0].iter_rows()]
        assert json.dumps(analyze(spans).to_dict(), sort_keys=True) \
            == json.dumps(analyze(run[0]).to_dict(), sort_keys=True)
