"""Trace analysis: stitching, attribution, profiling, diffing, CLI.

The contracts under test are the package's headline promises:

* journeys are **bit-identical** no matter the span source (live
  tracer, spilled tracer, written JSONL) or cluster engine (event,
  vector) that produced the spans;
* every journey's legs tile ``[arrival, completion]`` exactly
  (critical-path sums within 1e-9, leg boundaries chained bitwise);
* per-category energy attribution reconciles against the run's energy
  ledgers at 1e-9, including under throttling and EDF preemption;
* :func:`diff_runs` explains the measured joules delta between two
  governors category-by-category at 1e-9 and round-trips through JSON.
"""

import json
import os

import pytest

from repro.cluster import ClusterSimulator, load_trace
from repro.errors import TelemetryError
from repro.fleet import FleetAutoscaler, FleetOrchestrator
from repro.fleet.__main__ import reference_fleet, reference_workload
from repro.serving import synthetic_registry
from repro.telemetry import Tracer, write_spans_jsonl
from repro.telemetry.analysis import (
    LEG_GROUPS,
    Journey,
    RegressionReport,
    TraceAnalysis,
    analyze,
    diff_runs,
    flamegraph_lines,
    hot_paths,
    render_waterfall,
    waterfall_json,
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


def run_cluster(registry, trace, engine, tracer=None, **kwargs):
    kwargs.setdefault("num_accelerators", 4)
    kwargs.setdefault("policy", "affinity")
    tracer = Tracer() if tracer is None else tracer
    sim = ClusterSimulator(registry, tracer=tracer, **kwargs)
    report = sim.run(trace) if engine == "vector" else sim.run_events(trace)
    assert report.engine == engine
    return tracer, report


def canonical(analysis):
    return json.dumps(analysis.to_dict(), sort_keys=True)


class TestSourceAndEngineParity:
    def test_bit_identical_across_sources_and_engines(
            self, registry, bursty, tmp_path):
        digests = {}
        for engine in ("event", "vector"):
            tracer, report = run_cluster(registry, bursty, engine)
            live = analyze(tracer)
            assert len(live) == len(report.records)

            spill_path = str(tmp_path / f"spill_{engine}.jsonl")
            with Tracer(max_spans=128,
                        spill_path=spill_path) as spiller:
                run_cluster(registry, bursty, engine, tracer=spiller)
                assert spiller.spilled > 0
                assert canonical(analyze(spiller)) == canonical(live)

            log = str(tmp_path / f"spans_{engine}.jsonl")
            write_spans_jsonl(tracer, log)
            assert canonical(analyze(log)) == canonical(live)
            digests[engine] = canonical(live)
        assert digests["event"] == digests["vector"]

    def test_journey_round_trips_through_jsonl(self, registry, bursty,
                                               tmp_path):
        tracer, _ = run_cluster(registry, bursty, "vector")
        analysis = analyze(tracer)
        path = str(tmp_path / "journeys.jsonl")
        assert analysis.to_jsonl(path) == len(analysis)
        with open(path, encoding="utf-8") as f:
            rows = [json.loads(line) for line in f]
        again = [Journey.from_dict(row) for row in rows]
        assert [j.to_dict() for j in again] \
            == [j.to_dict() for j in analysis.journeys]


class TestCriticalPaths:
    def test_legs_tile_time_in_system_at_1e9(self, registry, bursty):
        tracer, report = run_cluster(registry, bursty, "event")
        analysis = analyze(tracer)
        for journey in analysis.journeys:
            path = journey.critical_path(tol=1e-9)
            assert path["dominant"] in LEG_GROUPS
            # Legs chain bitwise: each starts where the previous ended,
            # from arrival to completion.
            assert journey.legs[0].start_ms == journey.arrival_ms
            assert journey.legs[-1].end_ms == journey.completion_ms
            for prev, leg in zip(journey.legs, journey.legs[1:]):
                assert leg.start_ms == prev.end_ms

    def test_journeys_match_report_records(self, registry, bursty):
        tracer, report = run_cluster(registry, bursty, "event")
        analysis = analyze(tracer)
        for record in report.records:
            journey = analysis.by_request[record.request.request_id]
            assert journey.completion_ms == record.completion_ms
            assert journey.violated == (not record.deadline_met)
            assert journey.task == record.request.task

    def test_tampered_journey_fails_the_tiling_check(self, registry,
                                                     bursty):
        tracer, _ = run_cluster(registry, bursty, "event")
        journey = analyze(tracer).journeys[0]
        journey.legs[0].end_ms += 1e-6
        with pytest.raises(TelemetryError, match="legs sum to"):
            journey.critical_path(tol=1e-9)


class TestEnergyAttribution:
    @pytest.mark.parametrize("engine", ["event", "vector"])
    def test_reconciles_with_ledgers_at_1e9(self, registry, bursty,
                                            engine):
        tracer, report = run_cluster(registry, bursty, engine)
        analysis = analyze(tracer)
        assert analysis.reconcile(report, tol=1e-9)

    @pytest.mark.parametrize("engine", ["event", "vector"])
    def test_throttled_run_reconciles_and_carves_throttle_legs(
            self, registry, bursty, engine):
        tracer, report = run_cluster(registry, bursty, engine,
                                     energy_budget_mw=50.0)
        analysis = analyze(tracer)
        assert analysis.reconcile(report, tol=1e-9)
        throttled = [leg for journey in analysis.journeys
                     for leg in journey.legs if leg.name == "throttle"]
        assert throttled
        for journey in analysis.journeys:
            journey.critical_path(tol=1e-9)

    def test_preempted_run_reconciles_and_tiles(self, registry,
                                                bursty):
        tracer, report = run_cluster(registry, bursty, "event",
                                     policy="edf")
        assert report.preemptions > 0
        analysis = analyze(tracer)
        assert len(analysis) == len(report.records)
        assert analysis.reconcile(report, tol=1e-9)
        retried = [j for j in analysis.journeys if j.attempts > 1]
        assert retried
        for journey in retried:
            journey.critical_path(tol=1e-9)
        # The stall between a preemption and the retry's dispatch shows
        # up as a "preempted" leg (zero-length stalls are elided, so
        # not every victim carries one — but the run must).
        assert any(leg.name == "preempted"
                   for j in retried for leg in j.legs)


class TestFleetJourneys:
    @pytest.fixture(scope="class")
    def fleet_run(self):
        registry, trace = reference_workload(300, 64, 0)
        tracer = Tracer()
        fleet = FleetOrchestrator(registry, reference_fleet(),
                                  routing="energy",
                                  autoscaler=FleetAutoscaler(),
                                  tracer=tracer)
        report = fleet.run(trace)
        return analyze(tracer), report

    def test_journeys_cover_every_record_and_reconcile(self, fleet_run):
        analysis, report = fleet_run
        assert len(analysis) == len(report.records)
        assert analysis.reconcile(report, tol=1e-9)
        by_id = {r.request.request_id: r for r in report.records}
        for journey in analysis.journeys:
            journey.critical_path(tol=1e-9)
            assert journey.completion_ms \
                == by_id[journey.request_id].completion_ms

    def test_network_legs_and_site_scopes(self, fleet_run):
        analysis, report = fleet_run
        assert set(analysis.scopes()) \
            == {o.site_id for o in report.sites}
        rtt_legs = [leg for journey in analysis.journeys
                    for leg in journey.legs
                    if leg.name in ("ingress", "egress")]
        assert rtt_legs
        # RTT is wire time, not machine time: no energy rides on it.
        assert all(leg.energy_mj == 0.0 for leg in rtt_legs)


class TestProfilingViews:
    @pytest.fixture(scope="class")
    def analysis(self):
        registry = synthetic_registry(REFERENCE_TASKS, n=64, seed=0)
        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "benchmarks", "traces",
                            "reference_bursty.jsonl")
        tracer, _ = run_cluster(registry,
                                load_trace(os.path.abspath(path)),
                                "vector")
        return analyze(tracer)

    def test_hot_paths_partition_the_journeys(self, analysis):
        table = hot_paths(analysis)
        assert sum(cell["requests"] for cell in table.values()) \
            == len(analysis)
        times = [cell["time_in_system_ms"] for cell in table.values()]
        assert times == sorted(times, reverse=True)

    def test_flamegraph_time_weights_sum_to_total_ns(self, analysis):
        lines = flamegraph_lines(analysis, weight="time")
        assert all(len(line.rsplit(" ", 1)) == 2 for line in lines)
        total_ns = sum(int(line.rsplit(" ", 1)[1]) for line in lines)
        total_ms = sum(j.time_in_system_ms for j in analysis.journeys)
        assert total_ns == pytest.approx(total_ms * 1e6, abs=len(lines))
        assert lines == sorted(lines)

    def test_flamegraph_energy_includes_unattributed(self, analysis):
        lines = flamegraph_lines(analysis, weight="energy")
        assert any("(unattributed);idle" in line for line in lines)
        with pytest.raises(TelemetryError, match="weight"):
            flamegraph_lines(analysis, weight="watts")

    def test_waterfall_renders_every_leg(self, analysis):
        journey = max(analysis.journeys,
                      key=lambda j: j.time_in_system_ms)
        text = render_waterfall(journey)
        for leg in journey.legs:
            assert leg.name in text
        data = waterfall_json(journey)
        assert data["journey"] == journey.to_dict()
        assert data["critical_path"]["request"] == journey.request_id
        with pytest.raises(TelemetryError, match="width"):
            render_waterfall(journey, width=4)


class TestDiffRuns:
    @pytest.fixture(scope="class")
    def governors(self, registry, bursty):
        runs = {}
        for policy in ("fifo", "energy"):
            tracer, report = run_cluster(registry, bursty, "event",
                                         policy=policy)
            analysis = analyze(tracer)
            assert analysis.reconcile(report, tol=1e-9)
            runs[policy] = (analysis, report)
        return runs

    def test_attributes_the_measured_joules_delta(self, governors):
        """The fifo-vs-energy governor delta, category by category."""
        (run_a, rep_a), (run_b, rep_b) = (governors["fifo"],
                                          governors["energy"])
        diff = diff_runs(run_a, run_b)
        assert diff.requests == len(run_a)
        assert not diff.only_a and not diff.only_b
        ledger = {
            "compute": (rep_a.energy.compute_mj, rep_b.energy.compute_mj),
            "swap": (rep_a.energy.swap_mj, rep_b.energy.swap_mj),
            "idle": (rep_a.energy.idle_mj, rep_b.energy.idle_mj),
            "transition": (rep_a.energy.transition_mj,
                           rep_b.energy.transition_mj),
        }
        for cat, (col_a, col_b) in ledger.items():
            cell = diff.energy_mj[cat]
            assert abs(cell["a"] - col_a) <= 1e-9
            assert abs(cell["b"] - col_b) <= 1e-9
            assert abs(cell["delta"] - (col_b - col_a)) <= 1e-9
        measured = rep_b.energy.total_mj - rep_a.energy.total_mj
        assert abs(diff.total_energy_mj["delta"] - measured) <= 1e-9
        assert measured != 0.0  # the governors genuinely differ

    def test_report_round_trips_through_json(self, governors):
        diff = diff_runs(governors["fifo"][0], governors["energy"][0])
        again = RegressionReport.from_json(diff.to_json())
        assert again.to_json() == diff.to_json()
        assert again.to_dict() == diff.to_dict()
        assert "dominant time bucket" in diff.render()

    def test_identical_runs_diff_to_zero(self, governors):
        analysis = governors["fifo"][0]
        diff = diff_runs(analysis, analysis)
        assert diff.violations["delta"] == 0
        assert diff.regressed == []
        for group in diff.time_ms.values():
            assert group["delta"] == 0.0
        assert diff.total_energy_mj["delta"] == 0.0

    def test_disjoint_runs_are_rejected(self, governors):
        analysis = governors["fifo"][0]
        half = len(analysis) // 2
        left = TraceAnalysis(analysis.journeys[:half], {})
        right = TraceAnalysis(analysis.journeys[half:], {})
        with pytest.raises(TelemetryError, match="share no request"):
            diff_runs(left, right)


class TestCLI:
    def spans_file(self, registry, bursty, tmp_path, policy="affinity"):
        tracer, _ = run_cluster(registry, bursty, "event",
                                policy=policy)
        path = str(tmp_path / f"spans_{policy}.jsonl")
        write_spans_jsonl(tracer, path)
        return path

    def test_journeys_flame_and_waterfall(self, registry, bursty,
                                          tmp_path, capsys):
        from repro.telemetry.analysis.__main__ import main

        spans = self.spans_file(registry, bursty, tmp_path)
        out_journeys = str(tmp_path / "journeys.jsonl")
        out_flame = str(tmp_path / "flame.txt")
        assert main([spans, "--journeys", out_journeys,
                     "--flame", out_flame, "--critical-path",
                     "--waterfall", "--top", "2"]) == 0
        captured = capsys.readouterr().out
        assert "Hot paths" in captured
        with open(out_journeys, encoding="utf-8") as f:
            assert len(f.readlines()) == len(bursty)
        with open(out_flame, encoding="utf-8") as f:
            assert f.read().splitlines()

    def test_diff_two_span_logs(self, registry, bursty, tmp_path,
                                capsys):
        from repro.telemetry.analysis.__main__ import main

        log_a = self.spans_file(registry, bursty, tmp_path, "fifo")
        log_b = self.spans_file(registry, bursty, tmp_path, "energy")
        assert main(["--diff", log_a, log_b, "--json"]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["requests"] == len(bursty)
        assert row["only_a"] == [] and row["only_b"] == []

    def test_no_arguments_is_a_usage_error(self, capsys):
        from repro.telemetry.analysis.__main__ import main

        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()

    def test_missing_span_log_fails_cleanly(self, tmp_path, capsys):
        from repro.telemetry.analysis.__main__ import main

        assert main([str(tmp_path / "nope.jsonl")]) == 1
        assert "RUN FAILED" in capsys.readouterr().err
