"""Trace replay loader tests: CSV/JSONL round trips and validation."""

import json

import pytest

from repro.cluster import (
    ClusterSimulator,
    load_trace,
    load_trace_csv,
    load_trace_jsonl,
    save_trace_csv,
    save_trace_jsonl,
)
from repro.cluster.__main__ import run_trace
from repro.errors import ClusterError
from repro.serving import Request, synthetic_registry, synthetic_traffic

TASKS = ("sst2", "mnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=32, seed=0)


@pytest.fixture(scope="module")
def trace(registry):
    return synthetic_traffic(registry, 40, seed=9,
                             mean_interarrival_ms=2.0,
                             modes=("base", "lai"))


class TestRoundTrip:
    @pytest.mark.parametrize("save,load,ext", [
        (save_trace_csv, load_trace_csv, "csv"),
        (save_trace_jsonl, load_trace_jsonl, "jsonl"),
    ])
    def test_save_load_preserves_requests(self, tmp_path, trace, save,
                                          load, ext):
        path = save(trace, str(tmp_path / f"trace.{ext}"))
        replayed = load(path)
        assert replayed == sorted(
            trace, key=lambda r: (r.arrival_ms, r.request_id))

    @pytest.mark.parametrize("save,load,ext", [
        (save_trace_csv, load_trace_csv, "csv"),
        (save_trace_jsonl, load_trace_jsonl, "jsonl"),
    ])
    def test_site_affinity_round_trips(self, tmp_path, save, load, ext):
        rows = [Request(request_id=0, task="sst2", sentence=0,
                        target_ms=50.0, site="edge-a"),
                Request(request_id=1, task="sst2", sentence=1,
                        target_ms=50.0)]
        path = str(tmp_path / f"pins.{ext}")
        save(rows, path)
        loaded = load(path)
        assert loaded[0].site == "edge-a"
        assert loaded[1].site is None

    def test_extension_dispatch(self, tmp_path, trace):
        csv_path = save_trace_csv(trace, str(tmp_path / "t.csv"))
        jsonl_path = save_trace_jsonl(trace, str(tmp_path / "t.jsonl"))
        assert load_trace(csv_path) == load_trace(jsonl_path)
        with pytest.raises(ClusterError):
            load_trace(str(tmp_path / "t.parquet"))

    def test_replayed_trace_simulates_identically(self, tmp_path,
                                                  registry, trace):
        path = save_trace_jsonl(trace, str(tmp_path / "t.jsonl"))
        direct = ClusterSimulator(registry, num_accelerators=2,
                                  policy="edf").run(trace).summary()
        replayed = ClusterSimulator(registry, num_accelerators=2,
                                    policy="edf") \
            .run(load_trace(path)).summary()
        for record in (direct, replayed):
            record.pop("wall_seconds", None)
        assert json.dumps(direct, sort_keys=True) \
            == json.dumps(replayed, sort_keys=True)


class TestParsing:
    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("task,sentence\nsst2,3\nmnli,1\n")
        rows = load_trace_csv(str(path), default_target_ms=42.0)
        assert [r.request_id for r in rows] == [0, 1]
        assert all(r.target_ms == 42.0 for r in rows)
        assert all(r.arrival_ms == 0.0 for r in rows)
        assert all(r.mode is None for r in rows)

    def test_rows_sorted_by_arrival(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [
            {"task": "sst2", "sentence": 0, "arrival_ms": 9.0,
             "request_id": 7},
            {"task": "sst2", "sentence": 1, "arrival_ms": 1.0,
             "request_id": 3},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        rows = load_trace_jsonl(str(path))
        assert [r.request_id for r in rows] == [3, 7]

    def test_zero_valued_fields_survive_jsonl(self, tmp_path):
        # 0 is a legal request_id/arrival_ms — a falsy-coercion bug
        # would remap them to the line index / default per format.
        path = tmp_path / "t.jsonl"
        lines = [
            {"task": "sst2", "sentence": 5, "request_id": 0,
             "arrival_ms": 0.0},
            {"task": "sst2", "sentence": 6, "request_id": 9,
             "arrival_ms": 3.0},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        rows = load_trace_jsonl(str(path))
        assert [r.request_id for r in rows] == [0, 9]
        assert rows[0].arrival_ms == 0.0

    def test_blank_jsonl_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"task": "sst2", "sentence": 0}\n\n\n')
        assert len(load_trace_jsonl(str(path))) == 1

    @pytest.mark.parametrize("content,message", [
        ("", "empty"),
        ("task,sentence\n", "no rows"),
        ("sentence\n4\n", "missing required"),
        ("task,sentence\nsst2,not-an-int\n", "malformed"),
        ("task,sentence,arrival_ms\nsst2,0,nan\n", "row 0 has malformed"),
    ])
    def test_bad_csv_raises(self, tmp_path, content, message):
        path = tmp_path / "t.csv"
        path.write_text(content)
        with pytest.raises(ClusterError, match=message):
            load_trace_csv(str(path))

    def test_bad_jsonl_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ClusterError, match="not valid JSON"):
            load_trace_jsonl(str(path))
        path.write_text('["a", "list"]\n')
        with pytest.raises(ClusterError, match="not a mapping"):
            load_trace_jsonl(str(path))

    def test_json_array_file_accepted(self, tmp_path):
        # Plain .json logs usually hold one top-level array.
        path = tmp_path / "t.json"
        rows = [{"task": "sst2", "sentence": 0, "arrival_ms": 2.0},
                {"task": "mnli", "sentence": 1, "arrival_ms": 1.0}]
        path.write_text(json.dumps(rows))
        loaded = load_trace(str(path))
        assert [r.task for r in loaded] == ["mnli", "sst2"]

    def test_request_validation_errors_keep_row_context(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"task": "sst2", "sentence": 0}\n'
                        '{"task": "sst2", "sentence": 1, "target_ms": 0}\n')
        with pytest.raises(ClusterError, match="row 1"):
            load_trace_jsonl(str(path))


class TestReferenceTrace:
    def test_bursty_reference_trace_loads_and_replays(self, registry):
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "..",
                            "benchmarks", "traces",
                            "reference_bursty.jsonl")
        loaded = load_trace(os.path.abspath(path))
        assert len(loaded) > 300
        # Bursty, not Poisson: the densest 50 ms window carries well
        # over twice the average load of the trace.
        arrivals = sorted(r.arrival_ms for r in loaded)
        span = arrivals[-1] - arrivals[0]
        densest = max(
            sum(1 for a in arrivals if start <= a < start + 50.0)
            for start in range(0, int(span), 25))
        assert densest > 2.0 * len(loaded) * 50.0 / span
        # The shipped tasks/sentences replay against the reference
        # registry shape (64 sentences per task).
        prefix = [r for r in loaded if r.arrival_ms < 60.0]
        big = synthetic_registry(("sst2", "mnli", "qqp", "qnli"), n=64,
                                 seed=0)
        report = ClusterSimulator(big, num_accelerators=2).run(prefix)
        assert report.num_requests == len(prefix)


class TestMainDriver:
    def test_run_trace_replays_a_file(self, tmp_path, trace):
        path = save_trace_csv(trace, str(tmp_path / "t.csv"))
        summary = run_trace(path, policy="affinity", num_accelerators=2,
                            verbose=False)
        assert summary["requests"] == len(trace)
        assert summary["policy"] == "affinity"

    def test_run_trace_rejects_unknown_tasks(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("task,sentence\nnot-a-task,0\n")
        with pytest.raises(ClusterError, match="unregistered task"):
            run_trace(str(path), verbose=False)
