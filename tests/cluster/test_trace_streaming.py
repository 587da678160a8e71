"""Streaming trace loaders, the diurnal trace generator and the
``--gen-trace`` / ``--oracle`` driver plumbing."""

import json
import math
import types

import numpy as np
import pytest

from repro.cluster import (
    generate_diurnal_trace,
    iter_trace,
    iter_trace_csv,
    iter_trace_jsonl,
    load_trace,
    save_trace_csv,
    save_trace_jsonl,
)
from repro.cluster.__main__ import main, run_gen_trace, run_trace
from repro.errors import ClusterError
from repro.serving import Request, synthetic_registry, synthetic_traffic


@pytest.fixture(scope="module")
def trace():
    registry = synthetic_registry(("sst2", "mnli"), n=32, seed=0)
    return synthetic_traffic(registry, 30, seed=2,
                             mean_interarrival_ms=2.0)


class TestStreamingLoaders:
    @pytest.mark.parametrize("save,stream,ext", [
        (save_trace_csv, iter_trace_csv, "csv"),
        (save_trace_jsonl, iter_trace_jsonl, "jsonl"),
    ])
    def test_streaming_matches_eager_load(self, tmp_path, trace, save,
                                          stream, ext):
        path = save(trace, str(tmp_path / f"t.{ext}"))
        streamed = stream(path)
        assert isinstance(streamed, types.GeneratorType)
        assert list(streamed) == load_trace(path)

    def test_iter_trace_dispatches_on_extension(self, tmp_path, trace):
        for ext in ("csv", "jsonl"):
            save = save_trace_csv if ext == "csv" else save_trace_jsonl
            path = save(trace, str(tmp_path / f"t.{ext}"))
            assert list(iter_trace(path)) == load_trace(path)
        with pytest.raises(ClusterError, match="unknown trace format"):
            iter_trace("t.parquet")

    def test_streaming_preserves_file_order(self, tmp_path):
        # The eager loader sorts; the streaming one replays the file.
        rows = [{"request_id": 1, "task": "sst2", "sentence": 0,
                 "arrival_ms": 9.0},
                {"request_id": 0, "task": "sst2", "sentence": 1,
                 "arrival_ms": 1.0}]
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        ids = [r.request_id for r in iter_trace_jsonl(str(path))]
        assert ids == [1, 0]

    def test_streaming_rejects_json_arrays(self, tmp_path, trace):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps([{"task": "sst2", "sentence": 0}]))
        with pytest.raises(ClusterError, match="JSON array"):
            list(iter_trace_jsonl(str(path)))

    def test_streaming_keeps_row_context_on_errors(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"task": "sst2", "sentence": 0}\n{broken\n')
        with pytest.raises(ClusterError, match="line 2"):
            list(iter_trace_jsonl(str(path)))


class TestDiurnalGenerator:
    def test_deterministic_and_exact_count(self):
        a = generate_diurnal_trace(500, seed=3)
        b = generate_diurnal_trace(500, seed=3)
        assert a == b
        assert len(a) == 500
        assert generate_diurnal_trace(500, seed=4) != a

    def test_arrival_order_and_ids(self):
        trace = generate_diurnal_trace(400, seed=0)
        arrivals = [r.arrival_ms for r in trace]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in trace] == list(range(400))

    def test_day_curve_shapes_the_load(self):
        trace = generate_diurnal_trace(6000, seed=0,
                                       diurnal_amplitude=0.8,
                                       num_epochs=12)
        span = 6000 * 1.0
        edges = np.linspace(0.0, span, 13)
        counts, _ = np.histogram([r.arrival_ms for r in trace],
                                 bins=edges)
        # Peak epochs must carry visibly more than trough epochs —
        # the sinusoid, not a flat Poisson, shapes the trace.
        assert counts.max() > 2.0 * counts.min()

    def test_flat_amplitude_is_near_uniform(self):
        trace = generate_diurnal_trace(6000, seed=0,
                                       diurnal_amplitude=0.0,
                                       num_epochs=12)
        counts, _ = np.histogram([r.arrival_ms for r in trace],
                                 bins=np.linspace(0.0, 6000.0, 13))
        assert counts.max() < 1.3 * counts.min()

    def test_field_draws_honor_the_menus(self):
        trace = generate_diurnal_trace(
            200, seed=1, tasks=("sst2",), targets_ms=(40.0,),
            n_sentences=8, modes=("base", "lai"))
        assert {r.task for r in trace} == {"sst2"}
        assert {r.target_ms for r in trace} == {40.0}
        assert all(0 <= r.sentence < 8 for r in trace)
        assert {r.mode for r in trace} == {"base", "lai"}

    def test_input_validation(self):
        with pytest.raises(ClusterError, match="num_requests"):
            generate_diurnal_trace(0)
        with pytest.raises(ClusterError, match="amplitude"):
            generate_diurnal_trace(10, diurnal_amplitude=1.0)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ClusterError, match="mean_interarrival_ms"):
                generate_diurnal_trace(10, mean_interarrival_ms=bad)
        with pytest.raises(ClusterError, match="n_sentences"):
            generate_diurnal_trace(10, n_sentences=0)
        for empty in ({"tasks": ()}, {"targets_ms": ()}):
            with pytest.raises(ClusterError, match="non-empty"):
                generate_diurnal_trace(10, **empty)


class TestDriver:
    def test_gen_trace_round_trips(self, tmp_path):
        out = str(tmp_path / "bench.jsonl")
        run_gen_trace(64, out, seed=5, verbose=False)
        loaded = load_trace(out)
        assert loaded == generate_diurnal_trace(64, seed=5)

    def test_gen_trace_cli(self, tmp_path, capsys):
        out = str(tmp_path / "cli.jsonl")
        main(["--gen-trace", "32", "--out", out])
        assert "wrote 32 requests" in capsys.readouterr().out
        assert len(load_trace(out)) == 32

    def test_oracle_flag_forces_the_scalar_loop(self, tmp_path):
        out = str(tmp_path / "t.jsonl")
        run_gen_trace(40, out, seed=0, verbose=False)
        oracle = run_trace(out, num_accelerators=2, vectorized=False,
                           mode="base", verbose=False)
        auto = run_trace(out, num_accelerators=2, mode="base",
                         verbose=False)
        assert oracle["engine"] == "oracle"
        assert "scalar" in oracle["engine_fallback_reason"]
        assert auto["engine"] == "vector"
        assert oracle["requests"] == auto["requests"] == 40
