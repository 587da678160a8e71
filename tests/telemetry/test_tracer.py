"""Tracer core: span model, rollup exactness, bounded-memory spill."""

import json
import math

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    ENERGY_CATEGORIES,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)


class TestSpan:
    def test_interval_round_trip(self):
        span = Span("req:7", "compute", 10.0, 2.5, "cluster/accel0",
                    energy_mj=0.125, args={"task": "sst2"})
        again = Span.from_dict(span.to_dict())
        assert again.to_dict() == span.to_dict()
        assert again.end_ms == 12.5
        assert again.scope == "cluster"

    def test_instant_round_trip(self):
        span = Span("wake", "transition", 3.0, None, "edge-a/accel1")
        row = span.to_dict()
        assert "dur_ms" not in row
        again = Span.from_dict(row)
        assert again.dur_ms is None
        assert again.end_ms == 3.0
        assert again.scope == "edge-a"

    def test_bare_track_scope_is_itself(self):
        assert Span("x", "net", 0.0, None, "fleet").scope == "fleet"

    def test_malformed_row_raises(self):
        with pytest.raises(TelemetryError):
            Span.from_dict({"name": "x", "cat": "compute"})

    def test_zero_energy_omitted_from_dict(self):
        row = Span("x", "queue", 0.0, 1.0, "cluster/queue").to_dict()
        assert "energy_mj" not in row
        assert "args" not in row


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.span("x", "compute", 0.0, 1.0, "t") is None
        assert NULL_TRACER.instant("x", "compute", 0.0, "t") is None
        assert NULL_TRACER.flush() == 0
        assert NULL_TRACER.close() is None


class TestTracer:
    def test_emission_order_and_count(self):
        tracer = Tracer()
        tracer.span("a", "compute", 0.0, 1.0, "cluster/accel0")
        tracer.instant("b", "transition", 0.5, "cluster/accel0")
        assert tracer.emitted == 2
        assert [s.name for s in tracer.spans()] == ["a", "b"]
        assert [s.name for s in tracer.iter_spans()] == ["a", "b"]

    def test_rollup_by_scope_and_category(self):
        tracer = Tracer()
        tracer.span("a", "compute", 0.0, 1.0, "cluster/accel0",
                    energy_mj=1.0)
        tracer.span("b", "compute", 1.0, 1.0, "edge-a/accel0",
                    energy_mj=2.0)
        tracer.span("c", "swap", 2.0, 1.0, "cluster/accel0",
                    energy_mj=0.5)
        tracer.instant("refund", "swap", 3.0, "cluster/accel0",
                       energy_mj=-0.25)
        assert tracer.energy_mj() == pytest.approx(3.25, abs=0)
        assert tracer.energy_mj(cat="compute") == 3.0
        assert tracer.energy_mj(scope="cluster") == 1.25
        assert tracer.energy_mj(cat="swap", scope="cluster") == 0.25
        assert tracer.rollup() == {
            "cluster": {"compute": 1.0, "swap": 0.25},
            "edge-a": {"compute": 2.0},
        }

    def test_kahan_rollup_matches_fsum_on_many_small_terms(self):
        tracer = Tracer()
        # A deterministic spread of magnitudes that defeats naive
        # summation: the compensated rollup must track fsum to ~1 ulp.
        terms = [1e-6 * ((i % 97) + 1) * (1.0 + (i % 13) * 1e-7)
                 for i in range(50_000)]
        for i, mj in enumerate(terms):
            tracer.instant("e", "compute", float(i), "cluster/accel0",
                           energy_mj=mj)
        exact = math.fsum(terms)
        assert abs(tracer.energy_mj(cat="compute") - exact) \
            <= 4 * abs(exact) * 2.3e-16

    def test_energy_categories_mirror_device_breakdown(self):
        assert ENERGY_CATEGORIES == ("compute", "swap", "idle",
                                     "transition")

    def test_max_spans_without_spill_path_raises(self):
        with pytest.raises(TelemetryError):
            Tracer(max_spans=10)
        with pytest.raises(TelemetryError):
            Tracer(max_spans=0, spill_path="/tmp/x.jsonl")
        # A non-integer cap would never trip the spill (or drop rows):
        # only an int >= 1 bounds memory.
        for bad in (math.nan, math.inf, 2.5, True):
            with pytest.raises(TelemetryError, match="int >= 1"):
                Tracer(max_spans=bad, spill_path="/tmp/x.jsonl")


class TestSpill:
    def _fill(self, tracer, n=25):
        for i in range(n):
            tracer.span(f"s{i}", "compute", float(i), 0.5,
                        "cluster/accel0", energy_mj=0.001 * (i + 1))

    def test_spill_triggers_and_preserves_order(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        with Tracer(max_spans=8, spill_path=path) as tracer:
            self._fill(tracer, 25)
            assert tracer.spilled >= 16
            assert len(tracer.spans()) < 8
            names = [s.name for s in tracer.iter_spans()]
            assert names == [f"s{i}" for i in range(25)]
        # close() flushed the tail; the file alone is the full log.
        with open(path, encoding="utf-8") as f:
            rows = [json.loads(line) for line in f if line.strip()]
        assert [r["name"] for r in rows] == [f"s{i}" for i in range(25)]

    def test_rollup_survives_spilling(self, tmp_path):
        unbounded = Tracer()
        spilling = Tracer(max_spans=4,
                          spill_path=str(tmp_path / "s.jsonl"))
        self._fill(unbounded)
        self._fill(spilling)
        assert spilling.rollup() == unbounded.rollup()
        assert spilling.emitted == unbounded.emitted
        assert [s.to_dict() for s in spilling.iter_spans()] \
            == [s.to_dict() for s in unbounded.iter_spans()]
        spilling.close()

    def test_iter_spans_is_repeatable_mid_run(self, tmp_path):
        tracer = Tracer(max_spans=4, spill_path=str(tmp_path / "s.jsonl"))
        self._fill(tracer, 10)
        first = [s.to_dict() for s in tracer.iter_spans()]
        second = [s.to_dict() for s in tracer.iter_spans()]
        assert first == second and len(first) == 10
        tracer.close()

    def test_close_is_idempotent(self, tmp_path):
        tracer = Tracer(max_spans=4, spill_path=str(tmp_path / "s.jsonl"))
        self._fill(tracer, 6)
        tracer.close()
        tracer.close()
        assert len([s for s in tracer.iter_spans()]) == 6
