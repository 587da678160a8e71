"""Vectorized replay engine: equivalence with the event loop, engine
selection, runaway guards and cache bounds."""

import json
import os

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    generate_diurnal_trace,
    load_trace,
    replay_ineligible_reason,
)
from repro.config import HwConfig
from repro.errors import ClusterError, ServingError
from repro.serving import Request, synthetic_registry, synthetic_traffic

TASKS = ("sst2", "mnli")
REFERENCE_TASKS = ("sst2", "mnli", "qqp", "qnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=32, seed=0)


@pytest.fixture(scope="module")
def reference_registry():
    return synthetic_registry(REFERENCE_TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def bursty():
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "traces", "reference_bursty.jsonl")
    return load_trace(os.path.abspath(path))


def run_engine(registry, trace, engine, **kwargs):
    """Replay on one core: ``event`` drives ``run_events``, ``oracle``
    is ``run()`` on the scalar kernels, and ``auto``/``vector`` are
    ``run()`` (``vector`` also checks that the vector core ran)."""
    kwargs.setdefault("num_accelerators", 4)
    kwargs.setdefault("policy", "fifo")
    kwargs.setdefault("max_batch_size", 8)
    kwargs.setdefault("batch_timeout_ms", 5.0)
    if engine == "oracle":
        kwargs["vectorized"] = False
    sim = ClusterSimulator(registry, **kwargs)
    report = sim.run_events(trace) if engine == "event" else sim.run(trace)
    assert engine in ("auto", report.engine)
    return report


def canonical(report):
    return json.dumps(report.summary(), sort_keys=True)


class TestReferenceEquivalence:
    """The acceptance criterion: bit-identical reports on the
    reference bursty trace, energy ledgers reconciling at 1e-9."""

    @pytest.mark.parametrize("policy", ["fifo", "affinity"])
    def test_vector_matches_event_bit_identical(self, reference_registry,
                                                bursty, policy):
        vec = run_engine(reference_registry, bursty, "vector",
                         policy=policy)
        event = run_engine(reference_registry, bursty, "event",
                           policy=policy)
        assert vec.engine == "vector"
        assert event.engine == "event"
        assert canonical(vec) == canonical(event)
        assert [r.request.request_id for r in vec.records] \
            == [r.request.request_id for r in event.records]

    @pytest.mark.parametrize("policy", ["fifo", "affinity", "edf"])
    def test_auto_reconciles_with_scalar_oracle(self, reference_registry,
                                                bursty, policy):
        auto = run_engine(reference_registry, bursty, "auto",
                          policy=policy)
        oracle = run_engine(reference_registry, bursty, "oracle",
                            policy=policy)
        assert oracle.engine == "oracle"
        # The scalar pricing kernels are the determinism oracle; they
        # agree with the vectorized ones to float-epsilon, not bit.
        assert auto.makespan_ms == pytest.approx(oracle.makespan_ms,
                                                 abs=1e-9)
        for report in (auto, oracle):
            assert report.energy.reconcile(report.serving, tol=1e-9)

    def test_auto_picks_vector_only_when_eligible(self,
                                                  reference_registry,
                                                  bursty):
        fifo = run_engine(reference_registry, bursty, "auto")
        edf = run_engine(reference_registry, bursty, "auto",
                         policy="edf")
        assert fifo.engine == "vector"
        assert edf.engine == "event"  # preemptive: falls back

    def test_engine_tag_stays_out_of_the_summary(self,
                                                 reference_registry,
                                                 bursty):
        report = run_engine(reference_registry, bursty, "vector")
        assert "engine" not in report.summary()

    def test_price_tables_composition_invariant(self, reference_registry,
                                                bursty):
        # Whole-profile table pricing (always on for fleet sites) is a
        # pure speedup: turning it off must not move a single float.
        on, off = (run_engine(reference_registry, bursty, "event",
                              price_tables=flag)
                   for flag in (True, False))
        assert canonical(on) == canonical(off)
        assert [(r.request.request_id, r.completion_ms,
                 r.result.energy_mj) for r in on.records] \
            == [(r.request.request_id, r.completion_ms,
                 r.result.energy_mj) for r in off.records]


class TestPropertyEquivalence:
    """Randomized small traces across the tricky corners: tied
    arrivals, singleton windows, zero timeouts, heterogeneous pools,
    deadline-budget pricing."""

    @pytest.mark.parametrize("policy", ["fifo", "affinity"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_traces_bit_identical(self, registry, policy, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        trace = [
            Request(request_id=i, task=TASKS[int(rng.integers(2))],
                    sentence=int(rng.integers(32)),
                    # One-decimal grid forces equal-instant ties.
                    arrival_ms=float(np.round(rng.uniform(0.0, 20.0), 1)),
                    target_ms=float((50.0, 75.0)[int(rng.integers(2))]),
                    mode=(None, "base", "ee", "lai")[int(rng.integers(4))])
            for i in range(n)
        ]
        pool = int(rng.integers(1, 5))
        vec = run_engine(registry, trace, "vector", policy=policy,
                         num_accelerators=pool)
        event = run_engine(registry, trace, "event", policy=policy,
                           num_accelerators=pool)
        assert vec.engine == "vector"
        assert canonical(vec) == canonical(event)

    @pytest.mark.parametrize("kwargs", [
        {"max_batch_size": 1},
        {"batch_timeout_ms": 0.0},
        {"hw_configs": (HwConfig(mac_vector_size=16),
                        HwConfig(mac_vector_size=8)),
         "num_accelerators": 2},
        {"deadline_aware": True, "mode": "lai"},
    ])
    def test_corner_configs_bit_identical(self, registry, kwargs):
        trace = synthetic_traffic(registry, 60, seed=4,
                                  mean_interarrival_ms=0.5,
                                  modes=("base", "lai"))
        vec = run_engine(registry, trace, "vector", policy="affinity",
                         **kwargs)
        event = run_engine(registry, trace, "event", policy="affinity",
                           **kwargs)
        assert vec.engine == "vector"
        assert canonical(vec) == canonical(event)

    def test_generated_diurnal_trace_bit_identical(self, registry):
        trace = generate_diurnal_trace(300, seed=5, tasks=TASKS,
                                       n_sentences=32,
                                       mean_interarrival_ms=0.5)
        vec = run_engine(registry, trace, "vector")
        event = run_engine(registry, trace, "event")
        assert canonical(vec) == canonical(event)


class TestEngineSelection:
    def test_oracle_engine_forces_scalar_kernels(self, registry):
        # The scalar kernels are a configuration the vector core does
        # not take, so run() replays them on the per-event loop.
        trace = synthetic_traffic(registry, 10, seed=0)
        report = ClusterSimulator(registry, num_accelerators=2,
                                  vectorized=False).run(trace)
        assert report.engine == "oracle"
        assert "scalar" in report.engine_fallback_reason

    def test_energy_aware_flags_stay_on_vector(self, registry):
        # The paper's flagship path — budget admission, adaptive
        # timeouts, deadline sizing — is replay-eligible since PR 9.
        trace = synthetic_traffic(registry, 20, seed=1)
        for kwargs in ({"adaptive_timeout": True},
                       {"deadline_sizing": True, "deadline_aware": True},
                       {"energy_budget_mw": 200.0}):
            sim = ClusterSimulator(registry, num_accelerators=2,
                                   **kwargs)
            assert replay_ineligible_reason(sim) is None
            report = sim.run(trace)
            assert report.engine == "vector"
            assert report.engine_fallback_reason is None

    def test_fallback_reason_surfaces_on_event_downgrade(self, registry):
        trace = synthetic_traffic(registry, 20, seed=1)
        report = ClusterSimulator(registry, num_accelerators=2,
                                  policy="edf").run(trace)
        assert report.engine == "event"
        assert "edf" in report.engine_fallback_reason
        # A direct per-event run is not a downgrade.
        event = ClusterSimulator(registry,
                                 num_accelerators=2).run_events(trace)
        assert event.engine_fallback_reason is None
        assert "engine_fallback_reason" not in event.summary()


def request(request_id, arrival_ms=0.0, sentence=0):
    return Request(request_id=request_id, task="sst2", sentence=sentence,
                   target_ms=50.0, arrival_ms=arrival_ms)


class TestIntakeErrors:
    """The vector intake must surface the classic per-inject errors."""

    def test_duplicate_request_id(self, registry):
        trace = [Request(request_id=7, task="sst2", sentence=0,
                         target_ms=50.0, arrival_ms=0.0),
                 Request(request_id=7, task="sst2", sentence=1,
                         target_ms=50.0, arrival_ms=1.0)]
        with pytest.raises(ClusterError, match="duplicate request id 7"):
            run_engine(registry, trace, "vector")

    def test_out_of_range_sentence(self, registry):
        trace = [Request(request_id=0, task="sst2", sentence=99,
                         target_ms=50.0, arrival_ms=0.0)]
        with pytest.raises(ServingError, match="sentence"):
            run_engine(registry, trace, "vector")

    def test_lai_without_lut_support(self, registry):
        # A mode a task cannot serve must fail intake the classic way.
        profile = registry.profile("sst2")
        lut, profile.lut = profile.lut, None
        try:
            trace = [Request(request_id=0, task="sst2", sentence=0,
                             target_ms=50.0, arrival_ms=0.0, mode="lai")]
            with pytest.raises(ServingError, match="lai"):
                run_engine(registry, trace, "vector")
        finally:
            profile.lut = lut

    @pytest.mark.parametrize("engine", ["vector", "event"])
    def test_empty_trace(self, registry, engine):
        with pytest.raises(ClusterError, match="no requests"):
            run_engine(registry, iter(()), engine)

    @pytest.mark.parametrize("engine", ["vector", "event"])
    def test_negative_arrival(self, registry, engine):
        trace = [request(0), request(1, arrival_ms=-5.0)]
        with pytest.raises(ClusterError,
                           match="cannot schedule Arrival at -5.0 ms"):
            run_engine(registry, trace, engine)

    @pytest.mark.parametrize("engine", ["vector", "event"])
    @pytest.mark.parametrize("first, message", [
        ("negative", "cannot schedule Arrival"),
        ("duplicate", "duplicate request id 7"),
    ])
    def test_first_offender_in_inject_order_wins(self, registry, engine,
                                                 first, message):
        negative = request(3, arrival_ms=-5.0)
        duplicate = request(7, arrival_ms=1.0, sentence=1)
        offenders = ([negative, duplicate] if first == "negative"
                     else [duplicate, negative])
        with pytest.raises(ClusterError, match=message):
            run_engine(registry, [request(7)] + offenders, engine)

    @pytest.mark.parametrize("trace, error, message", [
        ([request(0, arrival_ms=-5.0)], ClusterError, "cannot schedule"),
        ([request(7), request(7, arrival_ms=1.0)], ClusterError,
         "duplicate request id 7"),
        ([request(0, sentence=99)], ServingError, "sentence 99"),
    ])
    def test_vector_intake_never_hands_back(self, registry, monkeypatch,
                                            trace, error, message):
        def hand_back(sim, requests):
            raise AssertionError("run() fell back to run_events")

        monkeypatch.setattr(ClusterSimulator, "run_events", hand_back)
        with pytest.raises(error, match=message):
            run_engine(registry, trace, "vector")

    def test_column_and_inject_disagreement_raises(self, registry):
        # Float ids 1.0 and 1.5 are distinct to inject() but collide in
        # the int64 id column: the two intakes disagree, and run()
        # must raise rather than pick one.
        trace = [Request(request_id=rid, task="sst2", sentence=0,
                         target_ms=50.0) for rid in (1.0, 1.5)]
        with pytest.raises(ClusterError, match="per-request intake accepts"):
            run_engine(registry, trace, "vector")


class TestRunawayGuards:
    @pytest.mark.parametrize("engine", ["vector", "oracle"])
    def test_max_events_bounds_both_engines(self, registry, engine):
        trace = synthetic_traffic(registry, 30, seed=2)
        sim = ClusterSimulator(registry, num_accelerators=2,
                               vectorized=engine == "vector")
        sim.MAX_EVENTS = 3
        with pytest.raises(ClusterError, match="exceeded 3 events"):
            sim.run(trace)
