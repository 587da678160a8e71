"""Randomized property suite for the energy-aware vector replay.

The acceptance bar for the PR-9 vector-core extensions: with
``energy_budget_mw``, ``adaptive_timeout`` and ``deadline_sizing``
each toggled, ``run()`` must select the vector core and
replay the reference bursty trace bit-identically to the event
engine — the ClusterReport *and* the monitor's alert stream (the
alerts observe every commit point, so an identical stream means the
engines agree on the full event timeline, not just the totals).

On top of the reference checks, a seeded fuzzer draws random cluster
shapes (pool size, batch former limits, budget caps, policy) and
random diurnal traces and asserts the same identity on every draw —
the property, not just the anecdote.
"""

import json
import os

import numpy as np
import pytest

from repro.cluster import (
    ClusterSimulator,
    generate_diurnal_trace,
    load_trace,
)
from repro.serving import synthetic_registry, synthetic_traffic
from repro.telemetry import TelemetryMonitor
from repro.telemetry.monitor import (
    BurnRateRule,
    LatencyQuantileRule,
    QueueDepthRule,
    SwapThrashRule,
)

REFERENCE_TASKS = ("sst2", "mnli", "qqp", "qnli")

#: The energy-aware feature toggles PR 9 made replay-eligible, each
#: exercised alone and then all together.
FEATURE_TOGGLES = {
    "budget": {"energy_budget_mw": 200.0},
    "adaptive_timeout": {"adaptive_timeout": True},
    "deadline_sizing": {"deadline_sizing": True, "deadline_aware": True},
    "all": {"energy_budget_mw": 200.0, "adaptive_timeout": True,
            "deadline_sizing": True, "deadline_aware": True},
}


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
    them — identical *empty* alert streams would prove nothing."""
    return (
        BurnRateRule("burn", slo_target=0.999, fast_window_ms=50.0,
                     slow_window_ms=250.0, fast_burn=2.0, slow_burn=1.0,
                     min_samples=5),
        LatencyQuantileRule("p95", q=0.95, threshold_ms=20.0,
                            window_ms=100.0, min_samples=5),
        QueueDepthRule("queue", depth=4, sustain_ms=5.0),
        SwapThrashRule("thrash", window_ms=100.0, threshold=2),
    )


def monitored_run(registry, trace, engine, **kwargs):
    kwargs.setdefault("num_accelerators", 4)
    kwargs.setdefault("policy", "fifo")
    kwargs.setdefault("max_batch_size", 8)
    kwargs.setdefault("batch_timeout_ms", 5.0)
    monitor = TelemetryMonitor(tight_rules())
    sim = ClusterSimulator(registry, monitor=monitor, **kwargs)
    # "event" drives the per-event loop; "auto"/"vector" let run() pick.
    report = sim.run_events(trace) if engine == "event" else sim.run(trace)
    assert engine in ("auto", report.engine)
    return report, monitor


def canonical(obj):
    return json.dumps(obj.summary(), sort_keys=True)


def record_ids(report):
    return [r.request.request_id for r in report.records]


class TestReferenceToggles:
    """Bit-identity on the reference bursty trace, toggle by toggle."""

    @pytest.mark.parametrize("toggle", sorted(FEATURE_TOGGLES))
    def test_auto_selects_vector_and_matches_event(self, registry,
                                                   bursty, toggle):
        kwargs = FEATURE_TOGGLES[toggle]
        auto, auto_mon = monitored_run(registry, bursty, "auto",
                                       **kwargs)
        event, event_mon = monitored_run(registry, bursty, "event",
                                         **kwargs)
        assert auto.engine == "vector"
        assert auto.engine_fallback_reason is None
        assert canonical(auto) == canonical(event)
        assert record_ids(auto) == record_ids(event)
        assert canonical(auto_mon.report()) \
            == canonical(event_mon.report())
        # The alert identity must not be vacuous on the reference run.
        assert auto_mon.num_alerts > 0

    @pytest.mark.parametrize("toggle", sorted(FEATURE_TOGGLES))
    def test_ledgers_reconcile_on_vector(self, registry, bursty,
                                         toggle):
        report, _ = monitored_run(registry, bursty, "vector",
                                  **FEATURE_TOGGLES[toggle])
        report.energy.reconcile(report.serving, tol=1e-9)


class TestRandomizedEquivalence:
    """Seeded fuzzing: random shapes x random traces, same identity."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_config_and_trace(self, registry, seed):
        rng = np.random.default_rng(1000 + seed)
        toggle = sorted(FEATURE_TOGGLES)[seed % len(FEATURE_TOGGLES)]
        kwargs = dict(FEATURE_TOGGLES[toggle])
        if "energy_budget_mw" in kwargs:
            kwargs["energy_budget_mw"] = float(
                rng.uniform(40.0, 400.0))
            kwargs["budget_window_ms"] = float(
                rng.uniform(25.0, 200.0))
        kwargs["num_accelerators"] = int(rng.integers(2, 7))
        kwargs["policy"] = ("fifo", "affinity")[int(rng.integers(2))]
        kwargs["max_batch_size"] = int(2 ** rng.integers(2, 5))
        kwargs["batch_timeout_ms"] = float(rng.uniform(2.0, 12.0))
        trace = generate_diurnal_trace(
            int(rng.integers(150, 400)), seed=2000 + seed,
            mean_interarrival_ms=float(rng.uniform(0.3, 2.0)),
            modes=(None, "base", "lai"))
        vec, vec_mon = monitored_run(registry, trace, "auto", **kwargs)
        event, event_mon = monitored_run(registry, trace, "event",
                                         **kwargs)
        assert vec.engine == "vector", (toggle, kwargs)
        assert canonical(vec) == canonical(event), (toggle, kwargs)
        assert record_ids(vec) == record_ids(event)
        assert canonical(vec_mon.report()) \
            == canonical(event_mon.report()), (toggle, kwargs)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_bursty_traffic_with_all_toggles(self, registry,
                                                    seed):
        """Poisson (non-diurnal) arrivals through the full stack."""
        trace = synthetic_traffic(
            registry, num_requests=300, seed=3000 + seed,
            mean_interarrival_ms=0.5, modes=("base", "lai"))
        kwargs = FEATURE_TOGGLES["all"]
        vec, vec_mon = monitored_run(registry, trace, "auto", **kwargs)
        event, event_mon = monitored_run(registry, trace, "event",
                                         **kwargs)
        assert vec.engine == "vector"
        assert canonical(vec) == canonical(event)
        assert canonical(vec_mon.report()) \
            == canonical(event_mon.report())
