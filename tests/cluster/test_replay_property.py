"""Randomized property suite for the energy-aware vector replay.

The acceptance bar for the vector core's extensions: with
``energy_budget_mw``, ``adaptive_timeout`` and ``deadline_sizing``
each toggled, ``run()`` must select the vector core and
replay the reference bursty trace bit-identically to the event
engine — the ClusterReport *and* the monitor's alert stream (the
alerts observe every commit point, so an identical stream means the
engines agree on the full event timeline, not just the totals). The
energy governor is held to the same bar on the reference
heterogeneous pool.

On top of the reference checks, a seeded fuzzer draws random cluster
shapes (pool size, batch former limits, budget caps, policy) and
random diurnal traces and asserts the same identity on every draw —
the property, not just the anecdote. Every draw's reports, on both
cores, also pass the device-timeline audit (``device_timeline``): the
identity alone cannot catch a fault in finish arithmetic that both
cores share.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from device_timeline import check_device_timelines

from repro.cluster import (
    ClusterSimulator,
    generate_diurnal_trace,
    load_trace,
)
from repro.config import HwConfig
from repro.serving import synthetic_registry, synthetic_traffic
from repro.smoke import REFERENCE_POOL, reference_pool
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

#: The energy governor's toggles on the reference heterogeneous pool.
#: 100 mW throttles this pool on the bursty trace; 300 mW never does.
GOVERNOR_TOGGLES = {
    "plain": {},
    "deadline_aware": {"deadline_aware": True},
    "budget": {"energy_budget_mw": 100.0},
    "deadline_budget": {"deadline_aware": True, "energy_budget_mw": 100.0},
    "sizing_adaptive": {"deadline_aware": True, "deadline_sizing": True,
                        "adaptive_timeout": True},
    "standby": {"standby_timeout_ms": 20.0},
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


def audit_timelines(*reports):
    """Both cores' reports of one draw pass the device-timeline audit."""
    for report in reports:
        assert check_device_timelines(report) == report.num_batches


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
        audit_timelines(vec, event)

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
        audit_timelines(vec, event)


class TestGovernorEquivalence:
    """The energy governor on the vector core, against the event loop."""

    @pytest.mark.parametrize("toggle", sorted(GOVERNOR_TOGGLES))
    def test_reference_pool_matches_event(self, registry, bursty, toggle):
        kwargs = dict(GOVERNOR_TOGGLES[toggle], policy="energy",
                      hw_configs=reference_pool())
        auto, auto_mon = monitored_run(registry, bursty, "auto", **kwargs)
        event, event_mon = monitored_run(registry, bursty, "event",
                                         **kwargs)
        assert auto.engine == "vector"
        assert auto.engine_fallback_reason is None
        assert canonical(auto) == canonical(event)
        assert record_ids(auto) == record_ids(event)
        assert canonical(auto_mon.report()) \
            == canonical(event_mon.report())
        assert auto_mon.num_alerts > 0
        if "energy_budget_mw" in kwargs:
            assert auto.budget.throttle_events > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_random_governor_shape(self, registry, seed):
        rng = np.random.default_rng(4000 + seed)
        # One draw each under a budget, incremental planning and sleep.
        toggle = ("deadline_budget", "sizing_adaptive", "standby")[seed]
        kwargs = dict(GOVERNOR_TOGGLES[toggle], policy="energy")
        if "energy_budget_mw" in kwargs:
            kwargs["energy_budget_mw"] = float(rng.uniform(40.0, 400.0))
            kwargs["budget_window_ms"] = float(rng.uniform(25.0, 200.0))
        pool = rng.choice(REFERENCE_POOL, size=int(rng.integers(2, 7)))
        kwargs["hw_configs"] = tuple(HwConfig(mac_vector_size=int(n))
                                     for n in pool)
        kwargs["num_accelerators"] = len(pool)
        kwargs["max_batch_size"] = int(2 ** rng.integers(2, 5))
        kwargs["batch_timeout_ms"] = float(rng.uniform(2.0, 12.0))
        trace = generate_diurnal_trace(
            int(rng.integers(150, 400)), seed=5000 + seed,
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
        audit_timelines(vec, event)


class TestDeviceTimelineAudit:
    """The audit itself: it flags each fault and passes real runs."""

    @staticmethod
    def fake_report(*rows):
        return SimpleNamespace(records=[
            SimpleNamespace(accel_id=accel, dispatch_ms=dispatch,
                            completion_ms=done)
            for accel, dispatch, done in rows])

    def test_clean_timeline_passes(self):
        report = self.fake_report((0, 0.0, 1.0), (0, 0.0, 2.0),
                                  (1, 0.5, 1.5), (0, 2.0, 3.0))
        assert check_device_timelines(report) == 3

    @pytest.mark.parametrize("rows,fault", [
        (((0, 0.0, 1.0), (0, 0.0, 2.0), (0, 1.5, 3.0)), "overlaps"),
        (((0, 0.0, 2.0), (0, 0.0, 1.0)), "decrease"),
        (((0, 1.0, 0.5),), "precedes"),
    ], ids=["overlap", "decreasing", "before-dispatch"])
    def test_each_fault_is_flagged(self, rows, fault):
        with pytest.raises(AssertionError, match=fault):
            check_device_timelines(self.fake_report(*rows))

    def test_preempted_runs_pass(self, registry, bursty):
        # EDF preempts on the reference pool: a victim's completed
        # prefix ends at the instant its preemptor dispatches.
        report, _ = monitored_run(registry, bursty, "event", policy="edf",
                                  hw_configs=reference_pool())
        assert report.preemptions > 0
        assert check_device_timelines(report) >= report.num_batches \
            - report.preemptions
