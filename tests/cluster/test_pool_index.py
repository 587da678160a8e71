"""The cluster cores' device-pool index, checked against a walk of the pool.

``ClusterSimulator`` keeps one :class:`~repro.cluster.pool.PoolIndex`
current at dispatch, completion, park and wake, on both cores, and the
dispatchers, the fleet sites' estimates and the autoscaler read it
instead of walking the pool. These tests step runs one event at a time
and, after every step, rebuild what the index claims — the free ids,
the free ids of each class, the online count — from a plain walk of the
pool; fleet runs do so through every site step, park and wake.
Vector-core runs are checked once, after the run.

The index keeps its classes from their first read on. The walk
comparison reads them, so an event-core test's first check starts the
incremental tracking that every later step then checks; a vector-core
run, which only fleet estimates would read classes from, tracks none.
"""

import os

import pytest

from repro.cluster import ClusterSimulator, load_trace
from repro.cluster.pool import PoolIndex, class_key
from repro.config import HwConfig
from repro.errors import ClusterError
from repro.fleet import FleetAutoscaler, FleetOrchestrator, SiteConfig
from repro.fleet.site import FleetSite
from repro.serving import synthetic_registry
from repro.smoke import reference_pool

TASKS = ("sst2", "mnli", "qqp", "qnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def bursty():
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "traces", "reference_bursty.jsonl")
    return load_trace(os.path.abspath(path))


def walk(sim):
    """``(free ids, {class key: ids}, online count)`` from one walk."""
    free, classes, online = [], {}, 0
    for accel in sim.accelerators:
        if not accel.online:
            continue
        online += 1
        if accel.idle:
            free.append(accel.accel_id)
            classes.setdefault(class_key(accel), []).append(
                accel.accel_id)
    return free, classes, online


def assert_index_matches_walk(sim):
    index = sim.pool_index
    assert (index.free, index.classes, index.online) == walk(sim)


@pytest.mark.parametrize("policy", ["fifo", "affinity", "edf", "energy"])
def test_event_core_index_matches_walk_after_every_event(registry, bursty,
                                                         policy):
    sim = ClusterSimulator(registry, hw_configs=reference_pool(),
                           policy=policy).start()
    for request in bursty:
        sim.inject(request)
    assert_index_matches_walk(sim)
    steps = busy_steps = 0
    while sim.step():
        assert_index_matches_walk(sim)
        steps += 1
        busy_steps += len(sim.pool_index.free) < sim.num_accelerators
    report = sim.finish()
    assert report.num_requests == len(bursty)
    assert busy_steps > 0 and steps > len(bursty)
    if policy == "edf":
        # Preemption victims go busy to busy; the index must not move.
        assert report.preemptions > 0


def test_index_drift_fails_finish(registry, bursty):
    sim = ClusterSimulator(registry, hw_configs=reference_pool())
    sim.start()
    for request in bursty[:20]:
        sim.inject(request)
    sim.run_until()
    sim.pool_index.online -= 1
    with pytest.raises(ClusterError, match="pool index drifted: online"):
        sim.finish()


@pytest.mark.parametrize("policy", ["fifo", "affinity", "energy"])
def test_vector_core_index_matches_walk_after_run(registry, bursty,
                                                  policy):
    sim = ClusterSimulator(registry, hw_configs=reference_pool(),
                           policy=policy)
    report = sim.run(bursty)
    assert report.engine == "vector"
    assert report.num_batches > sim.num_accelerators
    # Nothing read the classes, so the run computed no class key.
    assert sim.pool_index._classes is None
    assert_index_matches_walk(sim)


def test_index_drift_fails_vector_run(registry, bursty, monkeypatch):
    real_release = PoolIndex.release
    calls = []

    def release(self, accel):
        # start() walks the idle pool through release, one call per
        # device; the next call is the vector core's first completion,
        # whose device the index then loses.
        calls.append(accel.accel_id)
        if len(calls) != len(reference_pool()) + 1:
            real_release(self, accel)

    monkeypatch.setattr(PoolIndex, "release", release)
    sim = ClusterSimulator(registry, hw_configs=reference_pool())
    with pytest.raises(ClusterError, match="pool index drifted"):
        sim.run(bursty)


def test_fleet_index_and_census_match_walk_after_every_step(
        registry, bursty, monkeypatch):
    seen = {"checks": 0, "parked": 0}

    def check(site):
        # Site estimates read the index's classes as they stand.
        assert_index_matches_walk(site.sim)
        seen["checks"] += 1
        seen["parked"] += site.sim.pool_index.online \
            < site.sim.num_accelerators

    real_set_online = FleetSite.set_device_online

    def run_until(self, until_ms=None):
        # One event per step, each through FleetSite.step, then the
        # check.
        moved = 0
        while (at := self.peek_ms()) is not None \
                and (until_ms is None or at <= until_ms):
            self.step()
            check(self)
            moved += 1
        return moved

    def set_device_online(self, accel_id, online, now_ms=None):
        changed = real_set_online(self, accel_id, online, now_ms=now_ms)
        check(self)
        return changed

    monkeypatch.setattr(FleetSite, "run_until", run_until)
    monkeypatch.setattr(FleetSite, "set_device_online", set_device_online)
    # A brownout: tight power caps throttle every site mid-run.
    configs = [
        SiteConfig("edge-a", hw_configs=reference_pool(), rtt_ms=2.0,
                   energy_budget_mw=15.0),
        SiteConfig("edge-b", num_accelerators=6, rtt_ms=5.0,
                   standby_timeout_ms=20.0, energy_budget_mw=15.0),
        SiteConfig("edge-c", hw_configs=(HwConfig(mac_vector_size=16),
                                         HwConfig(mac_vector_size=8)) * 2,
                   rtt_ms=8.0, energy_budget_mw=15.0),
    ]
    fleet = FleetOrchestrator(registry, configs, routing="energy",
                              autoscaler=FleetAutoscaler(interval_ms=25.0))
    report = fleet.run(bursty)
    assert len(report.records) == len(bursty)
    stats = fleet.autoscaler.stats
    assert sum(stats.parks.values()) > 0 and sum(stats.wakes.values()) > 0
    assert report.deferrals > 0
    assert all(o.admitted and o.report.budget.throttle_events
               for o in report.sites)
    assert seen["checks"] > 0 and seen["parked"] > 0
