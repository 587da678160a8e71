"""EnergyGovernor placement tests: determinism, scoring, feasibility."""

import json
import math

import pytest

from repro.cluster import ClusterSimulator, make_policy
from repro.config import HwConfig
from repro.energy import EnergyGovernor
from repro.energy.__main__ import run_smoke
from repro.errors import EnergyError
from repro.serving import Request, synthetic_registry, synthetic_traffic

TASKS = ("sst2", "mnli")
POOL = tuple(HwConfig(mac_vector_size=n) for n in (32, 16, 8))


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def trace(registry):
    return synthetic_traffic(registry, 120, seed=5,
                             mean_interarrival_ms=1.0,
                             modes=("base", "lai"))


class TestFactory:
    def test_resolves_by_name_and_alias(self):
        assert isinstance(make_policy("energy"), EnergyGovernor)
        assert isinstance(make_policy("governor"), EnergyGovernor)
        assert make_policy("energy").name == "energy"
        assert not make_policy("energy").preemptive

    def test_negative_slack_raises(self):
        with pytest.raises(EnergyError):
            EnergyGovernor(slack_ms=-1.0)
        # A NaN slack would make every placement infeasible.
        for bad in (math.nan, math.inf):
            with pytest.raises(EnergyError, match="finite"):
                EnergyGovernor(slack_ms=bad)


class TestDeterminism:
    def test_fixed_seed_replays_identically(self, registry, trace):
        def summary():
            report = ClusterSimulator(registry, policy="energy",
                                      hw_configs=POOL).run(trace)
            record = report.summary()
            record.pop("wall_seconds", None)
            return json.dumps(record, sort_keys=True)

        assert summary() == summary()


def probe_estimates(registry, request, mode="lai"):
    """Per-device :class:`PlacementEstimate` for one fresh-pool request."""
    from repro.cluster.batcher import BatchFormer

    sim = ClusterSimulator(registry, policy="energy", hw_configs=POOL,
                           batch_timeout_ms=0.0)
    accels = sim.start().accelerators
    former = BatchFormer((request.task, request.target_ms, mode),
                         max_batch_size=1)
    pb = former.make_pending(former.add(request, 0.0), 0.0, 0)
    return {a.accel_id: a.estimate(pb, 0.0) for a in accels}


class TestScoring:
    def test_relaxed_singleton_lands_on_cheapest_device(self, registry):
        # One relaxed request, the whole pool free: the governor must
        # pick the device where (compute + swap + wake) joules are
        # least — which a brute-force re-score agrees with.
        request = Request(request_id=0, task="sst2", sentence=0,
                          target_ms=200.0, arrival_ms=0.0)
        report = ClusterSimulator(registry, policy="energy",
                                  hw_configs=POOL,
                                  batch_timeout_ms=0.0).run([request])
        chosen = report.records[0].accel_id
        costs = {accel_id: est.total_energy_mj for accel_id, est
                 in probe_estimates(registry, request).items()}
        assert chosen == min(costs, key=lambda k: (costs[k], k))

    def test_infeasible_devices_are_avoided_when_possible(self, registry):
        # Pick a base-mode deadline between the fastest and slowest
        # device's latency so feasibility splits the pool: the governor
        # must land on a device fast enough, even when a slower one is
        # cheaper in joules.
        probe = Request(request_id=0, task="sst2", sentence=0,
                        target_ms=500.0, arrival_ms=0.0, mode="base")
        latencies = {accel_id: est.latency_ms for accel_id, est
                     in probe_estimates(registry, probe,
                                        mode="base").items()}
        fastest, slowest = min(latencies.values()), max(latencies.values())
        assert fastest < slowest  # heterogeneity is real
        tight = (fastest + slowest) / 2.0
        trace = [Request(request_id=0, task="sst2", sentence=0,
                         target_ms=tight, arrival_ms=0.0, mode="base")]
        report = ClusterSimulator(registry, policy="energy",
                                  hw_configs=POOL,
                                  batch_timeout_ms=0.0).run(trace)
        assert latencies[report.records[0].accel_id] <= tight

    def test_work_conserving(self, registry, trace):
        # The governor never idles the pool while work is pending: every
        # request is served and no batch waits for a busy "favorite".
        report = ClusterSimulator(registry, policy="energy",
                                  hw_configs=POOL).run(trace)
        assert report.num_requests == len(trace)
        used = [a for a in report.accelerators if a.batches > 0]
        assert len(used) >= 2  # load spreads beyond the single cheapest


class TestHeadlineClaim:
    def test_beats_fifo_on_energy_at_no_worse_slo(self, registry, trace):
        fifo = ClusterSimulator(registry, policy="fifo",
                                hw_configs=POOL).run(trace)
        gov = ClusterSimulator(registry, policy="energy",
                               hw_configs=POOL).run(trace)
        assert gov.energy.total_mj < fifo.energy.total_mj
        assert gov.deadline_violations <= fifo.deadline_violations


def test_smoke_target():
    run_smoke(num_requests=120, n_sentences=32, verbose=False)


class TestSwapPerEstimate:
    @pytest.mark.parametrize("engine", ["vector", "event"])
    def test_one_swap_per_estimate_plus_one_per_start(
            self, registry, engine, monkeypatch):
        # Deadline-aware lai batches price with the swap on both cores,
        # so every estimate and every start needs the device's swap:
        # each must compute it exactly once.
        trace = synthetic_traffic(registry, 120, seed=5,
                                  mean_interarrival_ms=1.0,
                                  modes=("lai",))

        def run():
            sim = ClusterSimulator(registry, policy="energy",
                                   hw_configs=POOL, deadline_aware=True)
            report = sim.run(trace) if engine == "vector" \
                else sim.run_events(trace)
            assert report.engine == engine
            record = report.summary()
            record.pop("wall_seconds", None)
            return json.dumps(record, sort_keys=True)

        before = run()
        calls = dict.fromkeys(("_swap_for", "_estimate_placement",
                               "_begin"), 0)
        for name in calls:
            def counted(self, *args, _name=name,
                        _fn=getattr(ClusterSimulator, name)):
                calls[_name] += 1
                return _fn(self, *args)

            monkeypatch.setattr(ClusterSimulator, name, counted)
        assert run() == before
        assert calls["_estimate_placement"] > calls["_begin"] > 0
        assert calls["_swap_for"] \
            == calls["_estimate_placement"] + calls["_begin"]
