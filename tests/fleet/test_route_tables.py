"""Fleet routing estimates priced from shared whole-profile tables.

The router's per-device compute term is one row of a table that prices
every sentence of a (task, slack bucket, mode, hardware) variant in one
engine call, memoized on the registry. These tests hold the three
properties that make that a pure speedup:

* a table row equals the one-request ``price_batch`` it replaces, bit
  for bit, for every mode, hardware variant and kernel flag;
* each table is built once per registry, however many sites read it;
* fleet reports are unchanged — digests pinned from the per-miss
  singleton pricing they replaced.
"""

import hashlib
import json

import pytest

import repro.fleet.site as site_module
from repro.config import HwConfig
from repro.fleet import FleetOrchestrator, SiteConfig
from repro.fleet.site import route_table
from repro.serving import price_batch, synthetic_registry, synthetic_traffic
from repro.serving.request import Batch, Request

TASKS = ("sst2", "mnli", "qqp", "qnli")
#: The MAC-vector sizes of the e2e ``fleet_flagship`` sites, plus the
#: registry's own hardware (None).
HW_VARIANTS = (None,) + tuple(HwConfig(mac_vector_size=n)
                              for n in (32, 16, 8))


class TestTableRowsMatchSingletonPricing:
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("mode", ["base", "ee", "lai"])
    def test_rows_bit_identical(self, mode, vectorized):
        registry = synthetic_registry(TASKS[:2], n=24, seed=5)
        for task in registry.tasks:
            for hw in HW_VARIANTS:
                profile = registry.profile_for(task, hw)
                for target in (5.0, 35.0):
                    energies, latencies = route_table(
                        registry, task, target, mode, hw, vectorized)
                    assert len(energies) == profile.num_sentences
                    for i in range(profile.num_sentences):
                        request = Request(request_id=i, task=task,
                                          sentence=i, target_ms=target)
                        single = price_batch(
                            profile, Batch(task=task, target_ms=target,
                                           requests=(request,)),
                            mode, vectorized=vectorized).results[0]
                        assert energies[i] == float(single.energy_mj)
                        assert latencies[i] == float(single.latency_ms)
                        assert type(energies[i]) is float


def _counting_builder(monkeypatch):
    builds = []
    real = site_module._build_table

    def counting(registry, task, target_ms, mode, hw_config,
                 vectorized=True):
        builds.append((task, target_ms, mode, hw_config, vectorized))
        return real(registry, task, target_ms, mode, hw_config,
                    vectorized=vectorized)

    monkeypatch.setattr(site_module, "_build_table", counting)
    return builds


class TestOneStorePerRegistry:
    def test_each_table_built_once_across_sites(self, monkeypatch):
        registry = synthetic_registry(TASKS, n=64, seed=0)
        trace = synthetic_traffic(registry, 400, seed=2,
                                  mean_interarrival_ms=0.5,
                                  modes=("base", "lai"))
        # edge-a and edge-b run the same hardware at the same RTT, so
        # they need exactly the same tables.
        shared = (HwConfig(mac_vector_size=16),) * 4
        configs = [
            SiteConfig("edge-a", hw_configs=shared, rtt_ms=2.0),
            SiteConfig("edge-b", hw_configs=shared, rtt_ms=2.0),
            SiteConfig("edge-c", num_accelerators=4, rtt_ms=6.0,
                       energy_budget_mw=30.0),
        ]
        builds = _counting_builder(monkeypatch)
        report = FleetOrchestrator(registry, configs,
                                   routing="energy").run(trace)
        assert {r.site_id for r in report.records} >= {"edge-a", "edge-b"}
        assert builds, "energy routing priced no estimates"
        assert len(set(builds)) == len(builds)
        assert len(builds) == len(registry._route_tables)
        # The store outlives one fleet: a second fleet on this registry
        # prices nothing new.
        FleetOrchestrator(registry, configs, routing="energy").run(trace)
        assert len(builds) == len(registry._route_tables)


def _digest(report):
    records = [(r.request.request_id, r.site_id, r.routed_ms,
                r.completion_ms, r.site_record.result.latency_ms,
                r.site_record.result.energy_mj)
               for r in report.records]
    blob = json.dumps([report.summary(), records], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


#: Report digests of the scenario below, recorded with per-miss
#: singleton pricing (one ``price_batch`` call per estimate miss).
PINNED_DIGESTS = {
    True: "ea5a34628a1d433a",
    False: "35e9e25de25951ee",
}


class TestReportsPinned:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_energy_routing_with_capped_site(self, vectorized):
        registry = synthetic_registry(TASKS, n=64, seed=0)
        trace = synthetic_traffic(registry, 500, seed=4,
                                  mean_interarrival_ms=0.2,
                                  modes=("base", "ee", "lai"))
        # Scalar kernels cannot plan deadline budgets.
        kwargs = dict(vectorized=vectorized, deadline_aware=vectorized)
        configs = [
            SiteConfig("edge-a", num_accelerators=2, rtt_ms=2.0,
                       **kwargs),
            SiteConfig("edge-b", hw_configs=(HwConfig(mac_vector_size=16),
                                             HwConfig(mac_vector_size=8)),
                       rtt_ms=5.0, **kwargs),
            SiteConfig("edge-c", num_accelerators=4, rtt_ms=8.0,
                       energy_budget_mw=30.0, **kwargs),
        ]
        fleet = FleetOrchestrator(registry, configs, routing="energy")
        assert _digest(fleet.run(trace)) == PINNED_DIGESTS[vectorized]
