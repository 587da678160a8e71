"""Fleet routing estimates priced from shared whole-profile tables.

The router's per-device compute term is one row of a table that prices
every sentence of a (task, slack bucket, mode, hardware) variant in one
engine call, memoized on the registry. These tests hold the three
properties that make that a pure speedup:

* a table row equals the one-request ``price_batch`` it replaces, bit
  for bit, for every mode, hardware variant and kernel flag — both the
  router's float columns and the boxed result row a site serves, which
  is boxed once and handed back as the same object afterwards;
* each table is built once per registry, however many sites read it;
* fleet reports are unchanged — digests pinned from the per-miss
  singleton pricing they replaced.
"""

import hashlib
import json
from dataclasses import astuple

import numpy as np
import pytest

import repro.cluster.replay as replay_module
import repro.core.engine as engine_module
import repro.fleet.site as site_module
from repro.cluster.replay import _build_table
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


def _singleton(profile, task, sentence, target, mode, vectorized):
    """Sentence ``sentence`` priced alone, as a one-request batch."""
    request = Request(request_id=sentence, task=task, sentence=sentence,
                      target_ms=target)
    return price_batch(profile, Batch(task=task, target_ms=target,
                                      requests=(request,)),
                       mode, vectorized=vectorized).results[0]


class TestTableRowsMatchSingletonPricing:
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("mode", ["base", "ee", "lai"])
    def test_rows_bit_identical(self, mode, vectorized):
        registry = synthetic_registry(TASKS[:2], n=24, seed=5)
        missed = 0
        for task in registry.tasks:
            for hw in HW_VARIANTS:
                profile = registry.profile_for(task, hw)
                # 1.5 ms splits most variants' rows in every mode, so
                # the SLO judgement sees both outcomes.
                for target in (1.5, 5.0, 35.0):
                    energies, latencies = route_table(
                        registry, task, target, mode, hw, vectorized)
                    table = _build_table(registry, task, target, mode, hw,
                                         vectorized=vectorized)
                    assert len(energies) == profile.num_sentences
                    for i in range(profile.num_sentences):
                        single = _singleton(profile, task, i, target, mode,
                                            vectorized)
                        assert energies[i] == float(single.energy_mj)
                        assert latencies[i] == float(single.latency_ms)
                        assert type(energies[i]) is float
                        # The boxed row a site serves: all eight fields
                        # bit for bit, one object however often asked.
                        row = table.rows([i])[0]
                        assert row == single
                        assert table.rows([i])[0] is row
                        # The scalar oracle builds its rows by keyword,
                        # so it also pins the vectorized boxer's field
                        # order (both sides of ``row == single`` box
                        # through it).
                        oracle = single if not vectorized else _singleton(
                            profile, task, i, target, mode, False)
                        for got, want in zip(astuple(row),
                                             astuple(oracle)):
                            assert type(got) is type(want)
                            if type(want) is float:
                                assert abs(got - want) <= 1e-9
                            else:
                                assert got == want
                        missed += not single.met_target
        assert missed > 0

    def test_vectorized_build_is_one_column_dispatch(self, monkeypatch):
        registry = synthetic_registry(TASKS[:1], n=24, seed=5)

        def forbidden(*args, **kwargs):
            raise AssertionError("vectorized table build left the kernel")

        for owner, name in ((replay_module, "Request"),
                            (replay_module, "Batch"),
                            (replay_module, "price_batch"),
                            (engine_module, "EngineReport")):
            monkeypatch.setattr(owner, name, forbidden)
        for mode in ("base", "ee", "lai"):
            table = _build_table(registry, TASKS[0], 20.0, mode, None)
            assert table.latency_ms.dtype == table.energy_mj.dtype \
                == np.float64

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_batch_rows_share_first_boxing(self, vectorized):
        registry = synthetic_registry(TASKS[:1], n=24, seed=5)
        table = _build_table(registry, TASKS[0], 20.0, "lai", None,
                             vectorized=vectorized)
        first = table.rows([3, 7, 3, 11])
        assert first[0] is first[2]
        again = table.rows([11, 7, 3])
        assert [id(r) for r in again] \
            == [id(first[3]), id(first[1]), id(first[0])]


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
