"""Fleet routing estimates priced from shared whole-profile tables.

The router's per-device compute term is one row of a table that prices
every sentence of a (task, slack bucket, mode, hardware) variant in one
engine call, memoized on the registry. These tests hold the three
properties that make that a pure speedup:

* a table row equals the one-request ``price_batch`` it replaces, bit
  for bit, for every mode, hardware variant and kernel flag — both the
  router's float columns and the boxed result row a site serves, which
  is boxed once and handed back as the same object afterwards — also
  for a profile whose threshold sends sentences out at layer 1;
* each table is built once per registry, however many sites read it,
  and ``lai`` tables at new targets reuse the profile's exit columns:
  the logits ``argmax``, the LUT prediction and the bounded exit search
  run once per profile;
* fleet reports are unchanged — digests pinned from the per-miss
  singleton pricing they replaced.
"""

import hashlib
import json
from collections import Counter
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


def with_layer1_exits(registry):
    """``registry`` with half of each task's sentences exiting at layer 1.

    The synthetic profiles have none: every layer-1 entropy sits above
    their threshold. Set before any hardware variant is built, so the
    variants copy it.
    """
    for task in registry.tasks:
        profile = registry.profile(task)
        profile.entropy_threshold = float(np.median(profile.entropies[0]))
    return registry


class TestTableRowsMatchSingletonPricing:
    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("mode", ["base", "ee", "lai"])
    def test_rows_bit_identical(self, mode, vectorized):
        plain = synthetic_registry(TASKS[:2], n=24, seed=5)
        layer1 = with_layer1_exits(synthetic_registry(TASKS[:1], n=24,
                                                      seed=5))
        for registry in (plain, layer1):
            assert self._check_rows(registry, mode, vectorized) > 0
        layer1_exits = sum(
            row.exit_layer == 1 for row in _build_table(
                layer1, TASKS[0], 5.0, mode, None,
                vectorized=vectorized).rows(range(24)))
        assert (layer1_exits > 0) == (mode != "base")

    @staticmethod
    def _check_rows(registry, mode, vectorized):
        """Hold every table row to singleton pricing; count SLO misses."""
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
        return missed

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


class TestLaiTablesReuseExitColumns:
    """A ``lai`` table at a new target prices only the V/F plan."""

    def test_exit_work_runs_once_per_profile(self, monkeypatch):
        registry = synthetic_registry(TASKS[:1], n=24, seed=5)
        profile = registry.profile(TASKS[0])
        calls = Counter()

        class CountingLogits(np.ndarray):
            def argmax(self, *args, **kwargs):
                calls["argmax"] += 1
                return np.asarray(self).argmax(*args, **kwargs)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # Hardware variants share the logits and the LUT, so set both
        # before the first variant is built.
        profile.logits = profile.logits.view(CountingLogits)
        monkeypatch.setattr(profile.lut, "predict",
                            counted("predict", profile.lut.predict))
        monkeypatch.setattr(
            engine_module, "bounded_exit_layers",
            counted("bounded", engine_module.bounded_exit_layers))
        for hw in HW_VARIANTS:
            for target in (1.5, 5.0, 20.0, 35.0):
                _build_table(registry, TASKS[0], target, "lai", hw)
                route_table(registry, TASKS[0], target + 0.5, "lai", hw,
                            True)
        profiles = {id(registry.profile_for(TASKS[0], hw))
                    for hw in HW_VARIANTS}
        assert calls == {name: len(profiles)
                         for name in ("argmax", "predict", "bounded")}


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
