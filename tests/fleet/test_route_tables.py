"""Whole-profile price tables, and the fleet routing estimates read off them.

A table prices every sentence of a (task, target, mode, hardware)
variant in one engine call. Every batch without a deadline budget
gathers its rows from one (``TaskProfile.price_table``), and the
router's per-device compute term is one row of a table memoized on the
registry. These tests hold the three properties that make that a pure
speedup:

* table rows equal the per-batch kernel call ``price_batch`` made
  before tables (``simulate_dataset`` on the batch's own slice, plus
  the base/ee SLO judgement), bit for bit, for one-member and random
  multi-member batches in every mode, hardware variant and kernel flag
  — both the router's float columns and the boxed result rows a site
  serves, which are boxed once and handed back as the same objects
  afterwards — also for a profile whose threshold sends sentences out
  at layer 1;
* each table is built once per registry, however many sites read it,
  and ``lai`` tables at new targets reuse the profile's exit columns:
  the logits ``argmax``, the LUT prediction and the bounded exit search
  run once per profile;
* fleet reports are unchanged — digests pinned from the per-miss
  singleton pricing they replaced.
"""

import hashlib
import json
import os
import sys
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

import repro.core.engine as engine_module
import repro.fleet.site as site_module
import repro.serving.server as server_module
from repro.config import HwConfig
from repro.fleet import FleetOrchestrator, SiteConfig
from repro.fleet.site import route_table
from repro.serving import (
    build_price_table,
    price_batch,
    synthetic_registry,
    synthetic_traffic,
)
from repro.serving.request import Batch, Request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "serving"))
from pricing_reference import per_batch_kernel, with_layer1_exits  # noqa: E402

TASKS = ("sst2", "mnli", "qqp", "qnli")
#: The MAC-vector sizes of the e2e ``fleet_flagship`` sites, plus the
#: registry's own hardware (None).
HW_VARIANTS = (None,) + tuple(HwConfig(mac_vector_size=n)
                              for n in (32, 16, 8))


def _batch(task, target, sentences):
    """A batch of ``sentences`` (repeats allowed), in order."""
    return Batch(task=task, target_ms=target, requests=tuple(
        Request(request_id=i, task=task, sentence=s, target_ms=target)
        for i, s in enumerate(sentences)))


def _table(registry, task, target, mode, hw, vectorized=True):
    """The table batches read: the profile's memo, or a scalar build."""
    profile = registry.profile_for(task, hw)
    if vectorized:
        return profile.price_table(mode, target)
    return build_price_table(profile, mode, target, vectorized=False)


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
            row.exit_layer == 1 for row in _table(
                layer1, TASKS[0], 5.0, mode, None,
                vectorized).rows(range(24)))
        assert (layer1_exits > 0) == (mode != "base")

    @staticmethod
    def _check_rows(registry, mode, vectorized):
        """Hold table rows to the per-batch kernel; count SLO misses."""
        rng = np.random.default_rng(7)
        missed = 0
        for task in registry.tasks:
            for hw in HW_VARIANTS:
                profile = registry.profile_for(task, hw)
                n = profile.num_sentences
                # 1.5 ms splits most variants' rows in every mode, so
                # the SLO judgement sees both outcomes.
                for target in (1.5, 5.0, 35.0):
                    energies, latencies = route_table(
                        registry, task, target, mode, hw, vectorized)
                    table = _table(registry, task, target, mode, hw,
                                   vectorized)
                    assert len(energies) == n
                    for i in range(n):
                        single = per_batch_kernel(
                            profile, _batch(task, target, [i]), mode,
                            vectorized)[0]
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
                        oracle = single if not vectorized \
                            else per_batch_kernel(
                                profile, _batch(task, target, [i]), mode,
                                False)[0]
                        for got, want in zip(astuple(row),
                                             astuple(oracle)):
                            assert type(got) is type(want)
                            if type(want) is float:
                                assert abs(got - want) <= 1e-9
                            else:
                                assert got == want
                        missed += not single.met_target
                    # Random multi-member batches, repeats included:
                    # the gather equals pricing the batch's own slice,
                    # and so does price_batch, which reads the table.
                    for size in rng.integers(2, 33, size=3).tolist():
                        sentences = rng.integers(n, size=size).tolist()
                        batch = _batch(task, target, sentences)
                        want = per_batch_kernel(profile, batch, mode,
                                                vectorized)
                        assert table.rows(sentences) == want
                        assert price_batch(
                            profile, batch, mode,
                            vectorized=vectorized).results == want
        return missed

    def test_vectorized_build_is_one_column_dispatch(self, monkeypatch):
        registry = synthetic_registry(TASKS[:1], n=24, seed=5)

        def forbidden(*args, **kwargs):
            raise AssertionError("vectorized table build left the kernel")

        for owner, name in ((server_module, "Request"),
                            (server_module, "price_batch"),
                            (server_module, "_scalar_oracle"),
                            (server_module, "EngineReport"),
                            (engine_module, "EngineReport")):
            monkeypatch.setattr(owner, name, forbidden)
        for mode in ("base", "ee", "lai"):
            table = build_price_table(registry.profile(TASKS[0]), mode,
                                      20.0)
            assert table.latency_ms.dtype == table.energy_mj.dtype \
                == np.float64

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_batch_rows_share_first_boxing(self, vectorized):
        registry = synthetic_registry(TASKS[:1], n=24, seed=5)
        table = _table(registry, TASKS[0], 20.0, "lai", None, vectorized)
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
                registry.profile_for(TASKS[0], hw).price_table("lai",
                                                               target)
                route_table(registry, TASKS[0], target + 0.5, "lai", hw,
                            True)
        profiles = {id(registry.profile_for(TASKS[0], hw))
                    for hw in HW_VARIANTS}
        assert calls == {name: len(profiles)
                         for name in ("argmax", "predict", "bounded")}


def _counting_builder(monkeypatch):
    builds = []
    real = site_module.build_price_table

    def counting(profile, mode, target_ms, vectorized=True):
        builds.append((profile.task, target_ms, mode,
                       profile.engine.hw_config, vectorized))
        return real(profile, mode, target_ms, vectorized=vectorized)

    monkeypatch.setattr(site_module, "build_price_table", counting)
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
