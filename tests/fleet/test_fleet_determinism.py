"""Fleet determinism and accounting: bit-identical replays, RTT math,
energy reconciliation, conservation."""

import dataclasses
import json
import math

import pytest

from repro.config import GLUE_TASKS, HwConfig
from repro.errors import FleetError
from repro.fleet import FleetOrchestrator, SiteConfig
from repro.serving import Request, synthetic_registry, synthetic_traffic


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(GLUE_TASKS, n=32, seed=0)


@pytest.fixture(scope="module")
def trace(registry):
    return synthetic_traffic(registry, 120, seed=0,
                             mean_interarrival_ms=1.0,
                             modes=("base", "lai"))


def site_configs(order=("alpha", "beta", "gamma")):
    """Three distinct sites, constructible in any order."""
    by_id = {
        "alpha": SiteConfig(
            site_id="alpha", rtt_ms=2.0, policy="energy",
            hw_configs=(HwConfig(mac_vector_size=32),
                        HwConfig(mac_vector_size=16))),
        "beta": SiteConfig(
            site_id="beta", rtt_ms=5.0, policy="energy",
            hw_configs=(HwConfig(mac_vector_size=16),
                        HwConfig(mac_vector_size=16))),
        "gamma": SiteConfig(
            site_id="gamma", rtt_ms=8.0, policy="energy",
            energy_budget_mw=30.0,
            hw_configs=(HwConfig(mac_vector_size=16),
                        HwConfig(mac_vector_size=8))),
    }
    return tuple(by_id[name] for name in order)


def run_fleet(registry, trace, order=("alpha", "beta", "gamma"),
              routing="energy"):
    return FleetOrchestrator(registry, site_configs(order),
                             routing=routing).run(trace)


class TestDeterminism:
    @pytest.mark.parametrize("routing",
                             ["round-robin", "least-loaded", "energy"])
    def test_same_trace_replays_bit_identical(self, registry, trace,
                                              routing):
        first = run_fleet(registry, trace, routing=routing).summary()
        second = run_fleet(registry, trace, routing=routing).summary()
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True)

    @pytest.mark.parametrize("order", [
        ("gamma", "beta", "alpha"),
        ("beta", "gamma", "alpha"),
    ])
    def test_site_config_ordering_is_irrelevant(self, registry, trace,
                                                order):
        canonical = run_fleet(registry, trace).summary()
        permuted = run_fleet(registry, trace, order=order).summary()
        assert json.dumps(canonical, sort_keys=True) \
            == json.dumps(permuted, sort_keys=True)

    def test_per_record_assignments_replay_identically(self, registry,
                                                       trace):
        first = run_fleet(registry, trace)
        second = run_fleet(registry, trace,
                           order=("gamma", "alpha", "beta"))
        for a, b in zip(first.records, second.records):
            assert a.request.request_id == b.request.request_id
            assert a.site_id == b.site_id
            assert a.completion_ms == b.completion_ms


class TestAccounting:
    def test_conservation_and_reconciliation(self, registry, trace):
        report = run_fleet(registry, trace)
        assert report.num_requests == len(trace)
        served = sorted(rec.request.request_id for rec in report.records)
        assert served == sorted(r.request_id for r in trace)
        assert report.reconcile(tol=1e-9)

    def test_fleet_total_is_summed_site_reports(self, registry, trace):
        report = run_fleet(registry, trace)
        summed = sum(outcome.report.energy.total_mj
                     for outcome in report.sites)
        assert abs(report.total_energy_mj - summed) <= 1e-9

    def test_rtt_legs_are_charged_end_to_end(self, registry, trace):
        report = run_fleet(registry, trace)
        for rec in report.records:
            # Completion back at the front-end = site completion + egress.
            assert rec.completion_ms == pytest.approx(
                rec.site_record.completion_ms + rec.rtt_ms / 2.0)
            # The response cannot beat compute + the full round trip.
            assert rec.time_in_system_ms \
                >= rec.site_record.result.latency_ms + rec.rtt_ms - 1e-9

    def test_site_local_deadline_nets_out_the_rtt(self, registry, trace):
        """The slack a site (and its deadline-aware DVFS planner) sees
        is the original deadline minus the egress leg."""
        report = run_fleet(registry, trace)
        for rec in report.records:
            local = rec.site_record.request
            assert local.deadline_ms == pytest.approx(
                rec.request.deadline_ms - rec.rtt_ms / 2.0)

    def test_site_deadline_met_iff_fleet_deadline_met(self, registry,
                                                      trace):
        report = run_fleet(registry, trace)
        for rec in report.records:
            assert rec.deadline_met == rec.site_record.deadline_met


class TestValidation:
    def test_empty_fleet_raises(self, registry):
        with pytest.raises(FleetError):
            FleetOrchestrator(registry, ())

    def test_duplicate_site_ids_raise(self, registry):
        config = site_configs()[0]
        with pytest.raises(FleetError):
            FleetOrchestrator(registry, (config, config))

    def test_empty_trace_raises(self, registry):
        with pytest.raises(FleetError):
            FleetOrchestrator(registry, site_configs()).run([])

    def test_duplicate_request_ids_raise(self, registry):
        twice = [Request(request_id=1, task=GLUE_TASKS[0], sentence=0,
                         target_ms=50.0),
                 Request(request_id=1, task=GLUE_TASKS[0], sentence=1,
                         target_ms=50.0)]
        with pytest.raises(FleetError):
            FleetOrchestrator(registry, site_configs()).run(twice)

    def test_negative_rtt_raises(self):
        with pytest.raises(FleetError):
            SiteConfig(site_id="x", rtt_ms=-1.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(FleetError, match="finite"):
                SiteConfig(site_id="x", rtt_ms=bad)

    @pytest.mark.parametrize("field, value", [
        ("batch_timeout_ms", math.nan),
        ("max_batch_size", 0),
        ("energy_budget_mw", -1.0),
        ("budget_window_ms", math.inf),
        ("num_accelerators", 0),
        ("policy", "bogus"),
        ("mode", "bogus"),
    ])
    def test_bad_site_configuration_fails_at_construction(
            self, registry, field, value):
        config = dataclasses.replace(
            SiteConfig("edge", num_accelerators=2), **{field: value})
        with pytest.raises(FleetError, match="site 'edge'"):
            FleetOrchestrator(registry, (site_configs()[0], config))

    def test_site_affinity_routes_to_the_pinned_site(self, registry):
        pinned = [Request(request_id=i, task=GLUE_TASKS[0], sentence=i,
                          target_ms=80.0, arrival_ms=float(i),
                          mode="lai", site="gamma")
                  for i in range(6)]
        report = run_fleet(registry, pinned)
        assert {rec.site_id for rec in report.records} == {"gamma"}
