"""Fleet drive-loop equivalence: production against the references.

``FleetOrchestrator._drain`` consumes the sorted arrival columns in bulk
and free-runs each site between front-end instants; the per-event
reference (:func:`fleet_reference.naive_drain`) schedules one heap
event per arrival and steps every site one event at a time. The two
must replay bit-identically — same summaries, same per-record
placement/timing/pricing, same telemetry spans, same monitor alert
stream — across routing policies, autoscaling, health feedback,
affinity pins, standby timeouts (where sites price every device per
estimate instead of pricing classes), brownout caps that drive
deferrals, and *every ordering of the site list*.

Both loops read the sites' placement estimates, so
:class:`TestEstimateMemo` holds the per-class cost rows to a fresh
per-device pool computation on every call: whole runs, a two-MAC-size
pool that crosses the idle and busy regimes, a park mid-run that
changes the online pool, and a standby site's decaying wake term.
"""

import json
import random
from dataclasses import replace

import pytest
from fleet_reference import (
    busy_devices,
    online_devices,
    pool_estimate,
    pool_quote,
    run_reference,
)

from repro.config import HwConfig
from repro.fleet import FleetAutoscaler, FleetOrchestrator, SiteConfig
from repro.fleet.site import FleetSite
from repro.serving import Request, synthetic_registry, synthetic_traffic
from repro.telemetry import TelemetryMonitor, Tracer
from repro.telemetry.monitor import (
    BurnRateRule,
    LatencyQuantileRule,
    QueueDepthRule,
    SwapThrashRule,
)

GLUE_TASKS = ("sst2", "mnli", "qqp", "qnli")


@pytest.fixture(scope="module")
def registry():
    return synthetic_registry(GLUE_TASKS, n=64, seed=0)


@pytest.fixture(scope="module")
def trace(registry):
    return synthetic_traffic(registry, num_requests=1200, seed=1,
                             mean_interarrival_ms=1.0,
                             modes=("base", "lai"))


def site_configs(cap=True, standby_ms=None):
    """Three heterogeneous sites; the far one optionally power-capped."""
    return [
        SiteConfig("edge-a", num_accelerators=8, rtt_ms=2.0,
                   standby_timeout_ms=standby_ms),
        SiteConfig("edge-b", num_accelerators=6, rtt_ms=5.0,
                   standby_timeout_ms=standby_ms),
        SiteConfig("edge-c", num_accelerators=4, rtt_ms=8.0,
                   energy_budget_mw=30.0 if cap else None,
                   standby_timeout_ms=standby_ms),
    ]


def tight_rules():
    return (
        BurnRateRule("burn", slo_target=0.999, fast_window_ms=50.0,
                     slow_window_ms=250.0, fast_burn=2.0, slow_burn=1.0,
                     min_samples=5),
        LatencyQuantileRule("p95", q=0.95, threshold_ms=20.0,
                            window_ms=100.0, min_samples=5),
        QueueDepthRule("queue", depth=4, sustain_ms=5.0),
        SwapThrashRule("thrash", window_ms=100.0, threshold=2),
    )


def run_fleet(reference, configs, trace, registry, routing="energy",
              autoscale=False, telemetry=False, health=False):
    """One fleet run, production (``reference=False``) or reference."""
    kwargs = {}
    tracer = monitor = None
    if autoscale:
        kwargs["autoscaler"] = FleetAutoscaler(interval_ms=25.0)
    if telemetry:
        tracer = Tracer()
        monitor = TelemetryMonitor(tight_rules())
        kwargs["tracer"], kwargs["monitor"] = tracer, monitor
    if health:
        monitor = TelemetryMonitor(tight_rules())
        kwargs["monitor"] = monitor
        kwargs["health_routing"] = True
    fleet = FleetOrchestrator(registry, configs, routing=routing,
                              **kwargs)
    report = run_reference(fleet, trace) if reference else fleet.run(trace)
    alerts = None if monitor is None \
        else json.dumps(monitor.report().summary(), sort_keys=True)
    spans = None if tracer is None \
        else [(s.name, s.cat, s.start_ms, s.dur_ms, s.track,
               s.energy_mj) for s in tracer.spans()]
    return report, alerts, spans


def signature(report):
    """Summary plus the full per-record placement/timing/pricing."""
    records = [(r.request.request_id, r.site_id, r.routed_ms,
                r.completion_ms, r.site_record.result.latency_ms,
                r.site_record.result.energy_mj)
               for r in report.records]
    return (json.dumps(report.summary(), sort_keys=True), records)


class TestFrontEndEquivalence:
    @pytest.mark.parametrize("routing,autoscale", [
        ("energy", False),
        ("energy", True),
        ("rr", True),
        ("least-loaded", False),
    ])
    def test_bulk_matches_event(self, registry, trace, routing,
                                autoscale):
        results = [run_fleet(reference, site_configs(), trace, registry,
                             routing=routing, autoscale=autoscale)
                   for reference in (False, True)]
        assert signature(results[0][0]) == signature(results[1][0])

    def test_telemetry_spans_and_alert_stream_identical(self, registry,
                                                        trace):
        prod = run_fleet(False, site_configs(), trace, registry,
                         telemetry=True)
        ref = run_fleet(True, site_configs(), trace, registry,
                        telemetry=True)
        assert signature(prod[0]) == signature(ref[0])
        assert prod[1] == ref[1]  # alert stream
        assert prod[2] == ref[2]  # span log
        assert len(prod[2]) > 0

    def test_health_routing_feedback_loop(self, registry, trace):
        prod = run_fleet(False, site_configs(), trace, registry,
                         health=True)
        ref = run_fleet(True, site_configs(), trace, registry,
                        health=True)
        assert signature(prod[0]) == signature(ref[0])
        assert prod[1] == ref[1]


class TestSiteOrderings:
    """The production/reference identity must hold for every site
    ordering, and renaming-free permutations must not change any
    placement."""

    @pytest.mark.parametrize("ordering", ["identity", "reversed",
                                          "shuffled"])
    def test_equivalence_under_permutation(self, registry, trace,
                                           ordering):
        configs = site_configs()
        if ordering == "reversed":
            configs = list(reversed(configs))
        elif ordering == "shuffled":
            rng = random.Random(42)
            rng.shuffle(configs)
        prod, _, _ = run_fleet(False, configs, trace, registry)
        ref, _, _ = run_fleet(True, configs, trace, registry)
        assert signature(prod) == signature(ref)

    def test_permutation_leaves_placements_unchanged(self, registry,
                                                     trace):
        # Scoring ties break on site *identity*, never list position,
        # so reordering the config list is a pure no-op.
        base, _, _ = run_fleet(False, site_configs(), trace, registry)
        perm, _, _ = run_fleet(
            False, list(reversed(site_configs())), trace, registry)
        assert signature(base) == signature(perm)


class TestScorerFallbacks:
    def test_standby_sites_fall_back_to_exact_per_request(self, registry,
                                                          trace):
        # Standby timeouts make placement estimates depend on the
        # clock: such sites price every device on every call, and must
        # still replay identically.
        configs = site_configs(standby_ms=20.0)
        prod, _, _ = run_fleet(False, configs, trace, registry,
                               autoscale=True)
        ref, _, _ = run_fleet(True, configs, trace, registry,
                              autoscale=True)
        assert signature(prod) == signature(ref)

    def test_affinity_pins_bypass_the_scorer(self, registry, trace):
        pinned = [replace(r, site="edge-b") if r.request_id % 7 == 0
                  else r for r in trace]
        prod, _, _ = run_fleet(False, site_configs(), pinned, registry)
        ref, _, _ = run_fleet(True, site_configs(), pinned, registry)
        assert signature(prod) == signature(ref)
        assert any(rec.site_id == "edge-b" and
                   rec.request.request_id % 7 == 0
                   for rec in prod.records)

    def test_brownout_deferrals_replay_identically(self, registry,
                                                   trace):
        # Tight caps on every site force shaping deferrals — the
        # budget-recheck instants both loops must re-score at.
        tight = [replace(c, energy_budget_mw=8.0)
                 for c in site_configs()]
        prod, _, _ = run_fleet(False, tight, trace, registry)
        ref, _, _ = run_fleet(True, tight, trace, registry)
        assert prod.deferrals > 0
        assert signature(prod) == signature(ref)


def _one_request_site(registry, **config):
    """A started site with one base-mode request admitted at t=0.

    Base mode runs at the nominal rail, so the device parks above its
    standby point once the request is served.
    """
    site = FleetSite(SiteConfig("edge", rtt_ms=0.0, **config),
                     registry).start()
    site.admit(Request(request_id=0, task="sst2", sentence=0,
                       target_ms=50.0, mode="base"), 0.0)
    return site


def heterogeneous_configs():
    """Two MAC sizes per site, small enough pools to fill.

    Four tasks keep the residents mixed, and the two-device site
    saturates under the module trace, so estimates cross both the idle
    (min over classes) and the busy (device-order mean) regimes.
    """
    pair = (HwConfig(mac_vector_size=16), HwConfig(mac_vector_size=8))
    return [
        SiteConfig("edge-a", hw_configs=pair * 3, rtt_ms=2.0),
        SiteConfig("edge-b", hw_configs=pair * 2, rtt_ms=5.0),
        SiteConfig("edge-c", hw_configs=pair, rtt_ms=8.0),
    ]


class TestEstimateMemo:
    """Site estimates against the per-device oracle, call by call."""

    @pytest.mark.parametrize("scenario", ["autoscale", "health",
                                          "brownout", "standby",
                                          "heterogeneous"])
    def test_memo_matches_fresh_pool_estimates(self, registry, trace,
                                               monkeypatch, scenario):
        configs = site_configs(standby_ms=20.0 if scenario == "standby"
                               else None)
        if scenario == "brownout":
            configs = [replace(c, energy_budget_mw=8.0) for c in configs]
        if scenario == "heterogeneous":
            configs = heterogeneous_configs()
        kwargs = dict(autoscale=scenario not in ("brownout",
                                                 "heterogeneous"),
                      health=scenario == "health")
        priced, _, _ = run_fleet(False, configs, trace, registry,
                                 **kwargs)
        regimes = {"idle": 0, "busy": 0}
        by_class = FleetSite.estimate_request

        def fresh_estimate(site, request, now_ms, slack):
            want = pool_estimate(site, request, now_ms, slack)
            # Every call, bit for bit: the class rows against the
            # per-device walk.
            assert by_class(site, request, now_ms, slack) == want
            if want is not None:
                idle = len(busy_devices(site)) < len(online_devices(site))
                regimes["idle" if idle else "busy"] += 1
            return want

        monkeypatch.setattr(FleetSite, "estimate_request", fresh_estimate)
        monkeypatch.setattr(FleetSite, "quote", pool_quote)
        fresh, _, _ = run_fleet(False, configs, trace, registry, **kwargs)
        assert signature(priced) == signature(fresh)
        assert regimes["idle"] > 0
        if scenario == "heterogeneous":
            assert regimes["busy"] > 0

    def test_parking_mid_run_rekeys_the_memo(self, registry):
        site = _one_request_site(registry, hw_configs=(
            HwConfig(mac_vector_size=16), HwConfig(mac_vector_size=8)))
        while not busy_devices(site):
            assert site.step()
        now = site.sim.now_ms
        probe = Request(request_id=1, task="mnli", sentence=3,
                        target_ms=60.0, arrival_ms=now)
        slack, load, _ = site.quote(probe, now)
        before = (site.estimate_request(probe, now, slack), load)
        idle = [a for a in online_devices(site) if a.idle]
        assert len(idle) == 1
        site.set_device_online(idle[0].accel_id, False, now_ms=now)
        quote = site.quote(probe, now)
        after = (site.estimate_request(probe, now, slack), quote[1])
        assert quote == pool_quote(site, probe, now)
        assert after[0] == pool_estimate(site, probe, now, slack)
        # The park flipped the idle min to the busy mean and halved the
        # online pool: a stale estimate would have returned `before`.
        assert after[0] != before[0] and after[1] != before[1]

    def test_standby_site_prices_at_each_instant(self, registry):
        site = _one_request_site(registry, num_accelerators=1,
                                 standby_timeout_ms=2.0)
        while site.step():
            pass
        idle_since = site.sim.now_ms  # the last event is the completion
        # Both instants floor into one 5 ms slack bucket and base mode
        # reads no target, so only the wake term differs: the device
        # drops to standby 2 ms into its idle gap.
        probe = Request(request_id=1, task="mnli", sentence=3,
                        mode="base", target_ms=105.0,
                        arrival_ms=idle_since)
        instants = (idle_since + 0.1, idle_since + 4.9)
        slacks = [site.quote(probe, t)[0] for t in instants]
        got = [site.estimate_request(probe, t, slack)
               for t, slack in zip(instants, slacks)]
        assert got == [pool_estimate(site, probe, t, slack)
                       for t, slack in zip(instants, slacks)]
        assert got[0] != got[1]
