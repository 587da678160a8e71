"""Routing-policy unit suite: feasibility, shaping, affinity, rotation.

Policies are exercised against lightweight stub sites (no simulators):
the policy contract only needs the routing-facing observables — one
``quote`` per site (slack, load and headroom, or None when the round
trip alone misses the deadline or the site's mode refuses the request),
``serves`` and ``estimate_request`` at the quoted slack — so the suite
pins the decision logic itself: infeasible sites are skipped, budget
shaping defers relaxed requests before tight ones, affinity pins are
honored, every decision is deterministic, and the one-pass energy
router decides as the sort-based reference scorer does.
"""

import random

import pytest
from fleet_reference import SortedEnergyRouting

from repro.errors import FleetError
from repro.fleet import (
    EnergyDeadlineRouting,
    LeastLoadedRouting,
    RoundRobinRouting,
    RoutingDecision,
    make_routing_policy,
)
from repro.serving import Request


class StubSite:
    """The routing-facing surface of a site, hand-tuned per test.

    ``energy_mj=None`` stands for a site with nothing online.
    """

    def __init__(self, site_id, rtt_ms=2.0, load=0.0, headroom=1.0,
                 energy_mj=1.0, latency_ms=1.0, serves=True):
        self.site_id = site_id
        self.rtt_ms = rtt_ms
        self._load = load
        self._headroom = headroom
        self._energy = energy_mj
        self._latency = latency_ms
        self._serves = serves

    def quote(self, request, now_ms):
        slack = request.deadline_ms - now_ms - self.rtt_ms
        if slack <= 1e-9 or not self.serves(request):
            return None
        return slack, self._load, self._headroom

    def serves(self, request):
        return self._serves

    def estimate_request(self, request, now_ms, slack):
        assert slack == self.quote(request, now_ms)[0]
        if self._energy is None:
            return None
        return (self._energy, self._latency)


def request(target_ms=50.0, arrival_ms=0.0, site=None, request_id=0):
    return Request(request_id=request_id, task="sst2", sentence=0,
                   target_ms=target_ms, arrival_ms=arrival_ms, site=site)


class TestRoundRobin:
    def test_rotates_in_site_order(self):
        policy = RoundRobinRouting()
        policy.reset()
        sites = [StubSite("a"), StubSite("b"), StubSite("c")]
        picks = [policy.route(request(request_id=i), sites, 0.0).site_index
                 for i in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_rtt_infeasible_sites(self):
        policy = RoundRobinRouting()
        policy.reset()
        # Site b's round trip alone blows the 10 ms target.
        sites = [StubSite("a", rtt_ms=2.0), StubSite("b", rtt_ms=50.0),
                 StubSite("c", rtt_ms=4.0)]
        picks = [policy.route(request(target_ms=10.0, request_id=i),
                              sites, 0.0).site_index
                 for i in range(4)]
        assert 1 not in picks
        assert picks == [0, 2, 0, 2]

    def test_all_infeasible_falls_back_to_least_rtt(self):
        policy = RoundRobinRouting()
        policy.reset()
        sites = [StubSite("a", rtt_ms=30.0), StubSite("b", rtt_ms=20.0)]
        decision = policy.route(request(target_ms=5.0), sites, 0.0)
        assert decision.site_index == 1  # least damage
        assert not decision.deferred


class TestLeastLoaded:
    def test_picks_the_least_loaded_feasible_site(self):
        policy = LeastLoadedRouting()
        policy.reset()
        sites = [StubSite("a", load=3.0), StubSite("b", load=0.5),
                 StubSite("c", load=1.0)]
        assert policy.route(request(), sites, 0.0).site_index == 1

    def test_load_ties_break_on_rtt_then_order(self):
        policy = LeastLoadedRouting()
        policy.reset()
        sites = [StubSite("a", load=1.0, rtt_ms=5.0),
                 StubSite("b", load=1.0, rtt_ms=2.0)]
        assert policy.route(request(), sites, 0.0).site_index == 1

    def test_infeasible_sites_never_win_on_load(self):
        policy = LeastLoadedRouting()
        policy.reset()
        sites = [StubSite("a", load=9.0, rtt_ms=1.0),
                 StubSite("b", load=0.0, rtt_ms=60.0)]
        assert policy.route(request(target_ms=10.0),
                            sites, 0.0).site_index == 0


class TestEnergyDeadlineRouting:
    def test_picks_minimum_predicted_joules(self):
        policy = EnergyDeadlineRouting()
        policy.reset()
        sites = [StubSite("a", energy_mj=3.0), StubSite("b", energy_mj=1.0),
                 StubSite("c", energy_mj=2.0)]
        assert policy.route(request(), sites, 0.0).site_index == 1

    def test_rtt_infeasible_sites_are_skipped(self):
        policy = EnergyDeadlineRouting()
        policy.reset()
        # The cheapest site is out of RTT range for this deadline.
        sites = [StubSite("a", energy_mj=0.1, rtt_ms=80.0),
                 StubSite("b", energy_mj=5.0, rtt_ms=2.0)]
        assert policy.route(request(target_ms=20.0),
                            sites, 0.0).site_index == 1

    def test_deadline_infeasible_compute_loses_to_feasible(self):
        policy = EnergyDeadlineRouting()
        policy.reset()
        # Site a is cheaper but its predicted compute blows the slack.
        sites = [StubSite("a", energy_mj=0.5, latency_ms=100.0),
                 StubSite("b", energy_mj=2.0, latency_ms=1.0)]
        assert policy.route(request(target_ms=20.0),
                            sites, 0.0).site_index == 1

    def test_backlog_spills_to_the_next_cheapest_site(self):
        policy = EnergyDeadlineRouting()
        policy.reset()
        # Cheap site a is saturated: backlog * latency blows the slack.
        sites = [StubSite("a", energy_mj=0.5, latency_ms=10.0, load=8.0),
                 StubSite("b", energy_mj=2.0, latency_ms=1.0)]
        assert policy.route(request(target_ms=30.0),
                            sites, 0.0).site_index == 1

    def test_shaping_prefers_open_window_over_pressed_site(self):
        policy = EnergyDeadlineRouting()
        policy.reset()
        # a is cheaper, but its budget window is nearly exhausted:
        # 1.0 / 0.1 = 10 effective vs b's open-window 2.0.
        sites = [StubSite("a", energy_mj=1.0, headroom=0.1),
                 StubSite("b", energy_mj=2.0, headroom=1.0)]
        assert policy.route(request(), sites, 0.0).site_index == 1

    def test_shaping_defers_relaxed_before_tight(self):
        """The shaping contract: when every feasible site is pressed,
        relaxed-SLO traffic waits for the windows to recover while
        tight-SLO traffic still routes immediately."""
        policy = EnergyDeadlineRouting()
        policy.reset()
        pressed = [StubSite("a", headroom=0.05),
                   StubSite("b", headroom=0.10)]
        relaxed = policy.route(request(target_ms=500.0), pressed, 0.0)
        assert relaxed.deferred
        assert relaxed.retry_ms is not None and relaxed.retry_ms > 0.0
        assert policy.deferrals == 1

        tight = policy.route(request(target_ms=12.0), pressed, 0.0)
        assert not tight.deferred
        assert tight.site_index is not None

    def test_deferral_stops_when_slack_runs_out(self):
        """A request cannot be deferred past the point where waiting
        would cost it the deadline — it routes, pressed or not."""
        policy = EnergyDeadlineRouting()
        pressed = [StubSite("a", headroom=0.01, rtt_ms=2.0)]
        # Slack after one more deferral would drop below the guard.
        decision = policy.route(
            request(target_ms=policy.defer_ms
                    + policy.defer_min_slack_ms),
            pressed, 0.0)
        assert not decision.deferred

    def test_relaxed_is_measured_against_the_nearest_serving_site(self):
        """Whether a request can wait one deferral depends on the sites
        that could take it: a nearer site whose mode refuses the request
        must not make it look relaxed."""
        policy = EnergyDeadlineRouting()
        policy.reset()
        # Only the far, pressed site serves: after one deferral its
        # round trip leaves 60 - 5 - 40 = 15 ms, under the 25 ms guard.
        sites = [StubSite("near", rtt_ms=2.0, serves=False),
                 StubSite("far", rtt_ms=40.0, headroom=0.1)]
        probe = request(target_ms=60.0)
        assert policy.route(probe, sites, 0.0) == RoutingDecision(1)
        assert sites[1].quote(probe, 0.0)[0] == 20.0
        assert policy.deferrals == 0

    def test_shaping_disabled_routes_straight_to_cheapest(self):
        policy = EnergyDeadlineRouting(shaping=False)
        policy.reset()
        sites = [StubSite("a", energy_mj=1.0, headroom=0.01),
                 StubSite("b", energy_mj=2.0, headroom=1.0)]
        decision = policy.route(request(), sites, 0.0)
        assert not decision.deferred
        assert decision.site_index == 0


def random_sites(rng):
    """Two to five stub sites drawn from small value sets.

    Energies and RTTs tie often; headrooms straddle the shaping
    pressure and the open window; latencies and loads blow some slacks;
    some sites refuse the request or have nothing online. One site
    always serves it, as the fleet's intake guarantees.
    """
    sites = []
    for k in range(rng.randint(2, 5)):
        sites.append(StubSite(
            f"s{k}", rtt_ms=rng.choice([0.0, 2.0, 5.0, 5.0, 40.0]),
            load=rng.choice([0.0, 0.0, 1.0, 8.0]),
            headroom=rng.choice([0.01, 0.1, 0.3499, 0.35, 0.5, 1.0]),
            energy_mj=rng.choice([None, 0.5, 1.0, 1.0, 2.0]),
            latency_ms=rng.choice([1.0, 1.0, 10.0, 100.0]),
            serves=rng.random() > 0.2))
    rng.choice(sites)._serves = True
    return sites


class TestOnePassScorer:
    @pytest.mark.parametrize("shaping", [True, False])
    def test_decides_as_the_sorted_reference(self, shaping):
        rng = random.Random(7)
        policy = EnergyDeadlineRouting(shaping=shaping)
        reference = SortedEnergyRouting(shaping=shaping)
        kinds = set()
        for trial in range(3000):
            sites = random_sites(rng)
            health = rng.choice([None, {s.site_id: rng.choice(
                [0.0, 0.5, 1.0]) for s in sites}])
            policy.health_of = reference.health_of = (
                None if health is None else health.__getitem__)
            probe = request(target_ms=rng.choice([5.0, 12.0, 30.0, 60.0,
                                                  500.0]),
                            request_id=trial,
                            site=rng.choice([None] * 9 + ["s0"]))
            now = rng.choice([0.0, 3.0, 20.0])
            got = policy.route(probe, sites, now)
            assert got == reference.route(probe, sites, now)
            assert policy.deferrals == reference.deferrals
            quotes = [s.quote(probe, now) for s in sites]
            kinds.add("deferred" if got.deferred
                      else "fallback" if quotes[got.site_index] is None
                      else "routed")
        assert kinds == ({"deferred", "fallback", "routed"} if shaping
                         else {"fallback", "routed"})


class TestAffinity:
    @pytest.mark.parametrize("policy_name",
                             ["round-robin", "least-loaded", "energy"])
    def test_pin_is_honored_when_feasible(self, policy_name):
        policy = make_routing_policy(policy_name)
        policy.reset()
        sites = [StubSite("a", energy_mj=0.1, load=0.0),
                 StubSite("b", energy_mj=9.0, load=9.0)]
        decision = policy.route(request(site="b"), sites, 0.0)
        assert decision.site_index == 1

    def test_infeasible_pin_falls_back_to_free_routing(self):
        policy = EnergyDeadlineRouting()
        policy.reset()
        sites = [StubSite("a", rtt_ms=2.0),
                 StubSite("b", rtt_ms=80.0)]
        decision = policy.route(request(target_ms=20.0, site="b"),
                                sites, 0.0)
        assert decision.site_index == 0

    def test_unknown_pin_raises(self):
        policy = EnergyDeadlineRouting()
        policy.reset()
        with pytest.raises(FleetError):
            policy.route(request(site="nowhere"), [StubSite("a")], 0.0)


class TestRegistry:
    def test_make_routing_policy_resolves_names_and_instances(self):
        assert make_routing_policy("rr").name == "round-robin"
        policy = EnergyDeadlineRouting()
        assert make_routing_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(FleetError):
            make_routing_policy("teleport")
