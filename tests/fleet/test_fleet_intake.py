"""Fleet intake off the happy path: a request no site could serve.

A site's ``inject`` refuses an unknown task, an out-of-range sentence
and a mode the task cannot serve. The fleet checks every request once
per run, before routing, so each routing policy raises that same error
(class and message) for the first offender in trace order — never an
error from inside the router's price-table lookups. A mode-less request
takes the serving site's mode, so on a fleet of mixed modes it offends
only when no site's mode fits its task; otherwise a site whose mode
does not fit is infeasible for it, pinned or not.
"""

import pytest

from repro.cluster import ClusterSimulator
from repro.fleet import FleetOrchestrator, SiteConfig
from repro.fleet.site import FleetSite
from repro.serving import Request, synthetic_registry

TASKS = ("sst2", "mnli")
POLICIES = ("energy", "round-robin", "least-loaded")

#: One offending request per case: (name, field overrides).
HOSTILE = [
    ("sentence out of range", {"sentence": 32}),
    ("unknown task", {"task": "cola"}),
    ("lai without a LUT", {"task": "mnli", "mode": "lai"}),
    ("site mode without a LUT", {"task": "mnli", "mode": None}),
]


@pytest.fixture(scope="module")
def registry():
    registry = synthetic_registry(TASKS, n=32, seed=0)
    # "mnli" cannot serve lai: it has no exit-predictor LUT.
    registry.profile("mnli").lut = None
    return registry


def hostile_trace(*offenders, n=6):
    """``n`` servable base-mode requests, with ``(at, overrides)`` applied."""
    fields = [dict(request_id=i, task=TASKS[i % 2], sentence=i,
                   target_ms=50.0, arrival_ms=float(i), mode="base")
              for i in range(n)]
    for at, overrides in offenders:
        fields[at].update(overrides)
    return [Request(**f) for f in fields]


def outcome(build):
    """``(error class, message)`` of ``build()``, or its result."""
    try:
        return build()
    except Exception as exc:  # compared against inject's error below
        return type(exc), str(exc)


def fleet(registry, policy):
    """Two two-device sites; both serve ``lai`` by default."""
    return FleetOrchestrator(registry, [
        SiteConfig("edge-a", num_accelerators=2, rtt_ms=2.0),
        SiteConfig("edge-b", num_accelerators=2, rtt_ms=5.0),
    ], routing=policy)


def inject_error(registry, trace):
    """What a site's ``inject`` raises on ``trace``, request by request."""
    sim = ClusterSimulator(registry, num_accelerators=2, mode="lai")
    error = outcome(lambda: sim.run_events(trace))
    assert isinstance(error, tuple), "inject accepted the trace"
    return error


class TestHostileFleetTraces:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name, overrides", HOSTILE,
                             ids=[name for name, _ in HOSTILE])
    def test_every_policy_raises_inject_error(self, registry, name,
                                              overrides, policy):
        trace = hostile_trace((3, overrides))
        want = inject_error(registry, trace)
        assert outcome(lambda: fleet(registry, policy).run(trace)) == want

    @pytest.mark.parametrize("policy", POLICIES)
    def test_first_offender_in_trace_order_wins(self, registry, policy):
        cases = dict(HOSTILE)
        trace = hostile_trace((2, cases["lai without a LUT"]),
                              (4, cases["sentence out of range"]))
        want = inject_error(registry, hostile_trace(
            (2, cases["lai without a LUT"])))
        assert outcome(lambda: fleet(registry, policy).run(trace)) == want

    @pytest.mark.parametrize("policy", POLICIES)
    def test_checked_before_any_site_is_quoted(self, registry, policy,
                                               monkeypatch):
        def forbidden(self, request, now_ms):
            raise AssertionError("a hostile trace reached the router")

        monkeypatch.setattr(FleetSite, "quote", forbidden)
        trace = hostile_trace((0, dict(HOSTILE)["sentence out of range"]))
        assert outcome(lambda: fleet(registry, policy).run(trace)) \
            == inject_error(registry, trace)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_servable_trace_routes(self, registry, policy):
        trace = hostile_trace()
        report = fleet(registry, policy).run(trace)
        assert sorted(r.request.request_id for r in report.records) \
            == list(range(len(trace)))


def mixed_fleet(registry, policy, base_rtt_ms=5.0):
    """A ``lai`` site, the nearer one, and a ``base`` site: only the
    ``base`` site serves a mode-less "mnli" request."""
    return FleetOrchestrator(registry, [
        SiteConfig("edge-lai", num_accelerators=2, rtt_ms=2.0),
        SiteConfig("edge-base", num_accelerators=2, rtt_ms=base_rtt_ms,
                   mode="base"),
    ], routing=policy)


def mode_less(*pins, n=6):
    """``n`` mode-less requests (odd ids are "mnli"), ``(at, site)`` pinned."""
    return hostile_trace(*((i, {"mode": None}) for i in range(n)),
                         *((at, {"site": site}) for at, site in pins), n=n)


class TestMixedModeFleet:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_mode_less_request_lands_where_its_mode_fits(self, registry,
                                                         policy):
        # Request 1 is pinned to the site that serves it, request 3 to
        # the one that cannot, and request 5 is not pinned.
        trace = mode_less((1, "edge-base"), (3, "edge-lai"))
        report = mixed_fleet(registry, policy).run(trace)
        assert sorted(r.request.request_id for r in report.records) \
            == list(range(len(trace)))
        mnli = [r for r in report.records if r.request.task == "mnli"]
        assert len(mnli) == 3
        assert {r.site_id for r in mnli} == {"edge-base"}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_fallback_picks_a_site_that_serves(self, registry, policy):
        # The round trip to the base site alone misses the 50 ms target
        # and the lai site cannot serve mnli: no site is feasible, and
        # the fallback must not pick the nearer lai site.
        trace = mode_less()
        report = mixed_fleet(registry, policy, base_rtt_ms=80.0).run(trace)
        mnli = [r for r in report.records if r.request.task == "mnli"]
        assert len(mnli) == 3
        assert {r.site_id for r in mnli} == {"edge-base"}

    @pytest.mark.parametrize("policy", POLICIES)
    def test_no_site_mode_fits(self, registry, policy):
        # Both sites of the default fleet run lai.
        trace = mode_less()
        assert outcome(lambda: fleet(registry, policy).run(trace)) \
            == inject_error(registry, trace)
