"""Fleet-level routing policies: which site serves each request.

A routing policy answers one question — a request just became routable
at simulated time *t*; which site does it go to, or how long may it be
deferred? — against one :meth:`~repro.fleet.FleetSite.quote` per site:
the compute slack the round trip leaves, the in-system load and the
power-cap headroom, or None when the site is infeasible (the round trip
alone misses the deadline, or the site's mode cannot serve a mode-less
request's task). Three are built in:

* :class:`RoundRobinRouting` — rotate through the feasible sites;
  the baseline the bench gates against.
* :class:`LeastLoadedRouting` — fewest in-system requests per online
  device; the classic load balancer.
* :class:`EnergyDeadlineRouting` — score every feasible site by the
  joules its cheapest device is predicted to spend on the request
  (:meth:`~repro.fleet.FleetSite.estimate_request` at the quoted slack,
  priced from per-class cost rows over whole-profile price tables
  shared by every site on the registry), inflated by the site's
  power-cap pressure, and place on the cheapest site whose predicted
  compute still fits the slack left after the round trip. Under
  tightening budget windows the policy *shapes* instead of letting
  sites hard-throttle: expensive-window sites price themselves out
  (headroom inflation), and relaxed-SLO requests are **deferred** — a
  bounded re-route later — when every feasible site is pressed, while
  tight-SLO traffic always routes immediately.

All policies honor a request's ``site`` affinity pin when that site is
feasible (it serves the request and the round trip leaves slack), and
every tie-break ends on site order, so routing is deterministic given
the same trace.

The orchestrator calls :meth:`RoutingPolicy.route` once per routable
request — original arrivals and deferral retries alike — and checks
every request against the registry once per run, before routing, so a
policy never sees one that no site could serve, and a site's quote only
asks whether a mode-less request's task is one the site's mode cannot
serve. Each policy quotes every site once per call; only the energy
router asks for estimates, the expensive term, and it scores the sites
in one pass. Everything it reads is live per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FleetError

#: Headroom fraction below which a site counts as budget-pressed.
SHAPING_PRESSURE = 0.35
#: Deferral quantum for relaxed traffic under fleet-wide pressure.
DEFER_MS = 5.0
#: Slack (beyond the round trip and one deferral) a request must keep
#: for the shaper to consider it relaxed enough to wait.
DEFER_MIN_SLACK_MS = 25.0
#: Floor for the headroom divisor so shaped scores stay finite.
SHAPING_FLOOR = 0.05


@dataclass(frozen=True)
class RoutingDecision:
    """Route now (``site_index``) or retry at ``retry_ms`` (defer)."""

    site_index: int | None
    retry_ms: float | None = None

    @property
    def deferred(self):
        return self.site_index is None


class RoutingPolicy:
    """Base routing policy; subclasses implement :meth:`route`."""

    name = "base"

    #: Optional ``site_id -> [0, 1]`` health callable (the monitor's
    #: live score), set by the orchestrator under ``health_routing``.
    #: None by default, and only :class:`EnergyDeadlineRouting` reads
    #: it — a read-only signal, so leaving it unset keeps every run
    #: bit-identical to a monitor-less one.
    health_of = None

    def reset(self):
        """Clear per-run state; the orchestrator calls this at start."""

    def route(self, request, sites, now_ms):
        """Decide where ``request`` goes at ``now_ms``.

        ``sites`` is the orchestrator's site list (stable order).
        Returns a :class:`RoutingDecision`; deferrals must carry a
        ``retry_ms`` strictly after ``now_ms``.
        """
        raise NotImplementedError

    # -- shared helpers -----------------------------------------------------------

    @staticmethod
    def _quotes(request, sites, now_ms):
        """Each site's :meth:`~repro.fleet.FleetSite.quote`, in site order."""
        return [site.quote(request, now_ms) for site in sites]

    def _affinity_index(self, request, sites, quotes):
        """The pinned site's index, when pinned and still feasible."""
        if request.site is None:
            return None
        for i, site in enumerate(sites):
            if site.site_id == request.site:
                return i if quotes[i] is not None else None
        raise FleetError(
            f"request {request.request_id} pinned to unknown site "
            f"{request.site!r}")

    def _fallback_index(self, request, sites):
        """No site is feasible: the least-RTT site that serves the
        request limits the damage (the fleet's intake guarantees one)."""
        return min((i for i, site in enumerate(sites)
                    if site.serves(request)),
                   key=lambda i: (sites[i].rtt_ms, i))


class RoundRobinRouting(RoutingPolicy):
    """Rotate through the feasible sites in site order."""

    name = "round-robin"

    def reset(self):
        self._next = 0

    def route(self, request, sites, now_ms):
        quotes = self._quotes(request, sites, now_ms)
        pinned = self._affinity_index(request, sites, quotes)
        if pinned is not None:
            return RoutingDecision(pinned)
        for offset in range(len(sites)):
            index = (self._next + offset) % len(sites)
            if quotes[index] is not None:
                self._next = (index + 1) % len(sites)
                return RoutingDecision(index)
        return RoutingDecision(self._fallback_index(request, sites))


class LeastLoadedRouting(RoutingPolicy):
    """Fewest in-system requests per online device wins."""

    name = "least-loaded"

    def route(self, request, sites, now_ms):
        quotes = self._quotes(request, sites, now_ms)
        pinned = self._affinity_index(request, sites, quotes)
        if pinned is not None:
            return RoutingDecision(pinned)
        feasible = [i for i, quote in enumerate(quotes)
                    if quote is not None]
        if not feasible:
            return RoutingDecision(self._fallback_index(request, sites))
        return RoutingDecision(min(
            feasible, key=lambda i: (quotes[i][1], sites[i].rtt_ms, i)))


class EnergyDeadlineRouting(RoutingPolicy):
    """Min predicted joules under deadline feasibility, budget-shaped."""

    name = "energy"

    def __init__(self, shaping=True, pressure=SHAPING_PRESSURE,
                 defer_ms=DEFER_MS, defer_min_slack_ms=DEFER_MIN_SLACK_MS):
        self.shaping = bool(shaping)
        self.pressure = float(pressure)
        self.defer_ms = float(defer_ms)
        self.defer_min_slack_ms = float(defer_min_slack_ms)
        self.deferrals = 0

    def reset(self):
        self.deferrals = 0

    def _relaxed(self, request, sites, now_ms):
        """Could the request wait one deferral and still route somewhere?

        Measured against the nearest site that serves the request: a
        nearer site whose mode refuses it could never take it.
        """
        min_rtt = min(site.rtt_ms for site in sites
                      if site.serves(request))
        slack_after = (request.deadline_ms - now_ms - self.defer_ms
                       - min_rtt)
        return slack_after >= self.defer_min_slack_ms

    def route(self, request, sites, now_ms):
        quotes = self._quotes(request, sites, now_ms)
        pinned = self._affinity_index(request, sites, quotes)
        if pinned is not None:
            return RoutingDecision(pinned)

        # One pass: the running best placement key, and whether every
        # feasible site so far is budget-pressed.
        best = None
        pressed = True
        for i, quote in enumerate(quotes):
            if quote is None:
                continue  # the round trip or the site's mode rules it out
            site = sites[i]
            slack, load, headroom = quote
            estimate = site.estimate_request(request, now_ms, slack)
            if estimate is None:
                continue  # nothing online to run it
            energy_mj, latency_ms = estimate
            # Backlog-aware feasibility: the request queues behind the
            # site's in-system work, so predicted completion is the
            # backlog depth (requests per online device) worth of
            # service times plus its own — a deterministic proxy that
            # spills traffic to the next-cheapest site once the
            # cheapest one saturates, instead of piling onto it.
            wait_ms = load * latency_ms
            deadline_ok = wait_ms + latency_ms <= slack + 1e-9
            shaped = energy_mj
            if self.shaping and headroom < 1.0:
                # A tightening window inflates the site's effective
                # price: cheaper-but-pressed loses to slightly
                # pricier-but-open, long before the hard throttle.
                shaped = energy_mj / max(headroom, SHAPING_FLOOR)
            if self.health_of is not None:
                # Monitor feedback (health_routing): a site with live
                # alerts prices itself up the same way budget pressure
                # does, steering new work toward healthy sites.
                health = self.health_of(site.site_id)
                if health < 1.0:
                    shaped = shaped / max(health, SHAPING_FLOOR)
            key = (not deadline_ok, shaped, site.rtt_ms, i)
            if best is None or key < best:
                best = key
            pressed = pressed and headroom < self.pressure
        if best is None:
            return RoutingDecision(self._fallback_index(request, sites))

        if self.shaping and pressed \
                and self._relaxed(request, sites, now_ms):
            # Every feasible site is budget-pressed and this request can
            # afford to wait: defer it so the windows can recover —
            # tight-SLO traffic (not relaxed) still routes immediately.
            self.deferrals += 1
            return RoutingDecision(None, retry_ms=now_ms + self.defer_ms)
        return RoutingDecision(best[3])


# Old name kept only so the e2e layer tracer's boundary still resolves.
_BulkEnergyScorer = RoutingPolicy

#: Registry of built-in routing policies (aliases included).
ROUTING_POLICIES = {
    "round-robin": RoundRobinRouting,
    "rr": RoundRobinRouting,
    "least-loaded": LeastLoadedRouting,
    "load": LeastLoadedRouting,
    "energy": EnergyDeadlineRouting,
    "energy-deadline": EnergyDeadlineRouting,
}


def make_routing_policy(policy):
    """Resolve a routing-policy name (or pass an instance through)."""
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return ROUTING_POLICIES[policy]()
    except KeyError:
        raise FleetError(
            f"unknown routing policy {policy!r}; expected one of "
            f"{tuple(sorted(set(ROUTING_POLICIES)))}") from None
