"""The fleet orchestrator: N cluster sites behind one router.

:class:`FleetOrchestrator` runs several independent
:class:`~repro.cluster.ClusterSimulator` sites — each with its own
event loop, accelerator pool, placement policy and optional power cap —
under a single simulated clock. The merge rule is the whole trick:
events fire in global time order across the fleet (site loops, the
sorted arrival columns and the orchestrator's own retry/autoscaling
heap), with ties broken site-events-first and then by site order, so a
fleet run is exactly as deterministic as its parts: same seed + same
trace ⇒ bit-identical :class:`~repro.fleet.FleetReport`, regardless of
the order the site configs were handed in (sites are canonicalized by
``site_id``). One drive loop, :meth:`FleetOrchestrator._drain`,
implements that order.

Requests enter through the routing policy at their arrival instant
(possibly deferred under budget shaping, then retried as
:class:`RouteRequest` events), are admitted to a site in site-local
coordinates (:meth:`~repro.fleet.FleetSite.admit` charges the network
legs against the compute slack), and complete back at the front-end
one egress leg after their site completion. The optional
:class:`~repro.fleet.FleetAutoscaler` ticks on the same clock and
parks/wakes whole devices per site.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.cluster.events import EventLoop
from repro.errors import FleetError
from repro.fleet.autoscaler import FleetAutoscaler
from repro.fleet.report import FleetRecord, FleetReport
from repro.fleet.router import make_routing_policy
from repro.fleet.site import FleetSite, SiteOutcome
from repro.telemetry.tracer import NULL_TRACER


@dataclass(frozen=True)
class RouteRequest:
    """A request is (re-)routable at the front-end."""

    request: object  # repro.serving.Request


@dataclass(frozen=True)
class AutoscaleTick:
    """Periodic autoscaler pass over every site."""


class FleetOrchestrator:
    """Deterministic multi-site serving: router → sites → devices."""

    def __init__(self, registry, site_configs, routing="energy",
                 autoscaler=None, tracer=None, metrics=None,
                 monitor=None, health_routing=False):
        site_configs = sorted(site_configs, key=lambda c: c.site_id)
        if not site_configs:
            raise FleetError("a fleet needs at least one site")
        ids = [c.site_id for c in site_configs]
        if len(set(ids)) != len(ids):
            raise FleetError(f"duplicate site ids in {ids}")
        self.registry = registry
        self.site_configs = tuple(site_configs)
        self.routing = make_routing_policy(routing)
        if autoscaler is True:
            autoscaler = FleetAutoscaler()
        self.autoscaler = autoscaler
        #: Telemetry threads through every layer: front-end decisions
        #: land on ``fleet/*`` tracks, each site's spans on its own
        #: ``site_id/*`` scope (so :func:`repro.telemetry.reconcile_fleet`
        #: can audit per-site energy), metrics carry ``scope=site_id``
        #: labels. Read-only observation — a traced fleet run's report
        #: is bit-identical to an untraced one.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.metrics = metrics
        #: Optional :class:`~repro.telemetry.monitor.TelemetryMonitor`
        #: fed by every site (scope = site_id). Strictly read-only by
        #: default: a monitored fleet report is bit-identical to an
        #: unmonitored one. ``health_routing=True`` opts in to the one
        #: sanctioned feedback path — the routing policy and the
        #: autoscaler read the monitor's live health scores.
        self.monitor = monitor
        self.health_routing = bool(health_routing)
        if self.health_routing:
            if monitor is None:
                raise FleetError(
                    "health_routing needs a monitor to read from")
            self.routing.health_of = monitor.health
            if self.autoscaler is not None:
                self.autoscaler.health_of = monitor.health

    # -- public API --------------------------------------------------------------

    def run(self, requests):
        """Route and serve the trace; returns a :class:`FleetReport`."""
        requests = list(requests)
        if not requests:
            raise FleetError("no requests to route")
        seen = set()
        for request in requests:
            if request.request_id in seen:
                raise FleetError(
                    f"duplicate request id {request.request_id}")
            seen.add(request.request_id)

        started = time.perf_counter()
        self.routing.reset()
        if self.autoscaler is not None:
            self.autoscaler.reset()
        self._sites = [FleetSite(config, self.registry,
                                 tracer=self.tracer,
                                 metrics=self.metrics,
                                 monitor=self.monitor).start()
                       for config in self.site_configs]
        self._loop = EventLoop()
        self._loop.on(RouteRequest, self._on_route)
        self._loop.on(AutoscaleTick, self._on_tick)
        self._routes = {}  # request_id -> (site_index, routed_ms)
        self._deferrals = 0

        if self.autoscaler is not None:
            first = min(r.arrival_ms for r in requests)
            self._loop.schedule(first + self.autoscaler.interval_ms,
                                AutoscaleTick())
        # Column intake: a stable argsort on the arrival instants orders
        # equal instants by trace position.
        column = np.fromiter((r.arrival_ms for r in requests),
                             dtype=np.float64, count=len(requests))
        order = np.argsort(column, kind="stable")
        arrivals = [requests[k] for k in order.tolist()]
        times = column[order].tolist()
        self._pending_front = len(arrivals)  # arrivals not yet routed
        self._drain(arrivals, times)
        return self._finish(requests, started)

    # -- the merged clock --------------------------------------------------------

    #: Runaway guard for the merged loop, mirroring the per-site
    #: ``ClusterSimulator.MAX_EVENTS`` cap: a scheduling cycle (or a
    #: routing policy that defers forever) must raise, not hang.
    MAX_FLEET_EVENTS = 5_000_000

    def _drain(self, arrivals, times):
        """Route the sorted arrivals and run every site to completion.

        The fleet's one drive loop. Front-end instants come from two
        sources: the sorted arrival columns and the heap of *dynamic*
        front-end events (deferral retries, autoscaler ticks). An
        original arrival wins an equal-instant tie against the heap, as
        if it had been scheduled before anything else. At every
        front-end instant *t*, each site first drains its own events
        through *t* (:meth:`~repro.fleet.FleetSite.run_until`,
        inclusive: work completing "by" *t* is visible to a routing
        decision *at* *t*), in site order; then the front end acts once.

        Sites only interact through front-end events (a site handler
        can never schedule onto another site's loop), so free-running
        each site between front-end instants replays exactly like
        stepping every event fleet-wide in global time order. Each
        arrival is routed through the policy's ordinary
        :meth:`~repro.fleet.router.RoutingPolicy.route`; the sites keep
        their placement estimates memoized per epoch, so a run of
        arrivals between two site state changes is cheap.
        """
        loop = self._loop
        sites = self._sites
        inf = math.inf
        n = len(arrivals)
        num_sites = len(sites)
        site_peeks = [inf if p is None else p
                      for p in (s.peek_ms() for s in sites)]
        max_events = self.MAX_FLEET_EVENTS
        processed = 0
        i = 0
        while True:
            t_arr = times[i] if i < n else None
            heap_at = loop.peek_ms()
            if t_arr is not None \
                    and (heap_at is None or t_arr <= heap_at):
                at = t_arr
                take_arrival = True
            else:
                at = heap_at
                take_arrival = False
            # Site events first at equal instants: every site drains
            # through `at` before the front end acts there.
            if at is None:
                moved = 0
                for j in range(num_sites):
                    m = sites[j].run_until(None)
                    if m:
                        moved += m
                        site_peeks[j] = inf
                processed += moved
                if processed > max_events:
                    self._raise_runaway()
                if moved == 0:
                    return
                continue  # sites drained dry; confirm on the next pass
            for j in range(num_sites):
                if site_peeks[j] <= at:
                    processed += sites[j].run_until(at)
                    p = sites[j].peek_ms()
                    site_peeks[j] = inf if p is None else p
            if processed > max_events:
                self._raise_runaway()
            if not take_arrival:
                # A deferral retry or an autoscaler tick: both may move
                # site state (an admission's ingress, a park/wake), so
                # re-read every peek afterwards.
                loop.step()
                processed += 1
                site_peeks = [inf if p is None else p
                              for p in (s.peek_ms() for s in sites)]
                if processed > max_events:
                    self._raise_runaway()
                continue
            request = arrivals[i]
            i += 1
            self._pending_front -= 1
            index = self._route(request, at)
            if index is not None:
                ingress = at + sites[index].rtt_ms / 2.0
                if ingress < site_peeks[index]:
                    site_peeks[index] = ingress
            processed += 1
            if processed > max_events:
                self._raise_runaway()

    def _raise_runaway(self):
        raise FleetError(
            f"fleet loop exceeded {self.MAX_FLEET_EVENTS} "
            "events; likely a scheduling cycle or an "
            "ever-deferring routing policy")

    def _route(self, request, now):
        """Decide, then admit or defer, record and trace one request.

        Returns the index of the site the request was admitted to, or
        None when the policy deferred it (a :class:`RouteRequest` retry
        is scheduled).
        """
        decision = self.routing.route(request, self._sites, now)
        if decision.deferred:
            if decision.retry_ms is None or decision.retry_ms <= now:
                raise FleetError(
                    "a routing deferral must carry a future retry_ms")
            self._deferrals += 1
            self._loop.schedule(decision.retry_ms, RouteRequest(request))
            if self.tracer.enabled:
                self.tracer.instant(
                    "defer", "net", now, "fleet/router",
                    args={"request": request.request_id,
                          "retry_ms": decision.retry_ms})
            return None
        index = decision.site_index
        site = self._sites[index]
        site.admit(request, now)
        self._routes[request.request_id] = (index, now)
        if self.tracer.enabled:
            self.tracer.instant(
                f"route:{site.site_id}", "net", now, "fleet/router",
                args={"request": request.request_id,
                      "site": site.site_id,
                      "deadline": float(request.deadline_ms)})
        return index

    # -- event handlers ----------------------------------------------------------

    def _on_route(self, event):
        self._route(event.request, self._loop.now_ms)

    def _on_tick(self, event):
        now = self._loop.now_ms
        self.autoscaler.tick_all(self._sites, now)
        if self.tracer.enabled:
            self.tracer.instant("autoscale-tick", "scale", now,
                                "fleet/scaler")
        if self.monitor is not None:
            # Health gauges advance on the scaler cadence — the same
            # clock the subscribers (router, autoscaler) act on.
            self.monitor.sample_health(now)
        # Keep ticking while the fleet still has anything in flight —
        # queued deferral retries and unrouted arrivals included — then
        # fall silent so the merged loop can drain.
        if len(self._loop) > 0 or self._pending_front > 0 \
                or any(site.sim.in_system() > 0 for site in self._sites):
            self._loop.schedule(now + self.autoscaler.interval_ms,
                                AutoscaleTick())

    # -- finalization ------------------------------------------------------------

    def _finish(self, requests, started):
        reports = [site.finish() for site in self._sites]
        by_site = [
            {rec.request.request_id: rec for rec in report.records}
            for report in reports
        ]
        records = []
        for request in requests:
            if request.request_id not in self._routes:
                raise FleetError(
                    f"request {request.request_id} was never routed")
            site_index, routed_ms = self._routes[request.request_id]
            site = self._sites[site_index]
            site_record = by_site[site_index].get(request.request_id)
            if site_record is None:
                raise FleetError(
                    f"request {request.request_id} routed to "
                    f"{site.site_id} but never served there")
            records.append(FleetRecord(
                request=request, site_id=site.site_id,
                rtt_ms=site.rtt_ms, routed_ms=routed_ms,
                site_record=site_record))
            if self.tracer.enabled and site.rtt_ms > 0.0:
                # The response's return leg: site completion back to the
                # front-end (fleet completion = site completion + rtt/2).
                self.tracer.span(
                    "egress", "net", site_record.completion_ms,
                    site.rtt_ms / 2.0, site._trk_net,
                    args={"request": request.request_id})

        stats = self.autoscaler.stats if self.autoscaler else None
        outcomes = [
            SiteOutcome(
                site_id=site.site_id, rtt_ms=site.rtt_ms, report=report,
                admitted=site.admitted,
                parks=stats.parks.get(site.site_id, 0) if stats else 0,
                wakes=stats.wakes.get(site.site_id, 0) if stats else 0,
            )
            for site, report in zip(self._sites, reports)
        ]
        deferrals = self._deferrals
        report = FleetReport(
            routing_policy=self.routing.name, sites=outcomes,
            records=records, deferrals=deferrals, autoscaler=stats,
            wall_seconds=time.perf_counter() - started)
        if report.num_requests != len(requests):
            raise FleetError("fleet served a different request count "
                             "than it was handed")
        return report
