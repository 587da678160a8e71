"""Slow, obvious references for the fleet's drive loop, estimates and router.

* :func:`naive_drain` replaces ``FleetOrchestrator._drain``: one
  :class:`RouteRequest` heap event per arrival, and a merge that peeks
  every site per event — the earliest instant fleet-wide wins, site
  events before front-end events on ties, lower-indexed sites first.
  :func:`run_reference` patches it onto an orchestrator and asserts it
  actually ran.
* :func:`pool_estimate` and :func:`pool_quote` recompute
  ``FleetSite.estimate_request`` and ``FleetSite.quote`` from the live
  pool on every call, with no pool index and no class rows:
  :func:`device_estimate` prices each device from its own route-table
  row, ``registry.switch_cost`` and ``estimate_transition``.
* :func:`online_devices` and :func:`busy_devices` list the online and
  the busy online devices by walking the pool.
* :class:`SortedEnergyRouting` is ``EnergyDeadlineRouting.route`` as a
  sort: it scores every feasible site into a list, sorts it, and
  re-scans it for budget pressure.

Imported by the fleet tests (``from fleet_reference import ...``).
"""

import types

from repro.cluster.events import EventLoop
from repro.fleet.orchestrator import AutoscaleTick, RouteRequest
from repro.fleet.router import (
    SHAPING_FLOOR,
    EnergyDeadlineRouting,
    RoutingDecision,
)
from repro.fleet.site import ESTIMATE_TARGET_GRID_MS, route_table


def naive_drain(self, arrivals, times):
    """Per-event reference for ``FleetOrchestrator._drain``."""
    naive_drain.calls += 1
    # A fresh loop so the arrivals take the lowest seqs, ahead of the
    # autoscaler's first tick: an arrival wins an equal-instant tie.
    self._loop = loop = EventLoop()
    loop.on(RouteRequest, self._on_route)
    loop.on(AutoscaleTick, self._on_tick)
    for request, at in zip(arrivals, times):
        loop.schedule(at, RouteRequest(request))
    if self.autoscaler is not None:
        loop.schedule(times[0] + self.autoscaler.interval_ms,
                      AutoscaleTick())
    # Every arrival is now a heap event; a nonzero count would keep the
    # autoscaler ticking forever.
    self._pending_front = 0
    while True:
        best = None
        for idx, site in enumerate(self._sites):
            at = site.peek_ms()
            if at is not None and (best is None or at < best[0]):
                best = (at, idx)
        front = loop.peek_ms()
        if best is None and front is None:
            return
        if best is not None and (front is None or best[0] <= front):
            self._sites[best[1]].step()
        else:
            loop.step()


naive_drain.calls = 0


def run_reference(fleet, requests):
    """``fleet.run(requests)`` driven by :func:`naive_drain`."""
    fleet._drain = types.MethodType(naive_drain, fleet)
    calls = naive_drain.calls
    report = fleet.run(requests)
    assert naive_drain.calls == calls + 1, "the reference drain never ran"
    return report


def online_devices(site):
    return [a for a in site.sim.accelerators if a.online]


def busy_devices(site):
    return [a for a in site.sim.accelerators if a.online and not a.idle]


def device_estimate(site, request, mode, bucket, accel, now_ms):
    """(energy_mj, latency_ms) of ``request`` on one device, now."""
    energies, latencies = route_table(
        site.registry, request.task, bucket, mode, accel.hw_config,
        site.sim.vectorized)
    cost = site.registry.switch_cost(accel.resident_task, request.task)
    energy_mj = energies[request.sentence] + cost.energy_mj
    energy_mj += accel.energy.estimate_transition(now_ms=now_ms)[1]
    return energy_mj, latencies[request.sentence] + cost.latency_ms


def pool_estimate(site, request, now_ms, slack):
    """``site.estimate_request`` priced device by device over the live
    pool."""
    online = online_devices(site)
    if not online:
        return None
    grid = ESTIMATE_TARGET_GRID_MS
    bucket = max(grid, (slack // grid) * grid)
    mode = request.mode if request.mode is not None else site.sim.mode
    idle = [a for a in online if a.idle]
    estimates = [device_estimate(site, request, mode, bucket, a, now_ms)
                 for a in (idle or online)]
    if idle:
        return min(estimates)
    return (sum(e for e, _ in estimates) / len(estimates),
            sum(t for _, t in estimates) / len(estimates))


def pool_quote(site, request, now_ms):
    """``site.quote`` with the load from a fresh count of the online pool."""
    slack = request.deadline_ms - now_ms - site.rtt_ms
    if slack <= 1e-9 or not site.serves(request):
        return None
    return (slack, site.sim.in_system() / max(1, len(online_devices(site))),
            site.sim.budget_headroom(now_ms))


class SortedEnergyRouting(EnergyDeadlineRouting):
    """The energy router's decision as a sort over every feasible site."""

    def route(self, request, sites, now_ms):
        quotes = self._quotes(request, sites, now_ms)
        pinned = self._affinity_index(request, sites, quotes)
        if pinned is not None:
            return RoutingDecision(pinned)
        scored = []
        for i, quote in enumerate(quotes):
            if quote is None:
                continue
            site = sites[i]
            slack, load, headroom = quote
            estimate = site.estimate_request(request, now_ms, slack)
            if estimate is None:
                continue
            energy_mj, latency_ms = estimate
            deadline_ok = load * latency_ms + latency_ms <= slack + 1e-9
            shaped = energy_mj
            if self.shaping and headroom < 1.0:
                shaped = energy_mj / max(headroom, SHAPING_FLOOR)
            if self.health_of is not None:
                health = self.health_of(site.site_id)
                if health < 1.0:
                    shaped = shaped / max(health, SHAPING_FLOOR)
            scored.append((not deadline_ok, shaped, site.rtt_ms, i,
                           headroom))
        if not scored:
            return RoutingDecision(self._fallback_index(request, sites))
        scored.sort(key=lambda entry: entry[:4])
        if self.shaping and all(entry[4] < self.pressure
                                for entry in scored) \
                and self._relaxed(request, sites, now_ms):
            self.deferrals += 1
            return RoutingDecision(None, retry_ms=now_ms + self.defer_ms)
        return RoutingDecision(scored[0][3])
