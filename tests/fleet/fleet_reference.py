"""Slow, obvious references for the fleet's drive loop and estimate memo.

* :func:`naive_drain` replaces ``FleetOrchestrator._drain``: one
  :class:`RouteRequest` heap event per arrival, and a merge that peeks
  every site per event — the earliest instant fleet-wide wins, site
  events before front-end events on ties, lower-indexed sites first.
  :func:`run_reference` patches it onto an orchestrator and asserts it
  actually ran.
* :func:`pool_estimate` and :func:`pool_load` recompute
  ``FleetSite.estimate_request`` and ``FleetSite.load`` from the live
  pool on every call, with no memo and no cached online count.

Imported by the fleet tests (``from fleet_reference import ...``).
"""

import types

from repro.cluster.events import EventLoop
from repro.fleet.orchestrator import AutoscaleTick, RouteRequest
from repro.fleet.site import ESTIMATE_TARGET_GRID_MS


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


def pool_estimate(site, request, now_ms):
    """``site.estimate_request`` priced over the live pool, unmemoized."""
    online = site.online_devices()
    if not online:
        return None
    slack = site.remaining_slack_ms(request, now_ms)
    grid = ESTIMATE_TARGET_GRID_MS
    bucket = max(grid, (slack // grid) * grid)
    mode = request.mode if request.mode is not None else site.sim.mode
    idle = [a for a in online if a.idle]
    estimates = [site._device_estimate(request, mode, bucket, a, now_ms)
                 for a in (idle or online)]
    if idle:
        return min(estimates)
    return (sum(e for e, _ in estimates) / len(estimates),
            sum(t for _, t in estimates) / len(estimates))


def pool_load(site):
    """``site.load()`` from a fresh count of the online pool."""
    return site.sim.in_system() / max(1, len(site.online_devices()))
