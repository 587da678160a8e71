"""Per-site device autoscaling from rolling utilization.

The :class:`FleetAutoscaler` watches every site on a fixed tick and
parks or wakes whole devices:

* each tick samples the site's instantaneous pressure — busy online
  devices over online devices, saturated to 1.0 whenever requests are
  already queued — and folds it into a per-site EWMA (the rolling
  utilization; deterministic, since ticks land on the shared simulated
  clock);
* sustained low utilization parks the highest-numbered *idle* online
  device (``FleetSite.set_device_online(False)``, which drops its rail
  to the retention voltage through
  :meth:`~repro.energy.DeviceEnergyModel.force_standby` — the park
  itself is a charged down-transition, and the eventual wake pays the
  full standby→nominal move, so scaling decisions carry their real
  energy cost);
* sustained high utilization wakes the lowest-numbered parked device,
  which re-runs the site dispatcher immediately.

``min_online`` devices always stay up per site (default 1), so a site
can never scale itself into a deadlock; parks only ever take idle
devices — the autoscaler sheds capacity, it never aborts work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import FleetError


@dataclass
class AutoscalerStats:
    """Scaling activity of one run, per site."""

    parks: dict = field(default_factory=dict)  # site_id -> count
    wakes: dict = field(default_factory=dict)
    ticks: int = 0

    def summary(self):
        return {
            "ticks": self.ticks,
            "parks": dict(sorted(self.parks.items())),
            "wakes": dict(sorted(self.wakes.items())),
        }


class FleetAutoscaler:
    """EWMA-utilization device parking/waking across fleet sites."""

    #: Utilization sample forced while a subscribed health score sits
    #: below :data:`HEALTH_SATURATION` — an alerting site reads as
    #: fully pressed, so the scaler wakes capacity instead of parking.
    HEALTH_SATURATION = 0.5

    #: Optional ``site_id -> [0, 1]`` health callable (the monitor's
    #: live score), set by the orchestrator under ``health_routing``.
    #: None by default: the scaler then never reads the monitor and
    #: scaling decisions stay bit-identical to a monitor-less run.
    health_of = None

    def __init__(self, interval_ms=25.0, low_utilization=0.35,
                 high_utilization=0.85, alpha=0.5, min_online=1):
        if not 0 < interval_ms < math.inf:
            raise FleetError("autoscaler interval must be finite and > 0")
        if not 0.0 <= low_utilization < high_utilization <= 1.0:
            raise FleetError(
                "need 0 <= low_utilization < high_utilization <= 1")
        if not 0.0 < alpha <= 1.0:
            raise FleetError("alpha must be in (0, 1]")
        if min_online < 1:
            raise FleetError("min_online must be >= 1")
        self.interval_ms = float(interval_ms)
        self.low_utilization = float(low_utilization)
        self.high_utilization = float(high_utilization)
        self.alpha = float(alpha)
        self.min_online = int(min_online)
        self.stats = AutoscalerStats()
        self._ewma = {}

    def reset(self):
        self.stats = AutoscalerStats()
        self._ewma = {}

    def utilization(self, site):
        """The site's current rolling utilization estimate."""
        return self._ewma.get(site.site_id, 0.0)

    def _sample(self, site):
        index = site.sim.pool_index
        if not index.online:
            return 1.0  # nothing up: maximum pressure, wake something
        if site.sim.queue_depth() > 0:
            return 1.0  # queued work saturates the pool by definition
        if self.health_of is not None \
                and self.health_of(site.site_id) < self.HEALTH_SATURATION:
            return 1.0  # alerting site: hold capacity up, never park
        return (index.online - len(index.free)) / index.online

    def tick(self, site, now_ms):
        """Fold one sample for ``site`` and apply at most one action."""
        sample = self._sample(site)
        previous = self._ewma.get(site.site_id)
        ewma = sample if previous is None \
            else previous + self.alpha * (sample - previous)
        self._ewma[site.site_id] = ewma

        if ewma > self.high_utilization:
            # Waking runs once per tick, not per decision, so it walks.
            parked = [a for a in site.sim.accelerators if not a.online]
            if parked:
                woken = min(parked, key=lambda a: a.accel_id)
                site.set_device_online(woken.accel_id, True,
                                       now_ms=now_ms)
                self.stats.wakes[site.site_id] = \
                    self.stats.wakes.get(site.site_id, 0) + 1
        elif ewma < self.low_utilization:
            index = site.sim.pool_index
            if index.online > self.min_online and index.free:
                site.set_device_online(index.free[-1], False,
                                       now_ms=now_ms)
                self.stats.parks[site.site_id] = \
                    self.stats.parks.get(site.site_id, 0) + 1

    def tick_all(self, sites, now_ms):
        """One autoscaling pass over every site, in site order."""
        self.stats.ticks += 1
        for site in sites:
            self.tick(site, now_ms)
