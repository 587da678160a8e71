"""One fleet site: a cluster simulator behind a network link.

A :class:`FleetSite` wraps a :class:`~repro.cluster.ClusterSimulator`
(its own heterogeneous accelerator pool, placement policy and optional
per-site power cap) plus the network round-trip between the fleet
front-end and the site. The orchestrator drives the site's event loop
incrementally (``start``/``peek_ms``/``step``/``finish``) and admits
requests through :meth:`admit`, which is where the RTT contract lives:

* the request physically reaches the site ``rtt_ms / 2`` after the
  routing decision, so its site-local ``arrival_ms`` is shifted by the
  ingress leg (that shift shows up as cross-site queueing in the fleet
  report);
* the site-local ``target_ms`` is the original target **net of the
  time already burned before admission and the full round trip** — the
  site must finish early enough for the response to travel back, so
  the slack its deadline-aware DVFS planner sees is exactly the slack
  the fleet can still spend on compute (the ROADMAP's "slack net of
  routing RTT" contract).

Routing policies read site state through one :meth:`quote` per
(request, site) — the slack the round trip leaves, the load and the
power-cap headroom, or None when the round trip or the site's mode rules
the site out — and the energy router adds :meth:`estimate_request`, a
placement estimate at the quoted slack. Its compute term is one row of
a whole-profile price table (:func:`route_table`): a table prices every
sentence of a (task, slack bucket, mode, hardware) variant in one
engine call and is shared by every site on the same registry. A
device's cost adds its swap and wake terms, and both depend only on its
pool-index class (:func:`~repro.cluster.pool.class_key`), so the site
keeps one cost row per (task, slack bucket, mode, class) and an
estimate prices classes, never devices: a few list reads per class,
never an engine call. With a device idle the classes are the pool
index's, read as they stand; with every device busy the estimate walks
the online pool. Standby sites price each device: their wake term
decays with the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.pool import class_key
from repro.cluster.simulator import ClusterSimulator
from repro.errors import FleetError
from repro.serving.request import retimed
from repro.serving.server import build_price_table
# Unused here: bound only so the e2e benchmark's layer tracer
# (benchmarks/e2e/layertrace.py) still resolves its
# ``fleet.site.price_batch`` boundary.
from repro.serving.server import price_batch  # noqa: F401

#: Grid (ms) site-local targets are floored to for routing estimates —
#: coarse enough that nearby deadlines share one price table. Flooring
#: understates the slack, which only tightens the plan, but the bucket
#: never drops below one grid step: any slack under 5 ms is priced at a
#: 5 ms target, which is optimistic.
ESTIMATE_TARGET_GRID_MS = 5.0

#: Token site-local target for requests that were already doomed when
#: routed (no site could make the deadline): they still must be served.
DOOMED_TARGET_MS = 0.001


def route_table(registry, task, target_ms, mode, hw_config, vectorized):
    """``(energy_mj, latency_ms)`` columns of one whole-profile table.

    Entry ``i`` of each list is bit-identical to pricing sentence ``i``
    as a one-request batch at ``target_ms`` (the composition-invariance
    contract of :func:`~repro.serving.server.build_price_table`).
    Memoized on the registry beside its hardware variants and switch
    costs, so sites with the same hardware share one build. The router
    reads nothing but these two float columns, so it builds through
    the public builder rather than the profile's table memo, keeps the
    columns as lists and drops the table: none of its rows is ever
    boxed into a result. Only ``lai`` reads the target, so
    ``base``/``ee`` share one table across buckets.
    """
    key = (task, target_ms if mode == "lai" else None, mode, hw_config,
           vectorized)
    columns = registry._route_tables.get(key)
    if columns is None:
        table = build_price_table(registry.profile_for(task, hw_config),
                                  mode, target_ms, vectorized=vectorized)
        columns = registry._route_tables[key] = (
            table.energy_mj.tolist(), table.latency_ms.tolist())
    return columns


@dataclass(frozen=True)
class SiteConfig:
    """Everything needed to stand up one site of the fleet."""

    site_id: str
    hw_configs: tuple | None = None
    num_accelerators: int | None = None
    #: Front-end <-> site network round trip (ms); each leg costs half.
    rtt_ms: float = 0.0
    #: The site's *internal* placement policy (not the fleet router).
    policy: str = "energy"
    #: Per-site power cap (rolling joules/sec window); None = uncapped.
    energy_budget_mw: float | None = None
    budget_window_ms: float = 100.0
    mode: str = "lai"
    max_batch_size: int = 32
    batch_timeout_ms: float = 5.0
    deadline_aware: bool = True
    deadline_sizing: bool = False
    adaptive_timeout: bool = False
    standby_timeout_ms: float | None = None
    #: Vectorized pricing kernels (scalar sites are the determinism
    #: oracle for fleet replays; note ``deadline_aware`` — on by
    #: default — requires the vectorized kernels).
    vectorized: bool = True

    def __post_init__(self):
        if not self.site_id:
            raise FleetError("site_id must be a non-empty string")
        if not 0 <= self.rtt_ms < math.inf:
            raise FleetError("rtt_ms must be finite and >= 0")


class FleetSite:
    """A :class:`ClusterSimulator` plus its routing-facing surface."""

    def __init__(self, config, registry, tracer=None, metrics=None,
                 monitor=None):
        self.config = config
        self.site_id = config.site_id
        self.rtt_ms = float(config.rtt_ms)
        self.registry = registry
        self.sim = ClusterSimulator(
            registry,
            num_accelerators=config.num_accelerators,
            policy=config.policy,
            mode=config.mode,
            max_batch_size=config.max_batch_size,
            batch_timeout_ms=config.batch_timeout_ms,
            hw_configs=config.hw_configs,
            energy_budget_mw=config.energy_budget_mw,
            budget_window_ms=config.budget_window_ms,
            deadline_aware=config.deadline_aware,
            deadline_sizing=config.deadline_sizing,
            adaptive_timeout=config.adaptive_timeout,
            standby_timeout_ms=config.standby_timeout_ms,
            vectorized=config.vectorized,
            tracer=tracer, metrics=metrics, monitor=monitor,
            trace_scope=config.site_id,
        )
        #: The site's tracer (the orchestrator's, or the shared
        #: NULL_TRACER); admission emits the ingress network leg on it.
        self.tracer = self.sim.tracer
        self._trk_net = f"{self.site_id}/net"
        #: A standby rail decays with the clock, so its wake term is no
        #: class property: such sites price the full pool.
        self._standby = config.standby_timeout_ms is not None
        self.admitted = 0
        self.late_admissions = 0

    # -- lifecycle (driven by the orchestrator) -----------------------------------

    def start(self, refuses=frozenset()):
        """Start a run.

        ``refuses`` names the tasks whose mode-less requests this site's
        mode cannot serve (:meth:`serves`); the fleet's intake check
        computes it per run.
        """
        self.sim.start()
        # The event core builds a fresh pool index at every start.
        self._index = self.sim.pool_index
        self.refuses = refuses
        self.admitted = 0
        self.late_admissions = 0
        self._class_rows = {}
        return self

    def peek_ms(self):
        return self.sim.peek_ms()

    def step(self):
        return self.sim.step()

    def run_until(self, until_ms=None):
        """Drain site events at instants ``<= until_ms`` in one call.

        The orchestrator's chunked driving primitive: between front-end
        instants this site's events are independent of every other
        site's, so free-running them in one call replays identically to
        a per-event merge (see ``FleetOrchestrator._drain``). Returns
        the number of events processed.
        """
        return self.sim.run_until(until_ms)

    def set_device_online(self, accel_id, online, now_ms=None):
        """Park or wake one device (the autoscaler's actuator); see
        :meth:`ClusterSimulator.set_device_online`."""
        return self.sim.set_device_online(accel_id, online, now_ms=now_ms)

    def finish(self):
        return self.sim.finish()

    # -- admission ----------------------------------------------------------------

    def remaining_slack_ms(self, request, now_ms):
        """Compute budget left if routed now: deadline − now − round trip."""
        return request.deadline_ms - float(now_ms) - self.rtt_ms

    def admit(self, request, now_ms):
        """Hand a routed request to the site's cluster.

        Rewrites the request into site-local coordinates: arrival at
        ``now + rtt/2`` (the ingress leg) and target shrunk so the
        site-local deadline is the original deadline minus the egress
        leg — late routing (shaping deferrals) and network time both
        come out of the compute slack, never out of the SLO.
        """
        slack = self.remaining_slack_ms(request, now_ms)
        if slack <= 0:
            # Routed although already doomed (every site was
            # RTT-infeasible and the router limited the damage): the
            # request must still be served — conservation — so it gets
            # a token compute budget and the SLO miss lands where it
            # belongs, at the fleet level.
            slack = DOOMED_TARGET_MS
            self.late_admissions += 1
        ingress_ms = float(now_ms) + self.rtt_ms / 2.0
        # Site-local deadline = ingress + target = original deadline
        # minus the egress leg: finishing "on time" at the site leaves
        # exactly enough time for the response to travel back. Both
        # values are valid by construction (slack > 0, a finite
        # ingress), and ``inject`` validates the rest.
        local = retimed(request, ingress_ms, slack)
        self.sim.inject(local, at_ms=ingress_ms)
        self.admitted += 1
        if self.tracer.enabled and self.rtt_ms > 0.0:
            self.tracer.span(
                "ingress", "net", float(now_ms), self.rtt_ms / 2.0,
                self._trk_net, args={"request": request.request_id})
        return local

    # -- routing-facing observables -----------------------------------------------

    def quote(self, request, now_ms):
        """What routing ``request`` here at ``now_ms`` would face.

        ``(slack_ms, load, headroom)``: the compute budget the round
        trip leaves (:meth:`remaining_slack_ms`), the in-system requests
        per online device (the least-loaded key) and the power-cap
        window headroom in [0, 1] (1.0 when uncapped). None when the
        network legs alone leave no budget, or when the site cannot
        serve the request at all (:meth:`serves`) — necessary
        conditions only: the router's scoring judges whether the site's
        hardware fits the rest. Policies read one quote per (request,
        site) and hand its slack on to :meth:`estimate_request`.
        """
        slack = self.remaining_slack_ms(request, now_ms)
        if slack <= 1e-9 or not self.serves(request):
            return None
        return (slack, self.sim.in_system() / (self._index.online or 1),
                self.sim.budget_headroom(now_ms))

    def serves(self, request):
        """Whether this site's intake accepts a fleet-checked request.

        The fleet's intake check refuses, before routing, any request
        that no site could serve; what remains differs by site only for
        a mode-less request, which takes the site's mode — so its task
        must not be one this site :attr:`refuses`.
        """
        return request.mode is not None or request.task not in self.refuses

    # -- placement estimates ------------------------------------------------------

    def _row(self, task, bucket, mode, key, accel):
        """The cost row of ``task`` on class ``key`` (``accel`` is in it).

        ``(energies, latencies, swap_mj, swap_ms, wake_mj)``: the
        route-table columns of the class's hardware at the slack
        bucket, the switch from the class's resident task, and the wake
        transition from its parked rail point to nominal. Built once per
        (task, bucket, mode, class key) and run.
        """
        row_key = (task, bucket, mode, key)
        row = self._class_rows.get(row_key)
        if row is None:
            energies, latencies = route_table(
                self.registry, task, bucket, mode, accel.hw_config,
                self.sim.vectorized)
            swap = self.registry.switch_cost(accel.resident_task, task)
            row = self._class_rows[row_key] = (
                energies, latencies, swap.energy_mj, swap.latency_ms,
                accel.energy.estimate_transition()[1])
        return row

    def estimate_request(self, request, now_ms, slack):
        """Predicted cost of routing ``request`` to this site right now.

        ``slack`` is the request's :meth:`quote` slack; it picks the
        price table's slack bucket. A device costs its class row
        (:meth:`_row`) at the request's sentence, ``(row + swap) + wake``,
        so an estimate prices classes, never devices. With a device idle
        *now* the request lands on the cheapest idle device (the site's
        own energy governor picks min-joules too): the min over the pool
        index's classes, each priced by its first free device. With
        every device busy it queues onto whichever frees first: the mean
        over the online pool, walked in device order with each class
        priced once — the same left-to-right sum of the same floats as a
        per-device walk — so a saturated site cannot hide behind its
        cheapest device. Returns ``(energy_mj, latency_ms)``, or None
        when nothing is online. Standby sites add each device's live
        wake term, which decays with the clock.
        """
        if not self._index.online:
            return None
        grid = ESTIMATE_TARGET_GRID_MS
        bucket = max(grid, (slack // grid) * grid)
        mode = request.mode if request.mode is not None \
            else self.sim.mode
        if self._standby:
            return self._standby_estimate(request, bucket, mode, now_ms)
        task = request.task
        s = request.sentence
        accels = self.sim.accelerators
        classes = self._index.classes
        if classes:
            costs = []
            for key, ids in classes.items():
                energies, latencies, swap_mj, swap_ms, wake_mj = \
                    self._row(task, bucket, mode, key, accels[ids[0]])
                costs.append(((energies[s] + swap_mj) + wake_mj,
                              latencies[s] + swap_ms))
            return min(costs)
        priced = {}
        costs = []
        for accel in accels:
            if accel.online:
                key = class_key(accel)
                cost = priced.get(key)
                if cost is None:
                    energies, latencies, swap_mj, swap_ms, wake_mj = \
                        self._row(task, bucket, mode, key, accel)
                    cost = priced[key] = ((energies[s] + swap_mj) + wake_mj,
                                          latencies[s] + swap_ms)
                costs.append(cost)
        return _mean(costs)

    def _standby_estimate(self, request, bucket, mode, now_ms):
        """:meth:`estimate_request` with each device's live wake term."""
        task = request.task
        online = [a for a in self.sim.accelerators if a.online]
        pool = [a for a in online if a.idle] or online
        s = request.sentence
        costs = []
        for accel in pool:
            energies, latencies, swap_mj, swap_ms, _ = self._row(
                task, bucket, mode, class_key(accel), accel)
            costs.append(((energies[s] + swap_mj)
                          + accel.energy.estimate_transition(
                              now_ms=now_ms)[1],
                          latencies[s] + swap_ms))
        if pool is not online:
            return min(costs)
        return _mean(costs)


def _mean(costs):
    """The busy regime's ``(energy_mj, latency_ms)``: per-device means."""
    energy, latency = zip(*costs)
    return sum(energy) / len(costs), sum(latency) / len(costs)


@dataclass
class SiteOutcome:
    """One site's share of a finished fleet run."""

    site_id: str
    rtt_ms: float
    report: object  # repro.cluster.ClusterReport
    admitted: int
    parks: int = 0
    wakes: int = 0
    deferred_admissions: int = field(default=0)
