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

Routing policies read site state through the cheap observables
(:meth:`load`, :meth:`headroom`, :meth:`rtt_feasible`) and through
:meth:`estimate_request` — per-site placement estimates whose compute
term is one row of a whole-profile price table (:func:`route_table`).
A table prices every sentence of a (task, slack bucket, mode, hardware)
variant in one engine call and is shared by every site on the same
registry, so a router miss is a list lookup, never an engine call.

The site memoizes its own estimates per *epoch* — a stretch of
simulated time in which its :meth:`routing_fingerprint` stays put. The
driving calls re-key it when device state may have moved (``start``,
``step``/``run_until`` runs that processed events, and
:meth:`set_device_online`), never per estimate, so a run of arrivals
scored between two state changes costs one dictionary lookup per site
each. Standby sites skip the memo: their wake term decays with the
clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.replay import _build_table
from repro.cluster.simulator import ClusterSimulator
from repro.errors import FleetError
# Unused here: bound only so the e2e benchmark's layer tracer
# (benchmarks/e2e/layertrace.py) still resolves its
# ``fleet.site.price_batch`` boundary.
from repro.serving.server import price_batch  # noqa: F401

#: Grid (ms) site-local targets are floored to for routing estimates —
#: coarse enough that nearby deadlines share one price table,
#: conservative (understating slack only tightens the plan).
ESTIMATE_TARGET_GRID_MS = 5.0

#: Token site-local target for requests that were already doomed when
#: routed (no site could make the deadline): they still must be served.
DOOMED_TARGET_MS = 0.001


def route_table(registry, task, target_ms, mode, hw_config, vectorized):
    """``(energy_mj, latency_ms)`` columns of one whole-profile table.

    Entry ``i`` of each list is bit-identical to pricing sentence ``i``
    as a one-request batch at ``target_ms`` (the replay core's
    composition-invariance contract, :func:`_build_table`). Memoized on
    the registry beside its hardware variants and switch costs, so
    sites with the same hardware share one build. The router reads
    nothing but these two float columns, so it keeps them as lists and
    drops the table: none of its rows is ever boxed into a result. Only
    ``lai`` reads the target, so ``base``/``ee`` share one table across
    buckets.
    """
    key = (task, target_ms if mode == "lai" else None, mode, hw_config,
           vectorized)
    columns = registry._route_tables.get(key)
    if columns is None:
        table = _build_table(registry, task, target_ms, mode, hw_config,
                             vectorized=vectorized)
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
        if self.rtt_ms < 0:
            raise FleetError("rtt_ms must be non-negative")


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
            # Whole-profile tables price non-deadline-budget batches
            # bit-identically (the replay core's composition-invariance
            # contract), so sites always take the faster path.
            price_tables=True,
            tracer=tracer, metrics=metrics, monitor=monitor,
            trace_scope=config.site_id,
        )
        #: The site's tracer (the orchestrator's, or the shared
        #: NULL_TRACER); admission emits the ingress network leg on it.
        self.tracer = self.sim.tracer
        self._trk_net = f"{self.site_id}/net"
        #: A standby rail decays with the clock, so its wake term is not
        #: frozen inside an epoch: such sites price the full pool.
        self._standby = config.standby_timeout_ms is not None
        self.admitted = 0
        self.late_admissions = 0

    # -- lifecycle (driven by the orchestrator) -----------------------------------

    def start(self):
        self.sim.start()
        self.admitted = 0
        self.late_admissions = 0
        self._memo = {}
        self._epoch_key = None
        self._rekey()
        return self

    def peek_ms(self):
        return self.sim.peek_ms()

    def step(self):
        moved = self.sim.step()
        if moved:
            self._refresh()
        return moved

    def run_until(self, until_ms=None):
        """Drain site events at instants ``<= until_ms`` in one call.

        The orchestrator's chunked driving primitive: between front-end
        instants this site's events are independent of every other
        site's, so free-running them in one call replays identically to
        a per-event merge (see ``FleetOrchestrator._drain``). A run that
        processed events re-checks the routing fingerprint. Returns the
        number of events processed.
        """
        moved = self.sim.run_until(until_ms)
        if moved:
            self._refresh()
        return moved

    def set_device_online(self, accel_id, online, now_ms=None):
        """Park or wake one device (the autoscaler's actuator).

        Delegates to :meth:`ClusterSimulator.set_device_online`, then
        re-keys the estimate memo unconditionally: park/wake moves no
        fingerprint counter, yet changes the online pool.
        """
        changed = self.sim.set_device_online(accel_id, online,
                                             now_ms=now_ms)
        self._rekey()
        return changed

    def finish(self):
        return self.sim.finish()

    # -- admission ----------------------------------------------------------------

    def remaining_slack_ms(self, request, now_ms):
        """Compute budget left if routed now: deadline − now − round trip."""
        return request.deadline_ms - float(now_ms) - self.rtt_ms

    def rtt_feasible(self, request, now_ms):
        """Can a request routed at ``now_ms`` still make its deadline here?

        Necessary condition only — the network legs must leave *some*
        compute budget; the router's scoring judges whether the site's
        hardware fits the rest.
        """
        return self.remaining_slack_ms(request, now_ms) > 1e-9

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
        # exactly enough time for the response to travel back.
        local = replace(request, arrival_ms=ingress_ms, target_ms=slack)
        self.sim.inject(local, at_ms=ingress_ms)
        self.admitted += 1
        if self.tracer.enabled and self.rtt_ms > 0.0:
            self.tracer.span(
                "ingress", "net", float(now_ms), self.rtt_ms / 2.0,
                self._trk_net, args={"request": request.request_id})
        return local

    # -- routing-facing observables -----------------------------------------------

    def online_devices(self):
        return [a for a in self.sim.accelerators if a.online]

    def busy_devices(self):
        return [a for a in self.sim.accelerators
                if a.online and not a.idle]

    def load(self):
        """In-system requests per online device (the least-loaded key)."""
        return self.sim.in_system() / (self._online or 1)

    def headroom(self, now_ms):
        """Power-cap window headroom in [0, 1]; 1.0 when uncapped."""
        return self.sim.budget_headroom(now_ms)

    def routing_fingerprint(self):
        """Version stamp of everything a placement estimate reads.

        Device-visible state — who is idle, which task is resident,
        whether a wake transition is pending, the budget ledger —
        changes only when a batch starts, a run completes, or a run is
        preempted; every one of those moves one of these counters.
        Event runs that leave the stamp unchanged (arrivals merging into
        open windows, timeouts that close onto a full pool) cannot have
        changed a routing estimate, so the site keeps its estimate memo
        warm across them. Park/wake moves *no* counter, which is why
        :meth:`set_device_online` re-keys unconditionally.
        """
        report = self.sim._report
        return (report.num_batches, len(report.records),
                report.preemptions)

    # -- placement estimates ------------------------------------------------------

    def _rekey(self):
        """New epoch after the online pool may have changed."""
        self._online = len(self.online_devices())
        self._fingerprint = self.routing_fingerprint()
        self._census = None  # rescanned by the next estimate

    def _refresh(self):
        """New epoch if an event run moved routing-visible state."""
        fingerprint = self.routing_fingerprint()
        if fingerprint != self._fingerprint:
            self._fingerprint = fingerprint
            self._census = None

    @staticmethod
    def _class_key(accel):
        """Everything a placement estimate reads off one device.

        :meth:`_device_estimate` is a price-table row (pure in task,
        slack bucket, mode and hardware) + the switch cost from the
        resident task + the wake-transition estimate, so two devices
        agreeing on this key price every request identically. Without
        a standby timeout the transition term is a cached pure function
        of the parked→nominal rail points, read here raw.
        """
        energy = accel.energy
        if energy is None:
            return (accel.hw_config, accel.resident_task)
        return (accel.hw_config, accel.resident_task,
                energy.parked_vdd, energy.parked_freq_ghz,
                energy.nominal_vdd, energy.nominal_freq_ghz)

    def _scan(self):
        """Census this epoch's pricing set: ``(idle reps, online pool)``.

        With a device idle the estimate is a min over the idle pool,
        and a min over prices that agree within a class equals the min
        over one representative per *distinct* class — so a 384-device
        pool collapses to the handful of (hardware, resident task, rail
        point) classes actually present. With nothing idle it is the
        order-sensitive mean over the online pool. The epoch key is
        exactly what the estimate reads, so memoized estimates survive
        fingerprint churn (batch starts and completions) that leaves
        the class structure unchanged — the common case under load.
        """
        class_key = self._class_key
        classes = set()
        reps = []
        online = []
        for accel in self.sim.accelerators:
            if not accel.online:
                continue
            online.append(accel)
            if accel.idle:
                key = class_key(accel)
                if key not in classes:
                    classes.add(key)
                    reps.append(accel)
        if reps:
            epoch_key = (True, frozenset(classes))
        else:
            epoch_key = (False, tuple(class_key(a) for a in online))
        if epoch_key != self._epoch_key:
            self._memo.clear()
            self._epoch_key = epoch_key
        self._census = (reps, online)

    def _device_estimate(self, request, mode, bucket, accel, now_ms):
        """(energy_mj, latency_ms) of ``request`` on one device, now."""
        energies, latencies = route_table(
            self.registry, request.task, bucket, mode, accel.hw_config,
            self.sim.vectorized)
        energy_mj = energies[request.sentence]
        latency_ms = latencies[request.sentence]
        cost = self.registry.switch_cost(accel.resident_task,
                                         request.task)
        energy_mj += cost.energy_mj
        latency_ms += cost.latency_ms
        if accel.energy is not None:
            energy_mj += accel.energy.estimate_transition(
                now_ms=now_ms)[1]
        return energy_mj, latency_ms

    def estimate_request(self, request, now_ms):
        """Predicted cost of routing ``request`` to this site right now.

        Per-device compute is one row of the registry's shared price
        table for (task, target bucket, mode, hw) — built once per
        variant, never priced per request — and the live swap and
        wake-transition terms are added per device. The site-level
        prediction honors dispatch reality: with a device idle *now*,
        the request lands on the cheapest idle device (the site's own
        energy governor picks min-joules too); with every device busy
        it will be queued onto whichever frees first, so the prediction
        is the mean over the online pool — a saturated site with one
        expensive device can no longer hide behind its cheapest one.
        Returns ``(energy_mj, latency_ms)``, or None when nothing is
        online.

        Memoized per epoch on (task, mode, sentence, slack bucket); a
        miss prices one representative per idle device class
        (:meth:`_scan`). Standby sites price the full pool every call.
        """
        if not self._online:
            return None
        slack = self.remaining_slack_ms(request, now_ms)
        grid = ESTIMATE_TARGET_GRID_MS
        bucket = max(grid, (slack // grid) * grid)
        if self._standby:
            online = self.online_devices()
            return self._pool_estimate(request, bucket, now_ms,
                                       [a for a in online if a.idle],
                                       online)
        if self._census is None:
            self._scan()  # before the memo read: it may clear the memo
        key = (request.task, request.mode, request.sentence, bucket)
        estimate = self._memo.get(key)
        if estimate is None:
            estimate = self._memo[key] = self._pool_estimate(
                request, bucket, now_ms, *self._census)
        return estimate

    def _pool_estimate(self, request, bucket, now_ms, idle, online):
        """Min over the ``idle`` devices, or the mean over ``online``."""
        mode = request.mode if request.mode is not None \
            else self.sim.mode
        if idle:
            return min(self._device_estimate(request, mode, bucket, a,
                                             now_ms)
                       for a in idle)
        estimates = [self._device_estimate(request, mode, bucket, a,
                                           now_ms)
                     for a in online]
        return (sum(e for e, _ in estimates) / len(estimates),
                sum(t for _, t in estimates) / len(estimates))


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
