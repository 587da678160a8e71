"""The discrete-event multi-accelerator serving simulator.

``ClusterSimulator.run(requests)`` plays a request trace through time:

1. **Arrival** — at ``Request.arrival_ms`` the request joins its
   (task, SLO class, mode) batch former; the window closes on a size or
   timeout trigger (:mod:`repro.cluster.batcher`).
2. **Dispatch** — closed batches wait for the scheduling policy
   (:mod:`repro.cluster.policies`) to place them on a free accelerator;
   placement pays the encoder-weight swap when the resident task
   changes, then prices the batch as the single-node
   :class:`~repro.serving.Server` does — by gathering its members' rows
   from a whole-profile price table
   (:meth:`repro.serving.TaskProfile.price_table`), against the
   *device's own* hardware when the pool is heterogeneous
   (per-accelerator ``hw_configs``). With ``deadline_aware=True``,
   ``lai`` batches are
   DVFS-planned against their *actual remaining slack* at dispatch —
   earliest member deadline minus the current instant minus the swap —
   so compute adapts to time already lost in queue
   (:mod:`repro.dvfs.deadline`); ``adaptive_timeout=True`` additionally
   retunes each batch former's window from observed dispatch delay.
3. **Completion / preemption** — per-sentence finish times are known at
   placement, so completions are exact events; preemptive policies may
   abort a running ``base`` batch at a sentence boundary, wasting the
   partial sentence and requeueing the rest.

Energy is a first-class signal (the :mod:`repro.energy` subsystem):
every accelerator carries a
:class:`~repro.energy.DeviceEnergyModel` tracking its parked DVFS
point, idle leakage and wake transitions; policies can consult
per-device cost predictions through
:meth:`~repro.cluster.AcceleratorSim.estimate`; and an optional
cluster-wide :class:`~repro.energy.EnergyBudget` (``energy_budget_mw``)
throttles admission while the rolling joules/sec window is exhausted.
The resulting ledger lands in ``ClusterReport.energy``.

Everything is deterministic: no wall-clock, no RNG — the same trace,
pool and policy always produce the same :class:`ClusterReport`.

``run(requests)`` drives a whole trace in one call, on the core the
configuration allows; ``run_events(requests)`` always runs the
per-event loop. The incremental
lifecycle (``start`` / ``inject`` / ``peek_ms`` / ``step`` /
``finish``) lets an external clock — the :mod:`repro.fleet`
orchestrator — interleave this simulator with other sites' event loops
and park/wake devices mid-run (``set_device_online``).
"""

from __future__ import annotations

import math
import time

from repro.energy.budget import EnergyBudget
from repro.energy.device import DeviceEnergyModel
from repro.energy.report import DeviceEnergyBreakdown
from repro.errors import ClusterError
from repro.serving.request import SERVING_MODES, Batch
from repro.serving.server import price_batch, validate_request
from repro.telemetry.tracer import NULL_TRACER

from repro.cluster.accelerator import AcceleratorSim, PlacementEstimate
from repro.cluster.batcher import (
    AdaptiveTimeout,
    BatchFormer,
    PendingBatch,
    check_batch_size,
    check_time_ms,
)
from repro.cluster.events import (
    Arrival,
    BatchDone,
    BatchTimeout,
    DispatchRetry,
    EventLoop,
)
from repro.cluster.policies import FifoPolicy, fifo_placement, make_policy
from repro.cluster.pool import PoolIndex
from repro.cluster.replay import (
    _compute_span,
    replay_ineligible_reason,
    run_vectorized,
)
from repro.cluster.report import ClusterRecord, ClusterReport


class ClusterSimulator:
    """A pool of priced accelerators behind arrival-aware batching."""

    #: Runaway guard for one run's event processing, mirroring
    #: ``FleetOrchestrator.MAX_FLEET_EVENTS``: a scheduling cycle (an
    #: event handler that keeps rescheduling itself at the same instant)
    #: raises :class:`~repro.errors.ClusterError` instead of spinning
    #: forever. Sized for a ~1M-request trace on the per-event loop
    #: (a few events per request) with an order of magnitude to spare.
    MAX_EVENTS = 10_000_000

    def __init__(self, registry, num_accelerators=None, policy="fifo",
                 mode="lai", max_batch_size=32, batch_timeout_ms=5.0,
                 vectorized=True, hw_configs=None, energy_budget_mw=None,
                 budget_window_ms=100.0, deadline_aware=False,
                 adaptive_timeout=False, standby_timeout_ms=None,
                 deadline_sizing=False, tracer=None, metrics=None,
                 monitor=None, trace_scope="cluster"):
        if mode not in SERVING_MODES:
            raise ClusterError(
                f"unknown mode {mode!r}; expected one of {SERVING_MODES}")
        max_batch_size = check_batch_size(max_batch_size)
        batch_timeout_ms = check_time_ms("batch_timeout_ms",
                                         batch_timeout_ms)
        if standby_timeout_ms is not None:
            standby_timeout_ms = check_time_ms("standby_timeout_ms",
                                               standby_timeout_ms)
        # Chained bounds: NaN fails every comparison, and an infinite
        # value fails the ``< math.inf`` end.
        if energy_budget_mw is not None \
                and not 0 < energy_budget_mw < math.inf:
            raise ClusterError("energy_budget_mw must be finite and > 0")
        if not 0 < budget_window_ms < math.inf:
            raise ClusterError("budget_window_ms must be finite and > 0")
        if deadline_aware and not vectorized:
            # Fail at construction, not mid-simulation: the deadline
            # path is batch-level and has no scalar reference loop.
            raise ClusterError(
                "deadline_aware pricing needs the vectorized kernels")
        if deadline_sizing and not deadline_aware:
            raise ClusterError(
                "deadline_sizing closes windows for the deadline-budget "
                "planner; it needs deadline_aware=True")
        if hw_configs is not None:
            hw_configs = tuple(hw_configs)
            if not hw_configs:
                raise ClusterError("hw_configs must not be empty")
            if num_accelerators is None:
                num_accelerators = len(hw_configs)
            elif num_accelerators != len(hw_configs):
                # An explicit pool size must match exactly — silently
                # preferring either number corrupts sweeps.
                raise ClusterError(
                    f"hw_configs has {len(hw_configs)} entries for "
                    f"{num_accelerators} accelerators")
        if num_accelerators is None:
            num_accelerators = 1
        if num_accelerators < 1:
            raise ClusterError("num_accelerators must be >= 1")
        self.registry = registry
        self.num_accelerators = int(num_accelerators)
        self.policy = make_policy(policy)
        self.mode = mode
        self.max_batch_size = max_batch_size
        self.batch_timeout_ms = batch_timeout_ms
        self.vectorized = vectorized
        self.hw_configs = hw_configs
        self.energy_budget_mw = energy_budget_mw
        self.budget_window_ms = float(budget_window_ms)
        #: Plan lai batches against their remaining deadline slack at
        #: dispatch time (deadline − queueing delay − swap) instead of
        #: per-sentence targets. Default off: per-sentence planning.
        self.deadline_aware = bool(deadline_aware)
        #: Retune batch-former timeouts per (task, SLO class, mode) from
        #: observed dispatch delay (:class:`~repro.cluster.batcher.
        #: AdaptiveTimeout`); the static ``batch_timeout_ms`` seeds it.
        self.adaptive_timeout = bool(adaptive_timeout)
        #: Deadline-aware batch sizing: close an open window early when
        #: the members' planned compute approaches the earliest member's
        #: slack, so relaxed batches keep their deadline-path savings
        #: (see :class:`~repro.cluster.batcher.BatchFormer`).
        self.deadline_sizing = bool(deadline_sizing)
        #: Idle interval after which a device's rail drops to the
        #: standby/retention point (None = park forever, the legacy
        #: behavior); see :class:`~repro.energy.DeviceEnergyModel`.
        self.standby_timeout_ms = standby_timeout_ms
        #: Telemetry (:mod:`repro.telemetry`): every hook is read-only
        #: observation fired *after* the simulator commits a state
        #: change, so a traced run's report is bit-identical to an
        #: untraced one. The NULL_TRACER default keeps untraced hot
        #: paths at one attribute test per hook site.
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Optional :class:`~repro.telemetry.MetricsRegistry`; sampled
        #: on the event clock with ``scope=trace_scope`` labels.
        self.metrics = metrics
        #: Optional :class:`~repro.telemetry.monitor.TelemetryMonitor`;
        #: fed read-only observations (completions, queue depth,
        #: throttles, swaps, park/wake) at the instants they commit, on
        #: both engines, so alert streams are engine-invariant and a
        #: monitored report is bit-identical to an unmonitored one.
        self.monitor = monitor
        #: Leading component of every track this run emits on —
        #: ``"cluster"`` standalone, the site id inside a fleet.
        self.trace_scope = str(trace_scope)

    # -- public API --------------------------------------------------------------

    def run(self, requests):
        """Simulate the trace; returns a :class:`ClusterReport`.

        The configuration picks the core. When
        :func:`~repro.cluster.replay.replay_ineligible_reason` finds
        nothing against it, the trace replays through the vectorized
        batch-granular core (:mod:`repro.cluster.replay`) — bit-identical
        reports, per-batch instead of per-request cost. Otherwise it
        runs the per-event loop (:meth:`run_events`), and the reason
        lands in ``report.engine_fallback_reason``. The report's
        ``engine`` field says which core actually ran. Either core leaves
        :attr:`pool_index` current and audits it once, at finalization.

        ``requests`` is any request iterable: a list, a stream, or a
        :class:`~repro.serving.RequestTrace`, which the vector core reads
        as columns without building a request per row.
        """
        reason = replay_ineligible_reason(self)
        if reason is None:
            return run_vectorized(self, requests)
        report = self.run_events(requests)
        report.engine_fallback_reason = reason
        return report

    def run_events(self, requests):
        """Simulate the trace on the per-event loop; returns the report.

        The reference core, which every configuration can run:
        :meth:`start`, one :meth:`inject` per request, a full
        :meth:`run_until` drain and :meth:`finish`. :meth:`run` calls it
        when the vector core does not apply; tests and benches call it
        directly to hold the two cores bit-identical.
        """
        self.start()
        for request in requests:
            self.inject(request)
        if not self._seen:
            raise ClusterError("no requests to simulate")
        self.run_until()
        return self.finish()

    # -- incremental lifecycle (the fleet orchestrator's driving API) ------------

    def start(self):
        """Initialize a fresh run without scheduling any arrivals.

        :meth:`run_events` is ``start`` + ``inject`` per request + a full
        event-loop drain + ``finish``; an external driver (the fleet
        orchestrator) instead interleaves :meth:`inject` / :meth:`step`
        with other sites' clocks and calls :meth:`finish` once every
        loop is dry.
        """
        self._started = time.perf_counter()
        self._seen = set()
        self.policy.reset()
        #: Both cores place a plain FIFO policy by :func:`fifo_placement`
        #: (a subclass may override ``next_placement``).
        self._fifo = type(self.policy) is FifoPolicy
        self._loop = EventLoop()
        self._loop.on(Arrival, self._on_arrival)
        self._loop.on(BatchTimeout, self._on_timeout)
        self._loop.on(BatchDone, self._on_done)
        self._loop.on(DispatchRetry, self._on_dispatch_retry)
        self._accels = self._build_pool()
        self._index = PoolIndex(self._accels)
        self._formers = {}
        self._pending = []
        self._batch_seq = 0
        self._price_cache = {}
        self._profiles = {}
        self._budget = None
        self._budget_retry_armed = False
        self._budget_tokens = {}
        if self.energy_budget_mw is not None:
            self._budget = EnergyBudget(self.energy_budget_mw,
                                        self.budget_window_ms)
        self._attach_telemetry()
        self._report = ClusterReport(
            policy=self.policy.name, mode=self.mode,
            num_accelerators=self.num_accelerators)
        return self

    def _attach_telemetry(self):
        """Point the run's tracks/instruments at this start's state.

        Tracks follow the ``"scope/lane"`` contract: one lane per
        device (``accelN``), plus the batch former, dispatcher queue
        and budget lanes. Metric instruments are created once here so
        the per-event sampling below touches plain attributes.
        """
        scope = self.trace_scope
        self._trk_former = f"{scope}/former"
        self._trk_queue = f"{scope}/queue"
        for accel in self._accels:
            accel.track = f"{scope}/accel{accel.accel_id}"
        if self.tracer.enabled:
            for accel in self._accels:
                if accel.energy is not None:
                    accel.energy.attach_tracer(self.tracer, accel.track)
            if self._budget is not None:
                self._budget.attach_tracer(self.tracer,
                                           f"{scope}/budget")
        self._m_served = None
        if self.metrics is not None:
            m = self.metrics
            self._m_served = m.counter("requests_served", scope=scope)
            self._m_violations = m.counter("deadline_violations",
                                           scope=scope)
            self._m_preemptions = m.counter("preemptions", scope=scope)
            self._m_throttles = m.counter("budget_throttles",
                                          scope=scope)
            self._m_queue = m.gauge("queue_depth", scope=scope)
            self._m_free = m.gauge("free_devices", scope=scope)
            self._m_headroom = m.gauge("budget_headroom", scope=scope)
            self._m_latency = m.histogram("time_in_system_ms",
                                          scope=scope)
            self._m_qdelay = m.histogram("queueing_delay_ms",
                                         scope=scope)
        self._mon = self.monitor

    def inject(self, request, at_ms=None):
        """Validate ``request`` and schedule its arrival.

        ``at_ms`` overrides the instant the Arrival event fires (the
        fleet injects at routing time + network latency); it defaults to
        ``request.arrival_ms`` and may never precede the site clock.
        """
        if request.request_id in self._seen:
            raise ClusterError(
                f"duplicate request id {request.request_id}")
        validate_request(self.registry, request,
                         self._resolve_mode(request))
        self._seen.add(request.request_id)
        at_ms = request.arrival_ms if at_ms is None else float(at_ms)
        self._loop.schedule(at_ms, Arrival(request))

    def peek_ms(self):
        """Next event instant, or None when the loop is dry."""
        return self._loop.peek_ms()

    def step(self):
        """Process the next event; False when the loop is dry."""
        return self._loop.step()

    def run_until(self, until_ms=None, max_events=None):
        """Drain every local event at instants ``<= until_ms``.

        The chunked driving primitive for external clocks: the fleet
        orchestrator free-runs each site to the next fleet-level instant
        in one call instead of peeking every site per event. Returns the
        number of events processed; ``until_ms=None`` drains the loop
        dry. Guarded by :data:`MAX_EVENTS`.
        """
        return self._loop.drain_until(
            until_ms,
            self.MAX_EVENTS if max_events is None else max_events)

    @property
    def now_ms(self):
        return self._loop.now_ms

    @property
    def accelerators(self):
        """The live pool (autoscalers read ``online``/``idle`` off it)."""
        return self._accels

    @property
    def pool_index(self):
        """The run's :class:`~repro.cluster.pool.PoolIndex`.

        Both cores keep it: current after every event, park and wake of
        an incremental or :meth:`run_events` run, and after every batch
        start and completion of the vector core.
        """
        return self._index

    @property
    def budget(self):
        """The run's :class:`~repro.energy.EnergyBudget` (or None)."""
        return self._budget

    def budget_headroom(self, now_ms=None):
        """Remaining budget-window fraction in [0, 1]; 1.0 uncapped."""
        if self._budget is None:
            return 1.0
        now = self._loop.now_ms if now_ms is None else float(now_ms)
        return self._budget.headroom_fraction(now)

    def in_system(self):
        """Requests injected but not yet served (queued, batching, running)."""
        return len(self._seen) - len(self._report.records)

    def queue_depth(self):
        """Requests waiting in closed batches or open windows."""
        return (sum(len(pb) for pb in self._pending)
                + sum(len(f) for f in self._formers.values()))

    def set_device_online(self, accel_id, online, now_ms=None):
        """Park (``False``) or wake (``True``) one device.

        Parking requires the device to be idle — the autoscaler only
        sheds capacity, it never aborts work — and drops its rail to the
        retention voltage immediately
        (:meth:`~repro.energy.DeviceEnergyModel.force_standby`), so a
        parked device leaks at the standby point until woken. Waking
        marks it dispatchable again and re-runs the dispatcher; the
        standby→nominal transition is charged by the device's energy
        model when its first batch begins.

        ``now_ms`` is the instant the decision is made on an *external*
        clock (the fleet autoscaler's tick): the site clock is advanced
        to it first, so the park's leakage switch and any dispatch the
        wake enables happen *at* the decision, never in the site's
        past. Returns True when the state actually changed.
        """
        if now_ms is not None:
            self._loop.advance_to(now_ms)
        accel = self._accels[accel_id]
        if bool(online) == accel.online:
            return False
        if not online:
            if not accel.idle:
                raise ClusterError(
                    f"cannot park busy accelerator {accel_id}")
            accel.online = False
            self._index.park(accel)
            if accel.energy is not None:
                accel.energy.force_standby(self._loop.now_ms)
            if self.tracer.enabled:
                self.tracer.instant("park-device", "scale",
                                    self._loop.now_ms, accel.track)
            if self._mon is not None:
                self._mon.observe_scale(self.trace_scope,
                                        self._loop.now_ms, accel_id,
                                        "park")
        else:
            accel.online = True
            self._index.wake(accel)
            if self.tracer.enabled:
                self.tracer.instant("wake-device", "scale",
                                    self._loop.now_ms, accel.track)
            if self._mon is not None:
                self._mon.observe_scale(self.trace_scope,
                                        self._loop.now_ms, accel_id,
                                        "wake")
            self._dispatch()
        return True

    def finish(self):
        """Finalize accounting; returns the :class:`ClusterReport`.

        Valid only once every scheduled event has been processed; raises
        if any injected request was not served exactly once (the
        conservation invariant ``run`` has always enforced), or if the
        pool index disagrees with a walk of the pool.
        """
        report = self._report
        report.makespan_ms = max(
            (rec.completion_ms for rec in report.records), default=0.0)
        report.engine = "event" if self.vectorized else "oracle"
        self._common_finalize(report)
        # Conservation: every submitted request served exactly once.
        served = sorted(rec.request.request_id for rec in report.records)
        if served != sorted(self._seen) or self._pending \
                or any(not a.idle for a in self._accels) \
                or any(f.is_open for f in self._formers.values()):
            raise ClusterError(
                "simulation ended with unserved or duplicated requests")
        return report

    def _common_finalize(self, report):
        """Close the device/budget/wall accounting on ``report``.

        Shared by :meth:`finish` and the vectorized replay core
        (:mod:`repro.cluster.replay`) so both engines settle idle
        leakage, device ledgers and budget stats through the same code —
        ``report.makespan_ms`` must already be set. It first audits the
        pool index against a walk of the pool (both cores keep it), before
        finalization accrues the devices' tail idle intervals, which may
        drop a standby rail and so move a class key.
        """
        self._index.check()
        report.accelerators = [a.stats for a in self._accels]
        for accel in self._accels:
            accel.energy.finalize(report.makespan_ms)
        if self.tracer.enabled:
            # Device rail telemetry buffers locally on the hot path;
            # bulk-drain it now that the tail idle intervals are closed.
            for accel in self._accels:
                self.tracer.extend_rows(accel.energy.drain_trace_rows())
        report.device_energy = [
            DeviceEnergyBreakdown(
                accel_id=a.accel_id,
                mac_vector_size=a.energy.hw_config.mac_vector_size,
                compute_mj=a.stats.compute_energy_mj,
                swap_mj=a.stats.swap_energy_mj,
                idle_mj=a.energy.idle_energy_mj,
                transition_mj=a.energy.transition_energy_mj,
                idle_ms=a.energy.idle_ms,
                transition_ms=a.energy.transition_ms,
                transitions=a.energy.transitions,
                parked_vdd=a.energy.parked_vdd,
            )
            for a in self._accels
        ]
        if self._budget is not None:
            report.budget = self._budget.stats
        report.wall_seconds = time.perf_counter() - self._started

    # -- pool construction -------------------------------------------------------

    def _default_hw_config(self):
        """Hardware for homogeneous pools: the registry's pricing HW."""
        return self.registry.profile(self.registry.tasks[0]) \
            .engine.hw_config

    def _build_pool(self):
        """One device per accelerator, numbered into hardware slots.

        Distinct hardware configs get slots 0, 1, … in pool order, and
        per-decision keys use ``accel.hw_slot`` in place of the config.
        Devices on one slot twin one energy model
        (:meth:`~repro.energy.DeviceEnergyModel.twin`).
        """
        default_hw = None if self.hw_configs else self._default_hw_config()
        slots = {}
        models = []
        accels = []
        estimator = self._estimate_placement
        for i in range(self.num_accelerators):
            hw = self.hw_configs[i] if self.hw_configs else None
            slot = slots.get(hw)
            if slot is None:
                slot = slots[hw] = len(models)
                energy = DeviceEnergyModel(
                    hw or default_hw,
                    standby_timeout_ms=self.standby_timeout_ms)
                models.append(energy)
            else:
                energy = models[slot].twin()
            accel = AcceleratorSim(i, hw_config=hw, energy_model=energy)
            accel.hw_slot = slot
            accel.attach_estimator(estimator)
            accels.append(accel)
        return accels

    # -- event handlers ----------------------------------------------------------

    def _resolve_mode(self, request):
        return request.mode if request.mode is not None else self.mode

    def _on_arrival(self, event):
        request = event.request
        now = self._loop.now_ms
        key = (request.task, float(request.target_ms),
               self._resolve_mode(request))
        former = self._formers.get(key)
        if former is None:
            former = self._new_former(key, self.tracer)
        was_open = former.is_open
        closed = former.add(request, now)
        if closed is not None:
            self._enqueue(former.make_pending(closed, now,
                                              self._next_batch_seq()))
        if former.is_open and (closed is not None or not was_open):
            # A fresh window needs its timer: either the first arrival
            # opened it, or a deadline-sizing pre-close reopened it for
            # the newcomer that did not fit the previous budget.
            self._loop.schedule(former.timeout_deadline_ms(),
                                BatchTimeout(key, former.generation))
        self._dispatch()

    def _new_former(self, key, tracer=None):
        """Build and register the batch former of ``key``.

        ``key`` is (task, SLO target, mode). The former gets an adaptive
        controller under ``adaptive_timeout`` and a work estimator for
        ``lai`` keys under ``deadline_sizing``. Both cores call this;
        the vector core passes no tracer, because it emits window spans
        from its log.
        """
        controller = None
        if self.adaptive_timeout:
            controller = AdaptiveTimeout(base_ms=self.batch_timeout_ms,
                                         target_ms=key[1])
        estimator = None
        if self.deadline_sizing and key[2] == "lai":
            estimator = self._work_estimator(key)
        former = self._formers[key] = BatchFormer(
            key, max_batch_size=self.max_batch_size,
            timeout_ms=self.batch_timeout_ms,
            timeout_controller=controller, work_estimator=estimator,
            tracer=tracer, track=self._trk_former)
        return former

    def _on_timeout(self, event):
        former = self._formers[event.key]
        closed = former.on_timeout(event.generation, self._loop.now_ms)
        if closed is not None:
            self._enqueue(former.make_pending(closed, self._loop.now_ms,
                                              self._next_batch_seq()))
            self._dispatch()

    def _on_done(self, event):
        accel = self._accels[event.accel_id]
        if accel.run is None or accel.run.run_id != event.run_id:
            return  # stale completion from a preempted run
        run = accel.complete(self._loop.now_ms)
        # After complete(): the rail has just parked, so the class key
        # reads the device's resting state.
        self._index.release(accel)
        if self._m_served is not None:
            self._m_free.set(self._loop.now_ms, len(self._index.free))
        self._budget_tokens.pop((accel.accel_id, run.run_id), None)
        self._record_run(run, len(run.results))
        self._dispatch()

    def _on_dispatch_retry(self, event):
        self._budget_retry_armed = False
        self._dispatch()

    # -- per-device pricing ------------------------------------------------------

    #: Grid (ms) the deadline slack is floored to before planning. The
    #: planner is conservative under flooring (understating slack only
    #: tightens the plan), and a coarse grid is what lets repeated
    #: policy estimates of the same pending batch across nearby events
    #: hit the price cache instead of re-pricing per event.
    DEADLINE_SLACK_GRID_MS = 0.5

    def _work_estimator(self, key):
        """``request -> planned compute ms`` for the deadline-sizing trigger.

        Hands the batch former the per-sentence plan's latency — the
        quantity whose sum the deadline planner must fit inside the
        earliest member's slack — read as ``latency_ms[sentence]`` from
        the whole-profile price table for ``key`` on the registry's
        default hardware (the profile's memo, which :meth:`_price`
        reads too). Row ``i`` is bit-identical to pricing sentence ``i``
        alone as a singleton batch, so arrival order cannot change an
        estimate.
        """
        task, target_ms, mode = key
        latency_ms = self.registry.profile(task).price_table(
            mode, target_ms).latency_ms
        return lambda request: latency_ms[request.sentence]

    def _swap_for(self, pending_batch, accel, now_ms):
        """(latency_ms, energy_mj) of the swap this device pays first.

        The single definition of the placement-time residency rule: an
        eviction inside the swap window drops the residency, so the
        batch pays a full swap. Shared by the slack derivation and the
        placement estimator so predicted swap and planned slack can
        never disagree.
        """
        resident = accel.resident_task
        if accel.run is not None and accel.run.aborts_mid_swap(now_ms):
            resident = None
        if resident == pending_batch.task:
            return 0.0, 0.0
        cost = self.registry.switch_cost(resident, pending_batch.task)
        return cost.latency_ms, cost.energy_mj

    def _price(self, pending_batch, accel, now_ms, swap_ms=None):
        """``pending_batch``'s result rows on ``accel``'s hardware.

        One :class:`~repro.core.SentenceResult` per member, in batch
        order: the pricer both cores start batches from, and the one
        placement estimates read. A vectorized batch without a deadline
        budget gathers its rows from the profile's whole-profile table
        (:meth:`~repro.serving.TaskProfile.price_table`), uncached.

        A deadline-budget ``lai`` batch plans against its remaining
        slack at dispatch: its earliest member's deadline, minus
        ``now_ms`` (window and queueing time already spent), minus
        ``swap_ms``, the swap this device pays first (:meth:`_swap_for`,
        computed here unless the caller has it), floored to
        :data:`DEADLINE_SLACK_GRID_MS` and clamped at zero (an
        already-late batch plans per-sentence). Deadline plans and
        scalar batches go through :func:`~repro.serving.price_batch`,
        cached by batch seq, then (device hardware slot, deadline
        budget): every device sharing a hardware slot *and* seeing the
        same slack prices identically, so the governor scoring k devices
        and the eventual placement share one engine call per variant.
        :meth:`_begin` evicts a batch's entries when it starts.
        """
        mode = pending_batch.mode
        deadline = self.deadline_aware and mode == "lai"
        if self.vectorized and not deadline:
            batch = pending_batch.batch
            return self._profile_for(batch.task, accel).price_table(
                mode, batch.target_ms).rows(
                    batch.sentence_indices.tolist())
        deadline_ms = None
        if deadline:
            if swap_ms is None:
                swap_ms = self._swap_for(pending_batch, accel, now_ms)[0]
            slack = pending_batch.deadline_ms - now_ms - swap_ms
            grid = self.DEADLINE_SLACK_GRID_MS
            deadline_ms = max(math.floor(slack / grid) * grid, 0.0)
        key = (accel.hw_slot, deadline_ms)
        cache = self._price_cache.setdefault(pending_batch.seq, {})
        rows = cache.get(key)
        if rows is None:
            rows = cache[key] = price_batch(
                self._profile_for(pending_batch.task, accel),
                pending_batch.batch, mode, vectorized=self.vectorized,
                deadline_ms=deadline_ms).results
        return rows

    def _profile_for(self, task, accel):
        """The registry's profile for ``task`` on ``accel``'s slot."""
        key = (task, accel.hw_slot)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles[key] = self.registry.profile_for(
                task, accel.hw_config)
        return profile

    def _estimate_placement(self, accel, pending_batch, now_ms):
        """Back :meth:`AcceleratorSim.estimate` with cached pricing."""
        swap_ms, swap_energy = self._swap_for(pending_batch, accel,
                                              now_ms)
        rows = self._price(pending_batch, accel, now_ms, swap_ms)
        latency_ms = float(sum(r.latency_ms for r in rows))
        first_latency_ms = float(rows[0].latency_ms) if rows else 0.0
        energy_mj = float(sum(r.energy_mj for r in rows))
        transition_ms = transition_mj = 0.0
        if accel.energy is not None:
            # now_ms lets a standby-capable device price the wake from
            # its retention point once the idle timeout has elapsed.
            transition_ms, transition_mj = \
                accel.energy.estimate_transition(now_ms=now_ms)
        return PlacementEstimate(
            latency_ms=latency_ms, first_latency_ms=first_latency_ms,
            energy_mj=energy_mj, swap_ms=swap_ms,
            swap_energy_mj=swap_energy, transition_ms=transition_ms,
            transition_energy_mj=transition_mj)

    # -- dispatcher --------------------------------------------------------------

    def _next_batch_seq(self):
        seq = self._batch_seq
        self._batch_seq += 1
        return seq

    def _enqueue(self, pending_batch):
        self._pending.append(pending_batch)
        if self._m_served is None and self._mon is None:
            return
        # Closed-batch depth only (no open formers): the quantity both
        # cores sample, so the gauge and queue-depth alerts are
        # engine-invariant.
        depth = sum(len(pb) for pb in self._pending)
        if self._m_served is not None:
            self._m_queue.set(self._loop.now_ms, depth)
        if self._mon is not None:
            self._mon.observe_queue_depth(self.trace_scope,
                                          self._loop.now_ms, depth)

    def _budget_throttled(self):
        """True while admission must stall; arms the retry event."""
        if self._budget is None:
            return False
        now = self._loop.now_ms
        if not self._budget.exhausted(now):
            return False
        if not self._budget_retry_armed:
            relief = self._budget.next_relief_ms(now)
            self._budget.note_throttle(now, relief)
            self._loop.schedule(max(relief, now), DispatchRetry())
            self._budget_retry_armed = True
            if self._m_served is not None:
                self._m_throttles.inc()
            if self._mon is not None:
                self._mon.observe_throttle(self.trace_scope, now,
                                           relief)
        return True

    def _dispatch(self):
        """Place pending batches until the policy has nothing to do.

        ``_pending`` stays in close (seq) order: batches append as they
        close, and preemption remainders take fresh seqs.
        """
        free = self._index.free
        while self._pending:
            if self._budget_throttled():
                return
            if free:
                if self._fifo:
                    placement = fifo_placement(self._pending, self._index,
                                               self._accels)
                else:
                    placement = self.policy.next_placement(
                        self._pending,
                        list(map(self._accels.__getitem__, free)),
                        self._loop.now_ms)
                if placement is None:
                    return
                pending_batch, accel = placement
                self._pending.remove(pending_batch)
                self._index.take(accel)
                if self._mon is not None:
                    self._mon.observe_queue_depth(
                        self.trace_scope, self._loop.now_ms,
                        sum(len(pb) for pb in self._pending))
                self._start(pending_batch, accel)
                continue
            if not self.policy.preemptive:
                return
            decision = self.policy.preemption(
                self._pending, [a for a in self._accels if a.online],
                self._loop.now_ms)
            if decision is None:
                return
            pending_batch, victim = decision
            self._preempt(victim)
            self._pending.remove(pending_batch)
            if self._mon is not None:
                self._mon.observe_queue_depth(
                    self.trace_scope, self._loop.now_ms,
                    sum(len(pb) for pb in self._pending))
            self._start(pending_batch, victim)

    def _begin(self, pending_batch, accel, now, rows, latencies, energies):
        """Occupy ``accel`` with the priced batch: the start both cores run.

        Feeds the dispatch delay to the key's former, begins the run,
        then commits what the start charged against the rolling budget
        window: the left-to-right sum of ``energies``, plus the swap when
        actually paid, plus the wake transition the device charged at
        begin (``run.wake_energy_mj``, a standby crossing included).
        Evicts the batch's priced variants. Returns ``(run,
        budget_token)``; the token is None without a budget.
        """
        batch = pending_batch.batch
        swap_cost = self.registry.switch_cost(accel.resident_task,
                                              batch.task)
        # Read before begin moves the residency.
        swap_paid = accel.resident_task != batch.task
        former = self._formers.get((batch.task, float(batch.target_ms),
                                    pending_batch.mode))
        if former is not None:
            former.observe_dispatch_delay(now - pending_batch.ready_ms)
        run = accel.begin(pending_batch, rows, latencies, now, swap_cost)
        budget_token = None
        if self._budget is not None:
            committed = sum(energies)
            if swap_paid:
                committed += swap_cost.energy_mj
            committed += run.wake_energy_mj
            budget_token = self._budget.commit(now, committed)
        # The batch is placed; its priced variants can never be needed
        # again (requeued remainders get fresh seqs).
        self._price_cache.pop(pending_batch.seq, None)
        self._report.num_batches += 1
        return run, budget_token

    def _start(self, pending_batch, accel):
        """Price the batch and occupy the accelerator with its schedule."""
        now = self._loop.now_ms
        batch = pending_batch.batch
        rows = self._price(pending_batch, accel, now)
        run, budget_token = self._begin(
            pending_batch, accel, now, rows, [r.latency_ms for r in rows],
            [r.energy_mj for r in rows])
        if budget_token is not None:
            # Preemption refunds the unexecuted share through the token.
            self._budget_tokens[(accel.accel_id, run.run_id)] = budget_token
        if self.tracer.enabled:
            # Member ids + the device's hw class ride on the queue leg
            # so every dispatch attempt (including requeued preemption
            # remainders, which never re-open a window) is linkable to
            # its requests from the span log alone.
            self.tracer.span(
                "dispatch-wait", "queue", pending_batch.ready_ms,
                now - pending_batch.ready_ms, self._trk_queue,
                args={"batch": pending_batch.seq,
                      "size": len(pending_batch),
                      "accel": accel.accel_id,
                      "rids": [r.request_id for r in batch.requests],
                      "hw": (accel.hw_config.mac_vector_size
                             if accel.hw_config is not None else None)})
            if run.swap_ms > 0.0 or run.swap_energy_mj != 0.0:
                self.tracer.span(
                    f"swap:{batch.task}", "swap", now, run.swap_ms,
                    accel.track, energy_mj=run.swap_energy_mj,
                    args={"batch": pending_batch.seq})
        if self._mon is not None \
                and (run.swap_ms > 0.0 or run.swap_energy_mj != 0.0):
            self._mon.observe_swap(self.trace_scope, now, batch.task,
                                   accel.accel_id)
        if self._m_served is not None and self._budget is not None:
            # Pure read: _start's commit already expired the window at
            # `now`, so headroom_fraction re-expires nothing.
            self._m_headroom.set(now, self._budget.headroom_fraction(now))
        self._loop.schedule(run.end_ms, BatchDone(accel.accel_id,
                                                  run.run_id))

    def _preempt(self, victim):
        """Evict the victim's running batch at the current instant.

        Sentences that already finished stand; the partially executed one
        is wasted (time and prorated energy); the remainder requeues as a
        fresh pending batch that keeps its original deadline.
        """
        now = self._loop.now_ms
        mid_swap = victim.run.aborts_mid_swap(now)
        swap_refunded_before = victim.stats.swap_energy_refunded_mj
        run, n_done = victim.preempt(now)
        self._record_run(run, n_done)
        self._report.preemptions += 1
        wasted_mj = 0.0

        if mid_swap:
            # Aborted inside the encoder-weight load: the partial
            # streaming is the wasted work (the accelerator already
            # refunded the unspent remainder of the swap charge and
            # dropped its residency).
            self._report.wasted_compute_ms += max(0.0, now - run.start_ms)
        else:
            # Waste on the aborted sentence: elapsed time since the last
            # boundary, energy prorated by the completed fraction.
            boundary = (run.finish_ms[n_done - 1] if n_done
                        else run.start_ms + run.swap_ms)
            elapsed = max(0.0, now - boundary)
            self._report.wasted_compute_ms += elapsed
            if n_done < len(run.results):
                aborted = run.results[n_done]
                if aborted.latency_ms > 0:
                    wasted_mj = (aborted.energy_mj
                                 * min(1.0, elapsed / aborted.latency_ms))
                    self._report.wasted_energy_mj += wasted_mj
                    victim.stats.compute_energy_mj += wasted_mj
                    victim.stats.wasted_energy_mj += wasted_mj

        if self._budget is not None:
            # Refund the commitment's never-executed share — the energy
            # the preempted sentences did not burn (minus the wasted
            # fraction that *was* burned) plus the mid-swap refund the
            # accelerator handed back. The requeued remainder commits
            # afresh at re-dispatch, so without this refund the window
            # would double-charge it and throttle admission spuriously.
            token = self._budget_tokens.pop(
                (victim.accel_id, run.run_id), None)
            if token is not None:
                unexecuted = (
                    float(sum(r.energy_mj
                              for r in run.results[n_done:]))
                    - wasted_mj
                    + (victim.stats.swap_energy_refunded_mj
                       - swap_refunded_before))
                self._budget.refund(now, token, max(0.0, unexecuted))

        if self.tracer.enabled:
            self.tracer.instant(
                "preempt", "preempt", now, victim.track,
                args={"completed": n_done,
                      "requeued": len(run.results) - n_done,
                      "mid_swap": mid_swap,
                      "batch": run.pending.seq})
            if wasted_mj:
                # The wasted fraction entered the compute ledger above;
                # mirror it so the rollup reconciles.
                self.tracer.instant(
                    "wasted-compute", "compute", now, victim.track,
                    energy_mj=wasted_mj,
                    args={"batch": run.pending.seq})
            swap_refund = (victim.stats.swap_energy_refunded_mj
                           - swap_refunded_before)
            if swap_refund:
                # Negative-energy instant: net traced swap = charges
                # minus refunds, exactly like the accelerator's ledger.
                # The batch seq lets the analysis layer net the refund
                # against the victim batch's swap charge.
                self.tracer.instant(
                    "swap-refund", "swap", now, victim.track,
                    energy_mj=-swap_refund,
                    args={"batch": run.pending.seq})
        if self._m_served is not None:
            self._m_preemptions.inc()

        remainder = run.pending.batch.requests[n_done:]
        if remainder:
            batch = Batch(task=run.pending.task,
                          target_ms=run.pending.batch.target_ms,
                          requests=remainder)
            self._enqueue(PendingBatch(
                batch=batch, mode=run.pending.mode, ready_ms=now,
                deadline_ms=min(r.deadline_ms for r in remainder),
                seq=self._next_batch_seq()))

    def _record_run(self, run, n_done):
        """Record the first ``n_done`` completed requests of ``run``.

        Feeds the metrics and the monitor live: fleet sites run this
        loop, and ``health_routing`` reads monitor state mid-run. A
        traced run emits the vector core's one compute span per run
        (:func:`~repro.cluster.replay._compute_span`) over the completed
        members; a run preempted before its first sentence completed
        records nothing and emits no compute span.
        """
        if not n_done:
            return
        accel = self._accels[run.accel_id]
        stats = accel.stats
        metered = self._m_served is not None
        monitored = self._mon is not None
        requests = run.pending.batch.requests[:n_done]
        results = run.results[:n_done]
        finish = run.finish_ms[:n_done]
        records = self._report.records
        lats = []
        viol_ids = []
        for request, result, at in zip(requests, results, finish):
            stats.compute_energy_mj += result.energy_mj
            completion = float(at)
            records.append(ClusterRecord(
                request=request, result=result, accel_id=run.accel_id,
                dispatch_ms=run.start_ms, completion_ms=completion))
            if metered or monitored:
                lats.append(completion - request.arrival_ms)
                # Deadline predicate (arrival + target as one float64
                # add): the comparison the vector core vectorizes, so
                # violation counts and the alerts they drive are
                # engine-invariant.
                if completion > request.deadline_ms + 1e-9:
                    viol_ids.append(request.request_id)
        if metered:
            self._m_served.inc(n_done)
            for request, latency in zip(requests, lats):
                self._m_latency.observe(latency)
                self._m_qdelay.observe(run.start_ms - request.arrival_ms)
            self._m_violations.inc(len(viol_ids))
        if monitored:
            self._mon.observe_completions(
                self.trace_scope, run.pending.task,
                float(run.pending.batch.target_ms), self._loop.now_ms,
                n_done, len(viol_ids), lats, viol_ids)
        if self.tracer.enabled:
            self.tracer.span(*_compute_span(
                run.pending.task, run.start_ms + run.swap_ms, finish,
                accel.track, run.pending.seq,
                [r.request_id for r in requests],
                [r.energy_mj for r in results]))
