"""One simulated accelerator: resident task, busy horizon, active run.

Each :class:`AcceleratorSim` wraps the pricing side of one
:class:`~repro.core.LatencyAwareEngine`-backed device: a batch placed on
it first pays the encoder-weight swap (when the resident task changes),
then executes its sentences sequentially — the per-sentence latencies
come from the vectorized batch kernels, so the simulator knows every
sentence's absolute finish time up front. That schedule is what makes
preemption well-defined: preempting at time *t* keeps the sentences that
finished by *t*, wastes the partial one, and requeues the rest.

Heterogeneous pools give each device its own ``hw_config`` (the
simulator prices batches against per-device
:class:`~repro.core.engine.PricingTables` via
:meth:`~repro.serving.TaskRegistry.profile_for`) and a
:class:`~repro.energy.DeviceEnergyModel` that tracks the parked DVFS
point, idle leakage and wake transitions. Policies that reason about
cost — the :class:`~repro.energy.EnergyGovernor` and EDF's preemption
feasibility test — call :meth:`AcceleratorSim.estimate`, which the
simulator backs with its cached per-device pricing.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from repro.errors import ClusterError


@dataclass(frozen=True)
class PlacementEstimate:
    """Predicted cost of placing one pending batch on one device.

    ``latency_ms``/``energy_mj`` are the batch's sequential compute
    totals on the device's hardware (``first_latency_ms`` the leading
    sentence's alone — the batch's ``deadline_ms`` belongs to its
    earliest member, which completes first); swap terms assume the
    device's current residency (post-eviction residency for a busy
    victim); the transition terms are the DVFS wake cost from the
    parked point — energy-only in the schedule, so predicted completion
    is ``now + swap_ms + latency_ms``, exactly what the simulator
    executes.
    """

    latency_ms: float
    first_latency_ms: float
    energy_mj: float
    swap_ms: float
    swap_energy_mj: float
    transition_ms: float
    transition_energy_mj: float

    @property
    def total_energy_mj(self):
        """Everything the placement is predicted to burn."""
        return (self.energy_mj + self.swap_energy_mj
                + self.transition_energy_mj)


@dataclass
class ActiveRun:
    """A batch executing on an accelerator, with its finish schedule.

    ``finish_ms`` holds the members' absolute completion instants in
    batch order, never decreasing, as an ``array("d")``: a float64
    column no larger than a NumPy array of the same length, built and
    read without NumPy's per-call cost. ``end_ms`` is its last entry,
    when the device frees up. ``wake_energy_mj`` is the wake transition
    the device's energy model charged at begin.
    """

    pending: object  # PendingBatch
    results: list  # SentenceResult per request, batch order
    start_ms: float  # dispatch time (swap starts here)
    swap_ms: float
    swap_energy_mj: float
    finish_ms: array  # absolute per-request completion times
    end_ms: float  # finish_ms[-1]
    run_id: int
    accel_id: int
    wake_energy_mj: float

    def completed_by(self, now_ms):
        """Index count of sentences fully finished at ``now_ms``."""
        return bisect_right(self.finish_ms, now_ms + 1e-9)

    def in_swap_at(self, now_ms):
        """True while the encoder-weight load is still streaming."""
        return self.swap_ms > 0 and \
            now_ms < self.start_ms + self.swap_ms - 1e-9

    def aborts_mid_swap(self, now_ms):
        """Would a preemption at ``now_ms`` abort inside the swap?

        The single definition of the mid-swap boundary — the refund
        logic, the simulator's waste accounting and the placement
        estimator all call this, so predicted and executed swap costs
        can never drift apart.
        """
        return self.completed_by(now_ms) == 0 and self.in_swap_at(now_ms)


@dataclass
class AcceleratorStats:
    """Per-accelerator accounting the :class:`ClusterReport` exposes."""

    accel_id: int
    busy_ms: float = 0.0
    batches: int = 0
    requests: int = 0
    swaps: int = 0
    swap_latency_ms: float = 0.0
    swap_energy_mj: float = 0.0
    swap_refunds: int = 0
    swap_energy_refunded_mj: float = 0.0
    compute_energy_mj: float = 0.0  # served sentences + wasted fractions
    wasted_energy_mj: float = 0.0  # the wasted share of the above
    preemptions_suffered: int = 0

    def utilization(self, makespan_ms):
        if makespan_ms <= 0:
            return 0.0
        return self.busy_ms / makespan_ms


class AcceleratorSim:
    """Busy-until bookkeeping for one accelerator in the pool."""

    def __init__(self, accel_id, hw_config=None, energy_model=None):
        self.accel_id = int(accel_id)
        self.hw_config = hw_config
        #: Small integer naming ``hw_config`` within its pool (the
        #: simulator numbers distinct configs in pool order); the key
        #: per-decision lookups use in place of the config itself.
        self.hw_slot = 0
        self.energy = energy_model  # repro.energy.DeviceEnergyModel | None
        self.resident_task = None
        self.run = None
        #: Autoscaler-controlled availability: a parked (``online=False``)
        #: device receives no placements but keeps accruing its (standby)
        #: idle leakage — it still exists, it just isn't dispatchable.
        self.online = True
        #: Telemetry track (``"scope/accelN"``) this device's spans land
        #: on; the simulator assigns it when it builds the pool.
        self.track = f"cluster/accel{self.accel_id}"
        self._next_run_id = 0
        self._estimator = None
        self.stats = AcceleratorStats(accel_id=self.accel_id)

    @property
    def idle(self):
        return self.run is None

    @property
    def dispatchable(self):
        """Free to take a batch right now: idle *and* online."""
        return self.run is None and self.online

    @property
    def busy_until_ms(self):
        return 0.0 if self.run is None else self.run.end_ms

    # -- cost estimation (policy-facing) ------------------------------------------

    def attach_estimator(self, estimator):
        """Install the simulator's pricing-backed estimate callable."""
        self._estimator = estimator

    def estimate(self, pending_batch, now_ms):
        """Predict the cost of running ``pending_batch`` on this device.

        Returns a :class:`PlacementEstimate`; requires the simulator to
        have attached its estimator (policies running outside a
        simulation have no pricing to consult).
        """
        if self._estimator is None:
            raise ClusterError(
                f"accelerator {self.accel_id} has no cost estimator "
                "attached")
        return self._estimator(self, pending_batch, now_ms)

    # -- run lifecycle ------------------------------------------------------------

    def begin(self, pending, results, latencies_ms, now_ms, swap_cost):
        """Start executing ``pending`` at ``now_ms``; returns the run.

        ``swap_cost`` is the registry's :class:`~repro.serving.SwitchCost`
        for moving the resident task to the batch's (zero-cost when they
        already match). The per-sentence ``latencies_ms`` turn into an
        absolute finish schedule: swap first, then sentences back-to-back.
        The schedule is ``now + swap`` plus the running sum of the
        latencies, added left to right: bit-identical to
        ``now + swap + np.cumsum(latencies_ms)``, whose float64
        accumulation is sequential too, without NumPy's per-call cost on
        a batch of a few sentences.
        """
        if self.run is not None:
            raise ClusterError(
                f"accelerator {self.accel_id} is busy until "
                f"{self.busy_until_ms} ms")
        swap_ms = swap_energy = 0.0
        if pending.task != self.resident_task:
            swap_ms = swap_cost.latency_ms
            swap_energy = swap_cost.energy_mj
            self.stats.swaps += 1
            self.stats.swap_latency_ms += swap_ms
            self.stats.swap_energy_mj += swap_energy
            self.resident_task = pending.task
        wake_mj = (self.energy.on_run_begin(now_ms)
                   if self.energy is not None else 0.0)
        base = now_ms + swap_ms
        finish = array("d", [base + elapsed
                             for elapsed in accumulate(latencies_ms)])
        self.run = ActiveRun(pending=pending, results=list(results),
                             start_ms=float(now_ms), swap_ms=swap_ms,
                             swap_energy_mj=swap_energy, finish_ms=finish,
                             end_ms=finish[-1], run_id=self._next_run_id,
                             accel_id=self.accel_id, wake_energy_mj=wake_mj)
        self._next_run_id += 1
        return self.run

    def complete(self, now_ms):
        """Finish the active run; returns it with the accelerator idle."""
        run = self._take_run(now_ms)
        self.stats.requests += len(run.results)
        self._park_after(run, len(run.results), now_ms)
        return run

    def preempt(self, now_ms):
        """Abort the active run at ``now_ms``.

        Returns ``(run, n_completed)``: the first ``n_completed`` results
        finished and stand; the rest (including the partially executed
        sentence, whose work is wasted) must be requeued by the caller.

        An abort inside the swap window keeps the swap *attempt* counted
        but refunds the never-elapsed remainder of the up-front
        latency/energy charge, and drops the residency — the partial
        load leaves the weight buffers inconsistent, so the next batch
        (whatever its task) pays a full swap.
        """
        run = self.run
        if run is not None and run.aborts_mid_swap(now_ms):
            elapsed = max(0.0, now_ms - run.start_ms)
            refund_mj = run.swap_energy_mj * (1.0 - elapsed / run.swap_ms)
            self.stats.swap_latency_ms -= run.swap_ms - elapsed
            self.stats.swap_energy_mj -= refund_mj
            self.stats.swap_refunds += 1
            self.stats.swap_energy_refunded_mj += refund_mj
            self.resident_task = None
        run = self._take_run(now_ms, end_ms=now_ms)
        n_done = run.completed_by(now_ms)
        self.stats.requests += n_done
        self.stats.preemptions_suffered += 1
        self._park_after(run, n_done, now_ms)
        return run, n_done

    def _park_after(self, run, n_done, now_ms):
        """Park the device's rail where the run left it.

        The last *completed* sentence's operating point is where the
        supply sits; a run aborted before any sentence finished never
        left the nominal front end.
        """
        if self.energy is None:
            return
        if n_done > 0:
            last = run.results[n_done - 1]
            self.energy.on_run_end(now_ms, last.vdd, last.freq_ghz)
        else:
            self.energy.on_run_end(now_ms)

    def _take_run(self, now_ms, end_ms=None):
        if self.run is None:
            raise ClusterError(f"accelerator {self.accel_id} is idle")
        run = self.run
        self.run = None
        self.stats.busy_ms += (run.end_ms if end_ms is None
                               else end_ms) - run.start_ms
        self.stats.batches += 1
        return run
