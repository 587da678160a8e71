"""Cluster-level reporting: queueing, utilization, SLO breakdowns.

A :class:`ClusterReport` composes the existing
:class:`~repro.serving.ServingReport` (per-request results, energy,
task-switch and compute aggregates — unchanged semantics) with the
traffic-dynamics view only a discrete-event run can produce: per-request
queueing delay and time-in-system, per-accelerator utilization, and an
SLO-violation breakdown that separates *compute* misses (the engine
could not meet the target even in isolation) from *queueing* misses
(the sentence priced fine but waited too long for an accelerator).

The energy side of the run — per-device compute/swap/idle/transition
ledgers, energy per request by SLO class, budget accounting — composes
in through the ``energy`` property (an
:class:`~repro.energy.EnergyReport` over the ``device_energy``
breakdowns the simulator fills in).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ClusterError
from repro.serving.request import RequestResult
from repro.serving.server import ServingReport


@dataclass(frozen=True)
class ClusterRecord:
    """One served request with its cluster-timeline timestamps."""

    request: object  # repro.serving.Request
    result: object  # repro.core.SentenceResult
    accel_id: int
    dispatch_ms: float  # when its batch started on the accelerator
    completion_ms: float

    @property
    def queueing_delay_ms(self):
        """Time from arrival to batch start (window + dispatcher wait)."""
        return self.dispatch_ms - self.request.arrival_ms

    @property
    def time_in_system_ms(self):
        return self.completion_ms - self.request.arrival_ms

    @property
    def deadline_met(self):
        """End-to-end SLO: completed within arrival + target."""
        return self.time_in_system_ms <= self.request.target_ms + 1e-9


class LazyRecords:
    """A records sequence materialized on first element access.

    The vectorized replay engine keeps a million-request run's outcomes
    as per-batch columns; building a :class:`ClusterRecord` per request
    up front would dominate its wall clock. This sequence knows its
    length (so ``num_requests`` and truthiness stay free) and builds the
    real record rows — identical to the per-event engine's — only when
    something actually iterates or indexes them (summaries, energy
    ledgers, equivalence tests).
    """

    def __init__(self, build, count):
        self._build = build
        self._count = int(count)
        self._rows = None

    def _materialize(self):
        if self._rows is None:
            rows = self._build()
            if len(rows) != self._count:
                raise ClusterError(
                    f"lazy records materialized {len(rows)} rows for a "
                    f"declared count of {self._count}")
            self._rows = rows
            self._build = None
        return self._rows

    def __len__(self):
        return self._count if self._rows is None else len(self._rows)

    def __iter__(self):
        return iter(self._materialize())

    def __getitem__(self, index):
        return self._materialize()[index]


@dataclass
class ClusterReport:
    """Outcome of one cluster simulation run."""

    policy: str
    mode: str
    num_accelerators: int
    records: list = field(default_factory=list)  # ClusterRecord rows
    accelerators: list = field(default_factory=list)  # AcceleratorStats
    device_energy: list = field(default_factory=list)  # DeviceEnergyBreakdown
    budget: object = None  # repro.energy.BudgetStats | None
    num_batches: int = 0
    preemptions: int = 0
    wasted_compute_ms: float = 0.0
    wasted_energy_mj: float = 0.0
    makespan_ms: float = 0.0
    wall_seconds: float = 0.0
    #: Which event core produced the run: ``"event"`` (the per-event
    #: heap loop), ``"vector"`` (the batched replay engine), or
    #: ``"oracle"`` (the per-event loop with scalar pricing). Not part
    #: of ``summary()`` — engines must agree bit-for-bit there.
    engine: str = "event"
    #: Why ``run()`` ran the per-event loop instead of the vector core
    #: (:func:`repro.cluster.replay_ineligible_reason`, e.g. a
    #: preemptive policy or the scalar kernels); None when the vector
    #: core ran or ``run_events()`` was called directly.
    #: Diagnostic only — not part of ``summary()``.
    engine_fallback_reason: str = None

    @property
    def num_requests(self):
        return len(self.records)

    # -- composition with the serving-layer aggregates ---------------------------

    @property
    def serving(self):
        """The run re-aggregated as a :class:`ServingReport`.

        Same rows, same accounting semantics as a single-`Server` run —
        everything `report.per_task()` and the energy totals already
        mean — built once and cached.
        """
        if not hasattr(self, "_serving"):
            report = ServingReport(mode=self.mode,
                                   num_batches=self.num_batches)
            report.results = [RequestResult(rec.request, rec.result)
                              for rec in self.records]
            report.task_switches = sum(a.swaps for a in self.accelerators)
            report.switch_latency_ms = sum(a.swap_latency_ms
                                           for a in self.accelerators)
            report.switch_energy_mj = sum(a.swap_energy_mj
                                          for a in self.accelerators)
            report.compute_latency_ms = float(
                sum(rec.result.latency_ms for rec in self.records)
                + self.wasted_compute_ms)
            report.compute_energy_mj = float(
                sum(rec.result.energy_mj for rec in self.records)
                + self.wasted_energy_mj)
            report.wall_seconds = self.wall_seconds
            self._serving = report
        return self._serving

    @property
    def energy(self):
        """The run's :class:`~repro.energy.EnergyReport`.

        Per-accelerator compute/swap/idle/transition breakdowns,
        energy-per-request by (task, SLO class, mode), and budget
        accounting — built once from the device ledgers and cached. The
        compute/swap columns reconcile with :attr:`serving` to 1e-9
        (``self.energy.reconcile(self.serving)``).
        """
        if not hasattr(self, "_energy"):
            # Imported here: repro.energy.report is dependency-free, but
            # the report type composes cluster runs, not vice versa.
            from repro.energy.report import EnergyReport
            self._energy = EnergyReport.from_cluster(self)
        return self._energy

    # -- queueing / latency statistics -------------------------------------------

    def queueing_delays_ms(self):
        return np.array([rec.queueing_delay_ms for rec in self.records])

    def times_in_system_ms(self):
        return np.array([rec.time_in_system_ms for rec in self.records])

    @property
    def mean_queueing_delay_ms(self):
        delays = self.queueing_delays_ms()
        return float(delays.mean()) if delays.size else 0.0

    @property
    def p95_queueing_delay_ms(self):
        delays = self.queueing_delays_ms()
        return float(np.percentile(delays, 95)) if delays.size else 0.0

    @property
    def mean_time_in_system_ms(self):
        times = self.times_in_system_ms()
        return float(times.mean()) if times.size else 0.0

    @property
    def throughput_rps(self):
        """Served requests per simulated second of makespan."""
        if self.makespan_ms <= 0:
            return 0.0
        return self.num_requests / (self.makespan_ms * 1e-3)

    # -- SLO accounting ----------------------------------------------------------

    @property
    def deadline_violations(self):
        """End-to-end misses (queueing included) — the cluster-level SLO."""
        return sum(not rec.deadline_met for rec in self.records)

    def violation_breakdown(self):
        """Where the misses come from: compute vs. queueing.

        ``compute`` — the priced inference itself blew the target (these
        also show up in ``serving.slo_violations``); ``queueing`` — the
        inference met its target but arrived-to-completion overran it,
        i.e. the wait (batching window + dispatcher queue + swap) ate the
        budget. ``met`` is the rest.
        """
        compute = queueing = met = 0
        for rec in self.records:
            if not rec.result.met_target:
                compute += 1
            elif not rec.deadline_met:
                queueing += 1
            else:
                met += 1
        return {"compute": compute, "queueing": queueing, "met": met}

    def per_accelerator(self):
        """Utilization/swap view per accelerator, keyed by id."""
        return {
            a.accel_id: {
                "utilization": a.utilization(self.makespan_ms),
                "busy_ms": a.busy_ms,
                "batches": a.batches,
                "requests": a.requests,
                "swaps": a.swaps,
                "swap_latency_ms": a.swap_latency_ms,
                "swap_energy_mj": a.swap_energy_mj,
                "swap_refunds": a.swap_refunds,
                "swap_energy_refunded_mj": a.swap_energy_refunded_mj,
                "compute_energy_mj": a.compute_energy_mj,
                "wasted_energy_mj": a.wasted_energy_mj,
                "preemptions_suffered": a.preemptions_suffered,
            }
            for a in self.accelerators
        }

    def record_for(self, request_id):
        for rec in self.records:
            if rec.request.request_id == request_id:
                return rec
        raise ClusterError(f"no record for request id {request_id}")

    def summary(self):
        """JSON-friendly aggregate view (serving aggregates included)."""
        return {
            "policy": self.policy,
            "mode": self.mode,
            "num_accelerators": self.num_accelerators,
            "requests": self.num_requests,
            "batches": self.num_batches,
            "preemptions": self.preemptions,
            "makespan_ms": self.makespan_ms,
            "throughput_rps": self.throughput_rps,
            "mean_queueing_delay_ms": self.mean_queueing_delay_ms,
            "p95_queueing_delay_ms": self.p95_queueing_delay_ms,
            "mean_time_in_system_ms": self.mean_time_in_system_ms,
            "deadline_violations": self.deadline_violations,
            "violation_breakdown": self.violation_breakdown(),
            "task_switches": self.serving.task_switches,
            "total_energy_mj": self.serving.total_energy_mj,
            "wasted_compute_ms": self.wasted_compute_ms,
            "per_accelerator": self.per_accelerator(),
            "per_task": self.serving.per_task(),
            "energy": self.energy.summary(),
        }
