"""Energy-side reporting for the cluster: where every millijoule went.

An :class:`EnergyReport` is composed into the
:class:`~repro.cluster.ClusterReport` (its ``.energy`` property) and
answers the questions the latency-side report cannot:

* per-accelerator breakdown — compute / swap / idle / transition — one
  :class:`DeviceEnergyBreakdown` per device, summing to the cluster
  total exactly;
* energy per request by (task, SLO class, mode) — the paper's
  energy-per-sentence lens applied to served traffic;
* budget accounting — commitments, throttle stalls and cap overshoots
  when the run enforced a joules/sec cap.

The compute and swap columns are, by construction, the same numbers the
:class:`~repro.serving.ServingReport` aggregates (records + wasted
preemption energy, post-refund swap charges); :meth:`reconcile` asserts
that identity to 1e-9 so the two views can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EnergyError


@dataclass(frozen=True)
class DeviceEnergyBreakdown:
    """One accelerator's energy ledger over a cluster run."""

    accel_id: int
    mac_vector_size: int
    compute_mj: float  # served sentences + wasted preempted fractions
    swap_mj: float  # encoder-weight loads, net of mid-swap refunds
    idle_mj: float  # leakage parked between runs
    transition_mj: float  # parked -> nominal wake-ups
    idle_ms: float
    transition_ms: float
    transitions: int
    parked_vdd: float  # where the rail ended the run

    @property
    def total_mj(self):
        return (self.compute_mj + self.swap_mj + self.idle_mj
                + self.transition_mj)

    def as_dict(self):
        return {
            "accel_id": self.accel_id,
            "mac_vector_size": self.mac_vector_size,
            "compute_mj": self.compute_mj,
            "swap_mj": self.swap_mj,
            "idle_mj": self.idle_mj,
            "transition_mj": self.transition_mj,
            "idle_ms": self.idle_ms,
            "transition_ms": self.transition_ms,
            "transitions": self.transitions,
            "parked_vdd": self.parked_vdd,
            "total_mj": self.total_mj,
        }


@dataclass
class EnergyReport:
    """Cluster-wide energy view: devices, SLO classes, budget."""

    devices: list = field(default_factory=list)  # DeviceEnergyBreakdown
    per_class: dict = field(default_factory=dict)
    budget: object = None  # BudgetStats | None

    # -- totals -------------------------------------------------------------------

    @property
    def compute_mj(self):
        return sum(d.compute_mj for d in self.devices)

    @property
    def swap_mj(self):
        return sum(d.swap_mj for d in self.devices)

    @property
    def idle_mj(self):
        return sum(d.idle_mj for d in self.devices)

    @property
    def transition_mj(self):
        return sum(d.transition_mj for d in self.devices)

    @property
    def total_mj(self):
        """Cluster total; equals the per-device totals by construction."""
        return sum(d.total_mj for d in self.devices)

    def device(self, accel_id):
        for d in self.devices:
            if d.accel_id == accel_id:
                return d
        raise EnergyError(f"no energy breakdown for accelerator "
                          f"{accel_id}")

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_cluster(cls, cluster_report):
        """Build from a finished cluster run's ledger rows + device ledgers.

        Energy per request is keyed by SLO class: (task, float target,
        served mode), read from :meth:`ClusterReport.ledger_rows`.
        """
        per_class = {}
        for task, target_ms, mode, result in cluster_report.ledger_rows():
            key = f"{task}|{target_ms:g}ms|{mode}"
            stats = per_class.setdefault(key, {
                "task": task, "target_ms": target_ms,
                "mode": mode, "requests": 0, "energy_mj": 0.0})
            stats["requests"] += 1
            stats["energy_mj"] += result.energy_mj
        for stats in per_class.values():
            stats["mj_per_request"] = (stats["energy_mj"]
                                       / stats["requests"])
        return cls(devices=list(cluster_report.device_energy),
                   per_class=per_class,
                   budget=cluster_report.budget)

    # -- consistency --------------------------------------------------------------

    def reconcile(self, serving_report, tol=1e-9):
        """Assert the energy ledger matches the serving aggregates.

        ``compute_mj`` must equal the serving report's compute energy
        (served sentences + wasted preemption fractions) and ``swap_mj``
        its post-refund switch energy, both within ``tol``; raises
        :class:`~repro.errors.EnergyError` otherwise.
        """
        compute_gap = abs(self.compute_mj
                          - serving_report.compute_energy_mj)
        swap_gap = abs(self.swap_mj - serving_report.switch_energy_mj)
        if compute_gap > tol or swap_gap > tol:
            raise EnergyError(
                "energy report diverges from serving aggregates: "
                f"compute gap {compute_gap:.3e} mJ, swap gap "
                f"{swap_gap:.3e} mJ (tol {tol:g})")
        return True

    def summary(self):
        """JSON-friendly aggregate view."""
        return {
            "total_mj": self.total_mj,
            "compute_mj": self.compute_mj,
            "swap_mj": self.swap_mj,
            "idle_mj": self.idle_mj,
            "transition_mj": self.transition_mj,
            "devices": [d.as_dict() for d in self.devices],
            "per_class": {k: dict(v)
                          for k, v in sorted(self.per_class.items())},
            "budget": None if self.budget is None
            else self.budget.summary(),
        }
