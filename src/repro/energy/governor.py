"""Energy-aware placement: joules-scored, deadline-feasible dispatch.

The built-in cluster policies optimize latency (FIFO/EDF) or swap count
(affinity); :class:`EnergyGovernor` optimizes what EdgeBERT actually
minimizes — energy under a latency constraint — at the *cluster* level.
For the most urgent pending batch it scores every free device by the
joules the placement would really cost there:

    predicted compute energy on that device's hardware (per-device
    pricing tables — a heterogeneous pool prices the same batch
    differently per device)
  + the encoder-weight swap if the device's resident task differs
  + the DVFS wake transition from the device's parked voltage

and places on the cheapest device that is still deadline-feasible:
the batch's deadline belongs to its earliest member — its leading
sentence — so feasibility judges ``now + swap + first sentence``
(the simulator's exact schedule; the same rule EDF's eviction test
uses). Only when no device is feasible does it fall back to the
earliest-finishing one — deadline feasibility is a constraint, energy
the objective.

Heterogeneous routing falls out of that rule: tight-SLO ``lai``
traffic lands on the big (high ``mac_vector_size``) devices because the
small ones are infeasible for it, while relaxed-SLO batches flow to the
smaller, cheaper-per-joule devices — and, via the transition term, to
devices already parked near the rail they need. The same term is how
sleep states are weighed: a device past its standby timeout is priced
waking from the retention voltage, so the governor routes to an awake
device unless the sleeper's compute advantage pays for the wake. Under
deadline-aware dispatch the compute term itself comes from the
deadline-budget DVFS plan, so min-joules placement sees the real
(cheaper) cost of relaxed batches rather than their per-sentence
sprint price. The governor is
work-conserving (it never idles a free device while work is pending)
and non-preemptive; pair it with a cluster-wide
:class:`~repro.energy.EnergyBudget` for Camel-style admission
throttling.
"""

from __future__ import annotations

import math

from repro.cluster.policies import SchedulingPolicy
from repro.errors import EnergyError


class EnergyGovernor(SchedulingPolicy):
    """Min-joules placement under a deadline-feasibility constraint."""

    name = "energy"
    preemptive = False

    def __init__(self, slack_ms=0.0):
        if not 0 <= slack_ms < math.inf:
            raise EnergyError("slack_ms must be finite and >= 0")
        #: Extra tolerance added to deadlines in the feasibility test
        #: (0 = strict: predicted completion must meet the SLO).
        self.slack_ms = float(slack_ms)

    def next_placement(self, pending, free_accels, now_ms):
        """Place the most urgent batch on its cheapest feasible device."""
        pb = min(pending, key=lambda pb: (pb.deadline_ms, pb.seq))
        best_key = best_accel = None
        for accel in free_accels:
            est = accel.estimate(pb, now_ms)
            finish = now_ms + est.swap_ms + est.latency_ms
            # The batch's deadline belongs to its earliest member, which
            # is its leading sentence — feasibility judges when *that*
            # sentence lands, not the whole batch's tail (same rule as
            # EDF's eviction test).
            first_done = now_ms + est.swap_ms + est.first_latency_ms
            feasible = first_done \
                <= pb.deadline_ms + self.slack_ms + 1e-9
            # Feasible placements first; among them, least joules; the
            # (finish, accel_id) tail keeps every tie deterministic and
            # makes the infeasible fallback earliest-completion.
            key = (not feasible,
                   est.total_energy_mj if feasible else finish,
                   finish, accel.accel_id)
            if best_key is None or key < best_key:
                best_key, best_accel = key, accel
        return pb, best_accel
