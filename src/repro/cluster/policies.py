"""Pluggable scheduling policies for the dispatcher.

A policy answers one question — given the pending closed batches and the
accelerator pool at simulated time *t*, which placement happens next? —
plus, for preemptive policies, whether an urgent batch may evict a
running one. Three are built in:

* :class:`FifoPolicy` — batches run in close order on the lowest-id free
  accelerator; the baseline every paper plot starts from. Both cores
  place it by :func:`fifo_placement`, a read of two ordered heads.
* :class:`FewestSwapsPolicy` — affinity routing: prefer (batch,
  accelerator) pairs whose resident task already matches, so the pool
  amortizes encoder-weight swaps the way `repro.serving`'s scheduler
  does for a single queue.
* :class:`EdfPolicy` — earliest-deadline-first across SLO classes, with
  feasibility-gated preemption of long ``base``-mode batches by
  tighter-deadline ``lai`` traffic (the ROADMAP's cross-class
  dynamic-batching item).

A fourth, the energy/deadline-scoring
:class:`~repro.energy.EnergyGovernor`, lives in :mod:`repro.energy` and
registers here under ``"energy"``. All tie-breaks are on (deadline/seq,
accel_id) so every policy is deterministic given the same trace.
"""

from __future__ import annotations

from operator import attrgetter

from repro.errors import ClusterError

#: The lowest-id tie-break every built-in policy ends on.
_by_id = attrgetter("accel_id")


class SchedulingPolicy:
    """Base policy: picks placements; non-preemptive by default."""

    name = "base"
    preemptive = False

    def reset(self):
        """Clear per-run state; the simulator calls this at run start."""

    def next_placement(self, pending, free_accels, now_ms):
        """Choose ``(pending_batch, accelerator)`` or None to wait.

        ``pending`` and ``free_accels`` are both non-empty when called.
        """
        raise NotImplementedError

    def preemption(self, pending, accelerators, now_ms):
        """Choose ``(pending_batch, victim_accelerator)`` or None.

        Called only on :attr:`preemptive` policies, when no accelerator
        is free.
        """
        return None


class FifoPolicy(SchedulingPolicy):
    """Close-order dispatch onto the lowest-id free accelerator."""

    name = "fifo"

    def next_placement(self, pending, free_accels, now_ms):
        batch = min(pending, key=lambda pb: pb.seq)
        accel = min(free_accels, key=_by_id)
        return batch, accel


def fifo_placement(pending, index, accels):
    """:meth:`FifoPolicy.next_placement` read off the cores' own order.

    Both cluster cores keep ``pending`` in close (seq) order and the
    :class:`~repro.cluster.pool.PoolIndex` keeps its free ids
    ascending, so FIFO's pick — the oldest batch on the lowest-id free
    device — is the two heads: no scan, and no free-device list.
    """
    return pending[0], accels[index.free[0]]


class FewestSwapsPolicy(SchedulingPolicy):
    """Affinity routing: route batches to task-matching accelerators.

    In close order, a batch whose task is already resident on a free
    accelerator is placed there (no swap). When nothing matches, the
    oldest batch prefers a *cold* accelerator — loading into an empty
    device costs the same swap but preserves every warm residency for
    the traffic that still wants it — and only then evicts the lowest-id
    warm one. That is what pins tasks to accelerators under steady
    mixed-task load.
    """

    name = "affinity"

    def next_placement(self, pending, free_accels, now_ms):
        for pb in sorted(pending, key=lambda pb: pb.seq):
            matches = [a for a in free_accels
                       if a.resident_task == pb.task]
            if matches:
                return pb, min(matches, key=_by_id)
        pb = min(pending, key=lambda pb: pb.seq)
        return pb, min(free_accels,
                       key=lambda a: (a.resident_task is not None,
                                      a.accel_id))


class EdfPolicy(SchedulingPolicy):
    """Earliest-deadline-first with feasibility-gated base-by-lai preemption.

    Placement picks the earliest-deadline batch and prefers a resident-
    task match among free accelerators (deadline pressure first, swap
    avoidance second). Preemption triggers when every accelerator is
    busy, the most urgent waiter is ``lai`` traffic, and some accelerator
    is running a ``base``-mode batch with a strictly later deadline — the
    victim with the slackest deadline is evicted.

    Before evicting, the policy runs a **feasibility test** (the
    ROADMAP's preemption-aware admission): the urgent batch's predicted
    completion on the victim — ``now + swap + compute``, from the
    victim's :meth:`~repro.cluster.AcceleratorSim.estimate` — must still
    meet its deadline. A doomed request would only waste the victim's
    completed base-mode work, so the preemption is skipped instead
    (``infeasible_skips`` counts them). Victims without an attached
    estimator (bare policy unit tests) skip the test and preempt as
    before.
    """

    name = "edf"
    preemptive = True

    def __init__(self, feasibility_check=True):
        self.feasibility_check = feasibility_check
        #: Dispatcher passes in which every candidate victim failed the
        #: feasibility test (a stalled doomed batch recounts on each
        #: event until it runs). Reset per simulation run.
        self.infeasible_skips = 0

    def reset(self):
        self.infeasible_skips = 0

    def next_placement(self, pending, free_accels, now_ms):
        pb = min(pending, key=lambda pb: (pb.deadline_ms, pb.seq))
        matches = [a for a in free_accels if a.resident_task == pb.task]
        pool = matches or free_accels
        return pb, min(pool, key=_by_id)

    def _feasible_after_eviction(self, pb, victim, now_ms):
        """Would ``pb`` still meet its deadline if ``victim`` is evicted?"""
        if not self.feasibility_check \
                or getattr(victim, "estimate", None) is None:
            return True
        try:
            est = victim.estimate(pb, now_ms)
        except ClusterError:
            return True  # no estimator attached: keep legacy eagerness
        # The batch's deadline belongs to its earliest member, which is
        # also its leading sentence — judge that sentence's completion.
        finish = now_ms + est.swap_ms + est.first_latency_ms
        return finish <= pb.deadline_ms + 1e-9

    def preemption(self, pending, accelerators, now_ms):
        urgent = [pb for pb in pending if pb.mode == "lai"]
        if not urgent:
            return None
        pb = min(urgent, key=lambda pb: (pb.deadline_ms, pb.seq))
        victims = [
            a for a in accelerators
            if a.run is not None
            and a.run.pending.mode == "base"
            and a.run.pending.deadline_ms > pb.deadline_ms + 1e-9
        ]
        if not victims:
            return None
        # Slackest victim first; if evicting it cannot save the urgent
        # batch (e.g. a swap it would have to pay), try the next one —
        # a less-slack or task-matching device may still be feasible.
        victims.sort(key=lambda a: (a.run.pending.deadline_ms,
                                    a.accel_id), reverse=True)
        for victim in victims:
            if self._feasible_after_eviction(pb, victim, now_ms):
                return pb, victim
        self.infeasible_skips += 1
        return None


def _energy_governor():
    # Imported lazily: repro.energy subclasses SchedulingPolicy from this
    # module, so a module-level import would be circular.
    from repro.energy.governor import EnergyGovernor
    return EnergyGovernor()


#: Registry of built-in policies (aliases included). Values are
#: zero-argument callables returning a policy instance (classes or
#: lazy factories alike).
POLICIES = {
    "fifo": FifoPolicy,
    "affinity": FewestSwapsPolicy,
    "fewest-swaps": FewestSwapsPolicy,
    "edf": EdfPolicy,
    "energy": _energy_governor,
    "governor": _energy_governor,
}


def make_policy(policy):
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, SchedulingPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise ClusterError(
            f"unknown policy {policy!r}; expected one of "
            f"{tuple(sorted(set(POLICIES)))}") from None
