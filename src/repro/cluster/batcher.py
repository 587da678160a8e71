"""Arrival-aware dynamic batch formation.

One :class:`BatchFormer` per (task, latency-target class, mode): the
first arrival opens the window and arms a timeout; the window closes —
becoming a dispatchable :class:`PendingBatch` — when either the size
trigger (``max_batch_size`` requests) or the timeout trigger
(``timeout_ms`` after opening) fires first; a third, optional
deadline-sizing trigger closes early when the members' *planned*
compute approaches the earliest member's slack (see
:class:`BatchFormer`). This is the classic dynamic
batching trade: larger batches amortize encoder swaps and pricing, but
every extra ms the window stays open is queueing delay charged to the
first request in it.

Timeout events carry the former's ``generation``; a window that closed
early by size (or drained) bumps the generation, so the stale timer is
ignored when it fires.

The window length itself can adapt: an :class:`AdaptiveTimeout`
controller per (task, SLO class, mode) tracks the dispatch delay its
batches actually observe (an EWMA) and retunes the timeout between
windows — shrinking it under light load, when waiting buys nothing but
latency, and growing it toward a share of the SLO slack under
saturation, when batches queue anyway and a longer window amortizes
swaps and pricing over more requests. The static timeout stays the
default; the controller only engages behind the simulator's
``adaptive_timeout`` flag.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from repro.errors import ClusterError
from repro.serving.request import Batch
from repro.telemetry.tracer import NULL_TRACER


def check_batch_size(max_batch_size):
    """``max_batch_size`` as an int, or :class:`ClusterError`.

    A batch-size limit is an integer >= 1. A float, even an integral
    one, is refused rather than truncated, so ``2.5`` cannot quietly
    form batches of 2 and NaN or infinity cannot reach ``int()``.
    """
    try:
        size = operator.index(max_batch_size)
    except TypeError:
        size = 0
    if size < 1:
        raise ClusterError(
            f"max_batch_size must be an integer >= 1, got "
            f"{max_batch_size!r}")
    return size


def check_time_ms(name, value):
    """``value`` as a float, or :class:`ClusterError` unless it is a
    finite non-negative time (a chained bound: NaN fails every
    comparison, and infinity fails the ``< math.inf`` end)."""
    if not 0 <= value < math.inf:
        raise ClusterError(f"{name} must be finite and >= 0")
    return float(value)


def plan_batches(times_ms, max_batch_size, timeout_ms):
    """Offline batch-forming scan for one former under static triggers.

    ``times_ms`` are one (task, SLO class, mode) key's arrival instants
    in event-processing order (time, then schedule seq). Returns
    ``(start, end, by_size)`` member slices — exactly the windows a
    :class:`BatchFormer` with a static timeout and no deadline sizing
    would close, but computed for the whole trace at once: one
    ``searchsorted`` per key finds, for every arrival, where a window
    it opened would time out, and the scan walks those precomputed ends
    instead of one Python event per request. The column add
    ``times_ms + timeout_ms`` is elementwise the float64 add a window
    open computes (``times_ms[i] + timeout_ms``). The tie semantics
    match the event loop's: an arrival at the very instant the timer
    fires carries a smaller event seq than the timer, so it joins the
    window first (``side="right"``), and a window that hits the size
    trigger at that instant closes by size, leaving the timer to fire
    stale.

    This is the vectorized replay engine's former scan
    (:mod:`repro.cluster.replay`); the per-event :meth:`BatchFormer.add`
    path stays the reference implementation for the adaptive/deadline
    triggers that depend on dispatch feedback.
    """
    max_batch_size = check_batch_size(max_batch_size)
    timeout_ms = check_time_ms("timeout_ms", timeout_ms)
    times_ms = np.asarray(times_ms, dtype=np.float64)
    n = len(times_ms)
    if max_batch_size == 1:
        # A size-1 window closes on its own opening add; no timer is
        # ever armed (matching BatchFormer.add's close-before-arm).
        return [(i, i + 1, True) for i in range(n)]
    ends = np.searchsorted(times_ms, times_ms + timeout_ms,
                           side="right").tolist()
    plan = []
    i = 0
    while i < n:
        j = ends[i]
        if j - i >= max_batch_size:
            j = i + max_batch_size
            plan.append((i, j, True))
        else:
            plan.append((i, j, False))
        i = j
    return plan


class AdaptiveTimeout:
    """EWMA batch-window controller for one (task, SLO class, mode).

    ``observe_dispatch_delay`` feeds the delay between a batch closing
    and starting on an accelerator; the next window's timeout is
    ``gain`` times the smoothed delay, clamped to
    ``[floor_ms, slack_share * target_ms]``. Idle pools drive the EWMA
    — and the timeout — to the floor; a saturated pool drives it toward
    the SLO-slack cap. Deterministic: state advances only on
    observations, and the timeout is read once per window when the
    timer is armed.
    """

    def __init__(self, base_ms, target_ms, alpha=0.3, gain=2.0,
                 floor_ms=0.25, slack_share=0.2):
        base_ms = check_time_ms("base_ms", base_ms)
        if not 0 < target_ms < math.inf:
            raise ClusterError("target_ms must be finite and > 0")
        if not 0.0 < alpha <= 1.0:
            raise ClusterError("alpha must be in (0, 1]")
        if not 0 < gain < math.inf:
            raise ClusterError("gain must be finite and > 0")
        if not 0.0 < slack_share <= 1.0:
            raise ClusterError("slack_share must be in (0, 1]")
        self.alpha = float(alpha)
        self.gain = float(gain)
        self.floor_ms = check_time_ms("floor_ms", floor_ms)
        self.cap_ms = max(self.floor_ms, float(slack_share) * float(target_ms))
        self.timeout_ms = min(max(base_ms, self.floor_ms), self.cap_ms)
        self.ewma_delay_ms = None
        self.observations = 0

    def observe_dispatch_delay(self, delay_ms):
        """Fold one close-to-dispatch delay into the controller."""
        delay = max(0.0, float(delay_ms))
        if self.ewma_delay_ms is None:
            self.ewma_delay_ms = delay
        else:
            self.ewma_delay_ms += self.alpha * (delay - self.ewma_delay_ms)
        self.observations += 1
        self.timeout_ms = min(max(self.gain * self.ewma_delay_ms,
                                  self.floor_ms), self.cap_ms)


@dataclass(frozen=True)
class PendingBatch:
    """A closed batch waiting for an accelerator.

    ``deadline_ms`` is the earliest member's absolute deadline (arrival +
    target) — the quantity EDF orders on; ``seq`` is the close-order
    tie-breaker that keeps every policy deterministic.
    """

    batch: Batch
    mode: str
    ready_ms: float
    deadline_ms: float
    seq: int

    def __len__(self):
        return len(self.batch)

    @property
    def task(self):
        return self.batch.task


class BatchFormer:
    """Collects same-(task, SLO class, mode) requests into batches.

    Besides the size and timeout triggers, an optional **deadline-sizing
    trigger** closes the window early when the *planned* compute of its
    members approaches the earliest member's remaining slack
    (``work_estimator`` supplies per-request planned milliseconds;
    ``sizing_slack_share`` is how close "approaches" means). Without it,
    a relaxed-SLO window that keeps filling eventually plans more work
    than its own deadline budget and the deadline-aware DVFS path falls
    back to per-sentence sprinting — closing early keeps every closed
    batch inside the budget its earliest member can still afford. The
    trigger only fires while the members still *fit* their slack
    (``planned <= slack``): a window that is already blown gains nothing
    from shedding members, so size/timeout close it as before.
    """

    def __init__(self, key, max_batch_size=32, timeout_ms=5.0,
                 timeout_controller=None, work_estimator=None,
                 sizing_slack_share=0.8, tracer=None, track=None):
        if not 0.0 < sizing_slack_share <= 1.0:
            raise ClusterError("sizing_slack_share must be in (0, 1]")
        self.key = key
        self.task, self.target_ms, self.mode = key
        self.max_batch_size = check_batch_size(max_batch_size)
        self.timeout_ms = check_time_ms("timeout_ms", timeout_ms)
        #: Optional :class:`AdaptiveTimeout`; when present, its current
        #: value (read once per window, at arming time) replaces the
        #: static ``timeout_ms``.
        self.timeout_controller = timeout_controller
        #: Optional ``request -> planned compute ms`` callable arming the
        #: deadline-sizing trigger (None keeps size/timeout-only closes).
        self.work_estimator = work_estimator
        self.sizing_slack_share = float(sizing_slack_share)
        #: Windows the deadline-sizing trigger closed (observability).
        self.deadline_closes = 0
        #: Telemetry: every window close emits one ``"window"`` span on
        #: ``track`` covering [opened, closed] with its trigger named.
        #: Read-only observation — the NULL_TRACER default costs one
        #: attribute test per close.
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.track = track if track is not None else "former"
        self.generation = 0
        self.opened_ms = None
        self._planned_ms = 0.0
        self._pending = []

    def __len__(self):
        return len(self._pending)

    @property
    def is_open(self):
        return bool(self._pending)

    def add(self, request, now_ms):
        """Admit one request; returns a closed request tuple when a
        trigger (size, deadline-sizing share, or deadline-sizing
        pre-close) fires, else None.

        Opening a window bumps ``generation`` — the caller schedules a
        :class:`~repro.cluster.events.BatchTimeout` carrying it. After
        a *pre-close* the former is still open (the newcomer started a
        fresh window), so callers must re-arm whenever the former is
        open after a close.
        """
        work = (None if self.work_estimator is None
                else float(self.work_estimator(request)))
        closed = None
        if work is not None and self._pending:
            # Deadline-sizing pre-close: admitting this request would
            # blow the open window's budget even though the current
            # members still fit — close them now (keeping their
            # deadline plan) and let the oversized newcomer open a
            # fresh window, instead of dragging the whole batch into
            # per-sentence fallback.
            slack = min(r.deadline_ms for r in self._pending) - now_ms
            if (self._planned_ms <= slack
                    and self._planned_ms + work > slack):
                closed = self._close(now_ms, "preclose")
                self.deadline_closes += 1
        if not self._pending:
            self.generation += 1
            self.opened_ms = float(now_ms)
            self._planned_ms = 0.0
        self._pending.append(request)
        if work is not None:
            self._planned_ms += work
        if closed is not None:
            # A pre-close leaves exactly one member pending, so neither
            # the size nor the share trigger can also fire this add.
            return closed
        if len(self._pending) >= self.max_batch_size:
            return self._close(now_ms, "size")
        if work is not None and len(self._pending) >= 2:
            # Deadline-sizing trigger: the members' planned schedule has
            # grown into the earliest member's slack — close now, while
            # the deadline plan still fits, instead of letting the next
            # arrival push the batch into per-sentence fallback.
            slack = min(r.deadline_ms for r in self._pending) - now_ms
            if (self._planned_ms <= slack
                    and self._planned_ms
                    >= self.sizing_slack_share * slack):
                self.deadline_closes += 1
                return self._close(now_ms, "deadline")
        return None

    def on_timeout(self, generation, now_ms):
        """Timeout trigger: close the window iff the timer isn't stale."""
        if generation != self.generation or not self._pending:
            return None
        return self._close(now_ms, "timeout")

    def current_timeout_ms(self):
        """The window length in force right now (adaptive or static)."""
        if self.timeout_controller is not None:
            return self.timeout_controller.timeout_ms
        return self.timeout_ms

    def observe_dispatch_delay(self, delay_ms):
        """Report one batch's close-to-dispatch delay to the controller."""
        if self.timeout_controller is not None:
            self.timeout_controller.observe_dispatch_delay(delay_ms)

    def timeout_deadline_ms(self):
        """When the armed timeout for the current window fires."""
        if self.opened_ms is None:
            raise ClusterError("former has never opened")
        return self.opened_ms + self.current_timeout_ms()

    def _close(self, now_ms, trigger):
        members = tuple(self._pending)
        if self.tracer.enabled:
            # Member ids + site-local arrivals make the window leg of a
            # request's journey reconstructable from the span log alone
            # (repro.telemetry.analysis stitches on them).
            self.tracer.span(
                "window", "window", self.opened_ms,
                float(now_ms) - self.opened_ms, self.track,
                args={"task": self.task, "mode": self.mode,
                      "size": len(members), "trigger": trigger,
                      "target": float(self.target_ms),
                      "rids": [r.request_id for r in members],
                      "arrivals": [float(r.arrival_ms)
                                   for r in members]})
        self._pending = []
        self.opened_ms = None
        # Invalidate the armed timer for the window that just closed.
        self.generation += 1
        return members

    def make_pending(self, members, now_ms, seq):
        """Wrap closed ``members`` as a dispatchable :class:`PendingBatch`."""
        batch = Batch(task=self.task, target_ms=self.target_ms,
                      requests=members)
        deadline = min(r.deadline_ms for r in members)
        return PendingBatch(batch=batch, mode=self.mode,
                            ready_ms=float(now_ms), deadline_ms=deadline,
                            seq=seq)
