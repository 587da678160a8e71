"""Deterministic discrete-event core for the cluster simulator.

The :class:`EventLoop` keeps a binary heap of ``(time_ms, seq, event)``
entries — ``seq`` is a monotonically increasing tie-breaker, so two
events at the same simulated instant always fire in schedule order and a
run is bit-for-bit reproducible. Events are plain frozen dataclasses;
the loop dispatches each to the handler registered for its type.

Four event types drive the simulation:

* :class:`Arrival` — a request becomes visible at ``Request.arrival_ms``;
* :class:`BatchTimeout` — a batch former's timeout trigger fires (stale
  timers are invalidated by the former's generation counter);
* :class:`BatchDone` — an accelerator finishes its active run (stale
  completions from preempted runs are invalidated by ``run_id``);
* :class:`DispatchRetry` — the energy-budget window has recovered and
  the dispatcher should try admission again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ClusterError


@dataclass(frozen=True)
class Arrival:
    """A request enters the system at its ``arrival_ms``."""

    request: object  # repro.serving.Request


@dataclass(frozen=True)
class BatchTimeout:
    """A batch former's timeout trigger; ``generation`` guards staleness."""

    key: tuple
    generation: int


@dataclass(frozen=True)
class BatchDone:
    """An accelerator's active run completes; ``run_id`` guards staleness."""

    accel_id: int
    run_id: int


@dataclass(frozen=True)
class DispatchRetry:
    """Re-run the dispatcher after an energy-budget stall.

    Scheduled at the instant the rolling budget window frees enough
    headroom for admission to resume; the simulator arms at most one at
    a time, so the event needs no staleness guard.
    """


class EventLoop:
    """Heap-ordered event pump with per-type handlers.

    ``schedule`` may only move forward in time (an event in the past
    would silently reorder causality); ``drain_until`` pops up to an
    instant or until the heap is empty, bounded by ``max_events`` as a
    runaway guard.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._handlers = {}
        self.now_ms = 0.0
        self.processed = 0

    def __len__(self):
        return len(self._heap)

    def on(self, event_type, handler):
        """Register ``handler`` for events of ``event_type``."""
        self._handlers[event_type] = handler
        return handler

    def schedule(self, time_ms, event):
        """Enqueue ``event`` at ``time_ms`` (must not precede ``now_ms``)."""
        time_ms = float(time_ms)
        if time_ms < self.now_ms - 1e-9:
            raise ClusterError(
                f"cannot schedule {type(event).__name__} at {time_ms} ms: "
                f"simulated clock is already at {self.now_ms} ms")
        heapq.heappush(self._heap, (time_ms, self._seq, event))
        self._seq += 1

    def peek_ms(self):
        """Instant of the earliest scheduled event, or None when dry.

        The fleet orchestrator merges several site loops by always
        stepping the one with the earliest next event; peeking must not
        advance the clock or pop anything.
        """
        return self._heap[0][0] if self._heap else None

    def advance_to(self, time_ms):
        """Move the clock forward to ``time_ms`` without popping events.

        An external driver acting on this loop's state at a global
        instant (the fleet autoscaler parking or waking a device) must
        first bring the local clock to that instant, or its actions
        would take effect in the loop's past. Refuses to jump over a
        scheduled event — that would reorder causality.
        """
        time_ms = float(time_ms)
        if time_ms < self.now_ms - 1e-9:
            raise ClusterError(
                f"cannot advance clock backwards to {time_ms} ms from "
                f"{self.now_ms} ms")
        if self._heap and self._heap[0][0] < time_ms - 1e-9:
            raise ClusterError(
                f"cannot advance clock to {time_ms} ms past the event "
                f"scheduled at {self._heap[0][0]} ms")
        self.now_ms = max(self.now_ms, time_ms)

    def step(self):
        """Pop and dispatch the earliest event; False when the heap is dry."""
        if not self._heap:
            return False
        time_ms, _, event = heapq.heappop(self._heap)
        self.now_ms = max(self.now_ms, time_ms)
        handler = self._handlers.get(type(event))
        if handler is None:
            raise ClusterError(
                f"no handler registered for {type(event).__name__}")
        handler(event)
        self.processed += 1
        return True

    def drain_until(self, until_ms=None, max_events=None):
        """Process every event at instants ``<= until_ms`` in one call.

        ``until_ms=None`` drains the heap completely. Returns the number
        of events processed. This is the chunked driving primitive the
        fleet orchestrator uses: instead of peeking every site per
        event, each site free-runs to the next fleet-level instant —
        the inclusive bound preserves the merged clock's tie rule (site
        events at the fleet event's instant fire first). ``max_events``
        guards runaway self-scheduling: past it the drain raises.
        """
        count = 0
        while self._heap:
            if until_ms is not None and self._heap[0][0] > until_ms:
                break
            self.step()
            count += 1
            if max_events is not None and count > max_events:
                raise ClusterError(
                    f"event loop exceeded {max_events} events; "
                    "likely a scheduling cycle")
        return count
